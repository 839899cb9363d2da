"""Quadratic Lie algebras: structure constants, an invariant inner
product, isotropy/subalgebra predicates, integrability tensors of
Lagrangian subspaces, Manin triples, and the double g (+) g-bar.

Structure constants are supplied as sparse quadruples (i, j, k, value)
with i < j, meaning [b_i, b_j] = sum_k value * b_k; the antisymmetric
half is completed automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    Matrix,
    Vector,
    _ZERO,
    _over_lcm,
    add_vec,
    frac,
    identity,
    matrix,
    scale_vec,
    vector,
    zero_vector,
)


class NotLagrangianError(ValueError):
    """Raised when an operation needs a Lagrangian subspace."""


@dataclass(frozen=True)
class QuadraticLieAlgebra:
    """Lie algebra with an invariant symmetric bilinear form.

    ``bracket`` maps (i, j) with i < j to the coordinate vector of
    [b_i, b_j]; missing pairs bracket to zero.  The dense antisymmetric
    table of all [b_i, b_j], and its columns as integers over a common
    denominator, are built once at construction.
    """

    dim: int
    bracket: tuple[tuple[int, int, Vector], ...]
    form: BilinearForm
    basis_names: tuple[str, ...]
    _table: tuple[tuple[Vector, ...], ...] = field(init=False, repr=False, compare=False)
    _columns: tuple[tuple[list[int], int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        if self.form.dim != n:
            raise DimensionMismatchError("the form must be dim x dim")
        zero = zero_vector(n)
        table = [[zero] * n for _ in range(n)]
        for i, j, v in self.bracket:
            table[i][j] = v
            table[j][i] = tuple(-x for x in v)
        # column k holds the k-th coordinate of [b_i, b_j] for each stored pair
        columns = tuple(_over_lcm([v[k] for _, _, v in self.bracket]) for k in range(n))
        object.__setattr__(self, "_table", tuple(map(tuple, table)))
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def from_triples(
        cls,
        dim: int,
        triples: Iterable[Sequence],
        form_rows: Iterable[Iterable],
        basis_names: Sequence[str] | None = None,
    ) -> "QuadraticLieAlgebra":
        table: dict[tuple[int, int], list[Fraction]] = {}
        for (i, j, k, val) in triples:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(
                    f"bracket entry ({i},{j},{k}) must satisfy 0 <= i < j < dim"
                )
            row = table.setdefault((i, j), [Fraction(0)] * dim)
            row[k] += frac(val)
        packed = tuple(
            (i, j, tuple(row)) for (i, j), row in sorted(table.items())
        )
        names = tuple(basis_names) if basis_names else tuple(
            f"b{i}" for i in range(dim)
        )
        if len(names) != dim:
            raise ValueError("basis_names length must equal dim")
        return cls(dim, packed, BilinearForm(matrix(form_rows)), names)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self._table[i][j]

    def bracket_vec(self, x: Iterable, y: Iterable) -> Vector:
        """[x, y] = sum over stored pairs i < j of (x_i y_j - x_j y_i) [b_i, b_j]."""
        x, y = vector(x), vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatchError("vectors not in the algebra")
        xn, xd = _over_lcm(x)
        yn, yd = _over_lcm(y)
        wedge = [xn[i] * yn[j] - xn[j] * yn[i] for i, j, _ in self.bracket]
        out = []
        for cn, cd in self._columns:
            total = sum(map(mul, wedge, cn))
            out.append(Fraction(total, xd * yd * cd) if total else _ZERO)
        return tuple(out)

    def pairing(self, x: Iterable, y: Iterable) -> Fraction:
        return self.form.pairing(x, y)

    def full_space(self) -> ExactSubspace:
        return ExactSubspace.full(self.dim)

    def opposite(self) -> "QuadraticLieAlgebra":
        """Same bracket, negated bilinear form."""
        return QuadraticLieAlgebra(
            self.dim, self.bracket, self.form.negate(), self.basis_names
        )

    def to_json(self) -> dict:
        brackets = []
        for (i, j, row) in self.bracket:
            for k, val in enumerate(row):
                if val != 0:
                    brackets.append([i, j, k, str(val)])
        return {
            "dim": self.dim,
            "basis_names": list(self.basis_names),
            "brackets": brackets,
            "form": [[str(x) for x in row] for row in self.form.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadraticLieAlgebra":
        return cls.from_triples(
            data["dim"],
            [(int(i), int(j), int(k), frac(v)) for i, j, k, v in data["brackets"]],
            [[frac(x) for x in row] for row in data["form"]],
            data.get("basis_names"),
        )


@dataclass(frozen=True)
class ValidationRecord:
    kind: str
    where: tuple
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    records: tuple[ValidationRecord, ...]

    @property
    def passed(self) -> bool:
        return not self.records

    def describe(self) -> str:
        if self.passed:
            return "ok"
        return "; ".join(f"{r.kind} at {r.where}: {r.detail}" for r in self.records)


def validate_algebra(alg: QuadraticLieAlgebra) -> ValidationReport:
    """Check Jacobi, ad-invariance of the form, and nondegeneracy.

    Violations are report entries, not exceptions.
    """
    records: list[ValidationRecord] = []
    n = alg.dim
    basis = identity(n)
    names = alg.basis_names
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = alg.bracket_vec(alg.bracket_basis(i, j), basis[k])
                jac = add_vec(jac, alg.bracket_vec(alg.bracket_basis(j, k), basis[i]))
                jac = add_vec(jac, alg.bracket_vec(alg.bracket_basis(k, i), basis[j]))
                if any(x != 0 for x in jac):
                    records.append(ValidationRecord(
                        "jacobi", (names[i], names[j], names[k]),
                        "[[x,y],z] cyclic sum is nonzero",
                    ))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.pairing(alg.bracket_basis(i, j), basis[k])
                rhs = alg.pairing(basis[j], alg.bracket_basis(i, k))
                if lhs + rhs != 0:
                    records.append(ValidationRecord(
                        "invariance", (names[i], names[j], names[k]),
                        "<[x,y],z> + <y,[x,z]> is nonzero",
                    ))
    if not alg.form.is_nondegenerate():
        records.append(ValidationRecord("degenerate_form", (), "det = 0"))
    return ValidationReport(tuple(records))


def is_lagrangian(alg: QuadraticLieAlgebra, s: ExactSubspace) -> bool:
    return alg.form.is_lagrangian(s)


def is_coisotropic(alg: QuadraticLieAlgebra, s: ExactSubspace) -> bool:
    return alg.form.is_coisotropic(s)


def is_subalgebra(alg: QuadraticLieAlgebra, s: ExactSubspace) -> bool:
    rows = s.basis
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            if not s.contains(alg.bracket_vec(rows[a], rows[b])):
                return False
    return True


def courant_form(alg: QuadraticLieAlgebra, u1, u2, u3) -> Fraction:
    """The trilinear obstruction <u1, [u2, u3]>."""
    return alg.pairing(u1, alg.bracket_vec(u2, u3))


@dataclass(frozen=True)
class CourantTensor3:
    """Alternating trilinear table on a chosen basis of a subspace.

    Values are stored for index triples i < j < k only.
    """

    subspace: ExactSubspace
    basis: Matrix
    values: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def value(self, i: int, j: int, k: int) -> Fraction:
        if len({i, j, k}) < 3:
            return Fraction(0)
        order = sorted([i, j, k])
        sign = _perm_sign((i, j, k))
        table = dict(self.values)
        return sign * table.get(tuple(order), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.values)


def _perm_sign(p: tuple[int, int, int]) -> Fraction:
    i, j, k = p
    sign = 1
    if i > j:
        i, j = j, i
        sign = -sign
    if j > k:
        j, k = k, j
        sign = -sign
    if i > j:
        i, j = j, i
        sign = -sign
    return Fraction(sign)


def _tabulate(alg: QuadraticLieAlgebra, sub: ExactSubspace, basis: Matrix) -> CourantTensor3:
    vals = []
    r = len(basis)
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                v = courant_form(alg, basis[i], basis[j], basis[k])
                if v != 0:
                    vals.append(((i, j, k), v))
    return CourantTensor3(sub, basis, tuple(vals))


def courant_tensor(alg: QuadraticLieAlgebra, lag: ExactSubspace) -> CourantTensor3:
    """Integrability tensor of a Lagrangian subspace on its stored basis.

    Identically zero exactly when the subspace is a subalgebra.
    """
    if not is_lagrangian(alg, lag):
        raise NotLagrangianError("courant_tensor needs a Lagrangian subspace")
    return _tabulate(alg, lag, lag.basis)


def courant_tensor_on_basis(
    alg: QuadraticLieAlgebra, sub: ExactSubspace, basis: Matrix
) -> CourantTensor3:
    """Tabulate the tensor of a Lagrangian subspace on a caller-chosen basis."""
    if not is_lagrangian(alg, sub):
        raise NotLagrangianError("courant_tensor needs a Lagrangian subspace")
    return _tabulate(alg, sub, matrix(basis))


def cartan_trivector(alg: QuadraticLieAlgebra) -> CourantTensor3:
    """Structure tensor (1/4) <x, [y, z]> on the full basis; zero iff abelian."""
    n = alg.dim
    basis = identity(n)
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                v = courant_form(alg, basis[i], basis[j], basis[k]) / 4
                if v != 0:
                    vals.append(((i, j, k), v))
    return CourantTensor3(alg.full_space(), basis, tuple(vals))


def build_double(g: QuadraticLieAlgebra) -> QuadraticLieAlgebra:
    """The double g (+) g-bar: componentwise bracket, form B (+) (-B)."""
    n = g.dim
    triples = []
    for (i, j, row) in g.bracket:
        for k, val in enumerate(row):
            if val != 0:
                triples.append((i, j, k, val))
                triples.append((i + n, j + n, k + n, val))
    names = tuple(f"{nm}+" for nm in g.basis_names) + tuple(
        f"{nm}-" for nm in g.basis_names
    )
    form = g.form.direct_sum(g.form.negate())
    return QuadraticLieAlgebra.from_triples(2 * n, triples, form.matrix, names)


def diagonal_subspace(g: QuadraticLieAlgebra, sign: int = 1) -> ExactSubspace:
    """The (anti-)diagonal {(x, sign*x)} inside the double's coordinates."""
    n = g.dim
    rows = []
    for row in identity(n):
        rows.append(tuple(row) + tuple(scale_vec(sign, row)))
    return ExactSubspace.span(rows, ambient_dim=2 * n)


@dataclass(frozen=True)
class ManinTriple:
    d: QuadraticLieAlgebra
    g1: ExactSubspace
    g2: ExactSubspace


def validate_manin_triple(t: ManinTriple) -> ValidationReport:
    records: list[ValidationRecord] = []
    for label, sub in (("g1", t.g1), ("g2", t.g2)):
        if sub.ambient_dim != t.d.dim:
            records.append(ValidationRecord("ambient", (label,), "wrong ambient dim"))
            continue
        if not is_lagrangian(t.d, sub):
            records.append(ValidationRecord("lagrangian", (label,), "S-perp != S"))
        if not is_subalgebra(t.d, sub):
            records.append(ValidationRecord("subalgebra", (label,), "[S,S] not in S"))
    if t.g1.ambient_dim == t.g2.ambient_dim == t.d.dim:
        if t.g1.intersect(t.g2).dim != 0:
            records.append(ValidationRecord("transverse", ("g1", "g2"), "g1 cap g2 != 0"))
        if t.g1.sum(t.g2).dim != t.d.dim:
            records.append(ValidationRecord("spanning", ("g1", "g2"), "g1 + g2 != d"))
    return ValidationReport(tuple(records))
