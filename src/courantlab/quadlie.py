"""Quadratic Lie algebras: structure constants, an invariant inner
product, the brackets of integer rows, the subalgebra predicate, the
Courant values <u, [v, w]> of integer rows, Manin triples, and the
double g (+) g-bar.

Structure constants are supplied as sparse quadruples (i, j, k, value)
with i < j, meaning [b_i, b_j] = sum_k value * b_k; the antisymmetric
half is completed automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    frac,
    hstack,
    identity,
    int_matrix,
    int_products,
    matrix,
)


@dataclass(frozen=True)
class QuadraticLieAlgebra:
    """Lie algebra with an invariant symmetric bilinear form.

    ``bracket`` is the sorted tuple of nonzero structure constants
    (i, j, k, c) with i < j, meaning [b_i, b_j] has coordinate c at b_k;
    missing entries are zero.  The one derived table, built at
    construction, is ``_sparse``: [b_i, b_j] for every i, j as the
    sparse row ((k, c), ...) of integer coordinates over ``_den``, the
    (j, i) rows holding the negated values.
    """

    dim: int
    bracket: tuple[tuple[int, int, int, Fraction], ...]
    form: BilinearForm
    basis_names: tuple[str, ...]
    _sparse: tuple[tuple[tuple[tuple[int, int], ...], ...], ...] = field(
        init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        if self.form.dim != n:
            raise DimensionMismatchError("the form must be dim x dim")
        seen = set()
        for i, j, k, _ in self.bracket:
            if not 0 <= i < j < n:
                raise ValueError(f"bracket entry ({i},{j}) must satisfy 0 <= i < j < dim")
            if not 0 <= k < n:
                raise ValueError(f"bracket entry ({i},{j},{k}) must satisfy 0 <= k < dim")
            if (i, j, k) in seen:
                raise ValueError(f"bracket entry ({i},{j},{k}) is given twice")
            seen.add((i, j, k))
        bracket = tuple(sorted(e for e in self.bracket if e[3]))
        (nums,), den = int_matrix((tuple(c for *_, c in bracket),))
        rows = [[[] for _ in range(n)] for _ in range(n)]
        for (i, j, k, _), c in zip(bracket, nums):
            rows[i][j].append((k, c))
            rows[j][i].append((k, -c))
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "_sparse", tuple(tuple(map(tuple, r)) for r in rows))
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_triples(
        cls,
        dim: int,
        triples: Iterable[Sequence],
        form_rows: Iterable[Iterable],
        basis_names: Sequence[str] | None = None,
    ) -> "QuadraticLieAlgebra":
        """Repeated (i, j, k) entries add up; the constructor drops the
        constants that sum to 0.  dim must count the form's rows first."""
        form = matrix(form_rows)
        if len(form) != dim:
            raise DimensionMismatchError("the form must be dim x dim")
        constants: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k, val) in triples:
            constants[i, j, k] = constants.get((i, j, k), 0) + frac(val)
        names = tuple(basis_names) if basis_names else tuple(
            f"b{i}" for i in range(dim)
        )
        if len(names) != dim:
            raise DimensionMismatchError("basis_names length must equal dim")
        return cls(dim, tuple(key + (c,) for key, c in constants.items()),
                   BilinearForm(form), names)

    def pair_brackets(self, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
        """[r_a, r_b] for every pair a < b of integer rows, in pair order, as
        integer rows over the bracket denominator: the sum over stored pairs
        i < j of (x_i y_j - x_j y_i) [b_i, b_j]."""
        if any(len(r) != self.dim for r in rows):
            raise DimensionMismatchError("vectors not in the algebra")
        s = self._sparse
        # bracket is sorted, so the constants of one pair are adjacent
        pairs = [(i, j, s[i][j]) for i, j in dict.fromkeys((i, j) for i, j, _, _ in self.bracket)]
        table = []
        for a, x in enumerate(rows):
            for y in rows[a + 1:]:
                acc = [0] * self.dim
                for i, j, terms in pairs:
                    w = x[i] * y[j] - x[j] * y[i]
                    if w:
                        for k, c in terms:
                            acc[k] += w * c
                table.append(acc)
        return table, self._den

    def opposite(self) -> "QuadraticLieAlgebra":
        """Same bracket, negated bilinear form."""
        return QuadraticLieAlgebra(
            self.dim, self.bracket, self.form.negate(), self.basis_names
        )

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis_names": list(self.basis_names),
            "brackets": [[i, j, k, str(c)] for i, j, k, c in self.bracket],
            "form": [[str(x) for x in row] for row in self.form.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadraticLieAlgebra":
        """ValueError unless dim and the bracket indices are integers (a
        bool is not) and the basis names, when given, are strings."""
        brackets = [(i, j, k, frac(v)) for i, j, k, v in data["brackets"]]
        if any(type(x) is not int for x in (data["dim"], *(x for e in brackets for x in e[:3]))):
            raise ValueError("dim and the bracket indices must be integers")
        names = data.get("basis_names")
        if names is not None and not (isinstance(names, list) and all(type(x) is str for x in names)):
            raise ValueError("basis_names must be a list of strings")
        return cls.from_triples(
            data["dim"], brackets, [[frac(x) for x in row] for row in data["form"]], names)


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


def _combine(acc: dict, terms, rows) -> dict:
    """acc += sum of c * rows[l] over the sparse terms ((l, c), ...),
    where each rows[l] is itself a sparse row."""
    for l, c in terms:
        for m, d in rows[l]:
            acc[m] = acc.get(m, 0) + c * d
    return acc


def validate_algebra(alg: QuadraticLieAlgebra) -> ValidationReport:
    """Check Jacobi, ad-invariance of the form, and nondegeneracy.

    Both identities are read off the sparse integer bracket table, so
    their cost follows the nonzero structure constants; every zero test
    is homogeneous in the common denominators.  Violations are report
    entries, not exceptions.
    """
    records: list[ValidationRecord] = []
    n = alg.dim
    names = alg.basis_names
    s = alg._sparse
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [b_k, [b_i, b_j]] + [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]]
                jac = _combine({}, s[i][j], s[k])
                _combine(jac, s[j][k], s[i])
                _combine(jac, s[k][i], s[j])
                if any(jac.values()):
                    records.append(ValidationRecord(
                        "jacobi", (names[i], names[j], names[k]),
                        "[[x,y],z] cyclic sum is nonzero",
                    ))
    # the form's integer Gram rows N as sparse rows; <[b_i, b_j], b_k> is
    # M_i[j][k] with M_i[j] = sum of c * N[l] over [b_i, b_j] = sum c b_l,
    # and <b_j, [b_i, b_k]> is M_i[k][j] since N is symmetric
    gram = [tuple((k, x) for k, x in enumerate(row) if x) for row in alg.form._ints[0]]
    for i in range(n):
        m = [_combine({}, s[i][j], gram) for j in range(n)]
        for j in range(n):
            for k in range(n):
                if m[j].get(k, 0) + m[k].get(j, 0):
                    records.append(ValidationRecord(
                        "invariance", (names[i], names[j], names[k]),
                        "<[x,y],z> + <y,[x,z]> is nonzero",
                    ))
    if not alg.form.is_nondegenerate():
        records.append(ValidationRecord("degenerate_form", (), "det = 0"))
    return ValidationReport(tuple(records))


def is_subalgebra(alg: QuadraticLieAlgebra, s: ExactSubspace) -> bool:
    """Whether [s, s] lies in s: the brackets of all pairs of rows,
    decided by one containment."""
    brackets, _ = alg.pair_brackets(s.rows)
    return s.contains_subspace(ExactSubspace.of_rows(alg.dim, brackets))


def courant_values(alg: QuadraticLieAlgebra, rows: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The nonzero <u_i, [u_j, u_k]> for i < j < k over integer rows u,
    in index order, as ((i, j, k), value) over one denominator: one
    product of the rows under the form with their pair brackets.  On a
    Lagrangian subspace they vanish exactly when it is a subalgebra."""
    brackets, den = alg.pair_brackets(rows)
    table = int_products(alg.form._applied(rows), brackets)
    pairs = {jk: p for p, jk in enumerate(combinations(range(len(rows)), 2))}
    values = [((i, j, k), table[i][pairs[j, k]]) for i, j, k in combinations(range(len(rows)), 3)]
    return [(ijk, v) for ijk, v in values if v], den * alg.form._ints[1]


def build_double(g: QuadraticLieAlgebra) -> QuadraticLieAlgebra:
    """The double g (+) g-bar: componentwise bracket, form B (+) (-B)."""
    n = g.dim
    triples = [(i + s, j + s, k + s, c) for s in (0, n) for i, j, k, c in g.bracket]
    names = tuple(f"{nm}+" for nm in g.basis_names) + tuple(
        f"{nm}-" for nm in g.basis_names
    )
    return QuadraticLieAlgebra(2 * n, tuple(triples), g.form.direct_sum(g.form.negate()), names)


def diagonal_subspace(g: QuadraticLieAlgebra, sign: int = 1) -> ExactSubspace:
    """The (anti-)diagonal {(x, sign*x)} inside the double's coordinates."""
    one = identity(g.dim)
    return ExactSubspace.span(hstack(one, [[sign * x for x in row] for row in one]), ambient_dim=2 * g.dim)


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
        if not t.d.form.is_lagrangian(sub):
            records.append(ValidationRecord("lagrangian", (label,), "S-perp != S"))
        if not is_subalgebra(t.d, sub):
            records.append(ValidationRecord("subalgebra", (label,), "[S,S] not in S"))
    if t.g1.ambient_dim == t.g2.ambient_dim == t.d.dim:
        # dim(g1 cap g2) = dim g1 + dim g2 - dim(g1 + g2)
        spanned = t.g1.sum(t.g2).dim
        if t.g1.dim + t.g2.dim != spanned:
            records.append(ValidationRecord("transverse", ("g1", "g2"), "g1 cap g2 != 0"))
        if spanned != t.d.dim:
            records.append(ValidationRecord("spanning", ("g1", "g2"), "g1 + g2 != d"))
    return ValidationReport(tuple(records))
