"""Lagrangian relations between split-form vector spaces.

A relation W -> W' is stored as a Lagrangian subspace of W' (+) W-bar,
with block order (target, source).  Composition, transpose, kernels and
ranges, the reduced isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t),
backward images of Lagrangian subspaces, splitting bivectors and their
coisotropic reduction, and the splitting-relatedness predicate all live
here.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    Matrix,
    QuotientMap,
    Vector,
    add_vec,
    concat_vec,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    product_subspace,
    quotient_coords,
    rank,
    scale_vec,
    solve,
    transpose,
    vec_mat,
    vector,
    zero_vector,
)
from .quadlie import QuadraticLieAlgebra, build_double


class NotLagrangianError(ValueError):
    pass


class TransversalityError(ValueError):
    """Backward image through a relation whose co-kernel meets the subspace."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


class ReductionError(ValueError):
    """Bivector does not descend; carries a witness vector."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SplitSpace:
    """Even-dimensional space whose form has signature (n/2, n/2)."""

    dim: int
    form: BilinearForm

    def __post_init__(self):
        if self.form.dim != self.dim:
            raise DimensionMismatchError("form does not match dimension")
        if self.dim % 2 != 0:
            raise ValueError("split spaces are even-dimensional")
        pos, neg, zer = self.form.signature()
        if zer or pos != neg:
            raise ValueError(f"form signature {(pos, neg, zer)} is not split")

    def opposite(self) -> "SplitSpace":
        return SplitSpace(self.dim, self.form.negate())

    def direct_sum(self, other: "SplitSpace") -> "SplitSpace":
        return SplitSpace(self.dim + other.dim, self.form.direct_sum(other.form))

    def is_lagrangian(self, s: ExactSubspace) -> bool:
        return self.form.is_lagrangian(s)


def hyperbolic_space(k: int) -> SplitSpace:
    """Q^2k with <e_i, f^j> = delta, basis order (e_1..e_k, f^1..f^k)."""
    rows = []
    for i in range(2 * k):
        row = [Fraction(0)] * 2 * k
        row[(i + k) % (2 * k)] = Fraction(1)
        rows.append(tuple(row))
    return SplitSpace(2 * k, BilinearForm(tuple(rows)))


def from_algebra(alg: QuadraticLieAlgebra) -> SplitSpace:
    return SplitSpace(alg.dim, alg.form)


def graph_form(target: SplitSpace, source: SplitSpace) -> BilinearForm:
    """Form on W' (+) W-bar."""
    return target.form.direct_sum(source.form.negate())


@dataclass(frozen=True)
class LinearRelation:
    """A Lagrangian subspace of target (+) source-bar, acting W -> W'."""

    source: SplitSpace
    target: SplitSpace
    graph: ExactSubspace

    def __post_init__(self):
        n = self.source.dim + self.target.dim
        if self.graph.ambient_dim != n:
            raise DimensionMismatchError("graph not in target (+) source")
        if 2 * self.graph.dim != n:
            raise NotLagrangianError(
                f"graph has dim {self.graph.dim}, expected {n // 2}"
            )
        gf = graph_form(self.target, self.source)
        if not gf.is_isotropic(self.graph):
            raise NotLagrangianError("graph is not isotropic")

    @classmethod
    def from_rows(cls, source: SplitSpace, target: SplitSpace, rows) -> "LinearRelation":
        sub = ExactSubspace.span(rows, ambient_dim=source.dim + target.dim)
        return cls(source, target, sub)

    @classmethod
    def identity_relation(cls, space: SplitSpace) -> "LinearRelation":
        rows = [concat_vec(r, r) for r in identity(space.dim)]
        return cls.from_rows(space, space, rows)

    @classmethod
    def graph_of_map(cls, source: SplitSpace, target: SplitSpace, A: Matrix) -> "LinearRelation":
        """Relation {(A w, w)}; A must intertwine the forms."""
        rows = [
            concat_vec(mat_vec(A, e), e) for e in identity(source.dim)
        ]
        return cls.from_rows(source, target, rows)

    def _target_part(self, v: Vector) -> Vector:
        return v[: self.target.dim]

    def _source_part(self, v: Vector) -> Vector:
        return v[self.target.dim:]

    def holds(self, w: Iterable, wprime: Iterable) -> bool:
        """True when w ~ w' through the relation."""
        return self.graph.contains(concat_vec(vector(wprime), vector(w)))

    def kernel(self) -> ExactSubspace:
        """{w : w ~ 0}."""
        zero_target = ExactSubspace.zero(self.target.dim)
        full_source = ExactSubspace.full(self.source.dim)
        inter = self.graph.intersect(product_subspace(zero_target, full_source))
        return ExactSubspace.span(
            [self._source_part(r) for r in inter.basis], ambient_dim=self.source.dim
        )

    def range_(self) -> ExactSubspace:
        return ExactSubspace.span(
            [self._target_part(r) for r in self.graph.basis],
            ambient_dim=self.target.dim,
        )

    def transpose(self) -> "LinearRelation":
        rows = [
            concat_vec(self._source_part(r), self._target_part(r))
            for r in self.graph.basis
        ]
        return LinearRelation.from_rows(self.target, self.source, rows)

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """self after other: (self o other): other.source -> self.target."""
        if self.source != other.target:
            raise DimensionMismatchError("composition spaces do not match")
        nt, nm, ns = self.target.dim, self.source.dim, other.source.dim
        srows = [
            concat_vec(r, zero_vector(nm + ns)) for r in self.graph.basis
        ]
        orows = [
            concat_vec(zero_vector(nt + nm), r) for r in other.graph.basis
        ]
        table = matrix(srows + orows)
        # kernel of the middle-matching constraint in coefficient space
        mid = tuple(
            tuple(row[nt + i] - row[nt + nm + i] for row in table)
            for i in range(nm)
        )
        coeffs = nullspace(mid, len(table))
        rows = []
        for c in coeffs.basis:
            v = vec_mat(c, table)
            rows.append(concat_vec(v[:nt], v[nt + 2 * nm:]))
        sub = ExactSubspace.span(rows, ambient_dim=nt + ns)
        return LinearRelation(other.source, self.target, sub)

    def __mul__(self, other: "LinearRelation") -> "LinearRelation":
        return self.compose(other)

    def to_json(self) -> dict:
        return {
            "source_dim": self.source.dim,
            "target_dim": self.target.dim,
            "graph_basis": [[str(x) for x in row] for row in self.graph.basis],
        }


def kernel(r: LinearRelation) -> ExactSubspace:
    return r.kernel()


def relation_range(r: LinearRelation) -> ExactSubspace:
    return r.range_()


def compose(s: LinearRelation, r: LinearRelation) -> LinearRelation:
    return s.compose(r)


@dataclass(frozen=True)
class ReducedIso:
    """The induced isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t)."""

    source_quotient: QuotientMap
    target_quotient: QuotientMap
    matrix: Matrix  # columns are images of the source complement basis

    @property
    def dim(self) -> int:
        return len(self.source_quotient.complement)

    def apply_coords(self, c: Vector) -> Vector:
        return mat_vec(self.matrix, c)

    def map_subspace(self, s_red: ExactSubspace) -> ExactSubspace:
        rows = [self.apply_coords(r) for r in s_red.basis]
        return ExactSubspace.span(rows, ambient_dim=self.dim)


def reduced_iso(r: LinearRelation) -> ReducedIso:
    """Build the quotient isomorphism; w ~ w' implies it maps [w] to [w']."""
    w1 = r.transpose().range_()
    w0 = r.kernel()
    w1p = r.range_()
    w0p = r.transpose().kernel()
    qs = quotient_coords(w1, w0)
    qt = quotient_coords(w1p, w0p)
    cols = []
    for c in qs.complement:
        img = _any_image(r, c)
        cols.append(qt.coords(img))
    mat = transpose(matrix(cols)) if cols else ()
    iso = ReducedIso(qs, qt, mat)
    if cols and rank(mat) != len(cols):
        raise NotLagrangianError("reduced map failed to be invertible")
    return iso


def _any_image(r: LinearRelation, w: Vector) -> Vector:
    """Some w' with w ~ w' (requires w in ran(R^t))."""
    nt = r.target.dim
    g = r.graph.basis
    sys_rows = tuple(
        tuple(g[k][nt + i] for k in range(len(g))) for i in range(r.source.dim)
    )
    coef = solve(sys_rows, w)
    if coef is None:
        raise DimensionMismatchError("vector is not in ran(R^t)")
    v = vec_mat(coef, g)
    return v[:nt]


def backward_image_subspace(eprime: ExactSubspace, r: LinearRelation) -> ExactSubspace:
    """The set {w : exists w' in E' with w ~ w'}; Lagrangian whenever E' is.

    No transversality is required here, but without it the comparison
    map to E' is not unique (use backward_image for that).
    """
    if not r.target.is_lagrangian(eprime):
        raise NotLagrangianError("backward image needs a Lagrangian subspace")
    inter = r.graph.intersect(
        product_subspace(eprime, ExactSubspace.full(r.source.dim))
    )
    nt = r.target.dim
    return ExactSubspace.span(
        [row[nt:] for row in inter.basis], ambient_dim=r.source.dim
    )


def backward_image(eprime: ExactSubspace, r: LinearRelation) -> tuple[ExactSubspace, Matrix]:
    """Backward image E = E' o R and the comparison map alpha: E -> E'.

    alpha is returned as a matrix over E's stored basis: row i is the
    unique x' in E' with (basis row i) ~ x'.  Raises TransversalityError
    with a witness when E' meets ker(R^t) nontrivially (alpha would not
    be unique there).
    """
    bad = eprime.intersect(r.transpose().kernel())
    if bad.dim:
        raise TransversalityError(
            "subspace meets the relation's co-kernel", bad.basis[0]
        )
    inter = r.graph.intersect(
        product_subspace(eprime, ExactSubspace.full(r.source.dim))
    )
    nt = r.target.dim
    e = backward_image_subspace(eprime, r)
    alpha_rows = []
    for x in e.basis:
        coef = solve(
            tuple(
                tuple(inter.basis[k][nt + i] for k in range(len(inter.basis)))
                for i in range(r.source.dim)
            ),
            x,
        )
        img = vec_mat(coef, inter.basis)[:nt]
        alpha_rows.append(img)
    return e, matrix(alpha_rows) if alpha_rows else ()


def forward_image(e: ExactSubspace, r: LinearRelation) -> tuple[ExactSubspace, Matrix]:
    """Forward image R o E, via the backward image through the transpose."""
    return backward_image(e, r.transpose())


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric coefficient matrix P: pi = sum_{u<v} P[u][v] d_u ^ d_v."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        m = matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m != tuple(tuple(-x for x in row) for row in transpose(m)):
            raise ValueError("bivector matrix must be antisymmetric")

    def contract(self, w: Iterable, form: BilinearForm) -> Vector:
        """iota(w) Pi, the derivation pairing against the split form."""
        bw = form.apply(w)
        return scale_vec(-1, mat_vec(self.matrix, bw))

    def rank(self) -> int:
        return rank(self.matrix)

    def sharp_range(self) -> ExactSubspace:
        return ExactSubspace.span(
            [row for row in transpose(self.matrix)], ambient_dim=self.dim
        )


def dual_basis(form: BilinearForm, e: ExactSubspace, f: ExactSubspace) -> Matrix:
    """Basis f^i of F with <e_i, f^j> = delta over E's stored basis."""
    gram = tuple(
        tuple(form.pairing(er, fr) for fr in f.basis) for er in e.basis
    )
    try:
        ginv = inverse(gram)
    except Exception as exc:
        raise NotLagrangianError("pairing between E and F is degenerate") from exc
    rows = []
    for j in range(len(e.basis)):
        col = tuple(ginv[k][j] for k in range(len(f.basis)))
        rows.append(vec_mat(col, f.basis))
    return matrix(rows)


def splitting_bivector(space: SplitSpace, e: ExactSubspace, f: ExactSubspace) -> Bivector:
    """Pi = (1/2) sum e_i ^ f^i for dual bases of a Lagrangian splitting."""
    _check_splitting(space, e, f)
    duals = dual_basis(space.form, e, f)
    # sum e_i^T f^i - f^i^T e_i as one product of stacked bases
    lhs = transpose(e.basis + duals)
    rhs = duals + tuple(scale_vec(-1, ei) for ei in e.basis)
    p = mat_mul(lhs, rhs)
    return Bivector(space.dim, tuple(tuple(x / 2 for x in row) for row in p))


def _check_splitting(space: SplitSpace, e: ExactSubspace, f: ExactSubspace) -> None:
    if not (space.is_lagrangian(e) and space.is_lagrangian(f)):
        raise NotLagrangianError("splitting requires two Lagrangian subspaces")
    if e.intersect(f).dim != 0:
        raise NotLagrangianError("splitting subspaces are not transverse")


@dataclass(frozen=True)
class ReducedBivector:
    quotient: QuotientMap
    space: SplitSpace
    e_red: ExactSubspace
    f_red: ExactSubspace
    bivector: Bivector


def reduce_bivector(
    space: SplitSpace,
    pi: Bivector,
    w1: ExactSubspace,
    e: ExactSubspace,
    f: ExactSubspace,
) -> ReducedBivector:
    """Descend a splitting bivector along a coisotropic W1.

    Succeeds exactly when W0 = (E cap W0) (+) (F cap W0) for W0 = W1-perp;
    on failure raises ReductionError carrying a witness w in W0 whose
    E-projection leaves W0.
    """
    if not space.form.is_coisotropic(w1):
        raise ValueError("W1 must be coisotropic")
    w0 = space.form.orth_complement(w1)
    e0 = e.intersect(w0)
    f0 = f.intersect(w0)
    if e0.sum(f0) != w0:
        duals = dual_basis(space.form, e, f)
        witness = None
        for w in w0.basis:
            pr_e = _project_onto(e, duals, space.form, w)
            if not w0.contains(pr_e):
                witness = w
                break
        raise ReductionError("W0 is not split by the decomposition", witness or w0.basis[0])
    q = quotient_coords(w1, w0)
    red_form = BilinearForm(
        tuple(
            tuple(space.form.pairing(a, b) for b in q.complement)
            for a in q.complement
        )
    )
    red_space = SplitSpace(q.dim, red_form)
    e_red = q.map_subspace(e)
    f_red = q.map_subspace(f)
    if e_red.intersect(f_red).dim != 0:
        raise ReductionError("reduced subspaces are not transverse", w0.basis[0])
    red_pi_cols = []
    for c in q.complement:
        img = pi.contract(c, space.form)
        red_pi_cols.append(q.coords(img))
    # iota(w_red) Pi_red = (iota(w) Pi)_red and iota(w) Pi = -P B w
    bred = mat_mul(
        tuple(tuple(-x for x in row) for row in transpose(matrix(red_pi_cols))),
        inverse(red_form.matrix),
    )
    reduced = Bivector(q.dim, bred)
    expected = splitting_bivector(red_space, e_red, f_red)
    if reduced.matrix != expected.matrix:
        raise ReductionError("descended bivector disagrees with reduced splitting", w0.basis[0] if w0.basis else zero_vector(space.dim))
    return ReducedBivector(q, red_space, e_red, f_red, reduced)


def _project_onto(
    e: ExactSubspace, duals: Matrix, form: BilinearForm, w: Vector
) -> Vector:
    """pr_E(w) = sum <w, f^i> e_i for the dual basis of the complement."""
    out = zero_vector(e.ambient_dim)
    for ei, fi in zip(e.basis, duals):
        out = add_vec(out, scale_vec(form.pairing(w, fi), ei))
    return out


@dataclass(frozen=True)
class RelatednessReport:
    e_related: bool
    f_related: bool
    kernel_splits: bool
    range_splits: bool

    @property
    def related(self) -> bool:
        return (
            self.e_related
            and self.f_related
            and self.kernel_splits
            and self.range_splits
        )

    @property
    def reasons(self) -> tuple[str, ...]:
        out = []
        if not self.e_related:
            out.append("e_not_related")
        if not self.f_related:
            out.append("f_not_related")
        if not self.kernel_splits:
            out.append("kernel_not_split")
        if not self.range_splits:
            out.append("range_not_split")
        return tuple(out)


def _iso_carries(iso: ReducedIso, e: ExactSubspace, eprime: ExactSubspace) -> bool:
    e_red = iso.source_quotient.map_subspace(e)
    ep_red = iso.target_quotient.map_subspace(eprime)
    return iso.map_subspace(e_red) == ep_red


def related_lagrangian(
    e: ExactSubspace, eprime: ExactSubspace, r: LinearRelation
) -> bool:
    """True when the reduced isomorphism carries E_red onto E'_red."""
    return _iso_carries(reduced_iso(r), e, eprime)


def related_splitting(
    splitting: tuple[ExactSubspace, ExactSubspace],
    splitting_prime: tuple[ExactSubspace, ExactSubspace],
    r: LinearRelation,
) -> RelatednessReport:
    e, f = splitting
    ep, fp = splitting_prime
    _check_splitting(r.source, e, f)
    _check_splitting(r.target, ep, fp)
    ker = r.kernel()
    ran = r.range_()
    kernel_splits = ker.intersect(e).sum(ker.intersect(f)) == ker
    range_splits = ran.intersect(ep).sum(ran.intersect(fp)) == ran
    iso = reduced_iso(r)
    return RelatednessReport(
        e_related=_iso_carries(iso, e, ep),
        f_related=_iso_carries(iso, f, fp),
        kernel_splits=kernel_splits,
        range_splits=range_splits,
    )


def pair_groupoid_relation(d: QuadraticLieAlgebra) -> LinearRelation:
    """Multiplication relation of d (+) d-bar viewed as a pair groupoid.

    Elements compose by (a, b) o (b, c) = (a, c); the relation maps the
    direct-sum space (d (+) d-bar)^2 to d (+) d-bar.
    """
    n = d.dim
    dd = build_double(d)
    space_d = from_algebra(dd)
    source = space_d.direct_sum(space_d)
    rows = []
    zero = zero_vector(n)
    for basis_vec in identity(n):
        b = tuple(basis_vec)
        # parameter a: z = (a, 0), z' = (a, 0), z'' = 0
        rows.append(concat_vec(b, zero, b, zero, zero, zero))
        # parameter b: z = 0, z' = (0, b), z'' = (b, 0)
        rows.append(concat_vec(zero, zero, zero, b, b, zero))
        # parameter c: z = (0, c), z' = 0, z'' = (0, c)
        rows.append(concat_vec(zero, b, zero, zero, zero, b))
    return LinearRelation.from_rows(source, space_d, rows)
