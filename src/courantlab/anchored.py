"""Pointwise calculus for a trivial algebroid over one chart point.

An AnchoredPoint is a quadratic Lie algebra together with the action
matrix a_m mapping the algebra onto chart directions at a single point.
Anchors are exact, so the predicates are decided (coisotropic
stabilizer, rank formula, leaf condition, backward image through the
diagonal relation); the numeric layer keeps its own float anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .exactlin import (
    BilinearForm,
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
    quotient_coords,
    scale_vec,
    transpose,
    vector,
    zero_vector,
)
from .lagrel import (
    Bivector,
    LinearRelation,
    SplitSpace,
    Splitting,
    backward_image,
    from_algebra,
    graph_form,
    hyperbolic_space,
    product_subspace,
)
from .quadlie import QuadraticLieAlgebra


class CourantStructureError(ValueError):
    """The stabilizer is not coisotropic, so no bracket/relation exists."""


@dataclass(frozen=True)
class AnchoredPoint:
    """Action matrix of a quadratic Lie algebra at one chart point.

    The anchor is stored as an exact matrix; a float entry raises
    TypeError at construction.  The exact data of the point (its
    stabilizer, the coisotropy verdict and the metric-dual anchor) is
    computed on first use and kept.
    """

    algebra: QuadraticLieAlgebra
    anchor: tuple
    chart_dim: int

    def __post_init__(self):
        rows = matrix(self.anchor)
        object.__setattr__(self, "anchor", rows)
        if len(rows) != self.chart_dim or any(
            len(r) != self.algebra.dim for r in rows
        ):
            raise ValueError("anchor must be chart_dim x algebra dim")

    def exact_anchor(self) -> Matrix:
        return self.anchor

    def apply(self, x: Iterable) -> Vector:
        return mat_vec(self.exact_anchor(), vector(x))

    @cached_property
    def stabilizer(self) -> ExactSubspace:
        """ker(a_m) as a subspace of the algebra."""
        return nullspace(self.exact_anchor(), self.algebra.dim)

    @cached_property
    def coisotropy(self) -> tuple[bool, Vector | None]:
        """(True, None) iff ker(a)-perp is inside ker(a); otherwise
        (False, w) with w in ker(a)-perp outside ker(a)."""
        ker = self.stabilizer
        perp = self.algebra.form.orth_complement(ker)
        for row in perp.basis:
            if not ker.contains(row):
                return False, row
        return True, None

    @cached_property
    def dual(self) -> Matrix:
        """a* = B^-1 a^T, the metric-dual map from chart covectors."""
        return mat_mul(self.algebra.form.inverse_matrix, transpose(self.exact_anchor()))

    @cached_property
    def dual_range(self) -> ExactSubspace:
        """ran(a*) as a subspace of the algebra."""
        return ExactSubspace.span(transpose(self.dual), ambient_dim=self.algebra.dim)


def require_coisotropic(pt: AnchoredPoint) -> None:
    ok, witness = pt.coisotropy
    if not ok:
        raise CourantStructureError(
            f"stabilizer is not coisotropic; witness {witness}"
        )


def anchor_image(pt: AnchoredPoint, s: ExactSubspace) -> ExactSubspace:
    a = pt.exact_anchor()
    return ExactSubspace.span(
        [mat_vec(a, row) for row in s.basis], ambient_dim=pt.chart_dim
    )


def bivector_at(pt: AnchoredPoint, s: Splitting) -> Bivector:
    """Chart bivector (1/2) sum a(e_i) ^ a(f^i) of a Lagrangian splitting."""
    a = pt.exact_anchor()
    return Bivector(pt.chart_dim, mat_mul(mat_mul(a, s.bivector.matrix), transpose(a)))


def drinfeld_lagrangian(pt: AnchoredPoint, f: ExactSubspace) -> ExactSubspace:
    """L_m = ran(a*) + (ker(a) cap F); Lagrangian at valid points."""
    return pt.dual_range.sum(pt.stabilizer.intersect(f))


def rank_formula(pt: AnchoredPoint, s: Splitting, *, pi: Bivector | None = None,
                 lm: ExactSubspace | None = None) -> int:
    """dim a(F) - dim(L_m cap E); cross-checked against the matrix rank.

    A caller that already holds bivector_at(pt, s) or L_m passes it as
    ``pi`` or ``lm``, so that neither is built twice.
    """
    require_coisotropic(pt)
    if lm is None:
        lm = drinfeld_lagrangian(pt, s.f)
    if not pt.algebra.form.is_lagrangian(lm):
        raise CourantStructureError("L_m failed to be Lagrangian")
    value = anchor_image(pt, s.f).dim - lm.intersect(s.e).dim
    actual = (pi if pi is not None else bivector_at(pt, s)).rank()
    if value != actual:
        raise CourantStructureError(
            f"rank formula {value} disagrees with matrix rank {actual}"
        )
    return value


def leaf_condition(pt: AnchoredPoint, s: Splitting, *, pi: Bivector | None = None) -> bool:
    """ker(a) = ran(a*) + (ker cap E) + (ker cap F)?

    When it holds, the sharp range of the bivector is certified to equal
    a(E) cap a(F); the inclusion is strict otherwise.  ``pi`` is as in
    rank_formula.
    """
    require_coisotropic(pt)
    ker = pt.stabilizer
    rhs = pt.dual_range.sum(ker.intersect(s.e)).sum(ker.intersect(s.f))
    holds = rhs == ker
    sharp = (pi if pi is not None else bivector_at(pt, s)).sharp_range()
    cap = anchor_image(pt, s.e).intersect(anchor_image(pt, s.f))
    if holds and sharp != cap:
        raise CourantStructureError("leaf condition holds but ranges differ")
    if not holds and not (cap.contains_subspace(sharp) and sharp != cap):
        raise CourantStructureError("expected a strict range inclusion")
    return holds


def diagonal_relation(pt: AnchoredPoint) -> LinearRelation:
    """The relation T(+)T* -> A x A-bar spanned by ((x, x - a* mu), (a x, mu))."""
    require_coisotropic(pt)
    n, m = pt.algebra.dim, pt.chart_dim
    a = pt.exact_anchor()
    astar = pt.dual
    # T (+) T* with the contraction pairing, coordinates (v; mu)
    source = hyperbolic_space(m)
    alg_space = from_algebra(pt.algebra)
    target = SplitSpace(2 * n, graph_form(alg_space, alg_space))
    rows = []
    for x in identity(n):
        rows.append(concat_vec(x, x, mat_vec(a, x), zero_vector(m)))
    for j, mu in enumerate(identity(m)):
        astar_mu = tuple(astar[i][j] for i in range(n))
        rows.append(
            concat_vec(zero_vector(n), scale_vec(-1, astar_mu), zero_vector(m), mu)
        )
    return LinearRelation.from_rows(source, target, rows)


def diagonal_backward(pt: AnchoredPoint, s: Splitting) -> Bivector:
    """Recover the splitting bivector as a backward image of E x F.

    Independent code path from bivector_at: the two must agree exactly.
    """
    rel = diagonal_relation(pt)
    image, _alpha = backward_image(product_subspace(s.e, s.f), rel)
    m = pt.chart_dim
    v_block = tuple(row[:m] for row in image.basis)
    mu_block = tuple(row[m:] for row in image.basis)
    # image = Gr_{-pi} = {(P mu, mu)}; mu-block must be invertible
    p_t = mat_mul(inverse(mu_block), v_block)
    p = transpose(p_t)
    biv = Bivector(m, p)
    direct = bivector_at(pt, s)
    if biv.matrix != direct.matrix:
        raise CourantStructureError("diagonal backward image disagrees with formula")
    return biv


@dataclass(frozen=True)
class SectionJet:
    """Value and first partials of an algebra-valued section at the point."""

    value: Vector
    jacobian: Matrix  # algebra dim x chart dim

    def __post_init__(self):
        object.__setattr__(self, "value", vector(self.value))
        object.__setattr__(self, "jacobian", matrix(self.jacobian))

    @classmethod
    def constant(cls, value: Iterable, chart_dim: int) -> "SectionJet":
        v = vector(value)
        return cls(v, tuple(zero_vector(chart_dim) for _ in v))

    def jac_column(self, u: int) -> Vector:
        return tuple(row[u] for row in self.jacobian)


def courant_bracket_jets(pt: AnchoredPoint, x: SectionJet, y: SectionJet) -> Vector:
    """Bracket value [[x, y]] at the point from first-derivative data.

    [[x, y]] = [x, y]_pointwise + Dy(a x) - Dx(a y) + a* <dx, y>.
    """
    require_coisotropic(pt)
    alg = pt.algebra
    a = pt.exact_anchor()
    out = alg.bracket_vec(x.value, y.value)
    out = add_vec(out, mat_vec(y.jacobian, mat_vec(a, x.value)))
    out = add_vec(out, scale_vec(-1, mat_vec(x.jacobian, mat_vec(a, y.value))))
    pairing_dx_y = tuple(
        alg.pairing(x.jac_column(u), y.value) for u in range(pt.chart_dim)
    )
    out = add_vec(out, mat_vec(pt.dual, pairing_dx_y))
    return out


def courant_bracket_jet_closed(
    pt: AnchoredPoint, x: SectionJet, y: SectionJet
) -> SectionJet:
    """Full jet of [[x, y]] assuming the anchor is constant on the chart.

    Only meaningful when constant fields act (the anchor kills brackets),
    e.g. abelian algebras; lets the Jacobi identity close on linear jets.
    """
    alg = pt.algebra
    a = pt.exact_anchor()
    value = courant_bracket_jets(pt, x, y)
    cols = []
    for u in range(pt.chart_dim):
        col = alg.bracket_vec(x.jac_column(u), y.value)
        col = add_vec(col, alg.bracket_vec(x.value, y.jac_column(u)))
        col = add_vec(col, mat_vec(y.jacobian, mat_vec(a, x.jac_column(u))))
        col = add_vec(
            col, scale_vec(-1, mat_vec(x.jacobian, mat_vec(a, y.jac_column(u))))
        )
        pairing = tuple(
            alg.pairing(x.jac_column(w), y.jac_column(u))
            for w in range(pt.chart_dim)
        )
        col = add_vec(col, mat_vec(pt.dual, pairing))
        cols.append(col)
    jac = transpose(matrix(cols))
    return SectionJet(value, jac)


@dataclass(frozen=True)
class PointPullback:
    """Pointwise pull-back data along a chart map differential."""

    ambient_dim: int
    c: ExactSubspace
    c_perp: ExactSubspace
    quotient: QuotientMap
    reduced_form: BilinearForm
    reduced_anchor: Matrix  # source chart dim x reduced dim


def pullback_point(pt: AnchoredPoint, dphi: Matrix) -> PointPullback:
    """Pull the anchored fiber back along d(Phi): T_s S -> T_m M.

    Requires ran(dPhi) + ran(a) to fill the chart.  The reduced rank is
    asserted to be dim(algebra) - 2 (dim M - dim S).
    """
    dphi = matrix(dphi)
    a = pt.exact_anchor()
    m = pt.chart_dim
    s_dim = len(dphi[0]) if dphi else 0
    if len(dphi) != m:
        raise ValueError("dPhi rows must match the target chart")
    spans = ExactSubspace.span(
        [row for row in transpose(dphi)], ambient_dim=m
    ).sum(
        ExactSubspace.span([row for row in transpose(a)], ambient_dim=m)
    )
    if spans.dim != m:
        raise ValueError("dPhi is not transverse to the anchor")
    n = pt.algebra.dim
    ambient = n + 2 * s_dim
    ambient_form = pt.algebra.form.direct_sum(
        hyperbolic_space(s_dim).form
    )
    constraint = tuple(
        tuple(-a[r][i] for i in range(n))
        + tuple(dphi[r][j] for j in range(s_dim))
        + tuple(Fraction(0) for _ in range(s_dim))
        for r in range(m)
    )
    c = nullspace(constraint, ambient)
    c_perp = ambient_form.orth_complement(c)
    if not c.contains_subspace(c_perp):
        raise CourantStructureError("pull-back constraint is not coisotropic")
    for row in c_perp.basis:
        if any(x != 0 for x in row[n:n + s_dim]):
            raise CourantStructureError("quotient anchor is not well-defined")
    q = quotient_coords(c, c_perp)
    reduced_form = q.descended_form(ambient_form)
    expected = n - 2 * (m - s_dim)
    if q.dim != expected:
        raise CourantStructureError(
            f"reduced rank {q.dim} != expected {expected}"
        )
    if not reduced_form.is_nondegenerate():
        raise CourantStructureError("reduced form is degenerate")
    anchor_rows = tuple(
        tuple(q.complement[k][n + j] for k in range(q.dim)) for j in range(s_dim)
    )
    return PointPullback(ambient, c, c_perp, q, reduced_form, anchor_rows)
