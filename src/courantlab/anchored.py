"""Pointwise calculus for a trivial algebroid over one chart point.

An AnchoredPoint is a quadratic Lie algebra together with the action
matrix a_m mapping the algebra onto chart directions at a single point.
Anchors are exact, so the predicates are decided (coisotropic
stabilizer, rank formula, leaf condition, backward image through the
diagonal relation); the numeric layer keeps its own float anchors.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache, wraps
from typing import Sequence

from .exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    Matrix,
    NotLagrangianError,
    SingularMatrixError,
    Vector,
    _eliminate,
    _kernel_rows,
    _sparse_products,
    frac_matrix,
    hstack,
    int_matrix,
    int_products,
    lowest_terms,
    product_subspace,
    rank,
)
from .lagrel import (
    Bivector,
    LinearRelation,
    SplitSpace,
    Splitting,
    backward_image_subspace,
    from_algebra,
    graph_form,
    hyperbolic_space,
)
from .quadlie import QuadraticLieAlgebra


class CourantStructureError(ValueError):
    """The stabilizer is not coisotropic, so no bracket/relation exists."""


@dataclass(frozen=True)
class AnchoredPoint:
    """Action matrix of a quadratic Lie algebra at one chart point.

    The anchor is kept as integer rows over one denominator in lowest
    terms, which decide equality; an exact matrix (a float entry raises
    TypeError) or ``of_ints`` gives them, and the Fraction ``anchor`` is
    built on first read.  The point builds its exact data on first use
    and keeps it: stabilizer, coisotropy verdict, metric-dual anchor, and
    in ``kept`` by (kind, value) a(S) ("image", S), L_m ("lm", F), and
    pi_m, the rank formula and the leaf verdict ("pi", "rank", "leaf", by
    the splitting).
    """

    algebra: QuadraticLieAlgebra
    entries: InitVar[Matrix | None]
    chart_dim: int
    _ints: tuple = field(default=None, kw_only=True, repr=False)
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, entries):
        if self._ints is None:
            object.__setattr__(self, "_ints", int_matrix(entries))
        rows = self._ints[0]
        if len(rows) != self.chart_dim or any(len(r) != self.algebra.dim for r in rows):
            raise DimensionMismatchError("anchor must be chart_dim x algebra dim")

    @classmethod
    def of_ints(cls, algebra: QuadraticLieAlgebra, table, den: int, chart_dim: int) -> "AnchoredPoint":
        """The point of the anchor table / den (den > 0), kept in lowest terms."""
        return cls(algebra, None, chart_dim, _ints=lowest_terms(table, den))

    @cached_property
    def anchor(self) -> Matrix:
        """The anchor as Fractions, read back from the kept integer rows."""
        return frac_matrix(*self._ints)

    def _keep(self, key, build):
        """The kept value for ``key``; ``build()`` makes it on a miss only."""
        value = self.kept.get(key)
        if value is None:
            value = self.kept[key] = build()
        return value

    @cached_property
    def stabilizer(self) -> ExactSubspace:
        """ker(a_m) as a subspace of the algebra."""
        return ExactSubspace.of_rows(self.algebra.dim, _kernel_rows(list(self._ints[0]), self.algebra.dim))

    @cached_property
    def coisotropy(self) -> tuple[bool, Vector | None]:
        """(True, None) iff ker(a)-perp is inside ker(a), on a nondegenerate form iff
        it is isotropic; otherwise (False, w) with w in ker(a)-perp outside ker(a)."""
        ker, perp, form = self.stabilizer, self.dual_range, self.algebra.form
        if form.is_isotropic(perp) if form.is_nondegenerate() else ker.contains_subspace(perp):
            return True, None
        return False, next(row for row in perp.basis if not ker.contains(row))

    @cached_property
    def dual_ints(self) -> tuple[list[list[int]], int]:
        """a* = B^-1 a^T, the metric-dual map from chart covectors, as an
        integer table: the form's integer inverse against the anchor rows
        (the columns of a^T)."""
        (inv, di), (a, da) = self.algebra.form._inverse, self._ints
        return int_products(inv, a), di * da

    @cached_property
    def dual_range(self) -> ExactSubspace:
        """ran(a*) = ker(a)-perp, since <B^-1 a^T mu, k> = mu . a k."""
        return self.algebra.form.orth_complement(self.stabilizer)


def require_coisotropic(pt: AnchoredPoint) -> None:
    ok, witness = pt.coisotropy
    if not ok:
        raise CourantStructureError(
            f"stabilizer is not coisotropic; witness {witness}"
        )


def _kept(kind: str):
    """Keep f(pt, x) by the point under (kind, x), through ``pt._keep``."""
    def wrap(f):
        return wraps(f)(lambda pt, x: pt._keep((kind, x), lambda: f(pt, x)))
    return wrap


@_kept("image")
def anchor_image(pt: AnchoredPoint, s: ExactSubspace) -> ExactSubspace:
    """a(S): the span of the integer anchor rows applied to S's rows."""
    if s.ambient_dim != pt.algebra.dim:
        raise DimensionMismatchError("subspace not in the algebra")
    return ExactSubspace.of_rows(pt.chart_dim, int_products(s.rows, pt._ints[0]))


@_kept("pi")
def bivector_at(pt: AnchoredPoint, s: Splitting) -> Bivector:
    """Chart bivector (1/2) sum a(e_i) ^ a(f^i) of a splitting: a Pi a^T
    as integer products of the kept anchor rows with Pi's columns and
    then with the anchor rows (the columns of a^T)."""
    a, da = pt._ints
    pi, dp = s.bivector._ints
    a_pi = int_products(a, list(zip(*pi)))
    return Bivector.of_ints(int_products(a_pi, a), da * da * dp)


def _stabilizer_meet(pt: AnchoredPoint, lag: ExactSubspace) -> ExactSubspace:
    """ker(a) cap L for an L the caller decided Lagrangian."""
    return ExactSubspace.of_rows(pt.algebra.dim, pt.algebra.form.meet(pt.stabilizer.rows, lag))


@_kept("lm")
def drinfeld_lagrangian(pt: AnchoredPoint, f: ExactSubspace) -> ExactSubspace:
    """L_m = ran(a*) + (ker(a) cap F) for a Lagrangian F, NotLagrangianError
    otherwise; Lagrangian at valid points."""
    if not pt.algebra.form.is_lagrangian(f):
        raise NotLagrangianError("the subspace is not Lagrangian")
    return pt.dual_range.sum(_stabilizer_meet(pt, f))


def splitting_drinfeld(pt: AnchoredPoint, s: Splitting) -> ExactSubspace:
    """drinfeld_lagrangian at the F of a splitting, which decided F Lagrangian."""
    return pt._keep(("lm", s.f), lambda: pt.dual_range.sum(_stabilizer_meet(pt, s.f)))


@_kept("rank")
def rank_formula(pt: AnchoredPoint, s: Splitting) -> int:
    """dim a(F) - dim(L_m cap E); cross-checked against the matrix rank."""
    require_coisotropic(pt)
    lm = splitting_drinfeld(pt, s)
    if not pt.algebra.form.is_lagrangian(lm):
        raise CourantStructureError("L_m failed to be Lagrangian")
    value = anchor_image(pt, s.f).dim - (lm.dim + s.e.dim - lm.sum(s.e).dim)
    actual = bivector_at(pt, s).rank
    if value != actual:
        raise CourantStructureError(
            f"rank formula {value} disagrees with matrix rank {actual}"
        )
    return value


@_kept("leaf")
def leaf_condition(pt: AnchoredPoint, s: Splitting) -> bool:
    """ker(a) = ran(a*) + (ker cap E) + (ker cap F)?  The right side is
    L_m + (ker cap E).

    When it holds, the sharp range of the bivector is certified to equal
    a(E) cap a(F); the inclusion is strict otherwise.
    """
    require_coisotropic(pt)
    ker = pt.stabilizer
    holds = splitting_drinfeld(pt, s).sum(_stabilizer_meet(pt, s.e)) == ker
    sharp = bivector_at(pt, s).sharp_range()
    cap = anchor_image(pt, s.e).intersect(anchor_image(pt, s.f))
    if holds and sharp != cap:
        raise CourantStructureError("leaf condition holds but ranges differ")
    if not holds and not (cap.contains_subspace(sharp) and sharp != cap):
        raise CourantStructureError("expected a strict range inclusion")
    return holds


def diagonal_relation(pt: AnchoredPoint) -> LinearRelation:
    """The relation T(+)T* -> A x A-bar spanned by ((x, x - a* mu), (a x, mu)),
    on the integer anchor rows a over da and the form's integer inverse."""
    require_coisotropic(pt)
    n, m = pt.algebra.dim, pt.chart_dim
    a, da = pt._ints
    inv, di = pt.algebra.form._inverse
    # T (+) T* with the contraction pairing, coordinates (v; mu)
    source = hyperbolic_space(m)
    alg_space = from_algebra(pt.algebra)
    target = SplitSpace(2 * n, graph_form(alg_space, alg_space))
    # da (x, x, a x, 0) for the unit vectors x: a x is column x of a
    rows = [[da * (c == x) for c in range(n)] * 2 + [row[x] for row in a] + [0] * m for x in range(n)]
    # da di (0, -a* mu, 0, mu) for the unit covectors mu: a* mu = B^-1 a^T mu
    rows += [[0] * n + [-y for y in astar] + [0] * m + [da * di * (c == mu) for c in range(m)]
             for mu, astar in enumerate(int_products(a, inv))]
    return LinearRelation(source, target, ExactSubspace.of_rows(2 * (n + m), rows))


def diagonal_backward(pt: AnchoredPoint, s: Splitting) -> Bivector:
    """Recover the splitting bivector as a backward image of E x F.

    Independent code path from bivector_at: the image must be the graph
    {(P mu, mu)} of the kept value P, which is returned.  ker(R^t) = {(x, x)
    : x in ker a} meets E x F in E cap F = 0: no transversality test is due.
    """
    rel = diagonal_relation(pt)
    image = backward_image_subspace(product_subspace(s.e, s.f), rel)
    m = pt.chart_dim
    v_block = [row[:m] for row in image.rows]
    mu_block = [row[m:] for row in image.rows]
    # a graph over the covectors: m rows whose mu-block has rank m
    if rank(mu_block) != m:
        raise CourantStructureError("diagonal backward image is not a graph over the covectors")
    # each row (v, mu) has v = P mu: V = M P^T, with P = rows / den
    direct = bivector_at(pt, s)
    rows, den = direct._ints
    if int_products(mu_block, rows) != [[den * x for x in v] for v in v_block]:
        raise CourantStructureError("diagonal backward image disagrees with formula")
    return direct


@dataclass(frozen=True)
class PointPullback:
    """Pointwise pull-back data along a chart map differential dPhi, on
    algebra (+) Q^s (+) Q^s* with the nondegenerate form G = B (+) H_s.
    The constraint C = ker K is {(x, v, mu) : a x = dPhi v}, for the integer
    rows K = [-a | dPhi | 0], and C-perp is spanned by the rows of K G^-1.
    C / C-perp has dimension n + 2s - 2m and carries the form G descends
    to and the anchor that reads the v-block."""

    form: BilinearForm
    constraint: tuple  # K, m integer rows
    perp: list  # K G^-1 up to one scale: a basis of C-perp
    algebra_dim: int

    def descend(self, lifts: Sequence[Sequence[int]], den: int) -> tuple[tuple, tuple] | None:
        """The Gram matrix L G L^T of the classes of the rows L = lifts / den
        in C / C-perp and their reduced anchor (column i the v-block of row
        i), as integer tables in lowest terms, when the classes are a basis;
        None when a row is outside C (K L^T != 0) or they are not a basis
        (rank [C-perp; L] != dim C, or a wrong count)."""
        dim_c, m = self.form.dim - len(self.perp), len(self.perp)
        if len(lifts) != dim_c - m or any(map(any, int_products(lifts, self.constraint))):
            return None
        if len(_eliminate(self.perp + list(lifts), self.form.dim, reduced=False)) < dim_c:
            return None
        n, (_, dg) = self.algebra_dim, self.form._ints
        v_blocks = zip(*[row[n:(n + self.form.dim) // 2] for row in lifts])
        return (lowest_terms(int_products(self.form._applied(lifts), lifts), den * den * dg),
                lowest_terms(v_blocks, den))


@lru_cache(maxsize=64)
def _pullback_form(form: BilinearForm, s_dim: int) -> BilinearForm:
    """B (+) the hyperbolic form of Q^2s, built once per (form, s)."""
    return form.direct_sum(hyperbolic_space(s_dim).form)


def pullback_point(pt: AnchoredPoint, dphi: tuple[Sequence[Sequence[int]], int]) -> PointPullback:
    """Pull the anchored fiber back along d(Phi): T_s S -> T_m M, integer
    rows over one denominator, by integer products over K.  dPhi must be
    transverse to a (rank K = m, one elimination) and C coisotropic
    (K G^-1 K^T = 0, G^-1 read by its kept nonzeros); the anchor descends
    when C-perp has a zero v-block.  A degenerate B is a ValueError."""
    (a, da), (d, dd) = pt._ints, dphi
    m, n = pt.chart_dim, pt.algebra.dim
    if len(d) != m:
        raise DimensionMismatchError("dPhi rows must match the target chart")
    s_dim = len(d[0]) if d else 0
    k = hstack([[-dd * x for x in row] for row in a], [[da * y for y in row] for row in d], [(0,) * s_dim] * m)
    if len(_eliminate(list(k), n + 2 * s_dim, reduced=False)) < m:
        raise ValueError("dPhi is not transverse to the anchor")
    form = _pullback_form(pt.algebra.form, s_dim)
    try:
        inverse_columns = form._inverse_columns
    except SingularMatrixError:
        raise ValueError("the algebra's form B is degenerate, so B (+) H has no inverse") from None
    # G^-1 is symmetric: its rows are its columns
    perp = _sparse_products(k, inverse_columns)
    if any(map(any, int_products(k, perp))):
        raise CourantStructureError("pull-back constraint is not coisotropic")
    if any(x for row in perp for x in row[n:n + s_dim]):
        raise CourantStructureError("quotient anchor is not well-defined")
    return PointPullback(form, k, perp, n)
