"""Matrix Lie group contexts: adjoint actions, double actions on a
group, the two product-group structures pi+/pi-, dressing actions and
morphism fibers over rational sample points.

Sample points are kept rational so the adjoint action, anchors, and
relation fibers are exact; the finite-difference layer (diffnum) reads
the same points as floats.  The data the checks read at one group
element lives on its GroupPoint.  Everything here is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .anchored import AnchoredPoint, bivector_at, pullback_point
from .exactlin import (
    Coordinatizer,
    ExactSubspace,
    IntRows,
    Matrix,
    Vector,
    _inverse_of,
    _kernel_rows,
    frac_matrix,
    hstack,
    identity,
    int_matrix,
    int_products,
    lowest_terms,
    product_subspace,
    table_product,
    zeros,
)
from .lagrel import (
    Bivector,
    LinearRelation,
    SplitSpace,
    Splitting,
    from_algebra,
)
from .quadlie import QuadraticLieAlgebra, build_double


def flatten(m: Matrix) -> Vector:
    return tuple(x for row in m for x in row)


# ---------------------------------------------------------------------------
# contexts

@dataclass(frozen=True, eq=False)
class GroupContext:
    """A matrix group with a chosen algebra basis and rational samples,
    equal only to itself.  The exact coordinatizer of the basis, the
    double algebra and one GroupPoint per sample point are built on first
    use and kept."""

    name: str
    ambient_size: int
    algebra_basis: tuple[Matrix, ...]
    algebra: QuadraticLieAlgebra
    sample_points: tuple[Matrix, ...]
    membership: Callable[[Matrix], bool]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def double_algebra(self) -> QuadraticLieAlgebra:
        """The double g (+) g-bar that acts on the group from both sides."""
        return build_double(self.algebra)

    @cached_property
    def points(self) -> tuple[GroupPoint, ...]:
        """One GroupPoint per sample point, in sample order."""
        return tuple(GroupPoint(self, int_matrix(g)) for g in self.sample_points)

    def point(self, g_ints: tuple[IntRows, int]) -> GroupPoint:
        """The kept point of g, given as integer rows over one denominator
        in lowest terms, when g is a sample point, else a new one."""
        return next((p for p in self.points if p.g_ints == g_ints), None) or GroupPoint(self, g_ints)

    @cached_property
    def basis_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The flattened basis as integer rows over one denominator."""
        return int_matrix([flatten(b) for b in self.algebra_basis])

    @cached_property
    def coordinatizer(self) -> Coordinatizer:
        """Exact coordinates of flattened ambient matrices over the basis."""
        return Coordinatizer.of_rows([flatten(b) for b in self.algebra_basis],
                                     self.ambient_size ** 2, "the algebra span")


@dataclass(frozen=True, eq=False)
class GroupPoint:
    """One element g of a context's group, kept as integer rows over one
    denominator in lowest terms (``g_ints``, the pair ``int_matrix`` gives).

    g^-1 (one integer inversion), Ad_g and Ad_{g^-1} as integer tables and
    the anchor of the two-sided action at g are built on first use and
    kept; the Fraction ``g`` is a view, built on first read.
    """

    ctx: GroupContext
    g_ints: tuple[IntRows, int]

    @cached_property
    def g(self) -> Matrix:
        return frac_matrix(*self.g_ints)

    @cached_property
    def inverse_ints(self) -> tuple[list[list[int]], int]:
        return _inverse_of(self.g_ints)

    def _conjugation(self, h: tuple, h_inv: tuple) -> tuple[IntRows, int]:
        """Ad_h over the algebra basis as integer rows over one denominator,
        in lowest terms, for h and h^-1 as integer tables: column b holds
        the coordinates of h b h^-1, two integer products with the kept
        basis rows, and all are coordinatized by one product."""
        n, (basis, db) = self.ctx.ambient_size, self.ctx.basis_ints
        (h_rows, dh), (inv_rows, di) = h, h_inv
        inv_cols = list(zip(*inv_rows))
        conj = [[x for row in int_products(int_products(h_rows, [b[j::n] for j in range(n)]), inv_cols)
                 for x in row] for b in basis]
        coef, den = self.ctx.coordinatizer.coords_ints(conj, dh * db * di)
        return lowest_terms(zip(*coef), den)

    @cached_property
    def adjoint_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Ad_g."""
        return self._conjugation(self.g_ints, self.inverse_ints)

    @cached_property
    def adjoint_inverse_ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Ad_{g^-1}, conjugating by g^-1 with g as its inverse."""
        return self._conjugation(self.inverse_ints, self.g_ints)

    @cached_property
    def anchor(self) -> AnchoredPoint:
        """Anchor of the two-sided action a(u, v) = v^L - u^R at g, in the
        left-trivialized chart.

        Columns over the double's basis: (u, 0) -> -Ad_{g^-1} u, (0, v) -> v.
        The stabilizer {(u, Ad_{g^-1} u)} is Lagrangian, hence coisotropic.
        """
        k = self.ctx.dim
        c, den = self.adjoint_inverse_ints
        rows = [[-x for x in row] + [den * (i == j) for j in range(k)] for i, row in enumerate(c)]
        return AnchoredPoint.of_ints(self.ctx.double_algebra, rows, den, k)

class ContextError(ValueError):
    pass


def validate_context(ctx: GroupContext) -> None:
    """Commutators must reproduce the structure constants; samples must
    satisfy the group's membership predicate.  Exact throughout: each
    commutator is an integer table over the kept basis rows, read by
    ``coords_ints``, and compared with the constants over one denominator."""
    n, (basis, db) = ctx.ambient_size, ctx.basis_ints
    rows = [[b[r * n:(r + 1) * n] for r in range(n)] for b in basis]
    cols = [[b[c::n] for c in range(n)] for b in basis]
    brackets, dw = ctx.algebra.pair_brackets(identity(ctx.dim))
    pairs = ((i, j) for i in range(ctx.dim) for j in range(i + 1, ctx.dim))
    for (i, j), want in zip(pairs, brackets):
        xy, yx = int_products(rows[i], cols[j]), int_products(rows[j], cols[i])
        flat = [p - q for xy_row, yx_row in zip(xy, yx) for p, q in zip(xy_row, yx_row)]
        (got,), den = ctx.coordinatizer.coords_ints([flat], db * db)
        if [dw * x for x in got] != [den * y for y in want]:
            raise ContextError(f"[{i},{j}] disagrees with structure constants")
    for s in ctx.sample_points:
        if not ctx.membership(s):
            raise ContextError("sample point fails the group membership test")


# ---------------------------------------------------------------------------
# Manin-triple contexts

@dataclass(frozen=True, eq=False)
class TripleContext:
    """A Manin triple with its integrating matrix groups.

    ``d_ctx`` realizes the big group D (algebra = the triple's algebra);
    ``g1_ctx`` realizes G1 with its own smaller ambient size, embedded in
    D by ``embed`` (a group homomorphism that only places entries and
    zeros, so it maps integer rows and float matrices too); ``inclusion``
    expresses the differential of the embedding over the two algebra
    bases, as integer rows.

    The splittings the triple induces (the projector pair is that of
    ``splitting``) and one G1Point per G1 sample point are built on first
    use and kept.
    """

    name: str
    d_ctx: GroupContext
    g1: ExactSubspace
    g2: ExactSubspace
    g1_ctx: GroupContext
    embed: Callable[[Matrix], Matrix]
    inclusion: IntRows  # d dim x g1 dim

    @property
    def d_algebra(self) -> QuadraticLieAlgebra:
        return self.d_ctx.algebra

    @cached_property
    def points(self) -> tuple[G1Point, ...]:
        """One G1Point per G1 sample point, in sample order."""
        # embedding places entries, so it keeps the lowest terms of g's rows
        return tuple(G1Point(self, p, self.d_ctx.point((self.embed(p.g_ints[0]), p.g_ints[1])))
                     for p in self.g1_ctx.points)

    @cached_property
    def splitting(self) -> Splitting:
        """(g1, g2) as a splitting of d; its bivector is the r-matrix."""
        return Splitting.of_algebra(self.d_algebra, self.g1, self.g2)

    @cached_property
    def d_bar(self) -> QuadraticLieAlgebra:
        """d-bar, d with the negated form: the dressing actions' algebra."""
        return self.d_algebra.opposite()

    @cached_property
    def splitting_bar(self) -> Splitting:
        """(g1, g2) as a splitting of d-bar."""
        return Splitting.of_algebra(self.d_bar, self.g1, self.g2)

    @cached_property
    def plus(self) -> Splitting:
        """(g1 x g2, g2 x g1) in d (+) d-bar; its bivector gives pi+."""
        return Splitting.of_algebra(
            self.d_ctx.double_algebra,
            product_subspace(self.g1, self.g2),
            product_subspace(self.g2, self.g1),
        )

    @cached_property
    def minus(self) -> Splitting:
        """(g1 x g1, g2 x g2) in d (+) d-bar; its bivector gives pi-."""
        return Splitting.of_algebra(
            self.d_ctx.double_algebra,
            product_subspace(self.g1, self.g1),
            product_subspace(self.g2, self.g2),
        )

    @cached_property
    def dbar_pair(self) -> SplitSpace:
        """d-bar (+) d-bar, the source of the multiplication lift."""
        dbar = self.splitting_bar.space
        return dbar.direct_sum(dbar)

    @cached_property
    def inclusion_ints(self) -> tuple[IntRows, int]:
        """The inclusion as integer rows over one denominator."""
        return int_matrix(self.inclusion)

    @cached_property
    def g1_coordinatizer(self) -> Coordinatizer:
        """Coordinates over the columns of the inclusion, i.e. over G1's
        own basis."""
        return Coordinatizer.of_rows(list(zip(*self.inclusion)), len(self.inclusion),
                                     "the embedded subalgebra")

@dataclass(frozen=True, eq=False)
class G1Point:
    """A point g of G1 in a Manin triple, with the D-point of Phi(g).

    The (right, left) pair of dressing actions at g and the multiplication
    fiber over g are built on first use and kept.
    """

    triple: TripleContext
    g1: GroupPoint
    phi: GroupPoint

    @cached_property
    def dressing(self) -> tuple[AnchoredPoint, AnchoredPoint]:
        """The two dressing actions at g, as anchored points.

        Right version: zeta -> p1(Ad_{Phi(g)} zeta) as a right-invariant
        field; carries the opposite inner product.  Left version:
        zeta -> -p1(Ad_{Phi(g^-1)} zeta) as a left-invariant field.
        """
        t = self.triple
        (p1, _), dp = t.splitting.projector_ints

        def g1_columns(ad: tuple) -> tuple[list[list[int]], int]:
            # the columns of p1 Ad lie in g1: their coordinates over G1's
            # basis, one row per column (the rows of (p1 Ad)^T)
            rows, den = ad
            return t.g1_coordinatizer.coords_ints(int_products(list(zip(*rows)), p1), den * dp)

        (right, dr), (left, dl) = map(g1_columns, (self.phi.adjoint_ints, self.phi.adjoint_inverse_ints))
        c, dc = self.g1.adjoint_inverse_ints
        return (AnchoredPoint.of_ints(t.d_bar, int_products(c, right), dc * dr, t.g1.dim),
                AnchoredPoint.of_ints(t.d_algebra, [[-x for x in col] for col in zip(*left)], dl, t.g1.dim))

    @cached_property
    def mult_fiber(self) -> LinearRelation:
        """Multiplication morphism fiber over (g' g'', g', g'') for G1 at
        g'' this point; in the left-trivialized chart it depends on g'' only."""
        t = self.triple
        n = t.d_algebra.dim
        (p1, p2), dp = t.splitting.projector_ints
        ad, da = self.phi.adjoint_ints
        # parameters (z', z'') with p2 z' = p2 Ad_{Phi(g'')} z''
        constraint = [[-da * x for x in row] + col for row, col in zip(p2, int_products(p2, list(zip(*ad))))]
        params = _kernel_rows(constraint, 2 * n)
        # zeta = Ad_{Phi(g'')^-1} p1 z' + z'', for every parameter row at once
        moved, dm = table_product(self.phi.adjoint_inverse_ints, (p1, dp))
        rows = [[x + dm * z for x, z in zip(mv, p[n:])] + [dm * y for y in p]
                for mv, p in zip(int_products([p[:n] for p in params], moved), params)]
        return LinearRelation(t.dbar_pair, t.splitting_bar.space, ExactSubspace.of_rows(3 * n, rows))


def g1_poisson_bivector(x: G1Point) -> Bivector:
    """Bivector of the splitting (g1, g2) on G1 at x, exact."""
    right, _ = x.dressing
    return bivector_at(right, x.triple.splitting_bar)


# product-group splittings --------------------------------------------------

def pi_plus_minus(t: TripleContext, d: GroupPoint) -> tuple[Bivector, Bivector]:
    """pi+ and pi- at d from the splitting formula, exact."""
    return bivector_at(d.anchor, t.plus), bivector_at(d.anchor, t.minus)


def pi_plus_minus_invariant(t: TripleContext, d: GroupPoint) -> tuple[Bivector, Bivector]:
    """r^R +/- r^L at d in the left-trivialized chart, exact: r^R is
    Ad_{d^-1} r Ad_{d^-1}^T, over the integer rows of r and Ad_{d^-1}."""
    r, dr = t.splitting.bivector._ints
    c, dc = d.adjoint_inverse_ints
    r_right, scale = int_products(int_products(c, list(zip(*r))), c), dc * dc
    return tuple(Bivector.of_ints([[x + sign * scale * y for x, y in zip(row, r_row)]
                                   for row, r_row in zip(r_right, r)], scale * dr) for sign in (1, -1))


# morphism fibers -----------------------------------------------------------

def q_mult_kernel_expected(xpp: G1Point) -> ExactSubspace:
    """{(xi, -Ad_{Phi(g''^-1)} xi) : xi in g1} from solving the fiber."""
    xis, (c, dc) = xpp.triple.g1.rows, xpp.phi.adjoint_inverse_ints
    return ExactSubspace.of_rows(2 * xpp.triple.d_algebra.dim, [
        [dc * v for v in xi] + [-y for y in mv] for xi, mv in zip(xis, int_products(xis, c))])


def p_phi_fiber(x: G1Point) -> LinearRelation:
    """Fiber of the lift of the embedding G1 -> D over (Phi(g), g)."""
    t = x.triple
    n = t.d_algebra.dim
    (_, p2), dp = t.splitting.projector_ints
    xis, (ad, da), (c, dc) = t.g1.rows, x.phi.adjoint_ints, x.phi.adjoint_inverse_ints
    # dc (-xi, -Ad_{Phi(g)^-1} xi, 0) for xi in g1, and dp da (p2 Ad_{Phi(g)} e_i, e_i, e_i)
    rows = [[-dc * v for v in xi] + [-y for y in mv] + [0] * n for xi, mv in zip(xis, int_products(xis, c))]
    rows += [col + [dp * da * (i == j) for j in range(n)] * 2
             for i, col in enumerate(int_products(list(zip(*ad)), p2))]
    return LinearRelation(t.splitting_bar.space, from_algebra(t.d_ctx.double_algebra),
                          ExactSubspace.of_rows(3 * n, rows))


def t_psi_fiber(t: TripleContext, lagrangian_subalgebra: ExactSubspace) -> LinearRelation:
    """Quotient morphism fiber (z, u) ~ z for u in a Lagrangian subalgebra."""
    n, u = t.d_algebra.dim, lagrangian_subalgebra.rows
    rows = hstack(identity(n), identity(n), zeros(n, n)) + hstack(zeros(len(u), 2 * n), u)
    return LinearRelation.from_rows(
        from_algebra(t.d_ctx.double_algebra), from_algebra(t.d_algebra), rows
    )


# phi^R sections ------------------------------------------------------------

def phi_r_values(t: TripleContext, d: GroupPoint, zetas: tuple[IntRows, int]) -> tuple[list[list[int]], int]:
    """phi^R(zeta) = (p2(Ad_d zeta), zeta) in the double of d for each
    zeta of an integer table, as integer rows over one denominator."""
    (_, p2), dp = t.splitting.projector_ints
    (z, dz), (p2_ad, scale) = zetas, table_product((p2, dp), d.adjoint_ints)
    return [mv + [scale * x for x in row] for mv, row in zip(int_products(z, p2_ad), z)], scale * dz


def dressing_pullback_check(x: G1Point) -> bool:
    """The pull-back of the big anchored fiber along the embedding is the
    right dressing action, exactly, through phi^R lifts.

    The lifts L of phi^R(e_b) with the dressing chart vectors must lie in
    C = ker K (K L^T = 0), their classes must be a basis of C / C-perp
    (rank [K G^-1; L] = m + dim d), their Gram matrix L G L^T must be the
    opposite inner product, and their v-blocks the dressing anchor.
    """
    t = x.triple
    n, k = t.d_algebra.dim, t.g1.dim
    pb = pullback_point(x.phi.anchor, t.inclusion_ints)
    right = x.dressing[0]
    (ra, dr), ((_, p2), dp), (ad, da) = right._ints, t.splitting.projector_ints, x.phi.adjoint_ints
    # the lift of phi^R(e_b) = (p2(Ad_{Phi(g)} e_b), e_b) with the dressing
    # chart vector is row b of [(p2 Ad_{Phi(g)})^T | I | ra^T | 0], over dp da dr
    unit = dp * da
    lifts = [[dr * y for y in col] + [unit * dr * (b == c) for c in range(n)] + [unit * v for v in ra_col] + [0] * k
             for b, (col, ra_col) in enumerate(zip(int_products(list(zip(*ad)), p2), zip(*ra)))]
    return pb.descend(lifts, unit * dr) == (t.d_bar.form._ints, right._ints)


def s_phi_fiber(ctx: GroupContext) -> LinearRelation:
    """Action-morphism fiber ((z, z'), z') ~ z for the G-space M = G.

    Only available when the context's inner product is split (the graph
    spaces of the relation calculus require split factors).
    """
    alg = ctx.algebra
    one, zero = identity(alg.dim), zeros(alg.dim, alg.dim)
    rows = hstack(one, one, zero, zero) + hstack(zero, zero, one, one)
    g_space = from_algebra(alg)
    return LinearRelation.from_rows(
        from_algebra(ctx.double_algebra).direct_sum(g_space), g_space, rows
    )
