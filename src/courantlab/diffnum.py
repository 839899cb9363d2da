"""Floating-point chart calculus: finite-difference Schouten brackets,
trivector pushforwards, the main splitting identity, the action axiom
of tabulated vector fields, bivector relatedness under chart maps, and
the float group layer: exponential charts of the liegrp contexts.

This is the one module that uses numpy; no exact module imports it.
Each check returns a plain residual; the caller decides what passes.

Conventions: a bivector field is sampled as its antisymmetric component
matrix P with pi = sum_{u<v} P[u,v] d_u ^ d_v, and a trivector is a
fully antisymmetric 3-index array T with T[i,j,k] the coefficient
against d_i ^ d_j ^ d_k for i < j < k.

A sampler maps a (S, d) stack of chart points to the stack of its
values, one call per stencil.  A stacked product makes the product at
one point once per slice, so each slice keeps its bits; products are
never folded across slices into one GEMM, which rounds differently.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property, lru_cache

import numpy as np

from .exactlin import DimensionMismatchError, Frozen
from .lagrel import Splitting
from .liegrp import G1Point, GroupContext, GroupPoint, TripleContext, phi_r_values
from .quadlie import QuadraticLieAlgebra, courant_values

ANTISYM_TOL = 1e-12


class ChartBivectorField(Frozen, fields=("chart_dim", "sampler")):
    """Sampler of an antisymmetric matrix over one chart: a (S, d) stack
    of chart points to the (S, d, d) stack of their matrices."""

    def __init__(self, chart_dim: int, sampler: Callable[[np.ndarray], np.ndarray]):
        object.__setattr__(self, "chart_dim", chart_dim)
        object.__setattr__(self, "sampler", sampler)

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        d = self.chart_dim
        if x.shape[1:] != (d,):
            raise DimensionMismatchError("chart points are not a (S, d) stack")
        p = np.asarray(self.sampler(x), dtype=float)
        if p.shape != (len(x), d, d):
            raise DimensionMismatchError("sampler returned a wrong shape")
        tol = ANTISYM_TOL * np.maximum(1.0, max_abs(p, axis=(1, 2)))
        if np.any(max_abs(p + p.swapaxes(1, 2), axis=(1, 2)) > tol):
            raise ValueError("sampler output is not antisymmetric")
        return p


def np_matrix(m, den: int = 1) -> np.ndarray:
    """The float array of an exact vector, matrix or stack of matrices, each
    entry converted once by float(); integer rows over den > 0 are read as
    x / den, which rounds correctly: float(Fraction(x, den)) bit for bit."""
    if den != 1:
        m = [[x / den for x in row] for row in m]
    return np.array(m, dtype=float)


def max_abs(a: np.ndarray, axis: tuple[int, ...] | None = None):
    """The max-norm of an array, 0.0 for an empty one; a NaN entry is
    the result.  Over ``axis`` it is the array of the norms of the
    slices: max_abs(stack, axis=(-2, -1)) is the norm of each matrix."""
    norm = np.abs(a).max(axis=axis, initial=0.0)
    return float(norm) if axis is None else norm


def float_warnings_off() -> np.errstate:
    """numpy's overflow, invalid and divide warnings off: a non-finite
    residual already fails its record, so they would only add noise."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def worst(residuals: Iterable[float]) -> float:
    """The largest residual, 0.0 for none.

    A NaN among them is the result, and an inf wins over every finite
    value: builtin max would let a finite residual hide a NaN.
    """
    values = [float(r) for r in residuals]
    if any(math.isnan(r) for r in values):
        return math.nan
    return max(values, default=0.0)


def stencil(x: np.ndarray, h: float) -> np.ndarray:
    """The central difference's points at x: x + h e_l for each l, then
    x - h e_l, as one (2d, d) stack."""
    steps = h * np.eye(len(x))
    return np.concatenate([x + steps, x - steps])


def central_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Jacobian of f at x by central differences, O(h^2), from the stack
    values = f(stencil(x, h)).

    out[..., l] = (f(x + h e_l) - f(x - h e_l)) / 2h, a new C-contiguous
    array with the derivative index last.
    """
    plus, minus = np.split(values, 2)
    return np.ascontiguousarray(np.moveaxis((plus - minus) / (2 * h), 0, -1))


def schouten_fd(field: ChartBivectorField, point, h: float) -> np.ndarray:
    """Schouten bracket [pi, pi] by central differences of step h, O(h^2).

    Components are twice the coordinate Jacobiator:
    T^ijk = 2 sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij),
    summed over l in order for all triples i < j < k at once.
    """
    d = field.chart_dim
    x = np.asarray(point, dtype=float)
    values = field(np.concatenate([x[None], stencil(x, h)]))
    P, dP = values[0], central_difference(values[1:], h)  # dP[j, k, l] = d_l P^jk
    i, j, k = np.array(list(itertools.combinations(range(d), 3)), dtype=int).reshape(-1, 3).T
    Pi, Pj, Pk, Djk, Dki, Dij = P[i], P[j], P[k], dP[j, k], dP[k, i], dP[i, j]
    val = np.zeros(len(i))
    for l in range(d):
        val = val + (Pi[:, l] * Djk[:, l] + Pj[:, l] * Dki[:, l] + Pk[:, l] * Dij[:, l])
    val = 2.0 * val
    T = np.zeros((d, d, d))
    T[i, j, k] = T[j, k, i] = T[k, i, j] = val
    T[j, i, k] = T[i, k, j] = T[k, j, i] = -val
    return T


def wedge3(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Component table of u ^ v ^ w, for vectors or stacks of them:
    T[..., p, q, r] = det [[u_p, v_p, w_p], ...]."""
    outer = np.einsum("...p,...q,...r->...pqr", u, v, w)
    return (
        outer
        + np.einsum("...q,...r,...p->...pqr", u, v, w)
        + np.einsum("...r,...p,...q->...pqr", u, v, w)
        - np.einsum("...p,...r,...q->...pqr", u, v, w)
        - np.einsum("...q,...p,...r->...pqr", u, v, w)
        - np.einsum("...r,...q,...p->...pqr", u, v, w)
    )


def push_trivector(
    anchor: np.ndarray,
    values: Sequence[tuple[tuple[int, int, int], object]],
    wedge_vectors: Sequence,
) -> np.ndarray:
    """Push sum values[i<j<k] * w^i ^ w^j ^ w^k through the anchor matrix.

    ``wedge_vectors`` are the algebra vectors attached to the value table
    (the dual frame fixed by <e_i, f^j> = delta); each is mapped by the
    anchor before wedging.  Every wedge is built in one pass, and they
    are summed in the order of ``values``.
    """
    a = np.asarray(anchor, dtype=float)
    m = a.shape[0]
    if not values:
        return np.zeros((m, m, m))
    pushed = (a @ np_matrix(wedge_vectors)[..., None])[..., 0]
    i, j, k = np.array([ijk for ijk, _ in values]).T
    coefs = np.array([float(c) for _, c in values])
    wedges = coefs[:, None, None, None] * wedge3(pushed[i], pushed[j], pushed[k])
    return np.add.reduce(wedges, axis=0, initial=0.0)


def splitting_tensor_tables(alg: QuadraticLieAlgebra, s: Splitting):
    """Value tables and float wedge frames for both halves of a splitting.

    Returns ((values_E, wedge_E), (values_F, wedge_F)) where values_E is
    the tensor of E on its stored basis e_i = E_i / p_i (E's integer rows
    over their pivots) attached to the dual frame f^i = p_i D_i / den in
    F, and values_F is the tensor of F on that dual frame attached to E's
    basis.  Each value is the exact rational read once as a float.
    """
    e = s.e.rows
    d, den = s._dual_frame
    p = [next(filter(None, row)) for row in e]
    (vals_e, den_e), (vals_f, den_f) = courant_values(alg, e), courant_values(alg, d)
    return (
        ([((i, j, k), v / (den_e * p[i] * p[j] * p[k])) for (i, j, k), v in vals_e],
         np_matrix([[q * x / den for x in row] for q, row in zip(p, d)])),
        ([((i, j, k), p[i] * p[j] * p[k] * v / (den_f * den ** 3)) for (i, j, k), v in vals_f],
         np_matrix([[x / q for x in row] for q, row in zip(p, e)])),
    )


@lru_cache(maxsize=64)
def _kept_tables(alg: QuadraticLieAlgebra, s: Splitting):
    """splitting_tensor_tables(alg, s), built once per (algebra, splitting)."""
    return splitting_tensor_tables(alg, s)


def main_identity_rhs(alg: QuadraticLieAlgebra, s: Splitting, anchor0: tuple) -> np.ndarray:
    """a(Y^E) + a(Y^F) for a Lagrangian splitting, pushed by the anchor's integer table."""
    (vals_e, wedge_e), (vals_f, wedge_f) = _kept_tables(alg, s)
    a = np_matrix(*anchor0)
    return push_trivector(a, vals_e, wedge_e) + push_trivector(a, vals_f, wedge_f)


def main_identity_residual(field: ChartBivectorField, rhs: np.ndarray, h: float) -> float:
    """max |(1/2)[pi, pi] - a(Y^E) - a(Y^F)| at the center of the chart of
    ``field``, where rhs = main_identity_rhs at that point; FD step h."""
    lhs = 0.5 * schouten_fd(field, np.zeros(field.chart_dim), h)
    return max_abs(lhs - rhs)


def action_axiom_check(
    fields: Callable[[np.ndarray], np.ndarray],
    alg: QuadraticLieAlgebra,
    point,
    h: float,
) -> float:
    """Worst max-abs residual of [rho(b_i), rho(b_j)] = rho([b_i, b_j])
    over the basis pairs, at one point, where [v, w] = Dw(v) - Dv(w).

    ``fields`` maps a stack of points q to the stack of (n, k) tables
    whose row i is rho(b_i) at q; one call on the point and its stencil
    gives the values and every Jacobian."""
    x = np.asarray(point, dtype=float)
    values = np.asarray(fields(np.concatenate([x[None], stencil(x, h)])), dtype=float)
    vals, jacs = values[0], central_difference(values[1:], h)  # jacs[i] = D rho(b_i)
    n = alg.dim
    # [b_i, b_j] as (k, c) pairs in k order, read off the sorted constants
    pairs: dict[tuple[int, int], list] = {}
    for i, j, k, c in alg.bracket:
        pairs.setdefault((i, j), []).append((k, float(c)))
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = jacs[j] @ vals[i] - jacs[i] @ vals[j]
            rhs = np.zeros_like(lhs)
            for k, c in pairs.get((i, j), ()):
                rhs += c * vals[k]
            residuals.append(max_abs(lhs - rhs))
    return worst(residuals)


def relatedness_check(dphi, pi_source, pi_target) -> float:
    """max-norm residual of dPhi pi dPhi^T - pi', from integer tables
    (rows, den) or float matrices over den 1."""
    dphi, pi_source, pi_target = (np_matrix(*m) for m in (dphi, pi_source, pi_target))
    return max_abs(dphi @ pi_source @ dphi.T - pi_target)


def structure_tensor_np(alg: QuadraticLieAlgebra) -> np.ndarray:
    """c[i, j, :] = coordinates of [b_i, b_j], placed from the structure
    constants: each one converted once by float()."""
    n = alg.dim
    table = np.zeros((n, n, n))
    for i, j, k, c in alg.bracket:
        table[i, j, k] = float(c)
        table[j, i, k] = -float(c)
    return table


def courant_bracket_jets_np(
    structure: np.ndarray,
    form: np.ndarray,
    anchor: np.ndarray,
    dual: np.ndarray,
    x_value: np.ndarray,
    x_jac: np.ndarray,
    y_value: np.ndarray,
    y_jac: np.ndarray,
) -> np.ndarray:
    """Float twin of the exact jet bracket, for FD-sourced jacobians.

    ``structure`` is structure_tensor_np of the algebra and ``form`` its
    Gram matrix, both kept per algebra; ``dual`` is a* = form^-1 anchor^T,
    kept per point.
    """
    out = np.einsum("ijk,i,j->k", structure, x_value, y_value)
    out = out + y_jac @ (anchor @ x_value) - x_jac @ (anchor @ y_value)
    pairing = x_jac.T @ (form @ y_value)
    return out + dual @ pairing


def flat_poisson_field() -> ChartBivectorField:
    """A closed-form Poisson field on R^3 (pushforward of a constant
    bivector under a polynomial chart change); quartic entries give an
    exactly-order-2 FD ladder."""

    def sampler(y):
        y1, y2 = y[:, 0], y[:, 1]
        w = y2 - y1 * y1
        p13 = 2.0 * y1 * w
        p23 = 4.0 * y1 * y1 * w - w * w
        out = np.zeros((len(y), 3, 3))
        out[:, 0, 1], out[:, 0, 2], out[:, 1, 2] = 1.0, p13, p23
        out[:, 1, 0], out[:, 2, 0], out[:, 2, 1] = -1.0, -p13, -p23
        return out

    return ChartBivectorField(3, sampler)


# ---------------------------------------------------------------------------
# the float group layer: exponential charts of the liegrp contexts.  Each
# function works on the trailing two axes of a stack of matrices, and each
# slice stops its series and squares on its own count, as it would alone.

def _combine(t: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """sum_a t[..., a] tensors[a] for each row of the stack t, one
    vector-matrix product per row."""
    k, *shape = tensors.shape
    return (t[..., None, :] @ tensors.reshape(k, -1)).reshape(*t.shape[:-1], *shape)


def _exp_series(x: np.ndarray, shift: int) -> np.ndarray:
    """sum_j x^j / (j + shift)!: exp x for shift 0, (exp x - 1) / x for
    shift 1; a slice keeps its sum from its first term below 1e-18 on."""
    out = term = np.broadcast_to(np.eye(x.shape[-1]), x.shape)
    active = np.ones(x.shape[:-2], dtype=bool)
    for j in range(1, 40):
        term = term @ x / (j + shift)
        out = np.where(active[..., None, None], out + term, out)
        active = active & ~(max_abs(term, axis=(-2, -1)) < 1e-18)
        if not active.any():
            break
    return out


def expm_np(a: np.ndarray) -> np.ndarray:
    """exp by scaling each slice into max-norm 0.5 and squaring it back."""
    norm = max_abs(a, axis=(-2, -1))
    s = np.zeros(norm.shape, dtype=int)
    while np.any(big := norm > 0.5):
        norm = np.where(big, norm / 2.0, norm)
        s = s + big
    out = _exp_series(a / (2.0 ** s)[..., None, None], 0)
    for r in range(s.max(initial=0)):
        out = np.where((s > r)[..., None, None], out @ out, out)
    return out


def logm_np(m: np.ndarray) -> np.ndarray:
    """Principal log near the identity (series in m - I); ValueError when
    any slice is too far from it."""
    z = m - np.eye(m.shape[-1])
    if np.any(max_abs(z, axis=(-2, -1)) > 0.4):
        raise ValueError("matrix too far from the identity for the log series")
    out = np.zeros_like(z)
    term = np.broadcast_to(np.eye(m.shape[-1]), z.shape)
    active = np.ones(z.shape[:-2], dtype=bool)
    for k in range(1, 60):
        term = term @ z
        out = np.where(active[..., None, None], out + ((-1) ** (k + 1)) * term / k, out)
        active = active & ~(max_abs(term, axis=(-2, -1)) < 1e-18)
        if not active.any():
            break
    return out


class GroupChart(Frozen, fields=("ctx",), compared=None):
    """The exponential charts of a group context in floats; the float
    basis, its coordinatizer and the ad tables are built on first use."""

    def __init__(self, ctx: GroupContext):
        object.__setattr__(self, "ctx", ctx)

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis as a (k, n, n) float array, read off its integer rows."""
        return np_matrix(*self.ctx.basis_ints).reshape(self.ctx.dim, *(self.ctx.ambient_size,) * 2)

    @cached_property
    def coordinatizer(self) -> np.ndarray:
        """(k, n^2) pseudo-inverse of the flattened float basis."""
        return np.linalg.pinv(self.basis.reshape(self.ctx.dim, -1).T)

    @cached_property
    def ad(self) -> np.ndarray:
        """(k, k, k) float ad matrices: ad[a] = ad_{X_a} over the basis."""
        return np.ascontiguousarray(structure_tensor_np(self.ctx.algebra).transpose(0, 2, 1))

    @cached_property
    def double(self) -> tuple[np.ndarray, np.ndarray]:
        """(structure tensor, Gram matrix) of the double algebra in floats."""
        d = self.ctx.double_algebra
        return structure_tensor_np(d), np_matrix(*d.form._ints)

    def coords(self, elt: np.ndarray) -> np.ndarray:
        """Float coordinates over the basis of each ambient algebra element
        of the stack elt, one matrix-vector product per element."""
        return (self.coordinatizer @ elt.reshape(*elt.shape[:-2], -1, 1))[..., 0]

    def adjoint(self, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
        """Ad_g over the basis for each g of the stack, every basis element
        at once; the caller passes g^-1 too, since inverting an inverse
        does not give g back bit for bit."""
        images = g[..., None, :, :] @ self.basis @ ginv[..., None, :, :]
        return np.ascontiguousarray(self.coords(images).swapaxes(-1, -2))

    def dexp(self, t: np.ndarray) -> np.ndarray:
        """T with d/dt_a (g0 exp X(t)) = g0 exp X(t) . (basis T[:, a]), for any g0."""
        return _exp_series(-_combine(t, self.ad), 1)

    def point(self, g0: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The exponential chart t -> g0 exp(sum t_a X_a) at the float matrix g0."""
        return g0 @ expm_np(_combine(t, self.basis))


@lru_cache(maxsize=64)
def group_chart(ctx: GroupContext) -> GroupChart:
    """The float chart of ctx, one per context object."""
    return GroupChart(ctx)


@lru_cache(maxsize=64)
def triple_floats(t: TripleContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p1, p2 and the pseudo-inverse of the inclusion of t, in floats."""
    (p1, p2), den = t.splitting.projector_ints
    return np_matrix(p1, den), np_matrix(p2, den), np.linalg.pinv(np_matrix(*t.inclusion_ints))


# the double action on a group: a(u, v) = v^L - u^R ------------------------

@lru_cache(maxsize=64)
def _float_bivector(s: Splitting) -> np.ndarray:
    """The splitting's Pi in floats, converted once per splitting."""
    return np_matrix(*s.bivector._ints)


def double_bivector_field(p: GroupPoint, s: Splitting) -> ChartBivectorField:
    """pi(t) for a splitting (E, F) of the double, in the chart at p."""
    pi_np = _float_bivector(s)
    chart = group_chart(p.ctx)
    g0 = np_matrix(*p.g_ints)
    k = p.ctx.dim

    def sampler(t: np.ndarray) -> np.ndarray:
        g = chart.point(g0, t)
        adg_inv = chart.adjoint(np.linalg.inv(g), g)
        rhs = np.concatenate([-adg_inv, np.broadcast_to(np.eye(k), adg_inv.shape)], axis=-1)
        anchor = np.linalg.solve(chart.dexp(t), rhs)
        return anchor @ pi_np @ anchor.swapaxes(-1, -2)

    return ChartBivectorField(k, sampler)


# multiplication -----------------------------------------------------------

def product_coords_sampler(pa: GroupPoint, pb: GroupPoint, pab: GroupPoint):
    """coords(st), the chart coordinates at pab of the products a b for
    a stack of points st = (s_a, s_b) of the product chart at (pa, pb);
    pab is the point of the product ga gb."""
    chart = group_chart(pa.ctx)
    k = pa.ctx.dim
    ga, gb = np_matrix(*pa.g_ints), np_matrix(*pb.g_ints)
    base_inv = np.linalg.inv(np_matrix(*pab.g_ints))

    def factor(g0: np.ndarray, st: np.ndarray) -> np.ndarray:
        # a slice whose block is zero keeps the base point itself
        moved = st.any(axis=1)
        out = np.repeat(g0[None], len(st), axis=0)
        out[moved] = chart.point(g0, st[moved])
        return out

    def coords(st: np.ndarray) -> np.ndarray:
        return chart.coords(logm_np(base_inv @ (factor(ga, st[:, :k]) @ factor(gb, st[:, k:]))))

    return coords


def dmult_fd(pa: GroupPoint, pb: GroupPoint, pab: GroupPoint, h: float = 1e-4) -> np.ndarray:
    """FD Jacobian of multiplication in product exponential charts; pab is
    the point of the product ga gb."""
    sampler = product_coords_sampler(pa, pb, pab)
    return central_difference(sampler(stencil(np.zeros(2 * pa.ctx.dim), h)), h)


def pair_multiplication_check(
    dmult: np.ndarray, pa: GroupPoint, pb: GroupPoint, pab: GroupPoint
) -> float:
    """Anchor equivariance of group multiplication at (ga, gb), given the
    Jacobian dmult = dmult_fd(pa, pb, pab).

    For composable (a,b) o (b,c): dMult(a(z')|_ga, a(z'')|_gb) must equal
    a(z)|_{ga gb}; returns the max-abs residual over a parameter basis.
    """
    k = pa.ctx.dim
    a_ga, a_gb, a_prod = (np_matrix(*p.anchor._ints).T for p in (pa, pb, pab))
    # e = (a, b, c) runs over a basis: z' = (a, b), z'' = (b, c), z = (a, c).
    # An anchor applied to a unit vector is exactly the column it selects
    # (finite floats), and dMult takes one matrix-vector product per e.
    zero = np.zeros((k, k))
    pushed = np.hstack([np.vstack([a_ga, zero]), np.vstack([zero, a_gb])])
    direct = np.vstack([a_prod[:k], zero, a_prod[k:]])
    return worst(max_abs(np.matmul(dmult, pushed[:, :, None])[:, :, 0] - direct, axis=(1,)))


def multiplicativity_residual(dmult: np.ndarray, pi_a: np.ndarray, pi_b: np.ndarray,
                              pi_ab: np.ndarray) -> float:
    """max |dMult (pi_a x pi_b) dMult^T - pi_ab| for the float pi at ga, gb, ga gb."""
    n = len(pi_a)
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = pi_a
    big[n:, n:] = pi_b
    return max_abs(dmult @ big @ dmult.T - pi_ab)


# dressing and phi^R sections ----------------------------------------------

def dressing_field_sampler(x: G1Point):
    """fields(t), the (n, k) tables whose row i is rho(b_i) at each point
    of the stack t, for the right dressing action in the chart at x; the
    group data at t is built once, and each row keeps its own
    matrix-vector products."""
    t = x.triple
    p1_np, _, inclusion_pinv = triple_floats(t)
    g1_chart, d_chart = group_chart(t.g1_ctx), group_chart(t.d_ctx)
    g0 = np_matrix(*x.g1.g_ints)
    zetas = np.eye(t.d_algebra.dim)[..., None]

    def fields(tvec: np.ndarray) -> np.ndarray:
        g = g1_chart.point(g0, tvec)
        phi_g = np_matrix([t.embed(gs) for gs in g])
        ad = d_chart.adjoint(phi_g, np.linalg.inv(phi_g))[:, None]
        xv = (inclusion_pinv @ (p1_np @ (ad @ zetas)))[..., 0]
        amb_t = _combine(xv, g1_chart.basis) @ g[:, None]  # right-invariant: xv . g
        xi = g1_chart.coords(np.linalg.inv(g)[:, None] @ amb_t)
        return np.linalg.solve(g1_chart.dexp(tvec)[:, None], xi[..., None])[..., 0]

    return fields


def phi_r_sections(t: TripleContext, d0: GroupPoint, zetas):
    """sections(t), the (len(zetas), 2n) tables of the sections
    phi^R(zeta) at each point of the stack t, in the chart at d0."""
    _, p2_np, _ = triple_floats(t)
    chart = group_chart(t.d_ctx)
    g0 = np_matrix(*d0.g_ints)
    zs = np_matrix(zetas)

    def sections(tvec: np.ndarray) -> np.ndarray:
        g = chart.point(g0, tvec)
        ad = chart.adjoint(g, np.linalg.inv(g))[:, None]
        moved = (p2_np @ (ad @ zs[..., None]))[..., 0]
        return np.concatenate([moved, np.broadcast_to(zs, (len(tvec), *zs.shape))], axis=-1)

    return sections


def phi_r_jets(t: TripleContext, d0: GroupPoint, zetas, h: float = 1e-4):
    """(values, FD jacobians) of the sections phi^R(zeta), zeta in the
    integer rows ``zetas``, in the chart at d0; one stencil serves every
    section."""
    values = np_matrix(*phi_r_values(t, d0, (zetas, 1)))
    sections = phi_r_sections(t, d0, zetas)
    return values, central_difference(sections(stencil(np.zeros(t.d_algebra.dim), h)), h)


def phi_r_homomorphism_residual(
    t: TripleContext, d0: GroupPoint, zeta: Sequence[int], zeta2: Sequence[int], h: float = 1e-4
) -> float:
    """|[[phi^R(z), phi^R(z')]] - phi^R([z, z'])| at d0 for integer rows
    z and z', jets by FD."""
    structure, form = group_chart(t.d_ctx).double
    (xv, yv), (xj, yj) = phi_r_jets(t, d0, (zeta, zeta2), h=h)
    got = courant_bracket_jets_np(structure, form, np_matrix(*d0.anchor._ints),
                                  np_matrix(*d0.anchor.dual_ints), xv, xj, yv, yj)
    (want,) = np_matrix(*phi_r_values(t, d0, t.d_algebra.pair_brackets((zeta, zeta2))))
    return max_abs(got - want)
