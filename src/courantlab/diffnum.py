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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .exactlin import DimensionMismatchError, Matrix, Vector
from .lagrel import Splitting
from .liegrp import G1Point, GroupContext, GroupPoint, TripleContext, phi_r_value
from .quadlie import QuadraticLieAlgebra, courant_tensor_on_basis

ANTISYM_TOL = 1e-12


@dataclass
class ChartBivectorField:
    """Pointwise sampler of an antisymmetric matrix over one chart."""

    chart_dim: int
    sampler: Callable[[np.ndarray], np.ndarray]

    def __call__(self, point) -> np.ndarray:
        p = np.asarray(self.sampler(np.asarray(point, dtype=float)), dtype=float)
        if p.shape != (self.chart_dim, self.chart_dim):
            raise DimensionMismatchError("sampler returned a wrong shape")
        if max_abs(p + p.T) > ANTISYM_TOL * max(1.0, max_abs(p)):
            raise ValueError("sampler output is not antisymmetric")
        return p


def _set_antisym(T: np.ndarray, i: int, j: int, k: int, val: float) -> None:
    T[i, j, k] = val
    T[j, k, i] = val
    T[k, i, j] = val
    T[j, i, k] = -val
    T[i, k, j] = -val
    T[k, j, i] = -val


def np_matrix(m) -> np.ndarray:
    """The float array of an exact vector, matrix or stack of matrices:
    each entry converted once by float()."""
    return np.array(m, dtype=float)


def max_abs(a: np.ndarray) -> float:
    """The max-norm of an array, 0.0 for an empty one; a NaN entry is
    the result."""
    return float(np.abs(a).max(initial=0.0))


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


def central_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       h: float) -> np.ndarray:
    """Jacobian of f at x by central differences, O(h^2).

    out[..., l] = (f(x + h e_l) - f(x - h e_l)) / 2h, a new C-contiguous
    array with the derivative index last.
    """
    cols = [(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h) for e in h * np.eye(len(x))]
    return np.stack(cols, axis=-1)


def schouten_fd(field: ChartBivectorField, point, h: float) -> np.ndarray:
    """Schouten bracket [pi, pi] by central differences of step h, O(h^2).

    Components are twice the coordinate Jacobiator:
    T^ijk = 2 sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij).
    """
    d = field.chart_dim
    x = np.asarray(point, dtype=float)
    P = field(x)
    dP = central_difference(field, x, h)  # dP[j, k, l] = d_l P^jk
    T = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                val = 0.0
                for l in range(d):
                    val += (
                        P[i, l] * dP[j, k, l]
                        + P[j, l] * dP[k, i, l]
                        + P[k, l] * dP[i, j, l]
                    )
                _set_antisym(T, i, j, k, 2.0 * val)
    return T


def wedge3(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Component table of u ^ v ^ w: T[p,q,r] = det [[u_p,v_p,w_p],...]."""
    outer = np.einsum("p,q,r->pqr", u, v, w)
    return (
        outer
        + np.einsum("q,r,p->pqr", u, v, w)
        + np.einsum("r,p,q->pqr", u, v, w)
        - np.einsum("p,r,q->pqr", u, v, w)
        - np.einsum("q,p,r->pqr", u, v, w)
        - np.einsum("r,q,p->pqr", u, v, w)
    )


def push_trivector(
    anchor: np.ndarray,
    values: Sequence[tuple[tuple[int, int, int], object]],
    wedge_vectors: Sequence,
) -> np.ndarray:
    """Push sum values[i<j<k] * w^i ^ w^j ^ w^k through the anchor matrix.

    ``wedge_vectors`` are the algebra vectors attached to the value table
    (the dual frame fixed by <e_i, f^j> = delta); each is mapped by the
    anchor before wedging.
    """
    a = np.asarray(anchor, dtype=float)
    m = a.shape[0]
    pushed = [a @ np_matrix(vec) for vec in wedge_vectors]
    T = np.zeros((m, m, m))
    for (i, j, k), val in values:
        T += float(val) * wedge3(pushed[i], pushed[j], pushed[k])
    return T


def splitting_tensor_tables(alg: QuadraticLieAlgebra, s: Splitting):
    """Value tables and wedge frames for both halves of a splitting.

    Returns ((values_E, wedge_E), (values_F, wedge_F)) where values_E is
    the tensor of E on its stored basis attached to the dual frame in F,
    and values_F is the tensor of F on that dual frame attached to E's
    basis.
    """
    duals = s.duals
    return (
        (courant_tensor_on_basis(alg, s.e, s.e.basis).values, duals),
        (courant_tensor_on_basis(alg, s.f, duals).values, s.e.basis),
    )


@lru_cache(maxsize=64)
def _kept_tables(alg: QuadraticLieAlgebra, s: Splitting):
    """splitting_tensor_tables(alg, s), built once per (algebra, splitting)."""
    return splitting_tensor_tables(alg, s)


def main_identity_rhs(alg: QuadraticLieAlgebra, s: Splitting, anchor0) -> np.ndarray:
    """a(Y^E) + a(Y^F) for a Lagrangian splitting, pushed to the chart."""
    (vals_e, wedge_e), (vals_f, wedge_f) = _kept_tables(alg, s)
    a = np_matrix(anchor0)
    return push_trivector(a, vals_e, wedge_e) + push_trivector(a, vals_f, wedge_f)


def main_identity_residual(
    field: ChartBivectorField,
    anchor0: Matrix,
    s: Splitting,
    alg: QuadraticLieAlgebra,
    h: float,
) -> float:
    """max |(1/2)[pi, pi] - a(Y^E) - a(Y^F)| at the center of the chart of
    ``field``, where the exact anchor is ``anchor0``; FD step h."""
    lhs = 0.5 * schouten_fd(field, np.zeros(field.chart_dim), h)
    return max_abs(lhs - main_identity_rhs(alg, s, anchor0))


def action_axiom_check(
    fields: Callable[[np.ndarray], np.ndarray],
    alg: QuadraticLieAlgebra,
    point,
    h: float,
) -> float:
    """Worst max-abs residual of [rho(b_i), rho(b_j)] = rho([b_i, b_j])
    over the basis pairs, at one point, where [v, w] = Dw(v) - Dv(w).

    ``fields(q)`` is the (n, k) table whose row i is rho(b_i) at q; one
    stencil gives every Jacobian."""
    x = np.asarray(point, dtype=float)
    vals = np.asarray(fields(x), dtype=float)
    jacs = central_difference(fields, x, h)  # jacs[i] = D rho(b_i)
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
    """max-norm residual of dPhi pi dPhi^T - pi', from exact or float
    matrices."""
    dphi, pi_source, pi_target = (np_matrix(m) for m in (dphi, pi_source, pi_target))
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
        y1, y2, y3 = y
        w = y2 - y1 * y1
        p13 = 2.0 * y1 * w
        p23 = 4.0 * y1 * y1 * w - w * w
        return np.array([[0.0, 1.0, p13], [-1.0, 0.0, p23], [-p13, -p23, 0.0]])

    return ChartBivectorField(3, sampler)


# ---------------------------------------------------------------------------
# the float group layer: exponential charts of the liegrp contexts

def _exp_series(x: np.ndarray, shift: int) -> np.ndarray:
    """sum_j x^j / (j + shift)!: exp x for shift 0, (exp x - 1) / x for shift 1."""
    out = np.eye(len(x))
    term = np.eye(len(x))
    for j in range(1, 40):
        term = term @ x / (j + shift)
        out = out + term
        if max_abs(term) < 1e-18:
            break
    return out


def expm_np(a: np.ndarray) -> np.ndarray:
    norm = max_abs(a)
    s = 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    out = _exp_series(a / (2.0 ** s), 0)
    for _ in range(s):
        out = out @ out
    return out


def logm_np(m: np.ndarray) -> np.ndarray:
    """Principal log near the identity (series in m - I)."""
    z = m - np.eye(m.shape[0])
    if max_abs(z) > 0.4:
        raise ValueError("matrix too far from the identity for the log series")
    out = np.zeros_like(z)
    term = np.eye(m.shape[0])
    for k in range(1, 60):
        term = term @ z
        out = out + ((-1) ** (k + 1)) * term / k
        if max_abs(term) < 1e-18:
            break
    return out


@dataclass(eq=False)
class GroupChart:
    """The exponential charts of a group context in floats; the float
    basis, its coordinatizer and the ad tables are built on first use."""

    ctx: GroupContext

    @cached_property
    def basis(self) -> np.ndarray:
        """The basis as a (k, n, n) float array."""
        return np_matrix(self.ctx.algebra_basis)

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
        return structure_tensor_np(d), np_matrix(d.form.matrix)

    def coords(self, elt: np.ndarray) -> np.ndarray:
        """Float coordinates of an ambient algebra element over the basis."""
        return self.coordinatizer @ elt.reshape(-1)

    def adjoint(self, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
        """Ad_g over the basis in floats; the caller passes g^-1 too, since
        inverting an inverse does not give g back bit for bit."""
        return np.stack([self.coords(g @ b @ ginv) for b in self.basis], axis=1)

    def dexp(self, t: np.ndarray) -> np.ndarray:
        """T with d/dt_a (g0 exp X(t)) = g0 exp X(t) . (basis T[:, a]), for any g0."""
        return _exp_series(-np.tensordot(t, self.ad, axes=1), 1)

    def point(self, g0: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The exponential chart t -> g0 exp(sum t_a X_a) at the float matrix g0."""
        return g0 @ expm_np(np.tensordot(t, self.basis, axes=1))


@lru_cache(maxsize=64)
def group_chart(ctx: GroupContext) -> GroupChart:
    """The float chart of ctx, one per context object."""
    return GroupChart(ctx)


@lru_cache(maxsize=64)
def triple_floats(t: TripleContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p1, p2 and the pseudo-inverse of the inclusion of t, in floats."""
    p1, p2 = t.splitting.projectors
    return np_matrix(p1), np_matrix(p2), np.linalg.pinv(np_matrix(t.inclusion))


# the double action on a group: a(u, v) = v^L - u^R ------------------------

def double_bivector_field(p: GroupPoint, s: Splitting) -> ChartBivectorField:
    """pi(t) for a splitting (E, F) of the double, in the chart at p."""
    pi_np = np_matrix(s.bivector.matrix)
    chart = group_chart(p.ctx)
    g0 = np_matrix(p.g)
    k = p.ctx.dim

    def sampler(t: np.ndarray) -> np.ndarray:
        g = chart.point(g0, t)
        adg_inv = chart.adjoint(np.linalg.inv(g), g)
        tmat = chart.dexp(t)
        anchor = np.linalg.solve(tmat, np.hstack([-adg_inv, np.eye(k)]))
        return anchor @ pi_np @ anchor.T

    return ChartBivectorField(k, sampler)


# multiplication -----------------------------------------------------------

def dmult_fd(pa: GroupPoint, pb: GroupPoint, pab: GroupPoint, h: float = 1e-4) -> np.ndarray:
    """FD Jacobian of multiplication in product exponential charts; pab is
    the point of the product ga gb."""
    chart = group_chart(pa.ctx)
    k = pa.ctx.dim
    ga, gb = np_matrix(pa.g), np_matrix(pb.g)
    base_inv = np.linalg.inv(np_matrix(pab.g))

    def prod_coords(st: np.ndarray) -> np.ndarray:
        # every stencil point moves one factor only: the other is at its base
        a = chart.point(ga, st[:k]) if st[:k].any() else ga
        b = chart.point(gb, st[k:]) if st[k:].any() else gb
        return chart.coords(logm_np(base_inv @ (a @ b)))

    return central_difference(prod_coords, np.zeros(2 * k), h)


def pair_multiplication_check(
    dmult: np.ndarray, pa: GroupPoint, pb: GroupPoint, pab: GroupPoint
) -> float:
    """Anchor equivariance of group multiplication at (ga, gb), given the
    Jacobian dmult = dmult_fd(pa, pb, pab).

    For composable (a,b) o (b,c): dMult(a(z')|_ga, a(z'')|_gb) must equal
    a(z)|_{ga gb}; returns the max-abs residual over a parameter basis.
    """
    k = pa.ctx.dim
    a_ga, a_gb, a_prod = (np_matrix(p.anchor.anchor) for p in (pa, pb, pab))
    # e = (a, b, c) runs over a basis: z' = (a, b), z'' = (b, c), z = (a, c)
    return worst(
        max_abs(dmult @ np.concatenate([a_ga @ e[:2 * k], a_gb @ e[k:]])
                - a_prod @ np.concatenate([e[:k], e[2 * k:]]))
        for e in np.eye(3 * k)
    )


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
    """fields(t), the (n, k) table whose row i is rho(b_i) at t, for the
    right dressing action in the chart at x; the group data at t is built
    once, and each row keeps its own matrix-vector products."""
    t = x.triple
    p1_np, _, inclusion_pinv = triple_floats(t)
    g1_chart, d_chart = group_chart(t.g1_ctx), group_chart(t.d_ctx)
    g0 = np_matrix(x.g1.g)
    n = t.d_algebra.dim

    def fields(tvec: np.ndarray) -> np.ndarray:
        g = g1_chart.point(g0, tvec)
        phi_g = np_matrix(t.embed(g))
        ad = d_chart.adjoint(phi_g, np.linalg.inv(phi_g))
        ginv = np.linalg.inv(g)
        dexp = g1_chart.dexp(tvec)
        rows = []
        for zeta in np.eye(n):
            xv = inclusion_pinv @ (p1_np @ (ad @ zeta))
            amb_t = np.tensordot(xv, g1_chart.basis, axes=1) @ g  # right-invariant: xv . g
            xi = g1_chart.coords(ginv @ amb_t)
            rows.append(np.linalg.solve(dexp, xi))
        return np.array(rows)

    return fields


def phi_r_jets(t: TripleContext, d0: GroupPoint, zetas, h: float = 1e-4):
    """(values, FD jacobians) of the sections phi^R(zeta), zeta in
    ``zetas``, in the chart at d0; one stencil serves every section."""
    _, p2_np, _ = triple_floats(t)
    chart = group_chart(t.d_ctx)
    g0 = np_matrix(d0.g)
    zs = [np_matrix(zeta) for zeta in zetas]

    def sections(tvec: np.ndarray) -> np.ndarray:
        g = chart.point(g0, tvec)
        ad = chart.adjoint(g, np.linalg.inv(g))
        return np.array([np.concatenate([p2_np @ (ad @ z), z]) for z in zs])

    values = [np_matrix(phi_r_value(t, d0, zeta)) for zeta in zetas]
    return values, central_difference(sections, np.zeros(t.d_algebra.dim), h)


def phi_r_homomorphism_residual(
    t: TripleContext, d0: GroupPoint, zeta: Vector, zeta2: Vector, h: float = 1e-4
) -> float:
    """|[[phi^R(z), phi^R(z')]] - phi^R([z, z'])| at d0, jets by FD."""
    structure, form = group_chart(t.d_ctx).double
    (xv, yv), (xj, yj) = phi_r_jets(t, d0, (zeta, zeta2), h=h)
    got = courant_bracket_jets_np(structure, form, np_matrix(d0.anchor.anchor),
                                  np_matrix(d0.anchor.dual), xv, xj, yv, yj)
    want = np_matrix(phi_r_value(t, d0, t.d_algebra.bracket_vec(zeta, zeta2)))
    return max_abs(got - want)
