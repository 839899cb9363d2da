"""Floating-point chart calculus: finite-difference Schouten brackets,
trivector pushforwards, the main splitting identity, the action axiom
of tabulated vector fields, and bivector relatedness under chart maps.

Each check returns a plain residual; the caller decides what passes.

Conventions: a bivector field is sampled as its antisymmetric component
matrix P with pi = sum_{u<v} P[u,v] d_u ^ d_v, and a trivector is a
fully antisymmetric 3-index array T with T[i,j,k] the coefficient
against d_i ^ d_j ^ d_k for i < j < k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exactlin import Matrix
from .lagrel import Splitting
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
            raise ValueError("sampler returned a wrong shape")
        if np.max(np.abs(p + p.T)) > ANTISYM_TOL * max(1.0, np.max(np.abs(p))):
            raise ValueError("sampler output is not antisymmetric")
        return p


@dataclass(frozen=True)
class Trivector:
    dim: int
    values: np.ndarray

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.dim else 0.0


def _empty_trivector(dim: int) -> np.ndarray:
    return np.zeros((dim, dim, dim))


def _set_antisym(T: np.ndarray, i: int, j: int, k: int, val: float) -> None:
    T[i, j, k] = val
    T[j, k, i] = val
    T[k, i, j] = val
    T[j, i, k] = -val
    T[i, k, j] = -val
    T[k, j, i] = -val


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
    cols = []
    for l in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[l] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def schouten_fd(field: ChartBivectorField, point, h: float) -> Trivector:
    """Schouten bracket [pi, pi] by central differences of step h, O(h^2).

    Components are twice the coordinate Jacobiator:
    T^ijk = 2 sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij).
    """
    d = field.chart_dim
    x = np.asarray(point, dtype=float)
    P = field(x)
    dP = central_difference(field, x, h)  # dP[j, k, l] = d_l P^jk
    T = _empty_trivector(d)
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
    return Trivector(d, T)


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
) -> Trivector:
    """Push sum values[i<j<k] * w^i ^ w^j ^ w^k through the anchor matrix.

    ``wedge_vectors`` are the algebra vectors attached to the value table
    (the dual frame fixed by <e_i, f^j> = delta); each is mapped by the
    anchor before wedging.
    """
    a = np.asarray(anchor, dtype=float)
    m = a.shape[0]
    pushed = [a @ np.asarray([float(x) for x in vec]) for vec in wedge_vectors]
    T = _empty_trivector(m)
    for (i, j, k), val in values:
        T += float(val) * wedge3(pushed[i], pushed[j], pushed[k])
    return Trivector(m, T)


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


def _kept_tables(alg: QuadraticLieAlgebra, s: Splitting):
    """The splitting's tensor tables for ``alg``, built on first use and
    kept on the splitting."""
    kept = s.tensor_tables
    if kept is None or kept[0] is not alg:
        kept = (alg, splitting_tensor_tables(alg, s))
        object.__setattr__(s, "tensor_tables", kept)
    return kept[1]


def main_identity_rhs(alg: QuadraticLieAlgebra, s: Splitting, anchor0) -> Trivector:
    """a(Y^E) + a(Y^F) for a Lagrangian splitting, pushed to the chart."""
    (vals_e, wedge_e), (vals_f, wedge_f) = _kept_tables(alg, s)
    a = np.asarray([[float(x) for x in row] for row in anchor0])
    t1 = push_trivector(a, vals_e, wedge_e)
    t2 = push_trivector(a, vals_f, wedge_f)
    return Trivector(t1.dim, t1.values + t2.values)


def main_identity_residual(
    field: ChartBivectorField,
    anchor0: Matrix,
    s: Splitting,
    alg: QuadraticLieAlgebra,
    h: float,
) -> float:
    """max |(1/2)[pi, pi] - a(Y^E) - a(Y^F)| at the center of the chart of
    ``field``, where the exact anchor is ``anchor0``; FD step h."""
    lhs = 0.5 * schouten_fd(field, np.zeros(field.chart_dim), h).values
    rhs = main_identity_rhs(alg, s, anchor0).values
    return float(np.max(np.abs(lhs - rhs)))


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
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = jacs[j] @ vals[i] - jacs[i] @ vals[j]
            rhs = np.zeros_like(lhs)
            for k, c in enumerate(alg.bracket_basis(i, j)):
                if c != 0:
                    rhs += float(c) * vals[k]
            residuals.append(float(np.max(np.abs(lhs - rhs))))
    return worst(residuals)


def relatedness_check(
    dphi: np.ndarray,
    pi_source: np.ndarray,
    pi_target: np.ndarray,
) -> float:
    """max-norm residual of dPhi pi dPhi^T - pi'."""
    dphi = np.asarray(dphi, dtype=float)
    resid = dphi @ np.asarray(pi_source, dtype=float) @ dphi.T - np.asarray(
        pi_target, dtype=float
    )
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def structure_tensor_np(alg: QuadraticLieAlgebra) -> np.ndarray:
    """c[i, j, :] = coordinates of [b_i, b_j]."""
    n = alg.dim
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[i, j] = [float(x) for x in alg.bracket_basis(i, j)]
    return c


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
