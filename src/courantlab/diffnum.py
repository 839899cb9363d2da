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
from functools import lru_cache
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
    residuals = []
    for i in range(n):
        for j in range(i + 1, n):
            lhs = jacs[j] @ vals[i] - jacs[i] @ vals[j]
            rhs = np.zeros_like(lhs)
            for k, c in enumerate(alg.bracket_basis(i, j)):
                if c != 0:
                    rhs += float(c) * vals[k]
            residuals.append(max_abs(lhs - rhs))
    return worst(residuals)


def relatedness_check(dphi, pi_source, pi_target) -> float:
    """max-norm residual of dPhi pi dPhi^T - pi', from exact or float
    matrices."""
    dphi, pi_source, pi_target = (np_matrix(m) for m in (dphi, pi_source, pi_target))
    return max_abs(dphi @ pi_source @ dphi.T - pi_target)


def structure_tensor_np(alg: QuadraticLieAlgebra) -> np.ndarray:
    """c[i, j, :] = coordinates of [b_i, b_j]."""
    n = alg.dim
    table = [[alg.bracket_basis(i, j) for j in range(n)] for i in range(n)]
    return np_matrix(table).reshape(n, n, n)


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
