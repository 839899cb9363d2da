"""Reference algebras and the dense reference of ``validate_algebra``.

``dense_validate_algebra`` is the triple loop over basis vectors that
``quadlie.validate_algebra`` replaced: Jacobi through ``bracket_vec`` and
invariance through ``pairing``, one dense call per index triple.  The
sparse path must give the same records in the same order.

``reference_pullback`` is the elimination path that
``anchored.pullback_point`` replaced: C as the kernel of [-a | dPhi | 0],
its orthogonal complement, quotient coordinates on C / C-perp, the
descended form and the anchor read off the complement's v-block.

The ``fraction_*`` functions are the Fraction formulas the group layer's
integer builders replaced, Ad_g conjugated and coordinatized on
Fractions included: the anchor of the two-sided action, the dressing
pair, the multiplication fiber and its expected kernel, the fiber of the
embedding, phi^R, the invariant-frame pi+- and the pull-back's phi^R
lifts.  ``ad`` and ``ad_inverse`` read a point's integer Ad tables back
as Fractions.

``randint_small_ints`` and ``random_invertible`` are the generator's
draws the way they were first made: small rationals by ``rng.randint``,
and every invertible draw inverted.  ``random_split_transform`` reads
all 2k columns of the generator back as one Fraction matrix.

``sl_double(n)`` is sl_n (+) sl_n-bar with the trace form, of dimension
2(n^2 - 1).  Run as a script it writes the double as ``validate`` input:

    PYTHONPATH=src python tests/algebra_reference.py 4 > sl4-double.json
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from courantlab.anchored import AnchoredPoint
from courantlab.exactlin import (
    BilinearForm,
    ExactSubspace,
    Matrix,
    QuotientMap,
    SingularMatrixError,
    Vector,
    _inverse_rows,
    add_vec,
    frac_matrix,
    hstack,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    matrix,
    nullspace,
    quotient_coords,
    transpose,
    zeros,
)
from courantlab.lagrel import LinearRelation, from_algebra, hyperbolic_space
from courantlab.liegrp import G1Point, GroupPoint, TripleContext, flatten
from courantlab.quadlie import (
    QuadraticLieAlgebra,
    ValidationRecord,
    ValidationReport,
    build_double,
)
from courantlab.randgen import _split_transform_cols


def dense_validate_algebra(alg: QuadraticLieAlgebra) -> ValidationReport:
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


class ReferencePullback(NamedTuple):
    """The pull-back's C, the quotient C / C-perp (its W1 and W0), the
    descended form and the reduced anchor (source chart dim x quotient dim)."""

    c: ExactSubspace
    quotient: QuotientMap
    reduced_form: BilinearForm
    reduced_anchor: Matrix


def reference_pullback(pt: AnchoredPoint, dphi) -> ReferencePullback:
    """The pull-back along dPhi by kernels and quotient coordinates, with
    G = B (+) H_s; ValueError when C-perp is not inside C."""
    dphi = matrix(dphi)
    n, m, s = pt.algebra.dim, pt.chart_dim, len(dphi[0])
    ambient = pt.algebra.form.direct_sum(hyperbolic_space(s).form)
    c = nullspace(hstack(mat_scale(-1, pt.anchor), dphi, zeros(m, s)), n + 2 * s)
    q = quotient_coords(c, ambient.orth_complement(c))
    anchor = tuple(tuple(row[n + j] for row in q.complement) for j in range(s))
    return ReferencePullback(c, q, q.descended_form(ambient), anchor)


def ad(p: GroupPoint) -> Matrix:
    """Ad_g of a point as Fractions, read back from its integer table."""
    return frac_matrix(*p.adjoint_ints)


def ad_inverse(p: GroupPoint) -> Matrix:
    return frac_matrix(*p.adjoint_inverse_ints)


def fraction_conjugation(ctx, h: Matrix, h_inv: Matrix) -> Matrix:
    """Ad_h as the group layer once computed it, on Fractions: one product
    chain per basis element, each converting h and h^-1 again, then one
    coordinatization.  The reference for GroupPoint._conjugation."""
    conj = [flatten(mat_mul(h, b, h_inv)) for b in ctx.algebra_basis]
    return transpose(ctx.coordinatizer.coords_rows(conj))


def _fraction_ads(p: GroupPoint) -> tuple[Matrix, Matrix]:
    """(Ad_g, Ad_{g^-1}) by the Fraction conjugation."""
    return fraction_conjugation(p.ctx, p.g, p.inverse), fraction_conjugation(p.ctx, p.inverse, p.g)


def fraction_anchor(p: GroupPoint) -> Matrix:
    """The two-sided action's anchor [-Ad_{g^-1} | I] at g."""
    return hstack(mat_scale(-1, _fraction_ads(p)[1]), identity(p.ctx.dim))


def fraction_dressing(x: G1Point) -> tuple[Matrix, Matrix]:
    """The right and left dressing anchors Ad_{g^-1} p1 Ad_{Phi(g)} and
    -p1 Ad_{Phi(g)^-1}, their columns read in G1's coordinates."""
    t = x.triple
    p1, _ = t.splitting.projectors

    def g1_columns(m: Matrix) -> Matrix:
        return transpose(t.g1_coordinatizer.coords_rows(transpose(m)))

    ad_phi, ad_phi_inv = _fraction_ads(x.phi)
    right = mat_mul(_fraction_ads(x.g1)[1], g1_columns(mat_mul(p1, ad_phi)))
    return right, mat_scale(-1, g1_columns(mat_mul(p1, ad_phi_inv)))


def fraction_mult_fiber(xpp: G1Point) -> LinearRelation:
    """The multiplication fiber over (g' g'', g', g''): the parameters
    (z', z'') with p2 z' = p2 Ad_{Phi(g'')} z'' as a Fraction kernel basis,
    and zeta = Ad_{Phi(g'')^-1} p1 z' + z''."""
    t = xpp.triple
    n = t.d_algebra.dim
    p1, p2 = t.splitting.projectors
    ad_phi, ad_phi_inv = _fraction_ads(xpp.phi)
    params = nullspace(hstack(mat_scale(-1, p2), mat_mul(p2, ad_phi)), 2 * n).basis
    moved = mat_mul(tuple(p[:n] for p in params), transpose(mat_mul(ad_phi_inv, p1)))
    zeta = mat_add(moved, tuple(p[n:] for p in params))
    return LinearRelation.from_rows(t.dbar_pair, t.splitting_bar.space, hstack(zeta, params))


def fraction_kernel_expected(xpp: G1Point) -> ExactSubspace:
    """{(xi, -Ad_{Phi(g''^-1)} xi) : xi in g1} over g1's unit-pivot basis."""
    t = xpp.triple
    moved = mat_mul(t.g1.basis, transpose(_fraction_ads(xpp.phi)[1]))
    return ExactSubspace.span(hstack(t.g1.basis, mat_scale(-1, moved)), ambient_dim=2 * t.d_algebra.dim)


def fraction_p_phi_fiber(x: G1Point) -> LinearRelation:
    """The embedding's fiber: (-xi, -Ad_{Phi(g)^-1} xi, 0) for xi in g1 and
    (p2 Ad_{Phi(g)} e_i, e_i, e_i)."""
    t = x.triple
    n = t.d_algebra.dim
    _, p2 = t.splitting.projectors
    ad_phi, ad_phi_inv = _fraction_ads(x.phi)
    moved = mat_mul(t.g1.basis, transpose(ad_phi_inv))
    rows = hstack(mat_scale(-1, t.g1.basis), mat_scale(-1, moved), zeros(t.g1.dim, n))
    rows += hstack(transpose(mat_mul(p2, ad_phi)), identity(n), identity(n))
    return LinearRelation.from_rows(t.splitting_bar.space, from_algebra(t.d_ctx.double_algebra), rows)


def fraction_phi_r_value(t: TripleContext, d: GroupPoint, zeta: Vector) -> Vector:
    """phi^R(zeta) = (p2(Ad_d zeta), zeta)."""
    return mat_vec(t.splitting.projectors[1], mat_vec(_fraction_ads(d)[0], zeta)) + tuple(zeta)


def fraction_pi_plus_minus_invariant(t: TripleContext, d: GroupPoint) -> tuple[Matrix, Matrix]:
    """r^R +/- r^L at d, with r^R = Ad_{d^-1} r Ad_{d^-1}^T."""
    r, c = t.splitting.bivector.matrix, _fraction_ads(d)[1]
    r_right = mat_mul(c, r, transpose(c))
    return mat_add(r_right, r), mat_add(r_right, mat_scale(-1, r))


def fraction_lifts(x: G1Point) -> Matrix:
    """The phi^R lifts of the pull-back check: row b of
    [(p2 Ad_{Phi(g)})^T | I | ra^T | 0] for the right dressing anchor ra."""
    t = x.triple
    n, k = t.d_algebra.dim, t.g1.dim
    p2_ad = mat_mul(t.splitting.projectors[1], _fraction_ads(x.phi)[0])
    return hstack(transpose(p2_ad), identity(n), transpose(fraction_dressing(x)[0]), zeros(n, k))


def _sl_basis(n: int) -> list[tuple[str, list[list[int]]]]:
    """E_ab (a != b), then H_a = E_aa - E_(a+1)(a+1), as n x n matrices."""
    def unit(a, b):
        m = [[0] * n for _ in range(n)]
        m[a][b] = 1
        return m

    basis = [(f"E{a + 1}{b + 1}", unit(a, b)) for a in range(n) for b in range(n) if a != b]
    for a in range(n - 1):
        h = unit(a, a)
        h[a + 1][a + 1] = -1
        basis.append((f"H{a + 1}", h))
    return basis


def _coords(m: list[list[int]], n: int) -> list[int]:
    """Coordinates of a trace-free matrix in the basis of _sl_basis: the
    off-diagonal entries, then the partial sums of the diagonal."""
    off = [m[a][b] for a in range(n) for b in range(n) if a != b]
    partial = [sum(m[c][c] for c in range(a + 1)) for a in range(n - 1)]
    return off + partial


def sl_algebra(n: int) -> QuadraticLieAlgebra:
    """sl_n with the trace form tr(XY)."""
    basis = _sl_basis(n)

    def mul(x, y):
        return [[sum(x[a][c] * y[c][b] for c in range(n)) for b in range(n)] for a in range(n)]

    triples = []
    for i, (_, x) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            y = basis[j][1]
            xy, yx = mul(x, y), mul(y, x)
            diff = [[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)]
            triples += [(i, j, k, c) for k, c in enumerate(_coords(diff, n)) if c]
    form = [[sum(mul(x, y)[a][a] for a in range(n)) for _, y in basis] for _, x in basis]
    return QuadraticLieAlgebra.from_triples(len(basis), triples, form, [nm for nm, _ in basis])


def sl_double(n: int) -> QuadraticLieAlgebra:
    """sl_n (+) sl_n-bar with the trace form and its negative."""
    return build_double(sl_algebra(n))


def scaled(alg: QuadraticLieAlgebra, bracket, form) -> QuadraticLieAlgebra:
    """alg with every structure constant times bracket and the form times form."""
    data = alg.to_json()
    data["brackets"] = [[i, j, k, str(Fraction(v) * bracket)] for i, j, k, v in data["brackets"]]
    data["form"] = [[str(Fraction(x) * form) for x in row] for row in data["form"]]
    return QuadraticLieAlgebra.from_json(data)


def perturbed(alg: QuadraticLieAlgebra, seed: int, degenerate: bool = False) -> QuadraticLieAlgebra:
    """alg with one structure constant and one symmetric pair of form
    entries moved by a seeded nonzero amount; with degenerate, one row
    and column of the form are zeroed as well."""
    rng = random.Random(seed)
    n = alg.dim
    data = alg.to_json()
    i, j = sorted(rng.sample(range(n), 2))
    # from_triples adds repeated (i, j, k) entries, so this shifts one constant
    data["brackets"].append([i, j, rng.randrange(n), str(Fraction(rng.choice([-2, -1, 1, 3]), 2))])
    form = [[Fraction(x) for x in row] for row in data["form"]]
    a, b = rng.randrange(n), rng.randrange(n)
    form[a][b] += 1
    if a != b:
        form[b][a] += 1
    if degenerate:
        z = rng.randrange(n)
        for c in range(n):
            form[z][c] = form[c][z] = Fraction(0)
    data["form"] = [[str(x) for x in row] for row in form]
    return QuadraticLieAlgebra.from_json(data)


def randint_small_ints(rng: random.Random, count: int) -> tuple[list[int], int]:
    """count small rationals n/d, n in [-2, 2] and d in [1, 3], drawn by
    rng.randint in turn, as integer numerators over one denominator."""
    draws = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(count)]
    den = lcm(*[d for _, d in draws])
    return [n * (den // d) for n, d in draws], den


def random_invertible(rng: random.Random, k: int) -> tuple[tuple[list, int], tuple[list, int]]:
    """A random invertible k x k matrix a and a^-1, each as integer rows
    over one denominator: draws until one elimination inverts the draw."""
    while True:
        nums, den = randint_small_ints(rng, k * k)
        a = [nums[i * k:(i + 1) * k] for i in range(k)]
        try:
            inv, inv_den = _inverse_rows(a)
        except SingularMatrixError:
            continue
        # (a / den)^-1 = den * a^-1
        return (a, den), ([[den * x for x in row] for row in inv], inv_den)


def random_split_transform(rng: random.Random, k: int) -> Matrix:
    """A word of elementary transformations preserving the hyperbolic form
    [[0, I], [I, 0]] on Q^2k: all 2k columns of the generator's column
    path, as Fraction rows."""
    cols, den = _split_transform_cols(rng, k, 2 * k)
    return frac_matrix(list(zip(*cols)), den)


if __name__ == "__main__":
    json.dump(sl_double(int(sys.argv[1])).to_json(), sys.stdout)
