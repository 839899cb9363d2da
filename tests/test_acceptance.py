"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run pytest with -s or rely on
the assertion outcome).  Tolerances are pinned here and nowhere else.
"""

import random

import numpy as np
import pytest

from courantlab import anchored, diffnum, lagrel, liegrp, quadlie, randgen
from courantlab.cli import main
from courantlab.contexts import (
    sl2_algebra,
    sl2_context,
    sl2_pair_context,
    sl2_triangular_triple,
    triangular_complement,
)
from courantlab.exactlin import int_matrix, product_subspace
from courantlab.lagrel import Splitting, related_splitting
from courantlab.diffnum import np_matrix
from courantlab.quadlie import ManinTriple, build_double, diagonal_subspace
from algebra_reference import mat_mul, random_coisotropic_anchor

H = 1e-4
TOL = 1e-6
PI_TOL = 1e-9
SEED = 1


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"criterion {num:2d} [{status}] {label}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def test_criterion_01_exact_validation():
    sl2 = sl2_algebra()
    d = build_double(sl2)
    ok = quadlie.validate_algebra(sl2).passed
    ok = ok and quadlie.validate_algebra(d).passed
    triple = ManinTriple(d, diagonal_subspace(sl2, 1), triangular_complement())
    ok = ok and quadlie.validate_manin_triple(triple).passed
    _report(1, "shipped algebras and the triangular triple validate exactly", ok)


def _instances(count):
    for i in range(count):
        rng = random.Random(f"acceptance:{SEED}:{i}")
        k = rng.randint(1, 4)
        alg = randgen.random_abelian_split_algebra(k)
        anchor, j = random_coisotropic_anchor(rng, k)
        pt = anchored.AnchoredPoint(alg, anchor if j else (), j)
        yield pt, randgen.random_lagrangian_splitting(rng, k), j


def test_criterion_02_rank_formula_oracle():
    mismatches = 0
    for pt, s, _j in _instances(100):
        try:
            anchored.rank_formula(pt, s)
        except anchored.CourantStructureError:
            mismatches += 1
    _report(2, "rank formula equals brute-force matrix rank on 100 instances",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_03_diagonal_backward_consistency():
    mismatches = 0
    for pt, s, j in _instances(100):
        if j == 0:
            continue  # no covectors: both sides are the empty matrix
        try:
            anchored.diagonal_backward(pt, s)
        except anchored.CourantStructureError:
            mismatches += 1
    _report(3, "diagonal backward image equals the splitting bivector exactly",
            mismatches == 0, f"{mismatches} mismatches")


def _main_identity_worst(points, s, alg, h):
    return diffnum.worst(
        diffnum.main_identity_residual(diffnum.double_bivector_field(p, s),
                                       diffnum.main_identity_rhs(alg, s, p.anchor._ints), h)
        for p in points
    )


@pytest.fixture(scope="module")
def manin_points():
    ctx = sl2_context()
    manin = lagrel.Splitting.of_algebra(
        build_double(ctx.algebra), diagonal_subspace(ctx.algebra, 1), triangular_complement()
    )
    return ctx, manin, ctx.points[:10]


def test_criterion_04_main_identity_poisson(manin_points):
    ctx, manin, points = manin_points
    d = build_double(ctx.algebra)
    worst = _main_identity_worst(points, manin, d, H)
    _report(4, "main identity, triangular triple over the group",
            worst <= TOL, f"max residual {worst:.2e}")


def test_criterion_05_main_identity_quasi():
    ctx = sl2_context()
    d = build_double(ctx.algebra)
    gd = diagonal_subspace(ctx.algebra, 1)
    gad = diagonal_subspace(ctx.algebra, -1)
    quasi = lagrel.Splitting.of_algebra(d, gd, gad)
    worst = _main_identity_worst(ctx.points[:10], quasi, d, H)
    pi_e = anchored.bivector_at(ctx.points[0].anchor, quasi)
    zero_at_e = all(x == 0 for row in pi_e.matrix for x in row)
    _report(5, "main identity, quasi splitting; bivector exactly zero at the unit",
            worst <= TOL and zero_at_e, f"max residual {worst:.2e}")


def test_criterion_06_second_order_convergence(manin_points):
    ctx, manin, points = manin_points
    d = build_double(ctx.algebra)
    r1 = _main_identity_worst(points, manin, d, 1e-3)
    r2 = _main_identity_worst(points, manin, d, 5e-4)
    ratio = r1 / r2 if r2 else float("inf")
    _report(6, "halving h reduces the criterion-4 residual by ~4",
            3.5 <= ratio <= 4.5, f"ratio {ratio:.3f}")


def test_criterion_07_double_structures():
    t = sl2_triangular_triple()
    pair = sl2_pair_context()
    deviations = []
    for dmat in pair.points[:10]:
        pip, pim = liegrp.pi_plus_minus(t, dmat)
        plus, minus = liegrp.pi_plus_minus_invariant(t, dmat)
        deviations.append(np.max(np.abs(np_matrix(pip.matrix) - np_matrix(plus.matrix))))
        deviations.append(np.max(np.abs(np_matrix(pim.matrix) - np_matrix(minus.matrix))))
    worst = diffnum.worst(deviations)
    _, pim_e = liegrp.pi_plus_minus(t, pair.points[0])
    zero_e = all(x == 0 for row in pim_e.matrix for x in row)
    _report(7, "pi+- match the invariant formulas; pi- vanishes at the unit",
            worst <= PI_TOL and zero_e, f"max deviation {worst:.1e}")


def test_criterion_08_multiplicativity():
    t = sl2_triangular_triple()
    pair = sl2_pair_context()
    rng = random.Random(SEED)
    pairs = [(rng.choice(pair.points), rng.choice(pair.points)) for _ in range(10)]
    residuals = []
    for d1, d2 in pairs:
        d12 = pair.point(int_matrix(mat_mul(d1.g, d2.g)))
        dm = diffnum.dmult_fd(d1, d2, d12, h=H)
        p1p, p1m = (np_matrix(b.matrix) for b in liegrp.pi_plus_minus(t, d1))
        p2p, p2m = (np_matrix(b.matrix) for b in liegrp.pi_plus_minus(t, d2))
        tp, tm = (np_matrix(b.matrix) for b in liegrp.pi_plus_minus(t, d12))
        for sa, sb, tgt in ((p1m, p2m, tm), (p1p, -p2p, tm),
                            (p1p, -p2m, tp), (p1m, p2p, tp)):
            big = np.zeros((12, 12))
            big[:6, :6] = sa
            big[6:, 6:] = sb
            residuals.append(np.max(np.abs(dm @ big @ dm.T - tgt)))
    worst = diffnum.worst(residuals)
    plus, minus = t.plus, t.minus
    big_r = lagrel.pair_groupoid_relation(t.d_ctx.double_algebra)
    lines_ok = all(
        related_splitting(
            Splitting(big_r.source, product_subspace(*es), product_subspace(*fs)), tgt, big_r
        ).related
        for es, fs, tgt in (
            ((minus.e, minus.e), (minus.f, minus.f), minus),
            ((plus.e, plus.f), (plus.f, plus.e), minus),
            ((plus.e, minus.f), (plus.f, minus.e), plus),
            ((minus.e, plus.e), (minus.f, plus.f), plus),
        )
    )
    _report(8, "four bivector relations under dMult and the exact relatedness table",
            worst <= TOL and lines_ok, f"max residual {worst:.2e}")


def test_criterion_09_dressing():
    t = sl2_triangular_triple()
    points = t.points[:10]
    cois = True
    for x in points:
        right, left = x.dressing
        cois = cois and right.coisotropy[0]
        cois = cois and left.coisotropy[0]
    worst = diffnum.worst(
        diffnum.action_axiom_check(diffnum.dressing_field_sampler(x), t.d_algebra, np.zeros(3), H)
        for x in points[:3]
    )
    pull = all(liegrp.dressing_pullback_check(x) for x in points)
    _report(9, "dressing stabilizers coisotropic; action axiom; pull-back identification",
            cois and worst <= TOL and pull, f"axiom residual {worst:.2e}")


def test_criterion_10_morphism_suite():
    t = sl2_triangular_triple()
    eminus, fminus = t.minus.e, t.minus.f
    img_ok = True
    for x in t.points[:5]:
        p = liegrp.p_phi_fiber(x)
        img_ok = img_ok and lagrel.backward_image_subspace(eminus, p) == t.g1
        img_ok = img_ok and lagrel.backward_image_subspace(fminus, p) == t.g2
    q2 = t.points[2].mult_fiber
    rel = related_splitting(
        Splitting(q2.source, product_subspace(t.g1, t.g1), product_subspace(t.g2, t.g2)),
        t.splitting_bar, q2,
    )
    rng = random.Random(SEED)
    kernels_ok = True
    gpps = [t.points[0]] + [rng.choice(t.points) for _ in range(5)]
    for gpp in gpps:
        q = gpp.mult_fiber
        kernels_ok = kernels_ok and q.kernel() == liegrp.q_mult_kernel_expected(gpp)
        kernels_ok = kernels_ok and q.range_.dim == 6
    _report(10, "backward images, product relatedness, and multiplication kernels",
            img_ok and rel.related and kernels_ok)


def test_criterion_11_relation_laws():
    rng = random.Random(SEED)
    fails = 0
    for _ in range(200):
        ks, kt = rng.randint(1, 4), rng.randint(1, 4)
        r = randgen.random_relation(rng, ks, kt)
        rt = r.transpose()
        if r.kernel() != r.source.form.orth_complement(rt.range_):
            fails += 1
        if r.range_ != r.target.form.orth_complement(rt.kernel()):
            fails += 1
        if r.kernel().dim + r.range_.dim != r.graph.dim:
            fails += 1
    for _ in range(25):
        k0, k1, k2, k3 = (rng.randint(1, 3) for _ in range(4))
        a = randgen.random_relation(rng, k0, k1)
        b = randgen.random_relation(rng, k1, k2)
        c = randgen.random_relation(rng, k2, k3)
        if ((c * b) * a).graph != (c * (b * a)).graph:
            fails += 1
    _report(11, "kernel/range laws and associativity on 200 seeded relations",
            fails == 0, f"{fails} failures")


def test_criterion_12_deterministic_reports(tmp_path):
    out1 = tmp_path / "all1.json"
    out2 = tmp_path / "all2.json"
    rc1 = main(["verify", "all", "--seed", "1", "--out", str(out1)])
    rc2 = main(["verify", "all", "--seed", "1", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    _report(12, "verify all --seed 1 is byte-deterministic and passes",
            rc1 == 0 and rc2 == 0 and same)
