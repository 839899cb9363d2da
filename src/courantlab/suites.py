"""Named verification suites behind the command-line harness.

Each suite returns an ordered list of record dicts; a record carries a
name, a pass/fail status, and either a residual (numeric checks) or a
detail string (exact checks).  Reports stay free of wall-clock data so
fixed seeds reproduce byte-identical output.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import anchored, diffnum, lagrel, liegrp, quadlie, randgen
from .contexts import (
    get_group_context,
    sl2_context,
    sl2_pair_context,
    sl2_triangular_triple,
    sl2c_realified_context,
    triangular_complement,
)
from .exactlin import ExactSubspace, add_vec, mat_vec, scale_vec
from .lagrel import dual_basis, product_subspace, related_splitting
from .liegrp import np_matrix
from .quadlie import build_double, diagonal_subspace

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-6

SUITE_NAMES = ("schouten", "rank", "leaves", "mult", "dressing", "relations", "all")

# dressing (also run by all) relates the lifts at sample points 1 and 2
MIN_SAMPLES = {"dressing": 3, "all": 3}


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("COURANTLAB_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    workers = _thread_count()
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _rec(name: str, ok: bool, residual: float | None = None, detail: str = "") -> dict:
    out = {"name": name, "status": "pass" if ok else "fail"}
    if residual is not None:
        out["residual"] = float(residual)
    if detail:
        out["detail"] = detail
    return out


def _flat_poisson_field() -> diffnum.ChartBivectorField:
    """A closed-form Poisson field on R^3 (pushforward of a constant
    bivector under a polynomial chart change); quartic entries give an
    exactly-order-2 FD ladder."""

    def sampler(y):
        y1, y2, y3 = y
        w = y2 - y1 * y1
        p13 = 2.0 * y1 * w
        p23 = 4.0 * y1 * y1 * w - w * w
        return np.array([[0.0, 1.0, p13], [-1.0, 0.0, p23], [-p13, -p23, 0.0]])

    return diffnum.ChartBivectorField(3, sampler)


def _sheared_quasi_splitting():
    """A splitting of the realified-sl2C double whose integrability
    defect pushes to a nonzero chart trivector (pins the orientation of
    the trivector pushforward).

    Built by shearing the diagonal/anti-diagonal pair with fixed
    form-preserving transvections that mix the complex halves.
    """
    ctx = sl2c_realified_context()
    alg = ctx.algebra
    d = build_double(alg)
    gd = diagonal_subspace(alg, 1)
    gad = diagonal_subspace(alg, -1)
    duals = dual_basis(d.form, gd, gad)
    k = 6
    n_upper = [[Fraction(0)] * k for _ in range(k)]
    n_lower = [[Fraction(0)] * k for _ in range(k)]
    for (i, j, val) in [(0, 4, 1), (1, 3, -1), (2, 5, 1)]:
        n_upper[i][j] = Fraction(val)
        n_upper[j][i] = -Fraction(val)
    for (i, j, val) in [(0, 3, 1), (1, 5, 1), (2, 4, -1)]:
        n_lower[i][j] = Fraction(val)
        n_lower[j][i] = -Fraction(val)
    # new frame: e_i -> e_i + (N_lower-pair), f^i -> f^i + N_upper e
    rows_e = []
    rows_f = []
    for i in range(k):
        v = gd.basis[i]
        w = duals[i]
        for j in range(k):
            if n_lower[i][j]:
                v = add_vec(v, scale_vec(n_lower[i][j], duals[j]))
            if n_upper[i][j]:
                w = add_vec(w, scale_vec(n_upper[i][j], gd.basis[j]))
        rows_e.append(v)
        rows_f.append(w)
    e = ExactSubspace.span(rows_e, ambient_dim=12)
    f_sub = ExactSubspace.span(rows_f, ambient_dim=12)
    return ctx, d, e, f_sub


def suite_schouten(ctx_name: str = "sl2-double", h: float = DEFAULT_H,
                   tol: float = DEFAULT_TOL, samples: int = 10, seed: int = 0) -> list[dict]:
    records: list[dict] = []
    flat = _flat_poisson_field()
    point = np.array([0.3, 0.7, 0.2])
    tri = diffnum.schouten_fd(
        diffnum.ChartBivectorField(3, flat.sampler, step=h), point
    )
    records.append(_rec("flat-chart poisson residual", tri.max_abs() <= tol, tri.max_abs()))
    r1 = diffnum.schouten_fd(diffnum.ChartBivectorField(3, flat.sampler, step=1e-3), point).max_abs()
    r2 = diffnum.schouten_fd(diffnum.ChartBivectorField(3, flat.sampler, step=5e-4), point).max_abs()
    ratio = r1 / r2 if r2 else float("inf")
    records.append(_rec("flat-chart h-ladder ratio", 3.5 <= ratio <= 4.5, ratio))

    if ctx_name in ("sl2-double", "all-builtin"):
        ctx = sl2_context()
        alg = build_double(ctx.algebra)
        gd = diagonal_subspace(ctx.algebra, 1)
        gad = diagonal_subspace(ctx.algebra, -1)
        tri_c = triangular_complement()
        points = ctx.sample_points[:max(2, samples)]
        charts = [liegrp.double_chart_at(ctx, g, gd, tri_c, h=h) for g in points]
        rep = diffnum.verify_main_identity(charts, gd, tri_c, alg, tol=tol, h=h)
        for chk in rep.checks:
            records.append(_rec(f"main identity (manin) {chk.label}", chk.passed, chk.residual))
        charts_q = [liegrp.double_chart_at(ctx, g, gd, gad, h=h) for g in points]
        rep_q = diffnum.verify_main_identity(charts_q, gd, gad, alg, tol=tol, h=h)
        for chk in rep_q.checks:
            records.append(_rec(f"main identity (quasi) {chk.label}", chk.passed, chk.residual))
        rh1 = diffnum.verify_main_identity(charts, gd, tri_c, alg, tol=1.0, h=1e-3).max_residual
        rh2 = diffnum.verify_main_identity(charts, gd, tri_c, alg, tol=1.0, h=5e-4).max_residual
        ratio = rh1 / rh2 if rh2 else float("inf")
        records.append(_rec("main identity h-ladder ratio", 3.5 <= ratio <= 4.5, ratio))
    elif ctx_name == "sl2c-real":
        ctx, d, e, f = _sheared_quasi_splitting()
        points = ctx.sample_points[:max(2, samples)]
        charts = [liegrp.double_chart_at(ctx, g, e, f, h=h) for g in points]
        scale_tols = []
        for chart in charts:
            rhs = diffnum.main_identity_rhs(d, e, f, chart.anchor0)
            scale_tols.append(tol * (1.0 + rhs.max_abs()))
        rep = diffnum.verify_main_identity(charts, e, f, d, tol=1.0, h=h)
        nonzero = False
        for chk, st, chart in zip(rep.checks, scale_tols, charts):
            records.append(_rec(f"main identity (sheared) {chk.label}", chk.residual <= st, chk.residual))
            if diffnum.main_identity_rhs(d, e, f, chart.anchor0).max_abs() > 0.01:
                nonzero = True
        records.append(_rec("sheared case has nonzero defect", nonzero))
    else:
        raise KeyError(f"schouten suite has no context {ctx_name!r}")
    return records


def _random_anchored_instance(seed_key: str):
    rng = random.Random(seed_key)
    k = rng.randint(1, 4)
    alg = randgen.random_abelian_split_algebra(k)
    anchor, j = randgen.random_coisotropic_anchor(rng, k)
    pt = anchored.AnchoredPoint(alg, anchor if j else (), j)
    _, e, f = randgen.random_lagrangian_splitting(rng, k)
    return pt, e, f, j


def suite_rank(samples: int = 100, seed: int = 0, **_ignored) -> list[dict]:
    records: list[dict] = []
    rank_fails = []
    diag_fails = []

    def one(i):
        pt, e, f, j = _random_anchored_instance(f"rank:{seed}:{i}")
        try:
            anchored.rank_formula(pt, e, f)
        except anchored.CourantStructureError as exc:
            return ("rank", i, str(exc))
        if j > 0:
            try:
                anchored.diagonal_backward(pt, e, f)
            except anchored.CourantStructureError as exc:
                return ("diag", i, str(exc))
        return None

    for res in _pmap(one, range(samples)):
        if res is None:
            continue
        (kind, i, msg) = res
        (rank_fails if kind == "rank" else diag_fails).append((i, msg))
    records.append(_rec(
        f"rank formula == matrix rank on {samples} seeded instances",
        not rank_fails, detail="; ".join(f"#{i}: {m}" for i, m in rank_fails) or f"{samples} exact agreements",
    ))
    records.append(_rec(
        "diagonal backward image == splitting bivector on the same instances",
        not diag_fails, detail="; ".join(f"#{i}: {m}" for i, m in diag_fails) or "exact agreement",
    ))
    return records


def suite_leaves(samples: int = 40, seed: int = 0, **_ignored) -> list[dict]:
    records: list[dict] = []
    true_count = 0
    fails = []
    for i in range(samples):
        pt, e, f, j = _random_anchored_instance(f"leaf:{seed}:{i}")
        try:
            if anchored.leaf_condition(pt, e, f):
                true_count += 1
        except anchored.CourantStructureError as exc:
            fails.append(f"#{i}: {exc}")
    records.append(_rec(
        f"leaf condition consistent on {samples} seeded instances",
        not fails, detail="; ".join(fails) or f"{true_count} held, ranges certified",
    ))
    # synthetic strict case: kernel strictly larger than the right side
    ab6 = randgen.random_abelian_split_algebra(3)
    r1 = mat_vec(ab6.form.matrix, (1, 0, 0, 0, 0, 0))
    r2 = mat_vec(ab6.form.matrix, (0, 1, 0, 0, 0, 1))
    pt6 = anchored.AnchoredPoint(ab6, (r1, r2), 2)
    e6 = ExactSubspace.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    f6 = ExactSubspace.span([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
    strict = not anchored.leaf_condition(pt6, e6, f6)
    records.append(_rec("synthetic dim-6 case violates the leaf condition", strict))
    # Lagrangian stabilizers make the condition automatic
    ctx = sl2_context()
    auto = all(
        anchored.leaf_condition(
            liegrp.double_action_anchor(ctx, g),
            diagonal_subspace(ctx.algebra, 1),
            diagonal_subspace(ctx.algebra, -1),
        )
        for g in ctx.sample_points[:4]
    )
    records.append(_rec("exact-type points satisfy the leaf condition", auto))
    return records


def suite_mult(tol: float = DEFAULT_TOL, h: float = DEFAULT_H, seed: int = 0,
               samples: int = 10, **_ignored) -> list[dict]:
    records: list[dict] = []
    t = sl2_triangular_triple()
    pair = sl2_pair_context()
    rng = random.Random(seed)
    eplus, fplus, eminus, fminus = liegrp.product_splittings(t)

    big_r = lagrel.pair_groupoid_relation(t.d_algebra)
    lines = [
        ("(e- x e-, f- x f-) ~ (e-, f-)",
         (product_subspace(eminus, eminus), product_subspace(fminus, fminus)), (eminus, fminus)),
        ("(e+ x f+, f+ x e+) ~ (e-, f-)",
         (product_subspace(eplus, fplus), product_subspace(fplus, eplus)), (eminus, fminus)),
        ("(e+ x f-, f+ x e-) ~ (e+, f+)",
         (product_subspace(eplus, fminus), product_subspace(fplus, eminus)), (eplus, fplus)),
        ("(e- x e+, f- x f+) ~ (e+, f+)",
         (product_subspace(eminus, eplus), product_subspace(fminus, fplus)), (eplus, fplus)),
    ]
    for label, src, tgt in lines:
        rep = related_splitting(src, tgt, big_r)
        records.append(_rec(f"algebraic relatedness {label}", rep.related,
                            detail=",".join(rep.reasons)))

    pairs = [
        (rng.choice(pair.sample_points), rng.choice(pair.sample_points))
        for _ in range(samples)
    ]
    worst_equi = 0.0
    for (d1, d2) in pairs:
        worst_equi = max(worst_equi, liegrp.pair_multiplication_check(pair, d1, d2, h=h))
    records.append(_rec("anchor equivariance of multiplication", worst_equi <= tol, worst_equi))

    def pis(d):
        pip, pim = liegrp.pi_plus_minus(t, d)
        return np_matrix(pip.matrix), np_matrix(pim.matrix)

    worst = 0.0
    for (d1, d2) in pairs:
        dm = liegrp.dmult_fd(pair, d1, d2, h=h)
        d12 = liegrp.amb_mul(d1, d2)
        p1p, p1m = pis(d1)
        p2p, p2m = pis(d2)
        tp, tm = pis(d12)
        for (sa, sb, tgt) in (
            (p1m, p2m, tm), (p1p, -p2p, tm), (p1p, -p2m, tp), (p1m, p2p, tp)
        ):
            big = np.zeros((12, 12))
            big[:6, :6] = sa
            big[6:, 6:] = sb
            worst = max(worst, float(np.max(np.abs(dm @ big @ dm.T - tgt))))
    records.append(_rec("pi multiplicativity (4 relations) under dMult", worst <= tol, worst))

    # invariant formulas and the unit fibers
    exact_ok = True
    for d in pair.sample_points[:samples]:
        pip, pim = liegrp.pi_plus_minus(t, d)
        plus, minus = liegrp.pi_plus_minus_invariant(t, d)
        exact_ok = exact_ok and pip.matrix == plus and pim.matrix == minus
    records.append(_rec("pi+- match the invariant-frame formulas exactly", exact_ok))
    _, pim_e = liegrp.pi_plus_minus(t, pair.sample_points[0])
    records.append(_rec("pi- vanishes at the unit", all(x == 0 for row in pim_e.matrix for x in row)))
    return records


def suite_dressing(tol: float = DEFAULT_TOL, h: float = DEFAULT_H, seed: int = 0,
                   samples: int = 10, **_ignored) -> list[dict]:
    records: list[dict] = []
    t = sl2_triangular_triple()
    ctx = sl2_context()
    points = ctx.sample_points[:samples]
    cois = True
    for g in points:
        right, left = liegrp.dressing_anchor(t, g)
        okr, _ = anchored.check_coisotropic_stabilizer(right)
        okl, _ = anchored.check_coisotropic_stabilizer(left)
        cois = cois and okr and okl
    records.append(_rec("dressing stabilizers exactly coisotropic", cois))

    worst = 0.0
    for g in points[:3]:
        rho = liegrp.dressing_field_sampler(t, g, h=h)
        rep = diffnum.action_axiom_check(rho, t.d_algebra, [np.zeros(t.g1.dim)], tol=tol, h=h)
        worst = max(worst, rep.max_residual)
    records.append(_rec("dressing action axiom (FD)", worst <= tol, worst))

    rng = random.Random(seed)
    pair = sl2_pair_context()
    worst_hom = 0.0
    for d0 in pair.sample_points[:3]:
        i = rng.randrange(6)
        j = (i + 1 + rng.randrange(5)) % 6
        z1 = tuple(Fraction(1 if a == i else 0) for a in range(6))
        z2 = tuple(Fraction(1 if a == j else 0) for a in range(6))
        worst_hom = max(worst_hom, liegrp.phi_r_homomorphism_residual(t, d0, z1, z2, h=h))
    records.append(_rec("phi^R bracket homomorphism (FD jets)", worst_hom <= tol, worst_hom))

    pull = all(liegrp.dressing_pullback_check(t, g) for g in points)
    records.append(_rec("pull-back reduction == dressing anchor through phi^R", pull))

    eplus, fplus, eminus, fminus = liegrp.product_splittings(t)
    img_ok = True
    for g in points[:5]:
        p = liegrp.p_phi_fiber(t, g)
        img_ok = img_ok and lagrel.backward_image_subspace(eminus, p) == t.g1
        img_ok = img_ok and lagrel.backward_image_subspace(fminus, p) == t.g2
    records.append(_rec("backward images of E-, F- are the g1, g2 columns", img_ok))

    qm_ok = True
    gpps = [ctx.sample_points[0]] + list(points[1:6])
    for gpp in gpps:
        q = liegrp.q_mult_fiber(t, rng.choice(points), gpp)
        qm_ok = qm_ok and q.kernel() == liegrp.q_mult_kernel_expected(t, gpp)
        qm_ok = qm_ok and q.range_().dim == t.d_algebra.dim
    records.append(_rec("ker/ran of the multiplication lift match closed forms", qm_ok))

    rel = related_splitting(
        (product_subspace(t.g1, t.g1), product_subspace(t.g2, t.g2)),
        (t.g1, t.g2),
        liegrp.q_mult_fiber(t, points[1], points[2]),
    )
    records.append(_rec("(E x E, F x F) related to (E, F) through the lift", rel.related,
                        detail=",".join(rel.reasons)))

    phi_ok = True
    worst_phi = 0.0
    for g in points[1:5]:
        pig = liegrp.g1_poisson_bivector(t, g)
        _, pim = liegrp.pi_plus_minus(t, t.embed(g))
        ok, r = diffnum.relatedness_check(
            np_matrix(t.inclusion), np_matrix(pig.matrix), np_matrix(pim.matrix), tol=tol
        )
        phi_ok = phi_ok and ok
        worst_phi = max(worst_phi, r)
    records.append(_rec("embedding is a bivector map onto pi-", phi_ok, worst_phi))
    return records


def suite_relations(samples: int = 200, seed: int = 0, **_ignored) -> list[dict]:
    rng = random.Random(seed)
    fails = []
    for i in range(samples):
        ks, kt = rng.randint(1, 4), rng.randint(1, 4)
        r = randgen.random_relation(rng, ks, kt)
        ker, ran = r.kernel(), r.range_()
        rt = r.transpose()
        if ker != r.source.form.orth_complement(rt.range_()):
            fails.append(f"#{i}: ker != ran(R^t)-perp")
        if ran != r.target.form.orth_complement(rt.kernel()):
            fails.append(f"#{i}: ran != ker(R^t)-perp")
        if ker.dim + ran.dim != r.graph.dim:
            fails.append(f"#{i}: dimension identity")
    assoc_fails = []
    for i in range(samples // 8):
        k0, k1, k2, k3 = (rng.randint(1, 3) for _ in range(4))
        r = randgen.random_relation(rng, k0, k1)
        s = randgen.random_relation(rng, k1, k2)
        tt = randgen.random_relation(rng, k2, k3)
        if ((tt * s) * r).graph != (tt * (s * r)).graph:
            assoc_fails.append(f"#{i}")
    records = [
        _rec(f"kernel/range identities on {samples} seeded relations", not fails,
             detail="; ".join(fails[:5]) or "exact"),
        _rec(f"composition associativity on {samples // 8} seeded triples",
             not assoc_fails, detail="; ".join(assoc_fails[:5]) or "exact"),
    ]
    return records


def suite_all(h: float = DEFAULT_H, tol: float = DEFAULT_TOL, seed: int = 0,
              samples: int | None = None, **_ignored) -> list[dict]:
    records: list[dict] = []
    # fail-fast validation of the shipped data
    for name in ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real"):
        ctx = get_group_context(name)
        liegrp.validate_context(ctx)
        rep = quadlie.validate_algebra(ctx.algebra)
        records.append(_rec(f"validate algebra [{name}]", rep.passed, detail=rep.describe()))
    t = sl2_triangular_triple()
    trip_rep = quadlie.validate_manin_triple(quadlie.ManinTriple(t.d_algebra, t.g1, t.g2))
    records.append(_rec("validate manin triple [sl2-triangular-triple]",
                        trip_rep.passed, detail=trip_rep.describe()))
    records += [{**r, "name": f"schouten: {r['name']}"}
                for r in suite_schouten("sl2-double", h, tol, samples or 10, seed)]
    records += [{**r, "name": f"schouten: {r['name']}"}
                for r in suite_schouten("sl2c-real", h, tol, 4, seed)]
    records += [{**r, "name": f"rank: {r['name']}"}
                for r in suite_rank(samples or 100, seed)]
    records += [{**r, "name": f"leaves: {r['name']}"}
                for r in suite_leaves(samples or 40, seed)]
    records += [{**r, "name": f"mult: {r['name']}"}
                for r in suite_mult(tol, h, seed, min(samples or 10, 10))]
    records += [{**r, "name": f"dressing: {r['name']}"}
                for r in suite_dressing(tol, h, seed, min(samples or 10, 10))]
    records += [{**r, "name": f"relations: {r['name']}"}
                for r in suite_relations(samples or 200, seed)]
    return records


def run_suite(name: str, *, ctx: str | None = None, samples: int | None = None,
              seed: int = 0, h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> list[dict]:
    if name == "schouten":
        return suite_schouten(ctx or "sl2-double", h, tol, samples or 10, seed)
    if name == "rank":
        return suite_rank(samples or 100, seed)
    if name == "leaves":
        return suite_leaves(samples or 40, seed)
    if name == "mult":
        return suite_mult(tol, h, seed, samples or 10)
    if name == "dressing":
        return suite_dressing(tol, h, seed, samples or 10)
    if name == "relations":
        return suite_relations(samples or 200, seed)
    if name == "all":
        return suite_all(h, tol, seed, samples)
    raise KeyError(f"unknown suite {name!r}")
