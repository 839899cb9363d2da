"""Named verification suites behind the command-line harness.

Each suite returns an ordered list of record dicts; a record carries a
name, a pass/fail status, and either a residual (numeric checks) or a
detail string (exact checks).  The FD layer returns plain residuals and
the suites decide every verdict; a non-finite residual fails its record.
Reports stay free of wall-clock data so fixed seeds reproduce
byte-identical output.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np

from . import anchored, diffnum, lagrel, liegrp, quadlie, randgen
from .contexts import (
    get_group_context,
    get_triple_context,
    named_splitting,
    sl2_context,
    sl2_triangular_triple,
    sl2c_realified_context,
)
from .exactlin import ExactSubspace, add_vec, mat_mul, mat_vec, scale_vec
from .lagrel import Splitting, product_subspace, related_splitting
from .liegrp import TripleContext, np_matrix

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-6

SUITE_NAMES = ("schouten", "rank", "leaves", "mult", "dressing", "relations", "all")

# schouten needs two points for its h-ladder; dressing (also run by all)
# relates the lifts at sample points 1 and 2
MIN_SAMPLES = {"schouten": 2, "dressing": 3, "all": 3}

# the suites that run on a named context; the others take no --ctx
CONTEXT_SUITES = ("schouten", "mult", "dressing")


def _rec(name: str, ok: bool, residual: float | None = None, detail: str = "") -> dict:
    """A record; a NaN or infinite residual fails it and is named in the
    detail, since strict JSON has no such number."""
    if residual is not None and not math.isfinite(residual):
        return _rec(name, False, detail=f"non-finite residual {residual!r}")
    out = {"name": name, "status": "pass" if ok else "fail"}
    if residual is not None:
        out["residual"] = float(residual)
    if detail:
        out["detail"] = detail
    return out


def _ladder_rec(name: str, coarse: float, fine: float) -> dict:
    """Halving the step of an O(h^2) check must divide its residual by 3.5..4.5.

    Two zero rungs leave no truncation error to measure; a zero finer rung
    under a nonzero coarser one, or a non-finite rung, fails without a ratio.
    """
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return _rec(name, False, detail=f"non-finite rung: h {coarse!r}, h/2 {fine!r}")
    if fine == 0:
        if coarse == 0:
            return _rec(name, True, detail="both rungs are 0: no truncation error to measure")
        return _rec(name, False, detail=f"finer rung is 0 under a coarser rung of {coarse!r}")
    ratio = coarse / fine
    return _rec(name, 3.5 <= ratio <= 4.5, ratio)


def _cap_recs(asked: int, ran: int, cap: str = "the shipped points") -> list[dict]:
    """One record naming the count asked for and the count run, when a
    suite ran fewer sample points than asked for; none otherwise."""
    if ran >= asked:
        return []
    return [_rec(f"sample count capped at {cap}", True, detail=f"asked for {asked}, ran {ran}")]


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
    d = ctx.double_algebra
    quasi = named_splitting("sl2c-real", "delta-antidelta")
    gd, duals = quasi.e, quasi.duals
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
    return ctx, d, Splitting.of_algebra(d, e, f_sub)


def _main_identity_residuals(points, fields, s: Splitting, alg, h: float) -> list[float]:
    """The main identity residual at each point, in the chart of its field."""
    return [diffnum.main_identity_residual(fld, p.anchor.exact_anchor(), s, alg, h)
            for p, fld in zip(points, fields)]


def suite_schouten(ctx_name: str = "sl2-double", h: float = DEFAULT_H,
                   tol: float = DEFAULT_TOL, samples: int = 10) -> list[dict]:
    if ctx_name not in ("sl2-double", "sl2c-real"):
        raise KeyError(f"schouten suite has no context {ctx_name!r}")
    records: list[dict] = []
    flat = _flat_poisson_field()
    point = np.array([0.3, 0.7, 0.2])
    r0 = diffnum.schouten_fd(flat, point, h).max_abs()
    records.append(_rec("flat-chart poisson residual", r0 <= tol, r0))
    r1 = diffnum.schouten_fd(flat, point, 1e-3).max_abs()
    r2 = diffnum.schouten_fd(flat, point, 5e-4).max_abs()
    records.append(_ladder_rec("flat-chart h-ladder ratio", r1, r2))

    if ctx_name == "sl2-double":
        ctx = sl2_context()
        alg = ctx.double_algebra
        manin = named_splitting(ctx_name, "delta-triangular")
        quasi = named_splitting(ctx_name, "delta-antidelta")
        points = ctx.points[:samples]
        fields = [liegrp.double_bivector_field(p, manin) for p in points]
        for i, r in enumerate(_main_identity_residuals(points, fields, manin, alg, h)):
            records.append(_rec(f"main identity (manin) {ctx.name}#{i}", r <= tol, r))
        fields_q = [liegrp.double_bivector_field(p, quasi) for p in points]
        for i, r in enumerate(_main_identity_residuals(points, fields_q, quasi, alg, h)):
            records.append(_rec(f"main identity (quasi) {ctx.name}#{i}", r <= tol, r))
        rh1 = diffnum.worst(_main_identity_residuals(points, fields, manin, alg, 1e-3))
        rh2 = diffnum.worst(_main_identity_residuals(points, fields, manin, alg, 5e-4))
        records.append(_ladder_rec("main identity h-ladder ratio", rh1, rh2))
    else:
        ctx, d, sheared = _sheared_quasi_splitting()
        points = ctx.points[:samples]
        fields = [liegrp.double_bivector_field(p, sheared) for p in points]
        defects = [diffnum.main_identity_rhs(d, sheared, p.anchor.exact_anchor()).max_abs()
                   for p in points]
        resids = _main_identity_residuals(points, fields, sheared, d, h)
        for i, (r, defect) in enumerate(zip(resids, defects)):
            records.append(_rec(f"main identity (sheared) {ctx.name}#{i}",
                                r <= tol * (1.0 + defect), r))
        records.append(_rec("sheared case has nonzero defect", any(x > 0.01 for x in defects)))
    return records + _cap_recs(samples, len(points))


def _random_anchored_instance(seed_key: str):
    rng = random.Random(seed_key)
    k = rng.randint(1, 4)
    alg = randgen.random_abelian_split_algebra(k)
    anchor, j = randgen.random_coisotropic_anchor(rng, k)
    pt = anchored.AnchoredPoint(alg, anchor if j else (), j)
    return pt, randgen.random_lagrangian_splitting(rng, k), j


def suite_rank(samples: int = 100, seed: int = 0) -> list[dict]:
    records: list[dict] = []
    rank_fails = []
    diag_fails = []
    for i in range(samples):
        pt, s, j = _random_anchored_instance(f"rank:{seed}:{i}")
        try:
            anchored.rank_formula(pt, s)
        except anchored.CourantStructureError as exc:
            rank_fails.append((i, str(exc)))
            continue
        if j > 0:
            try:
                anchored.diagonal_backward(pt, s)
            except anchored.CourantStructureError as exc:
                diag_fails.append((i, str(exc)))
    records.append(_rec(
        f"rank formula == matrix rank on {samples} seeded instances",
        not rank_fails, detail="; ".join(f"#{i}: {m}" for i, m in rank_fails) or f"{samples} exact agreements",
    ))
    records.append(_rec(
        "diagonal backward image == splitting bivector on the same instances",
        not diag_fails, detail="; ".join(f"#{i}: {m}" for i, m in diag_fails) or "exact agreement",
    ))
    return records


def suite_leaves(samples: int = 40, seed: int = 0) -> list[dict]:
    records: list[dict] = []
    true_count = 0
    fails = []
    for i in range(samples):
        pt, s, _ = _random_anchored_instance(f"leaf:{seed}:{i}")
        try:
            if anchored.leaf_condition(pt, s):
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
    strict = not anchored.leaf_condition(pt6, Splitting.of_algebra(ab6, e6, f6))
    records.append(_rec("synthetic dim-6 case violates the leaf condition", strict))
    # Lagrangian stabilizers make the condition automatic
    quasi = named_splitting("sl2-double", "delta-antidelta")
    auto = all(anchored.leaf_condition(p.anchor, quasi) for p in sl2_context().points[:4])
    records.append(_rec("exact-type points satisfy the leaf condition", auto))
    return records


def suite_mult(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
               seed: int = 0, samples: int = 10) -> list[dict]:
    """pi+/pi- on the double group D of a Manin triple: the relatedness
    table of the product splittings, then their multiplicativity."""
    records: list[dict] = []
    group = t.d_ctx
    n = t.d_algebra.dim
    rng = random.Random(seed)
    # a triple that is not one stops here, before any FD work
    plus, minus = t.plus, t.minus

    big_r = lagrel.pair_groupoid_relation(group.double_algebra)
    # (label, E-factors, F-factors, target) of each product splitting
    lines = [
        ("(e- x e-, f- x f-) ~ (e-, f-)", (minus.e, minus.e), (minus.f, minus.f), minus),
        ("(e+ x f+, f+ x e+) ~ (e-, f-)", (plus.e, plus.f), (plus.f, plus.e), minus),
        ("(e+ x f-, f+ x e-) ~ (e+, f+)", (plus.e, minus.f), (plus.f, minus.e), plus),
        ("(e- x e+, f- x f+) ~ (e+, f+)", (minus.e, plus.e), (minus.f, plus.f), plus),
    ]
    for label, es, fs, tgt in lines:
        src = Splitting(big_r.source, product_subspace(*es), product_subspace(*fs))
        rep = related_splitting(src, tgt, big_r)
        records.append(_rec(f"algebraic relatedness {label}", rep.related,
                            detail=",".join(rep.reasons)))

    # each pair's product point and FD Jacobian are built once
    pairs = []
    for _ in range(samples):
        d1, d2 = rng.choice(group.points), rng.choice(group.points)
        pairs.append((d1, d2, group.point(mat_mul(d1.g, d2.g))))
    jacobians = [liegrp.dmult_fd(d1, d2, d12, h=h) for d1, d2, d12 in pairs]
    worst_equi = diffnum.worst(liegrp.pair_multiplication_check(dm, d1, d2, d12)
                               for (d1, d2, d12), dm in zip(pairs, jacobians))
    records.append(_rec("anchor equivariance of multiplication", worst_equi <= tol, worst_equi))

    # pi+ and pi- at each distinct point, built once
    pi_pm = functools.cache(functools.partial(liegrp.pi_plus_minus, t))

    def pis(d):
        pip, pim = pi_pm(d)
        return np_matrix(pip.matrix), np_matrix(pim.matrix)

    residuals = []
    for (d1, d2, d12), dm in zip(pairs, jacobians):
        p1p, p1m = pis(d1)
        p2p, p2m = pis(d2)
        tp, tm = pis(d12)
        for (sa, sb, tgt) in (
            (p1m, p2m, tm), (p1p, -p2p, tm), (p1p, -p2m, tp), (p1m, p2p, tp)
        ):
            big = np.zeros((2 * n, 2 * n))
            big[:n, :n] = sa
            big[n:, n:] = sb
            residuals.append(float(np.max(np.abs(dm @ big @ dm.T - tgt))))
    worst_mult = diffnum.worst(residuals)
    records.append(_rec("pi multiplicativity (4 relations) under dMult",
                        worst_mult <= tol, worst_mult))

    # invariant formulas and the unit fibers
    exact_ok = True
    points = group.points[:samples]
    for d in points:
        pip, pim = pi_pm(d)
        plus, minus = liegrp.pi_plus_minus_invariant(t, d)
        exact_ok = exact_ok and pip.matrix == plus and pim.matrix == minus
    records.append(_rec("pi+- match the invariant-frame formulas exactly", exact_ok))
    _, pim_e = pi_pm(group.points[0])
    records.append(_rec("pi- vanishes at the unit", all(x == 0 for row in pim_e.matrix for x in row)))
    return records + _cap_recs(samples, len(points))


def suite_dressing(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
                   seed: int = 0, samples: int = 10) -> list[dict]:
    """The dressing actions of G1 on itself and the embedding G1 -> D of a
    Manin triple, as statements about related Lagrangian splittings."""
    records: list[dict] = []
    n = t.d_algebra.dim
    points = t.points[:samples]
    cois = True
    for x in points:
        right, left = x.dressing
        cois = cois and right.coisotropy[0] and left.coisotropy[0]
    records.append(_rec("dressing stabilizers exactly coisotropic", cois))

    worst_axiom = diffnum.worst(
        diffnum.action_axiom_check(liegrp.dressing_field_sampler(x), t.d_algebra,
                                   np.zeros(t.g1.dim), h)
        for x in points[:3]
    )
    records.append(_rec("dressing action axiom (FD)", worst_axiom <= tol, worst_axiom))

    rng = random.Random(seed)
    residuals = []
    for d0 in t.d_ctx.points[:3]:
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        z1 = tuple(Fraction(1 if a == i else 0) for a in range(n))
        z2 = tuple(Fraction(1 if a == j else 0) for a in range(n))
        residuals.append(liegrp.phi_r_homomorphism_residual(t, d0, z1, z2, h=h))
    worst_hom = diffnum.worst(residuals)
    records.append(_rec("phi^R bracket homomorphism (FD jets)", worst_hom <= tol, worst_hom))

    pull = all(liegrp.dressing_pullback_check(x) for x in points)
    records.append(_rec("pull-back reduction == dressing anchor through phi^R", pull))

    img_ok = True
    for x in points[:5]:
        p = liegrp.p_phi_fiber(x)
        img_ok = img_ok and lagrel.backward_image_subspace(t.minus.e, p) == t.g1
        img_ok = img_ok and lagrel.backward_image_subspace(t.minus.f, p) == t.g2
    records.append(_rec("backward images of E-, F- are the g1, g2 columns", img_ok))

    qm_ok = True
    gpps = [t.points[0]] + list(points[1:6])
    for gpp in gpps:
        q = liegrp.q_mult_fiber(gpp)
        qm_ok = qm_ok and q.kernel() == liegrp.q_mult_kernel_expected(gpp)
        qm_ok = qm_ok and q.range_().dim == t.d_algebra.dim
    records.append(_rec("ker/ran of the multiplication lift match closed forms", qm_ok))

    q = liegrp.q_mult_fiber(points[2])
    rel = related_splitting(
        Splitting(q.source, product_subspace(t.g1, t.g1), product_subspace(t.g2, t.g2)),
        t.splitting_bar, q,
    )
    records.append(_rec("(E x E, F x F) related to (E, F) through the lift", rel.related,
                        detail=",".join(rel.reasons)))

    residuals = []
    for x in points[1:5]:
        pig = liegrp.g1_poisson_bivector(x)
        pim = anchored.bivector_at(x.phi.anchor, t.minus)
        residuals.append(diffnum.relatedness_check(
            np_matrix(t.inclusion), np_matrix(pig.matrix), np_matrix(pim.matrix)
        ))
    worst_phi = diffnum.worst(residuals)
    records.append(_rec("embedding is a bivector map onto pi-", worst_phi <= tol, worst_phi))
    return records + _cap_recs(samples, len(points))


def suite_relations(samples: int = 200, seed: int = 0) -> list[dict]:
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
    # at least one triple, so a small --samples does not pass vacuously
    triples = max(1, samples // 8)
    assoc_fails = []
    for i in range(triples):
        k0, k1, k2, k3 = (rng.randint(1, 3) for _ in range(4))
        r = randgen.random_relation(rng, k0, k1)
        s = randgen.random_relation(rng, k1, k2)
        tt = randgen.random_relation(rng, k2, k3)
        if ((tt * s) * r).graph != (tt * (s * r)).graph:
            assoc_fails.append(f"#{i}")
    records = [
        _rec(f"kernel/range identities on {samples} seeded relations", not fails,
             detail="; ".join(fails[:5]) or "exact"),
        _rec(f"composition associativity on {triples} seeded triples",
             not assoc_fails, detail="; ".join(assoc_fails[:5]) or "exact"),
    ]
    return records


def suite_all(h: float = DEFAULT_H, tol: float = DEFAULT_TOL, seed: int = 0,
              samples: int | None = None) -> list[dict]:
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
                for r in suite_schouten("sl2-double", h, tol, samples or 10)]
    records += [{**r, "name": f"schouten: {r['name']}"}
                for r in suite_schouten("sl2c-real", h, tol, 4)]
    records += [{**r, "name": f"rank: {r['name']}"}
                for r in suite_rank(samples or 100, seed)]
    records += [{**r, "name": f"leaves: {r['name']}"}
                for r in suite_leaves(samples or 40, seed)]
    # mult and dressing run at most 10 samples here
    group_samples = min(samples or 10, 10)
    for name, suite in (("mult", suite_mult), ("dressing", suite_dressing)):
        suite_records = suite(t, tol, h, seed, group_samples)
        suite_records += _cap_recs(samples or 10, group_samples, "10 in verify all")
        records += [{**r, "name": f"{name}: {r['name']}"} for r in suite_records]
    records += [{**r, "name": f"relations: {r['name']}"}
                for r in suite_relations(samples or 200, seed)]
    return records


def run_suite(name: str, *, ctx: str | None = None, samples: int | None = None,
              seed: int = 0, h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> list[dict]:
    if name == "schouten":
        return suite_schouten(ctx or "sl2-double", h, tol, samples or 10)
    if name == "rank":
        return suite_rank(samples or 100, seed)
    if name == "leaves":
        return suite_leaves(samples or 40, seed)
    if name in ("mult", "dressing"):
        suite = suite_mult if name == "mult" else suite_dressing
        t = get_triple_context(ctx or "sl2-triangular-triple")
        return suite(t, tol, h, seed, samples or 10)
    if name == "relations":
        return suite_relations(samples or 200, seed)
    if name == "all":
        return suite_all(h, tol, seed, samples)
    raise KeyError(f"unknown suite {name!r}")
