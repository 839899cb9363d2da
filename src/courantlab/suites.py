"""Named verification suites behind the command-line harness.

Each suite returns an ordered list of record dicts; a record carries a
name, a pass/fail status, and either a residual (numeric checks) or a
detail string (exact checks).  The FD layer returns plain residuals and
the suites decide every verdict; a non-finite residual fails its record.
Reports stay free of wall-clock data so fixed seeds reproduce
byte-identical output.  Only schouten, mult and dressing load the FD
layer; they run with its float warnings off.
"""

from __future__ import annotations

import functools
import math
import random

from . import anchored, lagrel, liegrp, quadlie, randgen
from .contexts import (
    GROUP_CONTEXT_NAMES,
    get_group_context,
    get_triple_context,
    named_splitting,
    sl2_context,
    sl2_triangular_triple,
    sl2c_realified_context,
)
from .exactlin import ExactSubspace, hstack, identity, mat_mul, mat_vec, product_subspace
from .lagrel import Splitting, related_splitting
from .liegrp import TripleContext

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-6

SUITE_NAMES = ("schouten", "rank", "leaves", "mult", "dressing", "relations", "all")

# schouten needs two points for its h-ladder; dressing (also run by all)
# relates the lifts at sample points 1 and 2
MIN_SAMPLES = {"schouten": 2, "dressing": 3, "all": 3}
# the sample count of each suite when none is asked for; verify all runs
# mult and dressing at no more than theirs
DEFAULT_SAMPLES = {"schouten": 10, "rank": 100, "leaves": 40, "mult": 10, "dressing": 10,
                   "relations": 200}

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
    frame = quasi.e.basis + quasi.duals
    k = 6

    def shear(entries):
        n = [[0] * k for _ in range(k)]
        for i, j, val in entries:
            n[i][j], n[j][i] = val, -val
        return n

    # e_i -> e_i + sum_j N_lower[i][j] f^j and f^i -> f^i + sum_j N_upper[i][j] e_j:
    # the rows of [I | N_lower] and [N_upper | I] applied to the frame (e, f)
    n_upper = shear([(0, 4, 1), (1, 3, -1), (2, 5, 1)])
    n_lower = shear([(0, 3, 1), (1, 5, 1), (2, 4, -1)])
    e = ExactSubspace.span(mat_mul(hstack(identity(k), n_lower), frame))
    f_sub = ExactSubspace.span(mat_mul(hstack(n_upper, identity(k)), frame))
    return ctx, d, Splitting.of_algebra(d, e, f_sub)


def _fd_suite(suite):
    """The suite, run with the FD layer's float warnings off."""
    @functools.wraps(suite)
    def run(*args, **kwargs):
        from .diffnum import float_warnings_off
        with float_warnings_off():
            return suite(*args, **kwargs)
    return run


@_fd_suite
def suite_schouten(ctx_name: str = "sl2-double", h: float = DEFAULT_H, tol: float = DEFAULT_TOL,
                   samples: int = DEFAULT_SAMPLES["schouten"]) -> list[dict]:
    from . import diffnum

    if ctx_name not in ("sl2-double", "sl2c-real"):
        raise KeyError(f"schouten suite has no context {ctx_name!r}")

    def rhs_at(points, s: Splitting, alg) -> list:
        """a(Y^E) + a(Y^F) at each point, pushed once for every step."""
        return [diffnum.main_identity_rhs(alg, s, p.anchor.anchor) for p in points]

    def main_identity_residuals(points, s: Splitting, rhs, step: float) -> list[float]:
        """The main identity residual at each point, in its own chart."""
        return [diffnum.main_identity_residual(diffnum.double_bivector_field(p, s), r, step)
                for p, r in zip(points, rhs)]

    flat = diffnum.flat_poisson_field()
    r0, r1, r2 = (diffnum.max_abs(diffnum.schouten_fd(flat, (0.3, 0.7, 0.2), step))
                  for step in (h, 1e-3, 5e-4))
    records = [_rec("flat-chart poisson residual", r0 <= tol, r0),
               _ladder_rec("flat-chart h-ladder ratio", r1, r2)]

    if ctx_name == "sl2-double":
        ctx = sl2_context()
        alg = ctx.double_algebra
        manin = named_splitting(ctx_name, "delta-triangular")
        quasi = named_splitting(ctx_name, "delta-antidelta")
        points = ctx.points[:samples]
        manin_rhs, quasi_rhs = rhs_at(points, manin, alg), rhs_at(points, quasi, alg)
        for i, r in enumerate(main_identity_residuals(points, manin, manin_rhs, h)):
            records.append(_rec(f"main identity (manin) {ctx.name}#{i}", r <= tol, r))
        for i, r in enumerate(main_identity_residuals(points, quasi, quasi_rhs, h)):
            records.append(_rec(f"main identity (quasi) {ctx.name}#{i}", r <= tol, r))
        rh1 = diffnum.worst(main_identity_residuals(points, manin, manin_rhs, 1e-3))
        rh2 = diffnum.worst(main_identity_residuals(points, manin, manin_rhs, 5e-4))
        records.append(_ladder_rec("main identity h-ladder ratio", rh1, rh2))
    else:
        ctx, d, sheared = _sheared_quasi_splitting()
        points = ctx.points[:samples]
        rhs = rhs_at(points, sheared, d)
        defects = [diffnum.max_abs(r) for r in rhs]
        resids = main_identity_residuals(points, sheared, rhs, h)
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


def suite_rank(samples: int = DEFAULT_SAMPLES["rank"], seed: int = 0) -> list[dict]:
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


def suite_leaves(samples: int = DEFAULT_SAMPLES["leaves"], seed: int = 0) -> list[dict]:
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


@_fd_suite
def suite_mult(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
               seed: int = 0, samples: int = DEFAULT_SAMPLES["mult"]) -> list[dict]:
    """pi+/pi- on the double group D of a Manin triple: the relatedness
    table of the product splittings, then their multiplicativity."""
    from . import diffnum

    records: list[dict] = []
    group = t.d_ctx
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
    jacobians = [diffnum.dmult_fd(d1, d2, d12, h=h) for d1, d2, d12 in pairs]
    worst_equi = diffnum.worst(diffnum.pair_multiplication_check(dm, d1, d2, d12)
                               for (d1, d2, d12), dm in zip(pairs, jacobians))
    records.append(_rec("anchor equivariance of multiplication", worst_equi <= tol, worst_equi))

    # pi+ and pi- at each distinct point, built once and kept by its anchor
    residuals = []
    for (d1, d2, d12), dm in zip(pairs, jacobians):
        (p1p, p1m), (p2p, p2m), (tp, tm) = (
            (diffnum.np_matrix(pi.matrix) for pi in liegrp.pi_plus_minus(t, d))
            for d in (d1, d2, d12))
        for (sa, sb, tgt) in ((p1m, p2m, tm), (p1p, -p2p, tm), (p1p, -p2m, tp), (p1m, p2p, tp)):
            residuals.append(diffnum.multiplicativity_residual(dm, sa, sb, tgt))
    worst_mult = diffnum.worst(residuals)
    records.append(_rec("pi multiplicativity (4 relations) under dMult",
                        worst_mult <= tol, worst_mult))

    # invariant formulas and the unit fibers
    exact_ok = True
    points = group.points[:samples]
    for d in points:
        pip, pim = liegrp.pi_plus_minus(t, d)
        plus, minus = liegrp.pi_plus_minus_invariant(t, d)
        exact_ok = exact_ok and pip.matrix == plus and pim.matrix == minus
    records.append(_rec("pi+- match the invariant-frame formulas exactly", exact_ok))
    _, pim_e = liegrp.pi_plus_minus(t, group.points[0])
    records.append(_rec("pi- vanishes at the unit", all(x == 0 for row in pim_e.matrix for x in row)))
    return records + _cap_recs(samples, len(points))


@_fd_suite
def suite_dressing(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
                   seed: int = 0, samples: int = DEFAULT_SAMPLES["dressing"]) -> list[dict]:
    """The dressing actions of G1 on itself and the embedding G1 -> D of a
    Manin triple, as statements about related Lagrangian splittings."""
    from . import diffnum

    records: list[dict] = []
    n = t.d_algebra.dim
    points = t.points[:samples]
    cois = True
    for x in points:
        right, left = x.dressing
        cois = cois and right.coisotropy[0] and left.coisotropy[0]
    records.append(_rec("dressing stabilizers exactly coisotropic", cois))

    worst_axiom = diffnum.worst(
        diffnum.action_axiom_check(diffnum.dressing_field_sampler(x), t.d_algebra,
                                   (0.0,) * t.g1.dim, h)
        for x in points[:3]
    )
    records.append(_rec("dressing action axiom (FD)", worst_axiom <= tol, worst_axiom))

    rng = random.Random(seed)
    residuals = []
    units = identity(n)
    for d0 in t.d_ctx.points[:3]:
        i = rng.randrange(n)
        j = (i + 1 + rng.randrange(n - 1)) % n
        residuals.append(diffnum.phi_r_homomorphism_residual(t, d0, units[i], units[j], h=h))
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
        qm_ok = qm_ok and q.range_.dim == t.d_algebra.dim
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
        residuals.append(diffnum.relatedness_check(t.inclusion, pig.matrix, pim.matrix))
    worst_phi = diffnum.worst(residuals)
    records.append(_rec("embedding is a bivector map onto pi-", worst_phi <= tol, worst_phi))
    return records + _cap_recs(samples, len(points))


def suite_relations(samples: int = DEFAULT_SAMPLES["relations"], seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    fails = []
    for i in range(samples):
        ks, kt = rng.randint(1, 4), rng.randint(1, 4)
        r = randgen.random_relation(rng, ks, kt)
        ker, ran = r.kernel(), r.range_
        rt = r.transpose()
        if ker != r.source.form.orth_complement(rt.range_):
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
    for name in GROUP_CONTEXT_NAMES:
        ctx = get_group_context(name)
        liegrp.validate_context(ctx)
        rep = quadlie.validate_algebra(ctx.algebra)
        records.append(_rec(f"validate algebra [{name}]", rep.passed, detail=rep.describe()))
    t = sl2_triangular_triple()
    trip_rep = quadlie.validate_manin_triple(quadlie.ManinTriple(t.d_algebra, t.g1, t.g2))
    records.append(_rec("validate manin triple [sl2-triangular-triple]",
                        trip_rep.passed, detail=trip_rep.describe()))
    asked = {name: samples or n for name, n in DEFAULT_SAMPLES.items()}
    records += _prefixed("schouten", suite_schouten("sl2-double", h, tol, asked["schouten"]))
    records += _prefixed("schouten", suite_schouten("sl2c-real", h, tol, 4))
    records += _prefixed("rank", suite_rank(asked["rank"], seed))
    records += _prefixed("leaves", suite_leaves(asked["leaves"], seed))
    for name, suite in (("mult", suite_mult), ("dressing", suite_dressing)):
        cap = DEFAULT_SAMPLES[name]
        ran = min(asked[name], cap)
        records += _prefixed(name, suite(t, tol, h, seed, ran)
                             + _cap_recs(asked[name], ran, f"{cap} in verify all"))
    records += _prefixed("relations", suite_relations(asked["relations"], seed))
    return records


def _prefixed(suite: str, records: list[dict]) -> list[dict]:
    """The records of one suite, each name led by the suite's."""
    return [{**r, "name": f"{suite}: {r['name']}"} for r in records]


def run_suite(name: str, *, ctx: str | None = None, samples: int | None = None,
              seed: int = 0, h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> list[dict]:
    if name == "all":
        return suite_all(h, tol, seed, samples)
    if name not in DEFAULT_SAMPLES:
        raise KeyError(f"unknown suite {name!r}")
    samples = samples or DEFAULT_SAMPLES[name]
    if name == "schouten":
        return suite_schouten(ctx or "sl2-double", h, tol, samples)
    if name == "rank":
        return suite_rank(samples, seed)
    if name == "leaves":
        return suite_leaves(samples, seed)
    if name in ("mult", "dressing"):
        suite = suite_mult if name == "mult" else suite_dressing
        t = get_triple_context(ctx or "sl2-triangular-triple")
        return suite(t, tol, h, seed, samples)
    return suite_relations(samples, seed)
