"""Named verification suites behind the command-line harness.

A suite is a generator: after its set-up it yields named checks, (name,
check) pairs whose check() returns the record's verdict (ok[, residual[,
detail]]), and returns the number of shipped sample points it ran (None
for the seeded suites).  Work that checks share is kept in the suite and
computed on first use.  One runner, `_run`, makes the records: a numeric
breakdown in a check fails that record alone, one in the set-up stops
the suite, and the runner adds the capped-sample-count record and, under
verify all, each name's prefix.  The suites decide every verdict from
the FD layer's plain residuals; a non-finite residual fails its record.
Reports stay free of wall-clock data.  Only schouten, mult and dressing
load the FD layer; their checks run with its float warnings off.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable, Generator

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
from .exactlin import ExactSubspace, hstack, identity, int_products, lowest_terms, product_subspace, table_product
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

# a suite's named checks, then the number of shipped sample points it ran
Checks = Generator[tuple[str, Callable[[], tuple]], None, "int | None"]


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


def _run(suite: str, checks: Checks, asked: int = 0, cap: str = "the shipped points",
         prefix: str = "") -> list[dict]:
    """The records of a suite's checks in order, each name led by
    ``prefix``, then one naming both counts if it ran fewer sample points
    than ``asked``.  A breakdown in a check fails that record alone."""
    records = []
    while True:
        try:
            name, check = next(checks)
        except StopIteration as done:
            if done.value is not None and done.value < asked:
                records.append(_rec(f"{prefix}sample count capped at {cap}", True,
                                    detail=f"asked for {asked}, ran {done.value}"))
            return records
        except (ArithmeticError, ValueError) as exc:
            return records + [_rec(f"{prefix}{suite} suite stopped", False,
                                   detail=f"{type(exc).__name__}: {exc}")]
        try:
            verdict = check()
        except (ArithmeticError, ValueError) as exc:
            verdict = False, None, f"{type(exc).__name__}: {exc}"
        records.append(_rec(prefix + name, *verdict))


def _within(residual: float, tol: float) -> tuple[bool, float]:
    return residual <= tol, residual


def _listed(fails: list[str], held: str) -> tuple[bool, None, str]:
    """Pass with ``held``, or fail naming the failed instances."""
    return not fails, None, "; ".join(fails) or held


def _ladder(coarse: float, fine: float) -> tuple:
    """Halving the step of an O(h^2) check must divide its residual by 3.5..4.5.

    Two zero rungs leave no truncation error to measure; a zero finer rung
    under a nonzero coarser one, or a non-finite rung, fails without a ratio.
    """
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return False, None, f"non-finite rung: h {coarse!r}, h/2 {fine!r}"
    if fine == 0:
        if coarse == 0:
            return True, None, "both rungs are 0: no truncation error to measure"
        return False, None, f"finer rung is 0 under a coarser rung of {coarse!r}"
    ratio = coarse / fine
    return 3.5 <= ratio <= 4.5, ratio


def _sheared_quasi_splitting():
    """A splitting of the realified-sl2C double whose integrability
    defect pushes to a nonzero chart trivector (pins the orientation of
    the trivector pushforward).

    Built by shearing the diagonal/anti-diagonal pair with fixed
    form-preserving transvections that mix the complex halves, applied to
    the hyperbolic frame of E's integer rows and their dual frame D (over
    one denominator den, the rows den E and D).
    """
    ctx = sl2c_realified_context()
    d = ctx.double_algebra
    quasi = named_splitting("sl2c-real", "delta-antidelta")
    dual, den = quasi._dual_frame
    frame_cols = list(zip(*([[den * x for x in row] for row in quasi.e.rows] + dual)))
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
    e = ExactSubspace.of_rows(d.dim, int_products(hstack(identity(k), n_lower), frame_cols))
    f_sub = ExactSubspace.of_rows(d.dim, int_products(hstack(n_upper, identity(k)), frame_cols))
    return ctx, d, Splitting.of_algebra(d, e, f_sub)


def suite_schouten(ctx_name: str = "sl2-double", h: float = DEFAULT_H, tol: float = DEFAULT_TOL,
                   samples: int = DEFAULT_SAMPLES["schouten"]) -> Checks:
    from . import diffnum

    if ctx_name not in ("sl2-double", "sl2c-real"):
        raise KeyError(f"schouten suite has no context {ctx_name!r}")
    if ctx_name == "sl2-double":
        ctx = sl2_context()
        alg = ctx.double_algebra
        splittings = {"manin": named_splitting(ctx_name, "delta-triangular"),
                      "quasi": named_splitting(ctx_name, "delta-antidelta")}
    else:
        ctx, alg, sheared = _sheared_quasi_splitting()
        splittings = {"sheared": sheared}
    points = ctx.points[:samples]
    flat = diffnum.flat_poisson_field()

    def flat_residual(step: float) -> float:
        return diffnum.max_abs(diffnum.schouten_fd(flat, (0.3, 0.7, 0.2), step))

    @functools.cache
    def rhs(label: str) -> list:
        """a(Y^E) + a(Y^F) at each point, pushed once for every step."""
        return [diffnum.main_identity_rhs(alg, splittings[label], p.anchor._ints) for p in points]

    @functools.cache
    def residuals(label: str, step: float) -> list:
        """The main identity residual at each point, in its own chart: one stacked pass."""
        return diffnum.each_point(lambda ps, pushed: diffnum.main_identity_residual(
            diffnum.double_bivector_field(ps, splittings[label]), pushed, step), points, rhs(label))

    def residual(label: str, i: int, step: float) -> float:
        return diffnum.held(residuals(label, step)[i])

    # a sheared point's bound grows with its defect, the norm of its push
    defects = functools.cache(lambda: [diffnum.max_abs(r) for r in rhs("sheared")])
    with diffnum.float_warnings_off():
        yield "flat-chart poisson residual", lambda: _within(flat_residual(h), tol)
        yield "flat-chart h-ladder ratio", lambda: _ladder(flat_residual(1e-3), flat_residual(5e-4))
        for label in splittings:
            for i in range(len(points)):
                yield f"main identity ({label}) {ctx.name}#{i}", lambda label=label, i=i: _within(
                    residual(label, i, h), tol * (1.0 + defects()[i]) if label == "sheared" else tol)
        if ctx_name == "sl2-double":
            yield "main identity h-ladder ratio", lambda: _ladder(*(
                diffnum.worst(residual("manin", i, step) for i in range(len(points)))
                for step in (1e-3, 5e-4)))
        else:
            yield "sheared case has nonzero defect", lambda: (any(x > 0.01 for x in defects()),)
    return len(points)


def _random_anchored_instance(seed_key: str):
    rng = random.Random(seed_key)
    k = rng.randint(1, 4)
    alg = randgen.random_abelian_split_algebra(k)
    pt = anchored.AnchoredPoint.of_ints(alg, *randgen._coisotropic_anchor_ints(rng, k))
    return pt, randgen.random_lagrangian_splitting(rng, k), pt.chart_dim


def suite_rank(samples: int = DEFAULT_SAMPLES["rank"], seed: int = 0) -> Checks:
    @functools.cache
    def fails() -> tuple[list[str], list[str]]:
        rank_fails, diag_fails = [], []
        for i in range(samples):
            pt, s, j = _random_anchored_instance(f"rank:{seed}:{i}")
            try:
                anchored.rank_formula(pt, s)
            except anchored.CourantStructureError as exc:
                rank_fails.append(f"#{i}: {exc}")
                continue
            if j > 0:
                try:
                    anchored.diagonal_backward(pt, s)
                except anchored.CourantStructureError as exc:
                    diag_fails.append(f"#{i}: {exc}")
        return rank_fails, diag_fails

    yield (f"rank formula == matrix rank on {samples} seeded instances",
           lambda: _listed(fails()[0], f"{samples} exact agreements"))
    yield ("diagonal backward image == splitting bivector on the same instances",
           lambda: _listed(fails()[1], "exact agreement"))


def suite_leaves(samples: int = DEFAULT_SAMPLES["leaves"], seed: int = 0) -> Checks:
    quasi = named_splitting("sl2-double", "delta-antidelta")  # automatic at Lagrangian stabilizers

    def seeded() -> tuple:
        true_count = 0
        fails = []
        for i in range(samples):
            pt, s, _ = _random_anchored_instance(f"leaf:{seed}:{i}")
            try:
                if anchored.leaf_condition(pt, s):
                    true_count += 1
            except anchored.CourantStructureError as exc:
                fails.append(f"#{i}: {exc}")
        return _listed(fails, f"{true_count} held, ranges certified")

    def strict() -> tuple[bool]:
        """A kernel strictly larger than the right side."""
        ab6 = randgen.random_abelian_split_algebra(3)
        # the anchor rows B e_1 and B (e_2 + e_6) of the Gram matrix B
        form_rows, form_den = ab6.form._ints
        rows = int_products([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 1)], list(zip(*form_rows)))
        pt6 = anchored.AnchoredPoint.of_ints(ab6, rows, form_den, 2)
        e6 = ExactSubspace.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
        f6 = ExactSubspace.span([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
        return (not anchored.leaf_condition(pt6, Splitting.of_algebra(ab6, e6, f6)),)

    yield f"leaf condition consistent on {samples} seeded instances", seeded
    yield "synthetic dim-6 case violates the leaf condition", strict
    yield "exact-type points satisfy the leaf condition", lambda: (
        all(anchored.leaf_condition(p.anchor, quasi) for p in sl2_context().points[:4]),)


def _related(s: Splitting, s_prime: Splitting, r: lagrel.LinearRelation) -> tuple:
    rep = related_splitting(s, s_prime, r)
    return rep.related, None, ",".join(rep.reasons)


def suite_mult(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
               seed: int = 0, samples: int = DEFAULT_SAMPLES["mult"]) -> Checks:
    """pi+/pi- on the double group D of a Manin triple: the relatedness
    table of the product splittings, then their multiplicativity."""
    from . import diffnum

    group = t.d_ctx
    rng = random.Random(seed)
    # a triple that is not one stops here, before any FD work
    plus, minus = t.plus, t.minus
    big_r = lagrel.pair_groupoid_relation(group.double_algebra)
    # one pair per sample point, at most the shipped count; each pair's product
    # point is built once, and all pairs' FD Jacobians in one pass on first use
    points = group.points[:samples]
    pairs = []
    for _ in points:
        d1, d2 = rng.choice(group.points), rng.choice(group.points)
        pairs.append((d1, d2, group.point(lowest_terms(*table_product(d1.g_ints, d2.g_ints)))))
    jacobians = functools.cache(lambda: list(map(diffnum.held, diffnum.each_point(
        functools.partial(diffnum.dmult_fd, h=h), *zip(*pairs)))))

    def multiplicativity() -> tuple[bool, float]:
        # pi+ and pi- at each distinct point, built once and kept by its anchor
        residuals = []
        for (d1, d2, d12), dm in zip(pairs, jacobians()):
            (p1p, p1m), (p2p, p2m), (tp, tm) = (
                (diffnum.np_matrix(*pi._ints) for pi in liegrp.pi_plus_minus(t, d))
                for d in (d1, d2, d12))
            for (sa, sb, tgt) in ((p1m, p2m, tm), (p1p, -p2p, tm), (p1p, -p2m, tp), (p1m, p2p, tp)):
                residuals.append(diffnum.multiplicativity_residual(dm, sa, sb, tgt))
        return _within(diffnum.worst(residuals), tol)

    # (label, E-factors, F-factors, target) of each product splitting
    lines = [
        ("(e- x e-, f- x f-) ~ (e-, f-)", (minus.e, minus.e), (minus.f, minus.f), minus),
        ("(e+ x f+, f+ x e+) ~ (e-, f-)", (plus.e, plus.f), (plus.f, plus.e), minus),
        ("(e+ x f-, f+ x e-) ~ (e+, f+)", (plus.e, minus.f), (plus.f, minus.e), plus),
        ("(e- x e+, f- x f+) ~ (e+, f+)", (minus.e, plus.e), (minus.f, plus.f), plus),
    ]
    with diffnum.float_warnings_off():
        for label, es, fs, tgt in lines:
            yield f"algebraic relatedness {label}", lambda es=es, fs=fs, tgt=tgt: _related(
                Splitting(big_r.source, product_subspace(*es), product_subspace(*fs)), tgt, big_r)
        yield "anchor equivariance of multiplication", lambda: _within(diffnum.worst(
            diffnum.pair_multiplication_check(dm, *pair) for pair, dm in zip(pairs, jacobians())), tol)
        yield "pi multiplicativity (4 relations) under dMult", multiplicativity
        yield "pi+- match the invariant-frame formulas exactly", lambda: (all(
            liegrp.pi_plus_minus(t, d) == liegrp.pi_plus_minus_invariant(t, d) for d in points),)
        yield "pi- vanishes at the unit", lambda: (liegrp.pi_plus_minus(t, group.points[0])[1].rank == 0,)
    return len(points)


def suite_dressing(t: TripleContext, tol: float = DEFAULT_TOL, h: float = DEFAULT_H,
                   seed: int = 0, samples: int = DEFAULT_SAMPLES["dressing"]) -> Checks:
    """The dressing actions of G1 on itself and the embedding G1 -> D of a
    Manin triple, as statements about related Lagrangian splittings."""
    from . import diffnum

    n = t.d_algebra.dim
    points = t.points[:samples]

    def phi_r() -> tuple[bool, float]:
        rng = random.Random(seed)
        d0s, units, pairs = t.d_ctx.points[:3], identity(n), []
        for _ in d0s:
            i = rng.randrange(n)
            pairs.append((units[i], units[(i + 1 + rng.randrange(n - 1)) % n]))
        return _within(diffnum.worst(map(diffnum.held, diffnum.each_point(
            lambda *args: diffnum.phi_r_homomorphism_residual(t, *args, h=h), d0s, *zip(*pairs)))), tol)

    def lift_closed_forms() -> tuple[bool]:
        return (all(gpp.mult_fiber.kernel() == liegrp.q_mult_kernel_expected(gpp)
                    and gpp.mult_fiber.range_.dim == t.d_algebra.dim for gpp in [t.points[0]] + list(points[1:6])),)

    def lift_related() -> tuple:
        q = points[2].mult_fiber
        return _related(Splitting(q.source, product_subspace(t.g1, t.g1), product_subspace(t.g2, t.g2)),
                        t.splitting_bar, q)

    with diffnum.float_warnings_off():
        yield "dressing stabilizers exactly coisotropic", lambda: (all(
            right.coisotropy[0] and left.coisotropy[0] for right, left in (x.dressing for x in points)),)
        yield "dressing action axiom (FD)", lambda: _within(diffnum.worst(map(diffnum.held, diffnum.each_point(
            lambda xs: diffnum.action_axiom_check(diffnum.dressing_field_sampler(xs), t.d_algebra,
                                                  [(0.0,) * t.g1.dim] * len(xs), h), points[:3]))), tol)
        yield "phi^R bracket homomorphism (FD jets)", phi_r
        yield ("pull-back reduction == dressing anchor through phi^R",
               lambda: (all(liegrp.dressing_pullback_check(x) for x in points),))
        yield "backward images of E-, F- are the g1, g2 columns", lambda: (all(
            (lagrel.backward_image_subspace(t.minus.e, p), lagrel.backward_image_subspace(t.minus.f, p))
            == (t.g1, t.g2) for p in map(liegrp.p_phi_fiber, points[:5])),)
        yield "ker/ran of the multiplication lift match closed forms", lift_closed_forms
        yield "(E x E, F x F) related to (E, F) through the lift", lift_related
        yield "embedding is a bivector map onto pi-", lambda: _within(diffnum.worst(
            diffnum.relatedness_check(t.inclusion_ints, liegrp.g1_poisson_bivector(x)._ints,
                                      anchored.bivector_at(x.phi.anchor, t.minus)._ints)
            for x in points[1:5]), tol)
    return len(points)


def suite_relations(samples: int = DEFAULT_SAMPLES["relations"], seed: int = 0) -> Checks:
    # at least one triple, so a small --samples does not pass vacuously
    triples = max(1, samples // 8)

    @functools.cache
    def fails() -> tuple[list[str], list[str]]:
        rng = random.Random(seed)
        identity_fails = []
        for i in range(samples):
            ks, kt = rng.randint(1, 4), rng.randint(1, 4)
            r = randgen.random_relation(rng, ks, kt)
            ker, ran = r.kernel(), r.range_
            rt = r.transpose()
            if ker != r.source.form.orth_complement(rt.range_):
                identity_fails.append(f"#{i}: ker != ran(R^t)-perp")
            if ran != r.target.form.orth_complement(rt.kernel()):
                identity_fails.append(f"#{i}: ran != ker(R^t)-perp")
            if ker.dim + ran.dim != r.graph.dim:
                identity_fails.append(f"#{i}: dimension identity")
        assoc_fails = []
        for i in range(triples):
            k0, k1, k2, k3 = (rng.randint(1, 3) for _ in range(4))
            r = randgen.random_relation(rng, k0, k1)
            s = randgen.random_relation(rng, k1, k2)
            tt = randgen.random_relation(rng, k2, k3)
            if ((tt * s) * r).graph != (tt * (s * r)).graph:
                assoc_fails.append(f"#{i}")
        return identity_fails[:5], assoc_fails[:5]

    yield f"kernel/range identities on {samples} seeded relations", lambda: _listed(fails()[0], "exact")
    yield f"composition associativity on {triples} seeded triples", lambda: _listed(fails()[1], "exact")


def _validate_shipped() -> Checks:
    """Each shipped group context's algebra, and the triangular triple."""

    def algebra(name: str) -> tuple:
        ctx = get_group_context(name)
        liegrp.validate_context(ctx)
        rep = quadlie.validate_algebra(ctx.algebra)
        return rep.passed, None, rep.describe()

    def triple() -> tuple:
        t = sl2_triangular_triple()
        rep = quadlie.validate_manin_triple(quadlie.ManinTriple(t.d_algebra, t.g1, t.g2))
        return rep.passed, None, rep.describe()

    for name in GROUP_CONTEXT_NAMES:
        yield f"validate algebra [{name}]", functools.partial(algebra, name)
    yield "validate manin triple [sl2-triangular-triple]", triple


def _checks(name: str, ctx: str | None, samples: int, seed: int, h: float, tol: float) -> Checks:
    """The named suite's checks, on its default context when ctx is None."""
    if name == "schouten":
        return suite_schouten(ctx or "sl2-double", h, tol, samples)
    if name in ("mult", "dressing"):
        suite = suite_mult if name == "mult" else suite_dressing
        return suite(get_triple_context(ctx or "sl2-triangular-triple"), tol, h, seed, samples)
    return {"rank": suite_rank, "leaves": suite_leaves, "relations": suite_relations}[name](samples, seed)


def suite_all(h: float = DEFAULT_H, tol: float = DEFAULT_TOL, seed: int = 0,
              samples: int | None = None) -> list[dict]:
    """The shipped data validated, then every suite with its name before
    each record's; mult and dressing run on at most their default counts."""
    records = _run("all", _validate_shipped())
    asked = {name: samples or n for name, n in DEFAULT_SAMPLES.items()}
    for name, ctx, n in (("schouten", None, asked["schouten"]), ("schouten", "sl2c-real", 4),
                         ("rank", None, asked["rank"]), ("leaves", None, asked["leaves"]),
                         ("mult", None, asked["mult"]), ("dressing", None, asked["dressing"]),
                         ("relations", None, asked["relations"])):
        kept = DEFAULT_SAMPLES[name] if name in ("mult", "dressing") else n
        cap = f"{kept} in verify all" if kept < n else "the shipped points"
        records += _run(name, _checks(name, ctx, min(n, kept), seed, h, tol), n, cap, f"{name}: ")
    return records


def run_suite(name: str, *, ctx: str | None = None, samples: int | None = None,
              seed: int = 0, h: float = DEFAULT_H, tol: float = DEFAULT_TOL) -> list[dict]:
    """The named suite's records; KeyError for an unknown suite or context."""
    if name == "all":
        return suite_all(h, tol, seed, samples)
    if name not in DEFAULT_SAMPLES:
        raise KeyError(f"unknown suite {name!r}")
    samples = samples or DEFAULT_SAMPLES[name]
    return _run(name, _checks(name, ctx, samples, seed, h, tol), samples)
