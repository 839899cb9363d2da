import collections
import random
from fractions import Fraction as F
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import courantlab.exactlin as exactlin
import courantlab.liegrp as liegrp
from courantlab import anchored, suites
from courantlab.anchored import AnchoredPoint
from courantlab.cli import main

from courantlab.contexts import (
    GROUP_CONTEXT_NAMES,
    TRIPLE_CONTEXT_NAMES,
    abelian2_triple,
    get_group_context,
    get_triple_context,
    sl2_context,
    sl2_pair_context,
    sl2_triangular_triple,
    sl2c_realified_context,
    sl2c_triangular_complement,
    triangular_complement,
    twisted_diagonal_complement,
)
from courantlab.diffnum import (
    action_axiom_check,
    double_bivector_field,
    dmult_fd,
    dressing_field_sampler,
    group_chart,
    main_identity_residual,
    main_identity_rhs,
    max_abs,
    np_matrix,
    pair_multiplication_check,
    phi_r_homomorphism_residual,
    relatedness_check,
    schouten_fd,
    worst,
)
from courantlab.exactlin import (
    Coordinatizer,
    DimensionMismatchError,
    ExactSubspace,
    block_diag,
    frac_matrix,
    identity,
    int_matrix,
    matrix,
    product_subspace,
)
from courantlab.lagrel import (
    LinearRelation,
    Splitting,
    backward_image,
    backward_image_subspace,
    related_splitting,
)
from courantlab.liegrp import (
    ContextError,
    GroupPoint,
    dressing_pullback_check,
    g1_poisson_bivector,
    p_phi_fiber,
    pi_plus_minus,
    pi_plus_minus_invariant,
    q_mult_kernel_expected,
    s_phi_fiber,
    t_psi_fiber,
    validate_context,
)
from courantlab.quadlie import (
    ManinTriple,
    build_double,
    diagonal_subspace,
    is_subalgebra,
    validate_algebra,
    validate_manin_triple,
)
from algebra_reference import (
    ad,
    ad_inverse,
    bracket_basis,
    coordinatize,
    coords,
    coords_rows,
    fraction_anchor,
    fraction_conjugation,
    fraction_dressing,
    fraction_kernel_expected,
    fraction_lifts,
    fraction_mult_fiber,
    fraction_p_phi_fiber,
    fraction_phi_r_value,
    fraction_pi_plus_minus_invariant,
    inverse,
    mat_mul,
    mat_scale,
    mat_vec,
    reference_pullback,
    replace,
    solve,
    transpose,
)
from exact_strategies import rationals

CTX = sl2_context()
PAIR = sl2_pair_context()
TRIPLE = sl2_triangular_triple()


def test_contexts_validate():
    for name in ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real"):
        ctx = get_group_context(name)
        validate_context(ctx)
        assert validate_algebra(ctx.algebra).passed


def test_membership_predicates_reject_points_off_the_group():
    eye, det2 = identity(2), matrix([[2, 0], [0, 1]])
    off_block = [list(row) for row in identity(4)]
    off_block[0][2] = F(1)
    bad = {
        "sl2-double": [det2],
        "sl2-pair": [block_diag(det2, eye), block_diag(eye, det2), matrix(off_block)],
    }
    for name, samples in bad.items():
        ctx = get_group_context(name)
        for g in samples:
            with pytest.raises(ContextError, match="membership"):
                validate_context(replace(ctx, sample_points=ctx.sample_points + (g,)))


def test_a_wrong_structure_constant_fails_validation():
    ctx = get_group_context("sl2-double")
    alg = ctx.algebra
    flipped = replace(alg, bracket=tuple((i, j, k, -c) for i, j, k, c in alg.bracket))
    with pytest.raises(ContextError, match="structure constants"):
        validate_context(replace(ctx, algebra=flipped))


def test_every_g1_context_validates():
    # verify all validates the group contexts; the G1 contexts of the
    # triples (abelian-2-line among them) are validated here
    for name in TRIPLE_CONTEXT_NAMES:
        g1_ctx = get_triple_context(name).g1_ctx
        validate_context(g1_ctx)
        assert validate_algebra(g1_ctx.algebra).passed
    line = abelian2_triple().g1_ctx
    off_line = matrix([[2, 0], [0, 2]])
    with pytest.raises(ContextError, match="membership"):
        validate_context(replace(line, sample_points=line.sample_points + (off_line,)))


def test_group_point_chart_derivative():
    # chart derivative along one direction: numerical vs g0 . X
    chart, g0 = group_chart(CTX), np_matrix(CTX.points[5].g)
    h = 1e-6
    for a in range(3):
        t = np.zeros(3)
        t[a] = h
        tm = np.zeros(3)
        tm[a] = -h
        fd = (chart.point(g0, t) - chart.point(g0, tm)) / (2 * h)
        exact = g0 @ chart.basis[a]
        assert np.max(np.abs(fd - exact)) < 1e-9


def test_double_action_stabilizer():
    for p in CTX.points[:6]:
        pt = p.anchor
        adg = ad(p)
        rows = [mat_vec(adg, v) + v for v in identity(3)]
        assert pt.stabilizer == ExactSubspace.span(rows, ambient_dim=6)
        ok, _ = pt.coisotropy
        assert ok


def test_pi_plus_minus_exact_identities():
    for d in PAIR.points:
        pip, pim = pi_plus_minus(TRIPLE, d)
        plus, minus = pi_plus_minus_invariant(TRIPLE, d)
        assert pip == plus
        assert pim == minus
    pip_e, pim_e = pi_plus_minus(TRIPLE, PAIR.points[0])
    assert all(x == 0 for row in pim_e.matrix for x in row)
    two_r = tuple(tuple(2 * x for x in row) for row in TRIPLE.splitting.bivector.matrix)
    assert pip_e.matrix == two_r


def test_mult_anchor_equivariance():
    pa, pb = PAIR.points[1], PAIR.points[2]
    pab = PAIR.point(int_matrix(mat_mul(pa.g, pb.g)))
    residual = pair_multiplication_check(dmult_fd(pa, pb, pab), pa, pb, pab)
    assert residual < 1e-9


def test_dressing_anchors():
    for x in TRIPLE.points:
        right, left = x.dressing
        assert right.coisotropy[0]
        assert left.coisotropy[0]
    # at the identity the right action restricted to g1 is the full frame
    right_e, _ = TRIPLE.points[0].dressing
    for i in range(3):
        diag_vec = tuple(
            F(1 if (j == i or j == i + 3) else 0) for j in range(6)
        )
        got = mat_vec(right_e.anchor, diag_vec)
        assert got == tuple(F(1 if r == i else 0) for r in range(3))


def test_dressing_action_axiom_fd():
    rho = dressing_field_sampler(TRIPLE.points[2])
    residual = action_axiom_check(rho, TRIPLE.d_algebra, np.zeros(3), 1e-4)
    assert residual <= 1e-6, residual


def test_dressing_action_axiom_fails_with_a_flipped_row():
    # the tabulated left-hand side is not vacuous: rho(b_r) -> -rho(b_r)
    # breaks the axiom for every r
    fields = dressing_field_sampler(TRIPLE.points[2])
    for r in range(TRIPLE.d_algebra.dim):
        def flipped(t, r=r):
            out = fields(t)
            out[:, r] = -out[:, r]
            return out

        residual = action_axiom_check(flipped, TRIPLE.d_algebra, np.zeros(3), 1e-4)
        assert residual > 1e-6, (r, residual)


def test_phi_r_homomorphism():
    residuals = []
    unit = identity(6)
    for d0 in PAIR.points[:2]:
        for (i, j) in [(0, 4), (1, 5)]:
            residuals.append(phi_r_homomorphism_residual(TRIPLE, d0, unit[i], unit[j]))
    assert worst(residuals) < 1e-6


def test_dressing_pullback_identification():
    for x in TRIPLE.points[:6]:
        assert dressing_pullback_check(x)


DESCEND = anchored.PointPullback.descend


def _descending(monkeypatch, mutate):
    """Make PointPullback.descend descend mutate(pb, rows) in place of the
    integer rows it is given; returns the (pb, rows, den) it descended."""
    seen = []

    def descend(pb, rows, den):
        seen.append((pb, mutate(pb, rows), den))
        return DESCEND(pb, *seen[-1][1:])

    monkeypatch.setattr(anchored.PointPullback, "descend", descend)
    return seen


def _plus(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def _reference_steps(x, pb, rows, den):
    """(lifts in C, their classes a basis of C / C-perp, their Gram matrix
    the d-bar form) for the lifts rows / den, by the reference pull-back's
    kernels and quotient."""
    lifts = frac_matrix(rows, den)
    ref = reference_pullback(x.phi.anchor, TRIPLE.inclusion)
    in_c = all(ref.c.contains(row) for row in lifts)
    basis = len(lifts) == ref.quotient.dim and ExactSubspace.span(ref.quotient.w0.basis + lifts) == ref.c
    return in_c, basis, mat_mul(lifts, pb.form.matrix, transpose(lifts)) == TRIPLE.d_bar.form.matrix


def test_dressing_pullback_check_rejects_a_lift_outside_c(monkeypatch):
    # a sign-flipped nonzero column of the kept right anchor moves that
    # phi^R lift off C, and so does adding a v-direction to a lift: the
    # check returns False where the reference finds a lift outside C
    x = TRIPLE.points[2]
    right, left = x.dressing
    b = next(b for b, col in enumerate(transpose(right.anchor)) if any(col))
    flipped = transpose(
        tuple(tuple(-v for v in col) if c == b else col
              for c, col in enumerate(transpose(right.anchor)))
    )
    fresh = liegrp.G1Point(TRIPLE, x.g1, x.phi)
    vars(fresh)["dressing"] = (AnchoredPoint(right.algebra, flipped, right.chart_dim), left)
    seen = _descending(monkeypatch, lambda pb, rows: rows)
    assert dressing_pullback_check(x)
    assert _reference_steps(x, *seen.pop()) == (True, True, True)
    assert dressing_pullback_check(fresh) is False
    assert _reference_steps(x, *seen.pop())[0] is False
    seen = _descending(monkeypatch, lambda pb, rows: [
        _plus(rows[0], [int(c == pb.algebra_dim) for c in range(pb.form.dim)])] + rows[1:])
    assert dressing_pullback_check(x) is False
    assert _reference_steps(x, *seen.pop())[0] is False


def test_dressing_pullback_check_rejects_a_wrong_rank_or_gram(monkeypatch):
    # the mutated lifts stay in C, so the check reaches its later steps:
    # the last lift replaced by the first plus a C-perp row depends on the
    # others modulo C-perp, and a doubled lift has the wrong Gram matrix;
    # a C-perp row added to a lift changes no class, and the check holds
    x = TRIPLE.points[2]
    mutants = {
        "shifted": (lambda pb, rows: [_plus(rows[0], pb.perp[0])] + rows[1:], (True, True, True)),
        "dependent": (lambda pb, rows: rows[:-1] + [_plus(rows[0], pb.perp[0])], (True, False, False)),
        "doubled": (lambda pb, rows: [[2 * x for x in rows[0]]] + rows[1:], (True, True, False)),
    }
    for name, (mutate, steps) in mutants.items():
        seen = _descending(monkeypatch, mutate)
        assert dressing_pullback_check(x) is all(steps), name
        assert _reference_steps(x, *seen.pop()) == steps, name


def test_dressing_pullback_check_eliminates_twice_per_point(calls):
    # no quotient coordinates and no coordinatizer: one elimination for
    # transversality and one for the basis, plus the new ambient form's inverse
    points = TRIPLE.points[:10]
    assert all(dressing_pullback_check(x) for x in points)
    anchored._pullback_form.cache_clear()
    coordinatizers = calls(exactlin.Coordinatizer, "of_rows")
    eliminations = calls(exactlin, "_eliminate")
    assert all(dressing_pullback_check(x) for x in points)
    assert coordinatizers == []
    assert len(eliminations) <= 2 * len(points) + 1


def test_p_phi_backward_images():
    eplus, fplus, eminus, fminus = TRIPLE.plus.e, TRIPLE.plus.f, TRIPLE.minus.e, TRIPLE.minus.f
    for x in TRIPLE.points[:5]:
        p = p_phi_fiber(x)
        assert backward_image_subspace(eminus, p) == TRIPLE.g1
        img_f, _ = backward_image(fminus, p)
        assert img_f == TRIPLE.g2
        # both plus-splitting halves pull back to the same subspace
        assert backward_image_subspace(eplus, p) == backward_image_subspace(fplus, p)
    rel = related_splitting(TRIPLE.splitting_bar, TRIPLE.minus, p_phi_fiber(TRIPLE.points[3]))
    assert rel.related


def test_q_mult_fiber():
    rng = random.Random(4)
    gpps = [TRIPLE.points[0]] + [rng.choice(TRIPLE.points) for _ in range(5)]
    for gpp in gpps:
        q = gpp.mult_fiber
        assert q.kernel() == q_mult_kernel_expected(gpp)
        assert q.range_.dim == 6
    # unit fiber kernel is the plain anti-diagonal of g1
    q0 = TRIPLE.points[0].mult_fiber
    expect = ExactSubspace.span(
        [xi + tuple(-x for x in xi) for xi in TRIPLE.g1.basis],
        ambient_dim=12,
    )
    assert q0.kernel() == expect
    q2 = TRIPLE.points[2].mult_fiber
    rel = related_splitting(
        Splitting(q2.source, product_subspace(TRIPLE.g1, TRIPLE.g1),
                  product_subspace(TRIPLE.g2, TRIPLE.g2)),
        TRIPLE.splitting_bar, q2,
    )
    assert rel.related


def test_section52_relatedness_table():
    from courantlab.lagrel import pair_groupoid_relation

    eplus, fplus, eminus, fminus = TRIPLE.plus.e, TRIPLE.plus.f, TRIPLE.minus.e, TRIPLE.minus.f
    big = pair_groupoid_relation(TRIPLE.d_ctx.double_algebra)
    cases = [
        ((eminus, eminus), (fminus, fminus), TRIPLE.minus, True),
        ((eplus, fplus), (fplus, eplus), TRIPLE.minus, True),
        ((eplus, fminus), (fplus, eminus), TRIPLE.plus, True),
        ((eminus, eplus), (fminus, fplus), TRIPLE.plus, True),
        ((eplus, eplus), (fplus, fplus), TRIPLE.plus, False),
    ]
    for (ea, eb), (fa, fb), tgt, expect in cases:
        src = Splitting(big.source, product_subspace(ea, eb), product_subspace(fa, fb))
        rep = related_splitting(src, tgt, big)
        assert rep.related == expect
        if not expect:
            assert "kernel_not_split" in rep.reasons


def test_t_psi_fibers():
    for sub in (TRIPLE.g1, TRIPLE.g2, twisted_diagonal_complement()):
        t_rel = t_psi_fiber(TRIPLE, sub)
        assert related_splitting(TRIPLE.plus, TRIPLE.splitting, t_rel).related
        assert related_splitting(TRIPLE.minus, TRIPLE.splitting, t_rel).related
    # graph of a nontrivial inner automorphism breaks the splitting condition
    adg = ad(GroupPoint(CTX, int_matrix([[1, 1], [0, 1]])))
    gtheta = ExactSubspace.span(
        [v + mat_vec(adg, v) for v in identity(3)], ambient_dim=6
    )
    assert TRIPLE.d_algebra.form.is_lagrangian(gtheta)
    assert is_subalgebra(TRIPLE.d_algebra, gtheta)
    rep = related_splitting(TRIPLE.plus, TRIPLE.splitting, t_psi_fiber(TRIPLE, gtheta))
    assert not rep.related and "kernel_not_split" in rep.reasons


def test_s_phi_morphism():
    s = s_phi_fiber(PAIR)
    eplus, fplus, eminus, fminus = TRIPLE.plus.e, TRIPLE.plus.f, TRIPLE.minus.e, TRIPLE.minus.f
    rep1 = related_splitting(
        Splitting(s.source, product_subspace(eplus, TRIPLE.g2), product_subspace(fplus, TRIPLE.g1)),
        TRIPLE.splitting, s,
    )
    rep2 = related_splitting(
        Splitting(s.source, product_subspace(eminus, TRIPLE.g1), product_subspace(fminus, TRIPLE.g2)),
        TRIPLE.splitting, s,
    )
    assert rep1.related and rep2.related


def test_g1_poisson_structure():
    pi_e = g1_poisson_bivector(TRIPLE.points[0])
    assert all(x == 0 for row in pi_e.matrix for x in row)
    for x in TRIPLE.points[1:6]:
        pig = g1_poisson_bivector(x)
        _, pim = pi_plus_minus(TRIPLE, x.phi)
        r = relatedness_check(TRIPLE.inclusion_ints, pig._ints, pim._ints)
        assert r <= 1e-9, r


def test_main_identity_sl2_cases():
    d = build_double(CTX.algebra)
    gd = diagonal_subspace(CTX.algebra, 1)
    gad = diagonal_subspace(CTX.algebra, -1)
    manin = Splitting.of_algebra(d, gd, triangular_complement())
    quasi = Splitting.of_algebra(d, gd, gad)
    for s in (manin, quasi):
        for p in CTX.points[:6]:
            fld = double_bivector_field(p, s)
            rhs = main_identity_rhs(d, s, p.anchor._ints)
            assert main_identity_residual(fld, rhs, 1e-4) <= 1e-6


def test_sl2c_context_and_nonzero_defect():
    ctx = sl2c_realified_context()
    d = build_double(ctx.algebra)
    gd = diagonal_subspace(ctx.algebra, 1)
    lc = sl2c_triangular_complement()
    assert validate_manin_triple(ManinTriple(d, gd, lc)).passed
    from courantlab.suites import _sheared_quasi_splitting

    _, d2, sheared = _sheared_quasi_splitting()
    p = ctx.points[7]
    rhs = main_identity_rhs(d2, sheared, p.anchor._ints)
    assert max_abs(rhs) > 0.1
    lhs = 0.5 * schouten_fd(double_bivector_field(p, sheared), np.zeros(6), 1e-4)
    correct = max_abs(lhs - rhs)
    flipped = max_abs(lhs + rhs)
    assert correct <= 1e-6 * (1.0 + max_abs(rhs))
    assert flipped > 1000 * correct


def test_abelian_triple_suite_pieces():
    t = abelian2_triple()
    for x in t.points[:4]:
        right, _ = x.dressing
        assert right.coisotropy[0]
        pig = g1_poisson_bivector(x)
        assert all(v == 0 for row in pig.matrix for v in row)
    d = t.d_ctx.points[1]
    pip, pim = pi_plus_minus(t, d)
    assert all(x == 0 for row in pim.matrix for x in row)


def test_related_splitting_transports_reduced_bivector():
    # through the groupoid relation, the reduced isomorphism carries the
    # reduced splitting bivector onto the reduced splitting bivector
    from algebra_reference import reduce_bivector, reduced_iso
    from courantlab.lagrel import pair_groupoid_relation

    minus = TRIPLE.minus
    big = pair_groupoid_relation(TRIPLE.d_ctx.double_algebra)
    src = Splitting(big.source, product_subspace(minus.e, minus.e), product_subspace(minus.f, minus.f))
    rep = related_splitting(src, minus, big)
    assert rep.related
    red_src = reduce_bivector(src, big.transpose().range_).splitting
    red_tgt = reduce_bivector(minus, big.range_).splitting
    iso = reduced_iso(big)
    m = iso.matrix
    carried = tuple(
        tuple(
            sum(
                m[u][a] * red_src.bivector.matrix[a][b] * m[v][b]
                for a in range(iso.dim)
                for b in range(iso.dim)
            )
            for v in range(iso.dim)
        )
        for u in range(iso.dim)
    )
    assert carried == red_tgt.bivector.matrix


def test_dmult_linear_in_left_trivialization():
    # the product chart map is linear, so the FD Jacobian is essentially exact
    pa, pb = PAIR.points[1], PAIR.points[3]
    dm = dmult_fd(pa, pb, PAIR.point(int_matrix(mat_mul(pa.g, pb.g))))
    adj = ad_inverse(pb)
    expect = np.hstack([np_matrix(adj), np.eye(6)])
    assert np.max(np.abs(dm - expect)) < 1e-9


# --- the kept coordinatizer -------------------------------------------


def _gauss_jordan(rows, v):
    """Reference: Gauss-Jordan on the system sum_a c_a rows[a] = v, one
    Fraction at a time; None when the system is inconsistent."""
    k = len(rows)
    system = [[F(row[i]) for row in rows] + [F(v[i])] for i in range(len(v))]
    r = 0
    pivots = []
    for c in range(k):
        piv = next((i for i in range(r, len(system)) if system[i][c] != 0), None)
        if piv is None:
            continue
        system[r], system[piv] = system[piv], system[r]
        lead = system[r][c]
        system[r] = [x / lead for x in system[r]]
        for i in range(len(system)):
            if i != r and system[i][c] != 0:
                m = system[i][c]
                system[i] = [x - m * y for x, y in zip(system[i], system[r])]
        pivots.append(c)
        r += 1
    if any(row[k] != 0 for row in system[r:]):
        return None
    coords = [F(0)] * k
    for row, c in zip(system, pivots):
        coords[c] = row[k]
    return tuple(coords)


def _naive_coords(ctx, elt):
    """Reference coordinates of an ambient matrix over the algebra basis."""
    return _gauss_jordan([liegrp.flatten(b) for b in ctx.algebra_basis], liegrp.flatten(elt))


def _unit(size, i, j):
    return tuple(tuple(F(1 if (r, c) == (i, j) else 0) for c in range(size)) for r in range(size))


_RATIONALS = rationals(5, 7)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(GROUP_CONTEXT_NAMES), data=st.data())
def test_coordinatize_matches_naive_solve(name, data):
    ctx = get_group_context(name)
    coords = tuple(data.draw(st.lists(_RATIONALS, min_size=ctx.dim, max_size=ctx.dim)))
    size = ctx.ambient_size
    elt = tuple(tuple(sum(c * b[r][col] for c, b in zip(coords, ctx.algebra_basis))
                      for col in range(size)) for r in range(size))
    assert coordinatize(ctx, elt) == _naive_coords(ctx, elt) == coords
    # a matrix unit outside the span moves the element off the algebra
    outside = [
        (i, j) for i in range(size) for j in range(size)
        if _naive_coords(ctx, _unit(size, i, j)) is None
    ]
    i, j = data.draw(st.sampled_from(outside))
    q = data.draw(_RATIONALS.filter(lambda x: x != 0))
    off = tuple(
        tuple(x + (q if (r, c) == (i, j) else 0) for c, x in enumerate(row))
        for r, row in enumerate(elt)
    )
    assert _naive_coords(ctx, off) is None
    with pytest.raises(ValueError):
        coordinatize(ctx, off)



@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_coordinatizer_matches_gauss_jordan(data):
    # the one coordinatizer behind the group, G1 and quotient coordinates
    n = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, n))
    rows = [tuple(data.draw(st.lists(_RATIONALS, min_size=n, max_size=n))) for _ in range(k)]
    if ExactSubspace.span(rows, ambient_dim=n).dim < k:
        with pytest.raises(ValueError):
            Coordinatizer.of_rows(rows, n)
        return
    coz = Coordinatizer.of_rows(rows, n)
    combos = [tuple(data.draw(st.lists(_RATIONALS, min_size=k, max_size=k))) for _ in range(3)]
    vs = [mat_mul((c,), rows)[0] if rows else (F(0),) * n for c in combos]
    assert coords_rows(coz, vs) == tuple(combos) == tuple(_gauss_jordan(rows, v) for v in vs)
    assert coords(coz, vs[0]) == combos[0]
    for e in identity(n):
        if _gauss_jordan(rows, e) is None:
            with pytest.raises(DimensionMismatchError):
                coords(coz, e)
            with pytest.raises(DimensionMismatchError):
                coords_rows(coz, [vs[0], tuple(a + b for a, b in zip(vs[1], e))])
    with pytest.raises(DimensionMismatchError):
        coords(coz, (F(0),) * (n + 1))

def test_context_keeps_its_double_and_triple_splittings():
    assert CTX.double_algebra is CTX.double_algebra
    assert CTX.double_algebra == build_double(CTX.algebra)
    assert TRIPLE.plus is TRIPLE.plus
    assert TRIPLE.minus is TRIPLE.minus


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(TRIPLE_CONTEXT_NAMES), data=st.data())
def test_g1_coordinatizer_matches_solve(name, data):
    # the kept coordinatizer over the inclusion's columns gives solve's
    # coordinates, and a vector outside g1 still raises
    t = get_triple_context(name)
    coz = t.g1_coordinatizer
    n, k = len(t.inclusion), len(t.inclusion[0])
    assert coords_rows(coz, transpose(t.inclusion)) == identity(k)
    coords = tuple(data.draw(st.lists(_RATIONALS, min_size=k, max_size=k)))
    inside = mat_vec(t.inclusion, coords)
    assert coords_rows(coz, [inside]) == (solve(t.inclusion, inside),) == (coords,)
    v = tuple(data.draw(st.lists(_RATIONALS, min_size=n, max_size=n)))
    want = solve(t.inclusion, v)
    if want is None:
        with pytest.raises(ValueError):
            coords_rows(coz, [v])
        with pytest.raises(ValueError):
            coords_rows(coz, [inside, v])
    else:
        assert coords_rows(coz, [inside, v]) == (coords, want)


# --- the kept float chart data ----------------------------------------


def test_embed_maps_a_float_matrix_entry_for_entry():
    # the dressing fields embed float chart points with the exact embed
    for name in TRIPLE_CONTEXT_NAMES:
        t = get_triple_context(name)
        for g in t.g1_ctx.sample_points:
            assert np.array_equal(np_matrix(t.embed(np_matrix(g))), np_matrix(t.embed(g)))


def test_float_chart_data_is_built_once_per_context(monkeypatch):
    ctx = replace(sl2_context())  # a fresh context, with nothing kept yet
    calls = []
    original = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a) or original(*a, **k))
    s = Splitting.of_algebra(
        ctx.double_algebra, diagonal_subspace(ctx.algebra, 1), triangular_complement()
    )
    chart = group_chart(ctx)
    assert chart is not group_chart(sl2_context())
    for p in ctx.points[1:3]:
        g = np_matrix(p.g)
        tangent = g @ chart.basis[0]
        assert np.allclose(chart.coords(np.linalg.solve(g, tangent)), [1, 0, 0])
        double_bivector_field(p, s)(np.zeros((1, 3)))
        got = group_chart(ctx).adjoint(g, np_matrix(*p.inverse_ints))
        assert np.allclose(got, np_matrix(ad(p)), atol=1e-12)
    assert len(calls) == 1
    # ad tables: ad[a] has the coordinates of [X_a, X_b] as column b
    for a in range(ctx.dim):
        cols = [bracket_basis(ctx.algebra, a, b) for b in range(ctx.dim)]
        assert np.array_equal(chart.ad[a], np_matrix(matrix(cols)).T)
    assert group_chart(ctx) is chart and chart.ad is chart.ad


# --- the kept group point data ----------------------------------------


def test_group_point_keeps_its_data():
    # a fresh context, so that no test before this one has filled it
    ctx = replace(sl2_context())
    assert ctx.points is ctx.points
    assert [p.g for p in ctx.points] == list(ctx.sample_points)
    for p in ctx.points:
        assert ctx.point(p.g_ints) is p
        assert frac_matrix(*p.inverse_ints) == inverse(p.g)
        cols = [coordinatize(ctx, mat_mul(p.g, b, inverse(p.g))) for b in ctx.algebra_basis]
        assert ad(p) == transpose(matrix(cols))
        assert ad_inverse(p) == inverse(ad(p))
        assert p.adjoint_ints is p.adjoint_ints and p.anchor is p.anchor
        a = p.anchor.anchor
        assert a == tuple(
            tuple(-x for x in row) + tuple(F(1 if c == r else 0) for c in range(3))
            for r, row in enumerate(ad_inverse(p))
        )
        # the FD layer reads the anchor in floats, and the point keeps no float twin
        pair_multiplication_check(np.zeros((3, 6)), p, p, p)
        assert not any(isinstance(v, np.ndarray) for v in vars(p).values())
    # up and up^-1 are both sample points: Ad_{up^-1} equals Ad at the kept point of up^-1
    up, up_inv = ctx.points[1], ctx.points[11]
    assert frac_matrix(*up.inverse_ints) == up_inv.g and ad_inverse(up) == ad(up_inv)
    other = ctx.point(int_matrix(mat_mul(up.g, up.g)))
    assert other not in ctx.points and ad(other) == mat_mul(ad(up), ad(up))


def _shipped_group_contexts():
    """Every shipped group context once: the named ones and the D and G1
    contexts of each triple."""
    ctxs = [get_group_context(name) for name in GROUP_CONTEXT_NAMES]
    for name in TRIPLE_CONTEXT_NAMES:
        t = get_triple_context(name)
        ctxs += [t.d_ctx, t.g1_ctx]
    return list({c.name: c for c in ctxs}.values())


@pytest.mark.parametrize("ctx", _shipped_group_contexts(), ids=lambda c: c.name)
def test_adjoints_match_the_fraction_reference(ctx):
    ctx = replace(ctx)  # fresh, so no kept point is read
    for p in ctx.points:
        assert ad(p) == fraction_conjugation(ctx, p.g, inverse(p.g))
        assert ad_inverse(p) == fraction_conjugation(ctx, inverse(p.g), p.g)
        assert mat_mul(ad(p), ad_inverse(p)) == identity(ctx.dim)


def test_the_sl2_samples_carry_denominators():
    # the reference comparison above sees g and g^-1 with entries 1/2 and 1/4
    assert {x.denominator for g in CTX.sample_points for row in g for x in row} == {1, 2, 4}


def test_adjoints_read_the_basis_denominator():
    # every shipped basis is integral; scaling its elements by c = (1/2, 2/3, 3)
    # puts the basis over the denominator 6, and Ad over the basis c_b B_b
    # is S^-1 Ad S with S = diag(c)
    scales = (F(1, 2), F(2, 3), F(3))
    scaled = replace(CTX, algebra_basis=tuple(mat_scale(c, b) for c, b in zip(scales, CTX.algebra_basis)))
    assert scaled.basis_ints[1] == 6
    s = matrix([[c if i == j else 0 for j, c in enumerate(scales)] for i in range(3)])
    for p, q in zip(replace(CTX).points, scaled.points):
        assert ad(q) == fraction_conjugation(scaled, q.g, inverse(q.g))
        assert ad_inverse(q) == fraction_conjugation(scaled, inverse(q.g), q.g)
        assert ad(q) == mat_mul(inverse(s), ad(p), s)


def test_the_anchor_of_a_point_off_the_samples_inverts_g_once(calls):
    # Ad_{g^-1} conjugates by g^-1 with g as its inverse, so no point of
    # g^-1 is built and g^-1 is not inverted back
    ctx = replace(sl2_context())
    ctx.coordinatizer  # inverts a block of the basis rows: built before the count
    up = ctx.points[1].g
    g = mat_mul(up, up)
    assert g not in ctx.sample_points and inverse(g) not in ctx.sample_points
    inversions = calls(exactlin, "_inverse_of")
    p = ctx.point(int_matrix(g))
    assert p.anchor.anchor[0][3:] == identity(3)[0]
    assert inversions == [(p.g_ints,)]
    assert ad_inverse(p) == inverse(ad(p))


def test_triple_points_keep_phi_and_dressings():
    t = TRIPLE
    assert t.points is t.points
    for x, p in zip(t.points, t.g1_ctx.points):
        assert x.g1 is p
        assert x.phi.g == t.embed(p.g) and x.phi.ctx is t.d_ctx
        assert x.dressing is x.dressing
    # Phi of the unit and of up are sample points of D: their points are shared
    assert t.points[0].phi is t.d_ctx.points[0]
    assert t.points[1].phi is t.d_ctx.points[10]


def _count_builds(monkeypatch, cls, name, key):
    """Count the builds of a kept attribute of ``cls``, by ``key`` of the object."""
    counts = collections.Counter()
    build = vars(cls)[name].func

    def counted(self):
        counts[key(self)] += 1
        return build(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return counts


def _run_on_a_fresh_triple(monkeypatch, suite, t=TRIPLE):
    fresh = replace(t, d_ctx=replace(t.d_ctx), g1_ctx=replace(t.g1_ctx))
    monkeypatch.setattr(suites, "get_triple_context", lambda name: fresh)
    assert main(["verify", suite, "--ctx", t.name, "--seed", "1", "--json"]) == 0


def test_dressing_builds_each_adjoint_and_dressing_once(monkeypatch, capsys, calls):
    # each integer table of Ad_g and of Ad_{g^-1} and each dressing pair is
    # built once, and a build makes one coords_ints call per matrix it
    # coordinatizes: one for Ad_g, one for Ad_{g^-1}, one per side of a
    # dressing pair (a call counts for the build that makes it, not for
    # the kept builds it reads)
    coords = calls(Coordinatizer, "coords_ints")
    frames = [[0, 0]]  # per open build: calls made before it, and by the builds it opens
    builds = {}
    for cls, name, key in ((GroupPoint, "adjoint_ints", lambda p: (p.ctx.name, p.g)),
                           (GroupPoint, "adjoint_inverse_ints", lambda p: (p.ctx.name, p.g)),
                           (liegrp.G1Point, "dressing", lambda x: x.g1.g)):
        made = builds[name] = collections.defaultdict(list)

        def framed(self, build=vars(cls)[name].func, made=made, key=key):
            frames.append([len(coords), 0])
            try:
                return build(self)
            finally:
                before, inner = frames.pop()
                total = len(coords) - before
                made[key(self)].append(total - inner)
                frames[-1][1] += total

        prop = cached_property(framed)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    _run_on_a_fresh_triple(monkeypatch, "dressing")
    capsys.readouterr()
    adjoints, dressings = builds["adjoint_ints"], builds["dressing"]
    assert max(map(len, adjoints.values())) == 1 and 0 < len(adjoints) <= 33
    assert max(map(len, dressings.values())) == 1 and 0 < len(dressings) <= 10
    inverses = builds["adjoint_inverse_ints"]
    assert max(map(len, inverses.values())) == 1 and 0 < len(inverses) <= 33
    assert {n for c in adjoints.values() for n in c} == {1}
    assert {n for c in inverses.values() for n in c} == {1}
    assert {n for c in dressings.values() for n in c} == {2}


def test_mult_builds_one_anchor_per_point(monkeypatch, capsys):
    anchors = _count_builds(monkeypatch, GroupPoint, "anchor", lambda p: (p.ctx.name, p.g))
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert max(anchors.values()) == 1 and sum(anchors.values()) <= 20


def test_mult_builds_pi_plus_minus_once_per_point(monkeypatch, capsys, point_builds):
    # seed 1 reaches 20 points, and each keeps pi+ and pi-, built once
    # each however often the suite reads them
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    kept = collections.Counter((id(pt), key) for pt, key in point_builds)
    assert max(kept.values()) == 1 and len(kept) == 40
    assert {key for _, key in kept} == {("pi", TRIPLE.plus), ("pi", TRIPLE.minus)}


def test_dressing_builds_pi_minus_only(capsys, calls):
    # four points each build the G1 bivector and pi- of the D-point of Phi(g)
    bivectors = calls(anchored, "bivector_at")
    assert main(["verify", "dressing", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(bivectors) == 8
    assert TRIPLE.plus not in [s for _, s in bivectors]


def test_mult_decides_relatedness_without_quotients(monkeypatch, capsys, calls):
    # the four relatedness lines compare subspaces: they take no
    # coordinates, so the one coordinatizer built is the D context's, for Ad
    coordinatizers = calls(exactlin.Coordinatizer, "of_rows")
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert len(coordinatizers) == 1


def test_mult_reduces_the_range_once(monkeypatch, capsys):
    # the four relatedness lines read ran(R) of the one pair-groupoid
    # relation three times each; it is eliminated once
    ranges = _count_builds(monkeypatch, LinearRelation, "range_", lambda r: r.graph)
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert list(ranges.values()) == [1]


def test_dressing_reads_kept_split_spaces(monkeypatch, capsys):
    # the fibers read the triple's kept d-bar and d-bar (+) d-bar spaces, so
    # each form computes its signature once
    signatures = _count_builds(monkeypatch, exactlin.BilinearForm, "_signature", lambda f: f)
    _run_on_a_fresh_triple(monkeypatch, "dressing")
    capsys.readouterr()
    assert sum(signatures.values()) <= 6


@pytest.mark.parametrize("name", TRIPLE_CONTEXT_NAMES)
def test_integer_builders_match_the_fraction_references(name, monkeypatch):
    # every builder of the group layer on integer tables equals the Fraction
    # formula it replaced, at every D-point and every G1 point of the triple
    t = get_triple_context(name)
    n, k = t.d_algebra.dim, t.g1.dim
    units = identity(n)
    for d in t.d_ctx.points:
        assert d.anchor == AnchoredPoint(t.d_ctx.double_algebra, fraction_anchor(d), n)
        assert tuple(pi.matrix for pi in pi_plus_minus_invariant(t, d)) == fraction_pi_plus_minus_invariant(t, d)
        assert frac_matrix(*liegrp.phi_r_values(t, d, (units, 1))) == tuple(fraction_phi_r_value(t, d, z) for z in units)
    seen = _descending(monkeypatch, lambda pb, rows: rows)
    for x in t.points:
        right, left = fraction_dressing(x)
        assert x.dressing == (AnchoredPoint(t.d_bar, right, k), AnchoredPoint(t.d_algebra, left, k))
        assert x.mult_fiber == fraction_mult_fiber(x)
        assert q_mult_kernel_expected(x) == fraction_kernel_expected(x)
        assert p_phi_fiber(x) == fraction_p_phi_fiber(x)
        assert dressing_pullback_check(x)
        _, rows, den = seen.pop()
        assert frac_matrix(rows, den) == fraction_lifts(x)


def test_dressing_builds_each_mult_fiber_once(monkeypatch, capsys):
    # the closed-form line and the relatedness line share the fiber of
    # points[2]: six G1 points, six fibers
    fibers = _count_builds(monkeypatch, liegrp.G1Point, "mult_fiber", lambda x: x.g1.g)
    _run_on_a_fresh_triple(monkeypatch, "dressing")
    capsys.readouterr()
    assert len(fibers) == 6 and set(fibers.values()) == {1}


def test_mult_and_dressing_build_no_fraction_anchor_or_adjoint(monkeypatch, capsys, calls):
    # the suites read anchors, Ad tables and brackets as integer rows: on
    # either triple, no anchor view is built and no Fraction matrix is made
    triples = [get_triple_context(name) for name in TRIPLE_CONTEXT_NAMES]
    anchors = _count_builds(monkeypatch, AnchoredPoint, "anchor", id)
    tables = []
    conjugation = GroupPoint._conjugation
    monkeypatch.setattr(GroupPoint, "_conjugation",
                        lambda self, h, h_inv: tables.append(conjugation(self, h, h_inv)) or tables[-1])
    made = {name: calls(exactlin, name) for name in ("frac_matrix", "matrix", "_unit_pivot")}
    for t in triples:
        for suite in ("mult", "dressing"):
            _run_on_a_fresh_triple(monkeypatch, suite, t)
    capsys.readouterr()
    assert tables and not anchors
    assert made == {"frac_matrix": [], "matrix": [], "_unit_pivot": []}
    # the spies record a deliberate call
    exactlin.frac_matrix([[1]], 2)
    assert made["frac_matrix"] == [([[1]], 2)]
