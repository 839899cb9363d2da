import collections
import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import courantlab.exactlin as exactlin
import courantlab.liegrp as liegrp
from courantlab import anchored, suites
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
    main_identity_residual,
    main_identity_rhs,
    relatedness_check,
    schouten_fd,
    worst,
)
from courantlab.exactlin import (
    Coordinatizer,
    DimensionMismatchError,
    ExactSubspace,
    concat_vec,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    solve,
    transpose,
    vec_mat,
)
from courantlab.lagrel import (
    LinearRelation,
    Splitting,
    backward_image,
    backward_image_subspace,
    product_subspace,
    related_splitting,
)
from courantlab.liegrp import (
    GroupPoint,
    double_bivector_field,
    dmult_fd,
    dressing_field_sampler,
    dressing_pullback_check,
    g1_poisson_bivector,
    np_matrix,
    p_phi_fiber,
    pair_multiplication_check,
    phi_r_homomorphism_residual,
    pi_plus_minus,
    pi_plus_minus_invariant,
    q_mult_fiber,
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

CTX = sl2_context()
PAIR = sl2_pair_context()
TRIPLE = sl2_triangular_triple()


def test_contexts_validate():
    for name in ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real"):
        ctx = get_group_context(name)
        validate_context(ctx)
        assert validate_algebra(ctx.algebra).passed


def test_group_point_chart_derivative():
    # chart derivative along one direction: numerical vs g0 . X
    p = CTX.points[5]
    h = 1e-6
    for a in range(3):
        t = np.zeros(3)
        t[a] = h
        tm = np.zeros(3)
        tm[a] = -h
        fd = (p.point(t) - p.point(tm)) / (2 * h)
        exact = np_matrix(p.g) @ CTX.float_basis[a]
        assert np.max(np.abs(fd - exact)) < 1e-9


def test_double_action_stabilizer():
    for p in CTX.points[:6]:
        pt = p.anchor
        adg = p.adjoint
        rows = [concat_vec(mat_vec(adg, v), v) for v in identity(3)]
        assert pt.stabilizer == ExactSubspace.span(rows, ambient_dim=6)
        ok, _ = pt.coisotropy
        assert ok


def test_pi_plus_minus_exact_identities():
    for d in PAIR.points:
        pip, pim = pi_plus_minus(TRIPLE, d)
        plus, minus = pi_plus_minus_invariant(TRIPLE, d)
        assert pip.matrix == plus
        assert pim.matrix == minus
    pip_e, pim_e = pi_plus_minus(TRIPLE, PAIR.points[0])
    assert all(x == 0 for row in pim_e.matrix for x in row)
    two_r = tuple(tuple(2 * x for x in row) for row in TRIPLE.splitting.bivector.matrix)
    assert pip_e.matrix == two_r


def test_mult_anchor_equivariance():
    pa, pb = PAIR.points[1], PAIR.points[2]
    pab = PAIR.point(mat_mul(pa.g, pb.g))
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
        got = right_e.apply(diag_vec)
        assert got == tuple(F(1 if r == i else 0) for r in range(3))


def test_dressing_action_axiom_fd():
    rho = dressing_field_sampler(TRIPLE.points[2])
    residual = action_axiom_check(rho, TRIPLE.d_algebra, np.zeros(3), 1e-4)
    assert residual <= 1e-6, residual


def test_phi_r_homomorphism():
    residuals = []
    for d0 in PAIR.points[:2]:
        for (i, j) in [(0, 4), (1, 5)]:
            z1 = tuple(F(1 if a == i else 0) for a in range(6))
            z2 = tuple(F(1 if a == j else 0) for a in range(6))
            residuals.append(phi_r_homomorphism_residual(TRIPLE, d0, z1, z2))
    assert worst(residuals) < 1e-6


def test_dressing_pullback_identification():
    for x in TRIPLE.points[:6]:
        assert dressing_pullback_check(x)


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
        q = q_mult_fiber(gpp)
        assert q.kernel() == q_mult_kernel_expected(gpp)
        assert q.range_().dim == 6
    # unit fiber kernel is the plain anti-diagonal of g1
    q0 = q_mult_fiber(TRIPLE.points[0])
    expect = ExactSubspace.span(
        [concat_vec(xi, tuple(-x for x in xi)) for xi in TRIPLE.g1.basis],
        ambient_dim=12,
    )
    assert q0.kernel() == expect
    q2 = q_mult_fiber(TRIPLE.points[2])
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
    adg = GroupPoint(CTX, matrix([[1, 1], [0, 1]])).adjoint
    gtheta = ExactSubspace.span(
        [concat_vec(v, mat_vec(adg, v)) for v in identity(3)], ambient_dim=6
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
        r = relatedness_check(
            np_matrix(TRIPLE.inclusion), np_matrix(pig.matrix), np_matrix(pim.matrix)
        )
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
            assert main_identity_residual(fld, p.anchor.exact_anchor(), s, d, 1e-4) <= 1e-6


def test_sl2c_context_and_nonzero_defect():
    ctx = sl2c_realified_context()
    d = build_double(ctx.algebra)
    gd = diagonal_subspace(ctx.algebra, 1)
    lc = sl2c_triangular_complement()
    assert validate_manin_triple(ManinTriple(d, gd, lc)).passed
    from courantlab.suites import _sheared_quasi_splitting

    _, d2, sheared = _sheared_quasi_splitting()
    p = ctx.points[7]
    rhs = main_identity_rhs(d2, sheared, p.anchor.exact_anchor())
    assert rhs.max_abs() > 0.1
    lhs = 0.5 * schouten_fd(double_bivector_field(p, sheared), np.zeros(6), 1e-4).values
    correct = float(np.max(np.abs(lhs - rhs.values)))
    flipped = float(np.max(np.abs(lhs + rhs.values)))
    assert correct <= 1e-6 * (1.0 + rhs.max_abs())
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
    from courantlab.lagrel import pair_groupoid_relation, reduce_bivector

    minus = TRIPLE.minus
    big = pair_groupoid_relation(TRIPLE.d_ctx.double_algebra)
    src = Splitting(big.source, product_subspace(minus.e, minus.e), product_subspace(minus.f, minus.f))
    rep = related_splitting(src, minus, big)
    assert rep.related
    red_src = reduce_bivector(src, big.transpose().range_()).splitting
    red_tgt = reduce_bivector(minus, big.range_()).splitting
    iso = big.reduced_iso
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
    dm = dmult_fd(pa, pb, PAIR.point(mat_mul(pa.g, pb.g)))
    adj = pb.adjoint_inverse
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


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(GROUP_CONTEXT_NAMES), data=st.data())
def test_coordinatize_matches_naive_solve(name, data):
    ctx = get_group_context(name)
    coords = tuple(data.draw(st.lists(_RATIONALS, min_size=ctx.dim, max_size=ctx.dim)))
    elt = ctx.from_coords(coords)
    assert ctx.coordinatize(elt) == _naive_coords(ctx, elt) == coords
    # a matrix unit outside the span moves the element off the algebra
    size = ctx.ambient_size
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
        ctx.coordinatize(off)



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
    vs = [vec_mat(c, rows) if rows else (F(0),) * n for c in combos]
    assert coz.coords_rows(vs) == tuple(combos) == tuple(_gauss_jordan(rows, v) for v in vs)
    assert coz.coords(vs[0]) == combos[0]
    for e in identity(n):
        if _gauss_jordan(rows, e) is None:
            with pytest.raises(DimensionMismatchError):
                coz.coords(e)
            with pytest.raises(DimensionMismatchError):
                coz.coords_rows([vs[0], tuple(a + b for a, b in zip(vs[1], e))])
    with pytest.raises(DimensionMismatchError):
        coz.coords((F(0),) * (n + 1))

def test_context_keeps_its_double_and_triple_splittings():
    assert CTX.double_algebra is CTX.double_algebra
    assert CTX.double_algebra == build_double(CTX.algebra)
    assert TRIPLE.plus is TRIPLE.plus
    assert TRIPLE.minus is TRIPLE.minus


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(TRIPLE_CONTEXT_NAMES), data=st.data())
def test_g1_coords_of_matches_solve(name, data):
    # the kept left inverse gives solve's coordinates, and a vector
    # outside g1 still raises
    t = get_triple_context(name)
    n, k = len(t.inclusion), len(t.inclusion[0])
    assert tuple(liegrp.g1_coords_of(t, col) for col in transpose(t.inclusion)) == identity(k)
    coords = tuple(data.draw(st.lists(_RATIONALS, min_size=k, max_size=k)))
    inside = mat_vec(t.inclusion, coords)
    assert liegrp.g1_coords_of(t, inside) == solve(t.inclusion, inside) == coords
    v = tuple(data.draw(st.lists(_RATIONALS, min_size=n, max_size=n)))
    want = solve(t.inclusion, v)
    if want is None:
        with pytest.raises(ValueError):
            liegrp.g1_coords_of(t, v)
    else:
        assert liegrp.g1_coords_of(t, v) == want


# --- the kept float chart data ----------------------------------------


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(TRIPLE_CONTEXT_NAMES), data=st.data())
def test_float_embedding_is_the_linear_extension_of_embed(name, data):
    # the kept unit images give the embedding only where it is linear
    t = get_triple_context(name)
    for g in t.g1_ctx.sample_points:
        assert np.array_equal(t.float_embed(np_matrix(g)), np_matrix(t.embed(g)))
    k = t.g1_ctx.ambient_size
    a, b = (
        matrix(data.draw(st.lists(st.lists(_RATIONALS, min_size=k, max_size=k),
                                  min_size=k, max_size=k)))
        for _ in range(2)
    )
    combo = tuple(tuple(x + 2 * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    want = tuple(
        tuple(x + 2 * y for x, y in zip(ra, rb)) for ra, rb in zip(t.embed(a), t.embed(b))
    )
    assert t.embed(combo) == want


def test_float_chart_data_is_built_once_per_context(monkeypatch):
    ctx = replace(sl2_context())  # a fresh context, with nothing kept yet
    calls = []
    original = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: calls.append(a) or original(*a, **k))
    s = Splitting.of_algebra(
        ctx.double_algebra, diagonal_subspace(ctx.algebra, 1), triangular_complement()
    )
    for p in ctx.points[1:3]:
        tangent = p.float_g @ ctx.float_basis[0]
        assert np.allclose(ctx.float_coords(np.linalg.solve(p.float_g, tangent)), [1, 0, 0])
        liegrp.double_bivector_field(p, s)(np.zeros(3))
        got = ctx.float_adjoint(p.float_g, np_matrix(p.inverse))
        assert np.allclose(got, np_matrix(p.adjoint), atol=1e-12)
    assert len(calls) == 1
    # ad tables: float_ad[a] has the coordinates of [X_a, X_b] as column b
    for a in range(ctx.dim):
        cols = [ctx.algebra.bracket_basis(a, b) for b in range(ctx.dim)]
        assert np.array_equal(ctx.float_ad[a], np_matrix(matrix(cols)).T)
    assert ctx.float_ad is ctx.float_ad


# --- the kept group point data ----------------------------------------


def test_group_point_keeps_its_data():
    # a fresh context, so that no test before this one has filled it
    ctx = replace(sl2_context())
    assert ctx.points is ctx.points
    assert [p.g for p in ctx.points] == list(ctx.sample_points)
    for p in ctx.points:
        assert ctx.point(p.g) is p
        assert p.inverse == inverse(p.g)
        cols = [ctx.coordinatize(mat_mul(mat_mul(p.g, b), p.inverse)) for b in ctx.algebra_basis]
        assert p.adjoint == transpose(matrix(cols))
        assert p.adjoint_inverse == inverse(p.adjoint)
        assert p.adjoint is p.adjoint and p.anchor is p.anchor
        a = p.anchor.exact_anchor()
        assert a == tuple(
            tuple(-x for x in row) + tuple(F(1 if c == r else 0) for c in range(3))
            for r, row in enumerate(p.adjoint_inverse)
        )
        assert np.array_equal(p.float_anchor, np_matrix(a))
    # up and up^-1 are both sample points: Ad_{up^-1} is read off the kept point
    up, up_inv = ctx.points[1], ctx.points[11]
    assert up.inverse == up_inv.g and up.adjoint_inverse is up_inv.adjoint
    other = ctx.point(mat_mul(up.g, up.g))
    assert other not in ctx.points and other.adjoint == mat_mul(up.adjoint, up.adjoint)


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


def _run_on_a_fresh_triple(monkeypatch, suite):
    t = TRIPLE
    fresh = replace(t, d_ctx=replace(t.d_ctx), g1_ctx=replace(t.g1_ctx))
    monkeypatch.setattr(suites, "get_triple_context", lambda name: fresh)
    assert main(["verify", suite, "--seed", "1", "--json"]) == 0


def test_dressing_builds_each_adjoint_and_dressing_once(monkeypatch, capsys):
    adjoints = _count_builds(monkeypatch, GroupPoint, "adjoint", lambda p: (p.ctx.name, p.g))
    dressings = _count_builds(monkeypatch, liegrp.G1Point, "dressing", lambda x: x.g1.g)
    _run_on_a_fresh_triple(monkeypatch, "dressing")
    capsys.readouterr()
    assert max(adjoints.values()) == 1 and sum(adjoints.values()) <= 33
    assert max(dressings.values()) == 1 and sum(dressings.values()) <= 10


def test_mult_builds_one_anchor_per_point(monkeypatch, capsys):
    anchors = _count_builds(monkeypatch, GroupPoint, "anchor", lambda p: (p.ctx.name, p.g))
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert max(anchors.values()) == 1 and sum(anchors.values()) <= 20


def test_mult_builds_pi_plus_minus_once_per_point(monkeypatch, capsys):
    # one bivector_at per distinct (anchor, splitting): seed 1 reaches 20
    # points, each with the pi+ and pi- splittings
    calls = collections.Counter()
    original = liegrp.bivector_at

    def counted(pt, s):
        calls[(id(pt), id(s))] += 1
        return original(pt, s)

    monkeypatch.setattr(liegrp, "bivector_at", counted)
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert max(calls.values()) == 1 and sum(calls.values()) == 40


def test_dressing_builds_pi_minus_only(monkeypatch, capsys):
    # four points each build the G1 bivector and pi- of the D-point of Phi(g)
    calls = []
    original = anchored.bivector_at

    def counted(pt, s):
        calls.append(s)
        return original(pt, s)

    monkeypatch.setattr(anchored, "bivector_at", counted)
    monkeypatch.setattr(liegrp, "bivector_at", counted)
    assert main(["verify", "dressing", "--seed", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 8
    assert TRIPLE.plus not in calls


def _count_solves(monkeypatch):
    """Count exactlin.solve calls, through every module that binds it."""
    calls = []
    original = exactlin.solve

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in list(sys.modules.values()):
        if mod and mod.__name__.startswith("courantlab") and getattr(mod, "solve", None) is original:
            monkeypatch.setattr(mod, "solve", counted)
    return calls


def test_mult_builds_the_reduced_iso_once(monkeypatch, capsys):
    # the four relatedness lines share one pair-groupoid relation, whose
    # reduced isomorphism is built once; no quotient coordinate runs solve
    isos = _count_builds(monkeypatch, LinearRelation, "reduced_iso", lambda r: r.graph)
    solves = _count_solves(monkeypatch)
    _run_on_a_fresh_triple(monkeypatch, "mult")
    capsys.readouterr()
    assert list(isos.values()) == [1]
    assert len(solves) <= 12


def test_dressing_reads_kept_split_spaces(monkeypatch, capsys):
    # the fibers read the triple's kept d-bar and d-bar (+) d-bar spaces, so
    # each form computes its signature once
    signatures = _count_builds(monkeypatch, exactlin.BilinearForm, "_signature", lambda f: f)
    solves = _count_solves(monkeypatch)
    _run_on_a_fresh_triple(monkeypatch, "dressing")
    capsys.readouterr()
    assert sum(signatures.values()) <= 6
    assert len(solves) <= 6
