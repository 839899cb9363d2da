import collections
import itertools
import math
import random

import numpy as np
import pytest

from courantlab import diffnum
from courantlab.anchored import AnchoredPoint
from courantlab.cli import main
from courantlab.diffnum import (
    ChartBivectorField,
    action_axiom_check,
    courant_bracket_jets_np,
    main_identity_rhs,
    max_abs,
    np_matrix,
    push_trivector,
    relatedness_check,
    schouten_fd,
    structure_tensor_np,
    wedge3,
    worst,
)
from courantlab.contexts import GROUP_CONTEXT_NAMES, TRIPLE_CONTEXT_NAMES, get_group_context, get_triple_context
from courantlab.exactlin import frac_matrix, int_matrix
from courantlab.liegrp import pi_plus_minus
from courantlab.lagrel import Splitting
from courantlab.quadlie import build_double, diagonal_subspace
from courantlab.randgen import random_abelian_split_algebra
from algebra_reference import courant_bracket_jets, courant_tensor, mat_mul, replace, SectionJet


H = 1e-4


def field(fn, dim=3):
    return ChartBivectorField(dim, fn)


def test_constant_field_zero_bracket():
    p = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
    tri = schouten_fd(field(lambda x: np.broadcast_to(p, (len(x), 3, 3))), np.zeros(3), H)
    assert max_abs(tri) < 1e-14


def test_rank_two_linear_field_zero():
    def sampler(x):
        out = np.zeros((len(x), 3, 3))
        out[:, 1, 2] = x[:, 0]
        out[:, 2, 1] = -x[:, 0]
        return out

    tri = schouten_fd(field(sampler), np.array([0.4, -0.2, 1.1]), H)
    assert max_abs(tri) < 1e-13


def test_regression_nonzero_bracket():
    # pi = x2 d1^d2 + d2^d3: the bracket is the constant -2 d1^d2^d3
    def sampler(x):
        out = np.zeros((len(x), 3, 3))
        out[:, 0, 1] = x[:, 1]
        out[:, 1, 0] = -x[:, 1]
        out[:, 1, 2] = 1.0
        out[:, 2, 1] = -1.0
        return out

    tri = schouten_fd(field(sampler), np.array([0.3, -0.7, 0.25]), H)
    assert tri.shape == (3, 3, 3)
    assert tri[0, 1, 2] == pytest.approx(-2.0, abs=1e-10)
    # full antisymmetry of the output table
    assert tri[1, 0, 2] == pytest.approx(2.0, abs=1e-10)
    assert tri[1, 2, 0] == pytest.approx(-2.0, abs=1e-10)


def test_second_order_ladder():
    # analytically zero case with quartic entries: the ratio is exactly 4
    point = np.array([0.3, 0.7, 0.2])
    res = {}
    for h in (1e-3, 5e-4, 2.5e-4):
        res[h] = max_abs(schouten_fd(diffnum.flat_poisson_field(), point, h))
    assert res[1e-3] > 1e-9  # genuinely nonzero truncation
    assert res[1e-3] / res[5e-4] == pytest.approx(4.0, abs=0.5)
    assert res[5e-4] / res[2.5e-4] == pytest.approx(4.0, abs=0.5)


def test_sampler_shape_and_antisymmetry_guard():
    bad = ChartBivectorField(2, lambda x: np.array([[[0.0, 1.0], [1.0, 0.0]]] * len(x)))
    with pytest.raises(ValueError):
        bad(np.zeros((1, 2)))
    wrong = ChartBivectorField(2, lambda x: np.zeros((len(x), 3, 3)))
    with pytest.raises(ValueError):
        wrong(np.zeros((1, 2)))
    # one point, not a stack of them
    with pytest.raises(ValueError):
        ChartBivectorField(2, lambda x: np.zeros((len(x), 2, 2)))(np.zeros(2))
    # each slice is held to its own scale: a large antisymmetric slice
    # does not excuse a small defect in another
    big = np.array([[0.0, 1e8], [-1e8, 0.0]])
    small = np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(ValueError):
        ChartBivectorField(2, lambda x: np.array([big, small]))(np.zeros((2, 2)))
    assert ChartBivectorField(2, lambda x: np.array([big, -big]))(np.zeros((2, 2))).shape == (2, 2, 2)


def test_wedge3_convention():
    u, v, w = np.eye(3)
    table = wedge3(u, v, w)
    assert table[0, 1, 2] == 1.0
    assert table[1, 0, 2] == -1.0
    assert table[2, 0, 1] == 1.0


def test_push_trivector_zeros():
    a = np.eye(3)
    assert max_abs(push_trivector(a, (), [np.zeros(3)] * 3)) == 0.0
    vals = (((0, 1, 2), 5),)
    zero_anchor = np.zeros((3, 3))
    assert max_abs(push_trivector(zero_anchor, vals, np.eye(3))) == 0.0
    got = push_trivector(a, vals, np.eye(3))
    assert got.shape == (3, 3, 3)
    assert got[0, 1, 2] == 5.0


def test_vf_bracket_examples():
    # on an abelian algebra the axiom residual is the bracket of the two
    # tabulated fields itself
    abelian = random_abelian_split_algebra(1)
    # coordinate fields commute
    coords = lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2))
    assert action_axiom_check(coords, abelian, np.array([0.2, 0.4]), H) < 1e-12
    # rotation and scaling commute
    rot_scale = lambda x: np.stack([np.stack([-x[:, 1], x[:, 0]], axis=-1),
                                    np.stack([x[:, 0], x[:, 1]], axis=-1)], axis=1)
    assert action_axiom_check(rot_scale, abelian, np.array([0.7, -0.3]), H) < 1e-10


def test_action_axiom_check_sl2_fields():
    # matrix-commutator fields X(g) = g u realize the bracket
    from courantlab.contexts import sl2_context

    ctx = sl2_context()
    chart, g0 = diffnum.group_chart(ctx), np_matrix(ctx.points[1].g)

    def fields(t):
        g = chart.point(g0, t)[:, None]
        xi = chart.coords(np.linalg.solve(g, g @ chart.basis))
        return np.linalg.solve(chart.dexp(t)[:, None], xi[..., None])[..., 0]

    residual = action_axiom_check(fields, ctx.algebra, np.zeros(3), H)
    assert residual <= 1e-7, residual


def test_relatedness_check():
    pi = (np.array([[0.0, 1.0], [-1.0, 0.0]]), 1)
    eye, zero = (np.eye(2), 1), (np.zeros((2, 2)), 1)
    assert relatedness_check(eye, pi, pi) == 0.0
    assert relatedness_check(zero, pi, zero) == 0.0
    assert relatedness_check(zero, pi, pi) == 1.0
    # integer tables are read over their denominators
    assert relatedness_check((((2, 0), (0, 2)), 2), (((0, 1), (-1, 0)), 2), (((0, 3), (-3, 0)), 6)) == 0.0


@pytest.mark.parametrize("residuals,expected", [
    ([], 0.0), ([0.5, 2.0, 1.0], 2.0), ([1.0, float("inf"), 2.0], float("inf")),
])
def test_worst_is_the_largest_residual(residuals, expected):
    assert worst(residuals) == expected


@pytest.mark.parametrize("residuals", [
    [float("nan")], [0.0, float("nan")], [float("nan"), 1.0], [float("inf"), float("nan"), 3.0],
])
def test_worst_keeps_a_nan(residuals):
    assert math.isnan(worst(residuals))


def test_float_jet_bracket_matches_exact():
    import random
    from fractions import Fraction as F

    from algebra_reference import random_coisotropic_anchor

    rng = random.Random(31)
    alg = random_abelian_split_algebra(2)
    anchor, j = random_coisotropic_anchor(rng, 2)
    while j == 0:
        anchor, j = random_coisotropic_anchor(rng, 2)
    pt = AnchoredPoint(alg, anchor, j)

    def jet():
        v = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)]
        jac = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(j)] for _ in range(4)]
        return SectionJet(v, jac)

    x, y = jet(), jet()
    exact = courant_bracket_jets(pt, x, y)
    a_np = np_matrix(pt.anchor)
    b_np = np_matrix(alg.form.matrix)
    got = courant_bracket_jets_np(
        structure_tensor_np(alg),
        b_np,
        a_np,
        np.linalg.solve(b_np, a_np.T),
        np_matrix(x.value),
        np_matrix(x.jacobian),
        np_matrix(y.value),
        np_matrix(y.jacobian),
    )
    assert max_abs(got - np_matrix(exact)) < 1e-12


def test_main_identity_rhs_vanishes_for_subalgebra_pairs():
    # both halves of the triangular splitting are subalgebras
    from courantlab.contexts import sl2_context, triangular_complement

    ctx = sl2_context()
    d = build_double(ctx.algebra)
    pt = ctx.points[3].anchor
    manin = Splitting.of_algebra(d, diagonal_subspace(ctx.algebra, 1), triangular_complement())
    rhs = main_identity_rhs(d, manin, pt._ints)
    assert rhs.shape == (pt.chart_dim,) * 3
    assert max_abs(rhs) == 0.0


@pytest.mark.parametrize("a,expected", [
    (np.array([-3.0, 2.0]), 3.0),
    (np.array([[0.5, -0.0], [-7.25, 1.0]]), 7.25),
    (np.array([1.0, -np.inf, 2.0]), math.inf),
    (np.zeros(0), 0.0),
    (np.zeros((0, 0, 0)), 0.0),
])
def test_max_abs_is_the_max_norm(a, expected):
    got = max_abs(a)
    assert type(got) is float and got == expected


@pytest.mark.parametrize("a", [
    np.array([math.nan, 1.0]), np.array([1.0, math.nan]), np.array([math.inf, math.nan]),
])
def test_max_abs_keeps_a_nan(a):
    assert math.isnan(max_abs(a))


def test_np_matrix_converts_each_entry_by_float():
    from fractions import Fraction as F

    from courantlab.contexts import sl2c_realified_context

    vec = (F(1, 3), F(-2), 5)
    mat = ((F(2, 7), 0), (F(-1, 10**20), F(10**30, 3)))
    basis = sl2c_realified_context().algebra_basis  # the (k, n, n) stack
    assert all(np_matrix(m).dtype == float for m in (vec, mat, basis))
    assert np_matrix(vec).tolist() == [float(x) for x in vec]
    assert np_matrix(mat).tolist() == [[float(x) for x in row] for row in mat]
    assert np_matrix(basis).tolist() == [[[float(x) for x in row] for row in b] for b in basis]
    assert np_matrix(()).shape == (0,)


def test_tensor_tables_are_built_once_per_algebra_and_splitting(capsys, calls):
    # both h-ladder rungs and a second run read the kept tables; each
    # sl2c-real run shears a new splitting, equal to the last by value
    tables = calls(diffnum, "splitting_tensor_tables")
    diffnum._kept_tables.cache_clear()
    for _ in range(2):
        for ctx in ("sl2-double", "sl2c-real"):
            assert main(["verify", "schouten", "--ctx", ctx, "--json"]) == 0
    capsys.readouterr()
    # the Manin and quasi splittings of sl2-double, and the sheared one
    assert list(collections.Counter(tables).values()) == [1, 1, 1]


def _named_and_sheared_splittings():
    from courantlab.contexts import SPLITTING_NAMES

    return [(ctx_name, name) for ctx_name, names in SPLITTING_NAMES.items()
            for name in names] + [("sl2c-real", "sheared")]


@pytest.mark.parametrize("ctx_name,name", _named_and_sheared_splittings())
def test_tensor_tables_are_the_fraction_tensor_read_once_as_floats(ctx_name, name):
    # each value and each frame entry has the bits of float() of the exact
    # rational: the Fraction tensor on E's basis and on the duals
    from courantlab.contexts import named_splitting
    from courantlab.suites import _sheared_quasi_splitting

    ctx = get_group_context(ctx_name)
    # abelian-2 names a splitting of its algebra, the others of the double
    alg = ctx.algebra if ctx_name == "abelian-2" else ctx.double_algebra
    s = _sheared_quasi_splitting()[2] if name == "sheared" else named_splitting(ctx_name, name)
    want = ((courant_tensor(alg, s.e.basis), s.duals), (courant_tensor(alg, s.duals), s.e.basis))
    got = diffnum.splitting_tensor_tables(alg, s)
    for (values, frame), (ref, ref_frame) in zip(got, want):
        assert [(ijk, v.hex()) for ijk, v in values] == [(ijk, float(v).hex()) for ijk, v in ref]
        assert frame.dtype == float and frame.shape == (len(ref_frame), alg.dim)
        assert frame.tobytes() == np.array([[float(x) for x in row] for row in ref_frame]).tobytes()
    if name == "sheared":
        assert all(values for values, _ in got)


def test_float_pi_is_converted_once_per_splitting(calls):
    # every point's field reads the one float Pi its splitting keeps
    from courantlab.contexts import get_group_context, named_splitting

    diffnum._float_bivector.cache_clear()
    conversions = calls(diffnum, "np_matrix")
    ctx = get_group_context("sl2-double")
    s = named_splitting("sl2-double", "delta-triangular")
    fields = [diffnum.double_bivector_field(p, s) for p in ctx.points[:4]]
    for field in fields:
        field(np.zeros((1, ctx.dim)))
    assert sum(args[0] is s.bivector._ints[0] for args in conversions) == 1
    assert np.array_equal(diffnum._float_bivector(s), np_matrix(s.bivector.matrix))


# --- the stacked FD layer against its per-point form --------------------
# Each stacked function must give every slice the bits the per-point
# form gives it alone: the same product per slice, never one folded GEMM,
# and each slice's own series length and squaring count.

def _ref_exp_series(x, shift):
    out = np.eye(len(x))
    term = np.eye(len(x))
    for j in range(1, 40):
        term = term @ x / (j + shift)
        out = out + term
        if max_abs(term) < 1e-18:
            break
    return out


def _ref_squarings(a):
    norm, s = max_abs(a), 0
    while norm > 0.5:
        norm /= 2.0
        s += 1
    return s


def _ref_expm(a):
    s = _ref_squarings(a)
    out = _ref_exp_series(a / (2.0 ** s), 0)
    for _ in range(s):
        out = out @ out
    return out


def _ref_logm(m):
    z = m - np.eye(m.shape[0])
    if max_abs(z) > 0.4:
        raise ValueError("matrix too far from the identity for the log series")
    out = np.zeros_like(z)
    term = np.eye(m.shape[0])
    for k in range(1, 60):
        term = term @ z
        out = out + ((-1) ** (k + 1)) * term / k
        if max_abs(term) < 1e-18:
            break
    return out


def _ref_point(chart, g0, t):
    return g0 @ _ref_expm(np.tensordot(t, chart.basis, axes=1))


def _ref_adjoint(chart, g, ginv):
    return np.stack([chart.coordinatizer @ (g @ b @ ginv).reshape(-1) for b in chart.basis], axis=1)


def _ref_dexp(chart, t):
    return _ref_exp_series(-np.tensordot(t, chart.ad, axes=1), 1)


def _ref_schouten(field, x, h):
    d = field.chart_dim
    P = field(x[None])[0]
    dP = np.stack([(field((x + e)[None])[0] - field((x - e)[None])[0]) / (2 * h)
                   for e in h * np.eye(d)], axis=-1)
    T = np.zeros((d, d, d))
    for i, j, k in itertools.combinations(range(d), 3):
        val = 0.0
        for l in range(d):
            val += P[i, l] * dP[j, k, l] + P[j, l] * dP[k, i, l] + P[k, l] * dP[i, j, l]
        for p, q, r, sign in ((i, j, k, 1), (j, k, i, 1), (k, i, j, 1),
                              (j, i, k, -1), (i, k, j, -1), (k, j, i, -1)):
            T[p, q, r] = sign * 2.0 * val
    return T


def _ref_push_trivector(anchor, values, wedge_vectors):
    pushed = [anchor @ np_matrix(vec) for vec in wedge_vectors]
    m = anchor.shape[0]
    T = np.zeros((m, m, m))
    for (i, j, k), val in values:
        T += float(val) * wedge3(pushed[i], pushed[j], pushed[k])
    return T


def _shipped_charts():
    from courantlab.contexts import (
        GROUP_CONTEXT_NAMES, TRIPLE_CONTEXT_NAMES, get_group_context, get_triple_context,
    )

    ctxs = [get_group_context(name) for name in GROUP_CONTEXT_NAMES]
    ctxs += [get_triple_context(name).g1_ctx for name in TRIPLE_CONTEXT_NAMES]
    # and sl2 in a conjugate basis with no zero entry, the same algebra:
    # an entry of sum t_a X_a has three terms, so a product folded across
    # points rounds apart from one product per point
    sl2 = get_group_context("sl2-double")
    p, p_inv = ((2, 1), (1, 1)), ((1, -1), (-1, 2))
    ctxs.append(replace(sl2, name="sl2-dense",
                        algebra_basis=tuple(mat_mul(p, b, p_inv) for b in sl2.algebra_basis)))
    return {ctx.name: ctx for ctx in ctxs}


CHARTS = _shipped_charts()
# chart points at three scales: series of different lengths, and no,
# some and many squarings in one stack
SCALES = (1e-4, 0.3, 3.0)


def _mixed_points(dim, scales=SCALES, seed=5):
    rng = np.random.default_rng(seed)
    return np.concatenate([scale * rng.standard_normal((3, dim)) for scale in scales])


def _assert_slices_equal(stacked, per_point):
    assert np.array_equal(stacked, np.array(list(per_point))), np.abs(stacked - per_point).max()


def _assert_sampler_slices(sampler, points):
    """The sampler on the stack gives each slice the bits it gives that
    slice alone."""
    _assert_slices_equal(sampler(points), [sampler(points[i:i + 1])[0] for i in range(len(points))])


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_stacked_group_layer_matches_the_per_point_form(name):
    ctx = CHARTS[name]
    chart, g0 = diffnum.group_chart(ctx), np_matrix(ctx.points[1].g)
    t = _mixed_points(ctx.dim)
    xs = np.array([np.tensordot(row, chart.basis, axes=1) for row in t])
    assert len({_ref_squarings(x) for x in xs}) >= 2
    for shift in (0, 1):
        _assert_slices_equal(diffnum._exp_series(xs, shift), [_ref_exp_series(x, shift) for x in xs])
    _assert_slices_equal(diffnum.expm_np(xs), [_ref_expm(x) for x in xs])
    g = chart.point(g0, t)
    _assert_slices_equal(g, [_ref_point(chart, g0, row) for row in t])
    ginv = np.linalg.inv(g)
    _assert_slices_equal(chart.adjoint(g, ginv), [_ref_adjoint(chart, *pair) for pair in zip(g, ginv)])
    _assert_slices_equal(chart.dexp(t), [_ref_dexp(chart, row) for row in t])
    near = np.eye(len(g0)) + np.array([x / max_abs(x) * r for x, r in zip(xs, (1e-9, 1e-3, 0.35) * 3)])
    _assert_slices_equal(diffnum.logm_np(near), [_ref_logm(m) for m in near])


def test_each_slice_stops_its_own_series():
    # a small nilpotent shift's series stops at its 5th term, while the
    # dense slice beside it runs on: the shift's exp and log have no
    # entry from its 6th or 7th power, which a sum that ran on would add
    shift = np.eye(8, k=1)
    dense = np.random.default_rng(2).standard_normal((8, 8))
    xs = np.stack([1e-4 * shift, 0.45 * dense / max_abs(dense)])
    for shift_by in (0, 1):
        got = diffnum._exp_series(xs, shift_by)
        _assert_slices_equal(got, [_ref_exp_series(x, shift_by) for x in xs])
        assert got[0, 0, 6] == got[0, 0, 7] == 0.0
    _assert_slices_equal(diffnum.expm_np(xs), [_ref_expm(x) for x in xs])
    near = np.eye(8) + 0.8 * xs
    logs = diffnum.logm_np(near)
    _assert_slices_equal(logs, [_ref_logm(m) for m in near])
    assert logs[0, 0, 6] == logs[0, 0, 7] == 0.0


def test_logm_refuses_a_stack_with_one_far_slice():
    near = np.stack([np.eye(2), np.eye(2) + 0.1, np.eye(2) + 0.5])
    with pytest.raises(ValueError):
        diffnum.logm_np(near)
    assert diffnum.logm_np(near[:2]).shape == (2, 2, 2)


def _shipped_fields():
    from courantlab.contexts import SPLITTING_NAMES

    # abelian-2 names a splitting of its algebra, not of its double; the
    # sheared splitting's tensors of E and F are both nonzero
    return [(ctx_name, name) for ctx_name, names in SPLITTING_NAMES.items()
            if ctx_name != "abelian-2" for name in names] + [("sl2c-real", "sheared")]


@pytest.mark.parametrize("ctx_name,name", _shipped_fields())
def test_stacked_schouten_path_matches_the_per_point_form(ctx_name, name):
    from courantlab.contexts import get_group_context, named_splitting
    from courantlab.suites import _sheared_quasi_splitting

    ctx = get_group_context(ctx_name)
    s = _sheared_quasi_splitting()[2] if name == "sheared" else named_splitting(ctx_name, name)
    p = ctx.points[2]
    field = diffnum.double_bivector_field(p, s)
    _assert_sampler_slices(field, _mixed_points(field.chart_dim))
    x = _mixed_points(field.chart_dim, scales=(0.1,))[0]
    for h in (1e-4, 1e-3):
        assert np.array_equal(schouten_fd(field, x, h), _ref_schouten(field, x, h))
    anchor = np_matrix(p.anchor.anchor)
    for vals, wedge in diffnum.splitting_tensor_tables(ctx.double_algebra, s):
        assert np.array_equal(push_trivector(anchor, vals, wedge),
                              _ref_push_trivector(anchor, vals, wedge))


def test_stacked_wedges_match_one_at_a_time():
    rng = np.random.default_rng(3)
    u, v, w = rng.standard_normal((3, 5, 4))
    _assert_slices_equal(wedge3(u, v, w), [wedge3(*row) for row in zip(u, v, w)])


@pytest.mark.parametrize("name", ["sl2-triangular-triple", "abelian-2"])
def test_stacked_triple_samplers_match_a_loop_over_slices(name):
    from courantlab.contexts import get_triple_context
    from courantlab.exactlin import identity

    t = get_triple_context(name)
    k, n = t.g1_ctx.dim, t.d_algebra.dim
    _assert_sampler_slices(diffnum.dressing_field_sampler(t.points[2]), _mixed_points(k))
    d0 = t.d_ctx.points[2]
    sections = diffnum.phi_r_sections(t, d0, identity(n)[:3])
    _assert_sampler_slices(sections, _mixed_points(n))
    # the product chart near (pa, pb): stencil points move one factor only
    pa, pb = t.d_ctx.points[1], t.d_ctx.points[2]
    coords = diffnum.product_coords_sampler(pa, pb, t.d_ctx.point(int_matrix(mat_mul(pa.g, pb.g))))
    st = np.concatenate([diffnum.stencil(np.zeros(2 * n), 0.01),
                         _mixed_points(2 * n, scales=(1e-4, 1e-2))])
    _assert_sampler_slices(coords, st)


# --- the float conversion of integer tables ----------------------------


def _same_bits(rows, den):
    """np_matrix(rows, den) has the bytes of the Fraction entries' floats."""
    return np_matrix(rows, den).tobytes() == np.array(frac_matrix(rows, den), dtype=float).tobytes()


def test_np_matrix_reads_integer_rows_bit_for_bit():
    # x / den is correctly rounded, as float(Fraction(x, den)) is, for
    # entries and denominators up to 2^80, negatives and zeros among them
    rng = random.Random(40)
    for _ in range(400):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.choice((0, 1, -1)) * rng.randint(0, 2 ** rng.randint(1, 80)) for _ in range(c)]
                for _ in range(r)]
        den = rng.choice((1, rng.randint(1, 2 ** rng.randint(1, 80))))
        assert _same_bits(rows, den), (rows, den)


def _shipped_tables():
    """The integer tables of every shipped Ad_g, Ad_{g^-1} and anchor, of
    every dressing anchor and of pi+- at every D-point of both triples."""
    ctxs = [get_group_context(name) for name in GROUP_CONTEXT_NAMES]
    triples = [get_triple_context(name) for name in TRIPLE_CONTEXT_NAMES]
    for ctx in ctxs + [c for t in triples for c in (t.d_ctx, t.g1_ctx)]:
        for p in ctx.points:
            yield from (p.adjoint_ints, p.adjoint_inverse_ints, p.anchor._ints)
    for t in triples:
        for d in t.d_ctx.points:
            yield from (pi._ints for pi in pi_plus_minus(t, d))
        for x in t.points:
            yield from (a._ints for a in x.dressing)


def test_np_matrix_reads_every_shipped_table_bit_for_bit():
    tables = list(_shipped_tables())
    assert len(tables) > 200
    assert all(_same_bits(rows, den) for rows, den in tables)
