import collections
import math

import numpy as np
import pytest

from courantlab import diffnum
from courantlab.anchored import AnchoredPoint, SectionJet, courant_bracket_jets
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
from courantlab.lagrel import Splitting
from courantlab.quadlie import build_double, diagonal_subspace
from courantlab.randgen import random_abelian_split_algebra


H = 1e-4


def field(fn, dim=3):
    return ChartBivectorField(dim, fn)


def test_constant_field_zero_bracket():
    p = np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.5], [1.0, -0.5, 0.0]])
    tri = schouten_fd(field(lambda x: p), np.zeros(3), H)
    assert max_abs(tri) < 1e-14


def test_rank_two_linear_field_zero():
    def sampler(x):
        out = np.zeros((3, 3))
        out[1, 2] = x[0]
        out[2, 1] = -x[0]
        return out

    tri = schouten_fd(field(sampler), np.array([0.4, -0.2, 1.1]), H)
    assert max_abs(tri) < 1e-13


def test_regression_nonzero_bracket():
    # pi = x2 d1^d2 + d2^d3: the bracket is the constant -2 d1^d2^d3
    def sampler(x):
        out = np.zeros((3, 3))
        out[0, 1] = x[1]
        out[1, 0] = -x[1]
        out[1, 2] = 1.0
        out[2, 1] = -1.0
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
    bad = ChartBivectorField(2, lambda x: np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        bad(np.zeros(2))
    wrong = ChartBivectorField(2, lambda x: np.zeros((3, 3)))
    with pytest.raises(ValueError):
        wrong(np.zeros(2))


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
    coords = lambda x: np.array([[1.0, 0.0], [0.0, 1.0]])
    assert action_axiom_check(coords, abelian, np.array([0.2, 0.4]), H) < 1e-12
    # rotation and scaling commute
    rot_scale = lambda x: np.array([[-x[1], x[0]], [x[0], x[1]]])
    assert action_axiom_check(rot_scale, abelian, np.array([0.7, -0.3]), H) < 1e-10


def test_action_axiom_check_sl2_fields():
    # matrix-commutator fields X(g) = g u realize the bracket
    from courantlab.contexts import sl2_context

    ctx = sl2_context()
    chart, g0 = diffnum.group_chart(ctx), np_matrix(ctx.points[1].g)

    def fields(t):
        g = chart.point(g0, t)
        dexp = chart.dexp(t)
        return np.array([np.linalg.solve(dexp, chart.coords(np.linalg.solve(g, g @ u)))
                         for u in chart.basis])

    residual = action_axiom_check(fields, ctx.algebra, np.zeros(3), H)
    assert residual <= 1e-7, residual


def test_relatedness_check():
    pi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert relatedness_check(np.eye(2), pi, pi) == 0.0
    assert relatedness_check(np.zeros((2, 2)), pi, np.zeros((2, 2))) == 0.0
    assert relatedness_check(np.zeros((2, 2)), pi, pi) == 1.0


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

    from courantlab.randgen import random_coisotropic_anchor

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
    rhs = main_identity_rhs(d, manin, pt.anchor)
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
