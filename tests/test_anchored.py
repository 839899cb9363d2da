import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from courantlab import anchored, cli, exactlin, suites
from courantlab.anchored import (
    AnchoredPoint,
    CourantStructureError,
    anchor_image,
    bivector_at,
    diagonal_backward,
    diagonal_relation,
    drinfeld_lagrangian,
    leaf_condition,
    pullback_point,
    rank_formula,
)
from courantlab.contexts import (
    GROUP_CONTEXT_NAMES,
    SPLITTING_NAMES,
    TRIPLE_CONTEXT_NAMES,
    abelian2_desk_point,
    abelian_algebra_split2,
    get_group_context,
    get_triple_context,
    named_splitting,
)
from courantlab.cli import main
from courantlab.diffnum import ChartBivectorField
from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    NotLagrangianError,
    SingularMatrixError,
    frac_matrix,
    identity,
    int_matrix,
    matrix,
)
from courantlab.lagrel import Bivector, Splitting, hyperbolic_space
from courantlab.contexts import sl2_context
from courantlab.quadlie import QuadraticLieAlgebra, diagonal_subspace
from courantlab.randgen import random_abelian_split_algebra, random_lagrangian_splitting
from algebra_reference import (
    add_vec,
    bracket_vec,
    courant_bracket_jet_closed,
    courant_bracket_jets,
    dual,
    inverse,
    mat_mul,
    mat_scale,
    mat_vec,
    nullspace,
    pairing,
    quotient_coords,
    random_coisotropic_anchor,
    reference_pullback,
    replace,
    SectionJet,
    transpose,
    vector,
)

AB2 = abelian_algebra_split2()
AB4 = random_abelian_split_algebra(2)
# hand instance: kernel span(e1 - f2, e2 + f1) is Lagrangian
A4 = matrix([[0, -1, 1, 0], [1, 0, 0, 1]])
PT4 = AnchoredPoint(AB4, A4, 2)
E4 = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
F4 = ExactSubspace.span([(0, 0, 1, 0), (0, 0, 0, 1)])
S4 = Splitting.of_algebra(AB4, E4, F4)


def test_coisotropic_examples():
    ok, _ = PT4.coisotropy
    assert ok
    # zero anchor: full stabilizer
    pt0 = AnchoredPoint(AB2, ((0, 0), (0, 0)), 2)
    assert pt0.coisotropy[0]
    # split Q^2 with a 1-row anchor: kernel is the isotropic line
    pt1 = AnchoredPoint(AB2, ((1, 0),), 1)
    assert pt1.coisotropy[0]
    # same anchor over a definite form fails, with a witness
    definite = QuadraticLieAlgebra.from_triples(2, [], [[1, 0], [0, 1]])
    bad = AnchoredPoint(definite, ((1, 0),), 1)
    ok, witness = bad.coisotropy
    assert not ok and witness is not None
    assert not bad.stabilizer.contains(witness)


def test_identity_anchor_not_coisotropic():
    pt = AnchoredPoint(AB2, ((1, 0), (0, 1)), 2)
    ok, _ = pt.coisotropy
    assert not ok
    with pytest.raises(CourantStructureError):
        diagonal_relation(pt)


def test_anchor_dual_and_p3():
    assert dual(AnchoredPoint(AB2, ((0, 0),), 1)) == ((F(0),), (F(0),))
    astar = dual(PT4)
    # a o a* = 0 at coisotropic points
    assert all(
        x == 0 for row in mat_mul(matrix(PT4.anchor), astar) for x in row
    )
    # Q^2 split case: a = (1, 0) row gives a* = column (0, 1)
    pt1 = AnchoredPoint(AB2, ((1, 0),), 1)
    assert dual(pt1) == ((F(0),), (F(1),))


def test_bivector_formula_and_diagonal_backward():
    piv = bivector_at(PT4, S4)
    assert piv.matrix == matrix([[0, -1], [1, 0]])
    assert bivector_at(PT4, Splitting.of_algebra(AB4, F4, E4)).matrix == matrix([[0, 1], [-1, 0]])
    assert diagonal_backward(PT4, S4).matrix == piv.matrix
    assert rank_formula(PT4, S4) == 2
    lm = drinfeld_lagrangian(PT4, F4)
    assert AB4.form.is_lagrangian(lm)
    # ker(a) cap F is a meet, which needs a Lagrangian F
    with pytest.raises(NotLagrangianError, match="not Lagrangian"):
        drinfeld_lagrangian(PT4, ExactSubspace.full(4))
    assert leaf_condition(PT4, S4)


def test_diagonal_backward_meets_once(calls):
    # the part of the graph over E x F is one meet with the Lagrangian
    # E x F, and no Zassenhaus intersection runs: ker R^t meets E x F in 0
    # by construction, so there is no transversality test to make
    intersects = calls(ExactSubspace, "intersect")
    meets = calls(BilinearForm, "meet")
    pt = AnchoredPoint(AB4, A4, 2)
    for calls_made in (1, 2):
        assert diagonal_backward(pt, S4).matrix == matrix([[0, -1], [1, 0]])
        assert len(meets) == calls_made
    assert intersects == []


def test_diagonal_relation_cokernel_meets_e_x_f_in_zero():
    # ker R^t = {(x, x) : x in ker a}, which meets E x F only in E cap F = 0
    # on the seeded rank instances; diagonal_backward skips
    # backward_image's transversality test on this fact
    checked = 0
    for i in range(60):
        pt, s, j = suites._random_anchored_instance(f"rank:1:{i}")
        if not j:
            continue
        rel = diagonal_relation(pt)
        ker = pt.stabilizer
        assert rel.cokernel == ExactSubspace.span([r + r for r in ker.basis], ambient_dim=2 * ker.ambient_dim)
        assert rel.cokernel.intersect(exactlin.product_subspace(s.e, s.f)).dim == 0
        checked += 1
    assert checked > 30


def test_integer_bivector_matches_fraction_products():
    # a Pi a^T from the kept integer anchor equals the two Fraction
    # products: seeded anchors with mixed row denominators (chart dimension
    # 0 among them) and every shipped splitting at its context's points,
    # each on a fresh point so that nothing is read from a kept value
    rng = random.Random(31)
    cases = []
    for _ in range(30):
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        cases.append((AnchoredPoint(random_abelian_split_algebra(k), anchor, j),
                      random_lagrangian_splitting(rng, k)))
    assert any(pt.chart_dim == 0 for pt, _ in cases)
    assert any(len({math.lcm(*[x.denominator for x in row]) for row in pt.anchor}) > 1 for pt, _ in cases)
    for ctx, names in SPLITTING_NAMES.items():
        points = [abelian2_desk_point()] if ctx == "abelian-2" else [p.anchor for p in get_group_context(ctx).points]
        cases += [(AnchoredPoint(pt.algebra, pt.anchor, pt.chart_dim), named_splitting(ctx, name))
                  for pt in points for name in names]
    for pt, s in cases:
        a = pt.anchor
        assert bivector_at(pt, s).matrix == mat_mul(mat_mul(a, s.bivector.matrix), transpose(a))


def test_identity_anchor_formula_level():
    # the formula itself applies to any splitting, Courant-valid or not
    pt = AnchoredPoint(AB2, ((1, 0), (0, 1)), 2)
    lines = Splitting.of_algebra(AB2, ExactSubspace.span([(1, 0)]), ExactSubspace.span([(0, 1)]))
    piv = bivector_at(pt, lines)
    assert piv.matrix == matrix([[0, "1/2"], ["-1/2", 0]])
    with pytest.raises(CourantStructureError):
        rank_formula(pt, lines)


def test_sl2_double_identity_point():
    ctx = sl2_context()
    pt = ctx.points[0].anchor
    gd = diagonal_subspace(ctx.algebra, 1)
    gad = diagonal_subspace(ctx.algebra, -1)
    assert pt.stabilizer == gd
    quasi = Splitting.of_algebra(pt.algebra, gd, gad)
    piv = bivector_at(pt, quasi)
    assert all(x == 0 for row in piv.matrix for x in row)
    assert anchor_image(pt, gad).dim == 3
    assert drinfeld_lagrangian(pt, gad) == gd
    assert rank_formula(pt, quasi) == 0


def _image_by_mat_vec(pt, s):
    """The reference a(S): one exact mat_vec per row of S, spanned."""
    return ExactSubspace.span([mat_vec(pt.anchor, row) for row in s.rows], ambient_dim=pt.chart_dim)


def test_anchor_image_matches_the_mat_vec_span():
    # seeded anchors, whose entries have mixed denominators, a hand anchor
    # and chart dimension 0; at each, a random splitting's E and F, the
    # stabilizer, the zero subspace and the full algebra
    rng = random.Random(11)
    points = [AnchoredPoint(AB4, ((F(1, 2), F(-2, 3), 0, 5), (F(3, 4), 1, F(1, 6), 0)), 2),
              AnchoredPoint(AB4, (), 0)]
    for _ in range(12):
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        points.append(AnchoredPoint(random_abelian_split_algebra(k), anchor, j))
    dens = [{x.denominator for row in pt.anchor for x in row} for pt in points[2:]]
    assert sum(len(d) > 1 for d in dens) >= 3
    for pt in points:
        n = pt.algebra.dim
        s = random_lagrangian_splitting(rng, n // 2)
        for sub in (s.e, s.f, pt.stabilizer, ExactSubspace.zero(n), ExactSubspace.full(n)):
            assert anchor_image(pt, sub) == _image_by_mat_vec(pt, sub)
    # a subspace of another ambient space is refused, as by mat_vec
    for sub in (ExactSubspace.full(2), ExactSubspace.span([(1, 0, 0, 0, 0, 0)])):
        with pytest.raises(DimensionMismatchError):
            _image_by_mat_vec(PT4, sub)
        with pytest.raises(DimensionMismatchError):
            anchor_image(PT4, sub)


def test_leaf_condition_strict_case():
    ab6 = random_abelian_split_algebra(3)
    r1 = mat_vec(ab6.form.matrix, (1, 0, 0, 0, 0, 0))
    r2 = mat_vec(ab6.form.matrix, (0, 1, 0, 0, 0, 1))
    pt6 = AnchoredPoint(ab6, (r1, r2), 2)
    e6 = ExactSubspace.span(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    )
    f6 = ExactSubspace.span(
        [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
    )
    assert pt6.coisotropy[0]
    s6 = Splitting.of_algebra(ab6, e6, f6)
    assert not leaf_condition(pt6, s6)
    assert rank_formula(pt6, s6) == 0


def _diagonal_graph_by_columns(pt):
    """The reference graph of diagonal_relation: column x of the anchor
    read as a x for each unit vector x, column j of a* likewise."""
    n, m = pt.algebra.dim, pt.chart_dim
    a, astar = pt.anchor, dual(pt)
    zeros_n, zeros_m = (F(0),) * n, (F(0),) * m
    rows = [x + x + mat_vec(a, x) + zeros_m for x in identity(n)]
    rows += [zeros_n + tuple(-y for y in mat_vec(astar, mu)) + zeros_m + mu for mu in identity(m)]
    return ExactSubspace.span(rows, ambient_dim=2 * n + 2 * m)


def test_diagonal_relation_matches_the_per_column_construction():
    points = [AnchoredPoint(AB2, (), 0), AnchoredPoint(AB4, (), 0), PT4]
    rng = random.Random(23)
    for _ in range(15):
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        points.append(AnchoredPoint(random_abelian_split_algebra(k), anchor if j else (), j))
    assert any(pt.chart_dim == 0 for pt in points[3:]) and any(pt.chart_dim for pt in points)
    # the shipped forms' integer inverses have denominators 8 and 2
    points += [get_group_context(name).points[1].anchor for name in ("sl2-double", "sl2c-real")]
    for pt in points:
        rel = diagonal_relation(pt)
        assert rel.graph == _diagonal_graph_by_columns(pt)
        assert rel.graph.dim == pt.algebra.dim + pt.chart_dim


def test_random_points_p3_and_rank(subtests=None):
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 3)
        alg = random_abelian_split_algebra(k)
        anchor, j = random_coisotropic_anchor(rng, k)
        pt = AnchoredPoint(alg, anchor if j else (), j)
        assert pt.coisotropy[0]
        if j:
            astar = dual(pt)
            assert all(
                x == 0 for row in mat_mul(matrix(pt.anchor), astar) for x in row
            )
        s = random_lagrangian_splitting(rng, k)
        rank_formula(pt, s)
        if j:
            diagonal_backward(pt, s)


def test_pointwise_checks_share_one_pi_and_one_lm(point_builds):
    # rank_formula, leaf_condition and diagonal_backward read the pi_m,
    # L_m and a(F) the point keeps, at a random instance with a nonzero
    # chart; a second round of checks reads the kept rank and leaf verdict
    rng = random.Random(5)
    k = 3
    anchor, j = random_coisotropic_anchor(rng, k)
    assert j > 0
    pt = AnchoredPoint(random_abelian_split_algebra(k), anchor, j)
    s = random_lagrangian_splitting(rng, k)
    for _ in range(2):
        rank_formula(pt, s)
        leaf_condition(pt, s)
        assert diagonal_backward(pt, s) is bivector_at(pt, s)
    assert [key for _, key in point_builds] == [
        ("rank", s), ("lm", s.f), ("image", s.f), ("pi", s), ("leaf", s), ("image", s.e)]


def test_diagonal_backward_checks_the_kept_bivector():
    # the backward image is compared with the kept pi_m on every call
    pt = AnchoredPoint(AB4, A4, 2)
    pi = bivector_at(pt, S4)
    pt.kept["pi", S4] = Bivector(tuple(tuple(-x for x in row) for row in pi.matrix))
    with pytest.raises(CourantStructureError, match="disagrees"):
        diagonal_backward(pt, S4)


def _tangent_image(eprime, rel):
    """A Lagrangian backward image that is no graph over the covectors:
    the tangent vectors {(v, 0)}."""
    m = rel.source.dim // 2
    return ExactSubspace.span(identity(2 * m)[:m])


def test_diagonal_backward_refuses_a_non_graph_image(monkeypatch):
    monkeypatch.setattr(anchored, "backward_image_subspace", _tangent_image)
    with pytest.raises(CourantStructureError, match="not a graph"):
        diagonal_backward(AnchoredPoint(AB4, A4, 2), S4)
    # the rank suite records each such instance by number and keeps going
    rank_rec, diag_rec = suites.run_suite("rank", samples=6, seed=1)
    assert rank_rec["status"] == "pass"
    assert diag_rec["status"] == "fail"
    assert diag_rec["detail"].startswith("#") and "not a graph" in diag_rec["detail"]


def test_pointwise_bivectors_read_the_kept_integer_rows(calls):
    # pi_m is built from Pi's kept rows and kept as the rows of its
    # product; its rank and sharp range eliminate those rows
    s = random_lagrangian_splitting(random.Random(8), 2)
    s.bivector
    pt = AnchoredPoint(AB4, A4, 2)
    conversions = calls(exactlin, "int_matrix")
    pi = bivector_at(pt, s)
    assert pi.rank == 2 and pi.sharp_range() == ExactSubspace.full(2)
    assert conversions == []
    assert pi._ints == exactlin.int_matrix(pi.matrix)


def test_float_anchor_guards():
    # anchors are exact: a float entry is refused when the point is built
    for anchor in (((0.5, 0.0), (0.0, 0.5)), ((F(1, 2), 0), (0, np.float64(0.5)))):
        with pytest.raises(TypeError):
            AnchoredPoint(AB2, anchor, 2)
    pt = AnchoredPoint(AB2, ((F(1, 2), 0), (0, F(1, 2))), 2)
    assert pt.anchor == ((F(1, 2), F(0)), (F(0), F(1, 2)))
    out = bivector_at(
        pt, Splitting.of_algebra(AB2, ExactSubspace.span([(1, 0)]), ExactSubspace.span([(0, 1)]))
    )
    assert out.matrix[0][1] == F(1, 8)


# --- jets -------------------------------------------------------------

def _rand_jet(rng, alg, m):
    v = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(alg.dim)]
    jac = [
        [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(alg.dim)
    ]
    return SectionJet(v, jac)


def test_constant_sections_bracket_is_lie_bracket():
    ctx = sl2_context()
    pt = ctx.points[1].anchor
    alg = pt.algebra
    x = SectionJet.constant((1, 0, 0, 0, 0, 0), 3)
    y = SectionJet.constant((0, 1, 0, 0, 0, 0), 3)
    assert courant_bracket_jets(pt, x, y) == bracket_vec(alg, x.value, y.value)


def test_function_coefficient_rule():
    # y = f y0 with df given: [[x, y]] = f [x, y0] + (a(x) f) y0
    ctx = sl2_context()
    pt = ctx.points[2].anchor
    alg = pt.algebra
    y0 = vector((0, 0, 1, 0, 1, 0))
    f_val = F(3, 2)
    df = vector((1, -2, F(1, 3)))
    x = SectionJet.constant((1, 0, 0, 0, 1, 0), 3)
    y = SectionJet(
        tuple(f_val * c for c in y0),
        tuple(tuple(c * d for d in df) for c in y0),
    )
    got = courant_bracket_jets(pt, x, y)
    ax = mat_vec(pt.anchor, x.value)
    scale = sum(a * b for a, b in zip(ax, df))
    want = add_vec(
        tuple(f_val * c for c in bracket_vec(alg, x.value, y0)),
        tuple(scale * c for c in y0),
    )
    assert got == want


def test_axioms_c2_c3_on_random_jets():
    rng = random.Random(23)
    for _ in range(15):
        k = rng.randint(1, 3)
        alg = random_abelian_split_algebra(k)
        anchor, j = random_coisotropic_anchor(rng, k)
        if j == 0:
            continue
        pt = AnchoredPoint(alg, anchor, j)
        x, y, z = (_rand_jet(rng, alg, j) for _ in range(3))
        # c3 symmetrized bracket
        lhs = add_vec(courant_bracket_jets(pt, x, y), courant_bracket_jets(pt, y, x))
        dpair = tuple(
            pairing(alg.form, x.jac_column(u), y.value)
            + pairing(alg.form, x.value, y.jac_column(u))
            for u in range(j)
        )
        assert lhs == mat_vec(dual(pt), dpair)
        # c2: a(x)<y, z> = <[[x, y]], z> + <y, [[x, z]]>
        ax = mat_vec(pt.anchor, x.value)
        deriv = sum(
            (
                pairing(alg.form, y.jac_column(u), z.value)
                + pairing(alg.form, y.value, z.jac_column(u))
            )
            * ax[u]
            for u in range(j)
        )
        rhs = pairing(alg.form, courant_bracket_jets(pt, x, y), z.value) + pairing(
            alg.form, y.value, courant_bracket_jets(pt, x, z)
        )
        assert deriv == rhs


def test_c1_on_linear_jets_constant_anchor():
    # abelian algebra, constant anchor: jets close and Jacobi holds
    rng = random.Random(29)
    for _ in range(10):
        k = rng.randint(1, 3)
        alg = random_abelian_split_algebra(k)
        anchor, j = random_coisotropic_anchor(rng, k)
        if j == 0:
            continue
        pt = AnchoredPoint(alg, anchor, j)
        x, y, z = (_rand_jet(rng, alg, j) for _ in range(3))
        lhs = courant_bracket_jets(pt, x, courant_bracket_jet_closed(pt, y, z))
        rhs = add_vec(
            courant_bracket_jets(pt, courant_bracket_jet_closed(pt, x, y), z),
            courant_bracket_jets(pt, y, courant_bracket_jet_closed(pt, x, z)),
        )
        assert lhs == rhs


# --- pointwise reduction and pull-back ---------------------------------

def test_coisotropic_reduce_point():
    form = AB4.form

    def reduce_point(c):
        # C / C-perp with the descended form
        q = quotient_coords(c, form.orth_complement(c))
        return q, q.descended_form(form)

    ker = PT4.stabilizer
    q, reduced = reduce_point(ker.sum(ExactSubspace.span([(1, 0, 0, 0)])))
    assert reduced.is_nondegenerate()
    # C = W reduces to W itself
    q2, red2 = reduce_point(ExactSubspace.full(4))
    assert q2.dim == 4 and red2.matrix == form.matrix
    # a C that is not coisotropic does not contain C-perp
    with pytest.raises(ValueError):
        reduce_point(ExactSubspace.span([(1, 0, 1, 0)]))


def test_pullback_point_rank_and_restriction():
    # pull the Q^4 point back along the inclusion of a line
    dphi = matrix([(1,), (0,)])
    pb = pullback_point(PT4, int_matrix(dphi))
    ref = reference_pullback(PT4, dphi)
    assert ref.quotient.dim == 4 - 2 * (2 - 1) == pb.form.dim - 2 * len(pb.perp)
    assert ref.reduced_form.is_nondegenerate()
    # anchor descends: complement lifts carry the chart vector
    assert len(ref.reduced_anchor) == 1
    # the complement is a basis of C / C-perp that descends to the reference
    assert pb.descend(*int_matrix(ref.quotient.complement)) == tuple(
        map(int_matrix, (ref.reduced_form.matrix, ref.reduced_anchor)))
    # failing transversality: zero anchor and a non-surjective dphi, and
    # a nonzero anchor whose range is the range of dphi ([dPhi | a] has rank 1)
    for anchor in (((0,) * 4, (0,) * 4), ((1, 0, 0, 0), (0,) * 4)):
        with pytest.raises(ValueError, match="not transverse"):
            pullback_point(AnchoredPoint(AB4, anchor, 2), int_matrix(dphi))


def _pullback_cases():
    """(point, dPhi): the D-point of Phi(g) along the inclusion at every
    point of both shipped triples, then seeded coisotropic anchors with
    dPhi = I."""
    for name in TRIPLE_CONTEXT_NAMES:
        t = get_triple_context(name)
        for x in t.points:
            yield x.phi.anchor, t.inclusion
    rng = random.Random(43)
    for _ in range(20):
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        if j:
            yield AnchoredPoint(random_abelian_split_algebra(k), anchor, j), identity(j)


def test_pullback_perp_is_the_orthogonal_complement_of_the_constraint():
    # the reference: C = ker K by elimination, C-perp as its orthogonal complement
    cases = list(_pullback_cases())
    assert len(cases) > 30
    for pt, dphi in cases:
        pb = pullback_point(pt, int_matrix(dphi))
        ref = reference_pullback(pt, dphi)
        n, m, s = pt.algebra.dim, pt.chart_dim, len(dphi[0])
        assert pb.form == pt.algebra.form.direct_sum(hyperbolic_space(s).form)
        assert ExactSubspace.span(pb.constraint).dim == m
        assert nullspace(pb.constraint, n + 2 * s) == ref.c
        assert ExactSubspace.span(pb.perp) == ref.quotient.w0 == pb.form.orth_complement(ref.c)
        assert ref.quotient.dim == n + 2 * s - 2 * m
        assert ref.reduced_form.is_nondegenerate()
        assert pb.descend(*int_matrix(ref.quotient.complement)) == tuple(
            map(int_matrix, (ref.reduced_form.matrix, ref.reduced_anchor)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: pullback_point(AnchoredPoint(AB2, identity(2), 2), int_matrix(identity(2))),
     CourantStructureError, "not coisotropic"),
    (lambda: pullback_point(AnchoredPoint(
        QuadraticLieAlgebra.from_triples(2, [], [[1, 0], [0, 0]]), ((0, 1),), 1), (((1,),), 1)),
     ValueError, "form B is degenerate"),
], ids=["not-coisotropic", "degenerate-form"])
def test_pullback_refusals(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert not isinstance(raised.value, SingularMatrixError)


def test_pullback_refuses_an_anchor_that_does_not_descend(monkeypatch):
    # with the hyperbolic H_s, C-perp = [-a B^-1 | 0 | dPhi] never has a
    # v-block; a form that pairs v with v gives one: over B = (-1), a = dPhi = 1
    # and G = diag(-1, 1, 1), C-perp = (1, 1, 0) lies in C = ker(-1, 1, 0)
    monkeypatch.setattr(anchored, "_pullback_form",
                        lambda form, s: form.direct_sum(BilinearForm(identity(2 * s))))
    with pytest.raises(CourantStructureError, match="not well-defined"):
        pullback_point(AnchoredPoint(QuadraticLieAlgebra.from_triples(1, [], [[-1]]), ((1,),), 1), (((1,),), 1))


def _scaled_form(alg, c):
    """alg with its form scaled by c: the same bracket, still invariant."""
    return QuadraticLieAlgebra(alg.dim, alg.bracket, BilinearForm(mat_scale(c, alg.form.matrix)),
                               alg.basis_names)


def test_pullback_ambient_form_is_kept_per_form_and_chart_dimension():
    # the same dPhi (the identity of G1's chart, s = 3) pulls back the left
    # dressing anchor over d and over d with its form scaled by 2: the two
    # share s but not their ambient form B (+) H
    t = get_triple_context("sl2-triangular-triple")
    _, left = t.points[3].dressing
    reduced = []
    for c in (1, 2):
        alg = _scaled_form(t.d_algebra, c)
        pt = AnchoredPoint(alg, left.anchor, left.chart_dim)
        pb = pullback_point(pt, int_matrix(identity(3)))
        ambient = alg.form.direct_sum(hyperbolic_space(3).form)
        assert pb.form == ambient
        ref = reference_pullback(pt, identity(3))
        assert ref.quotient.w0 == ambient.orth_complement(ref.quotient.w1)
        assert ref.reduced_form == ref.quotient.descended_form(ambient)
        reduced.append(ref.reduced_form)
    assert reduced[1] == BilinearForm(mat_scale(2, reduced[0].matrix))


def test_pullback_builds_its_ambient_form_once(calls):
    # ten points of one triple pull back along one inclusion: one ambient form
    t = get_triple_context("sl2-triangular-triple")
    points = [x.phi.anchor for x in t.points[:10]]
    anchored._pullback_form.cache_clear()
    sums = calls(BilinearForm, "direct_sum")
    for pt in points:
        pullback_point(pt, t.inclusion_ints)
    assert len(sums) == 1


# --- point data kept on the AnchoredPoint --------------------------------

def _direct_coisotropy(pt):
    ker = nullspace(matrix(pt.anchor), pt.algebra.dim)
    perp = pt.algebra.form.orth_complement(ker)
    bad = [row for row in perp.basis if not ker.contains(row)]
    return (not bad), (bad[0] if bad else None)


def _points():
    rng = random.Random(29)
    for _ in range(15):
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        yield AnchoredPoint(random_abelian_split_algebra(k), anchor if j else (), j)
    ctx = sl2_context()
    for p in ctx.points[:4]:
        yield p.anchor
    yield PT4
    yield AnchoredPoint(AB2, ((1, 0),), 1)
    yield AnchoredPoint(AB2, ((1, 0), (0, 1)), 2)  # not coisotropic


def test_kept_point_data_equals_direct_formulas():
    for pt in _points():
        a = matrix(pt.anchor)
        assert pt.stabilizer == nullspace(a, pt.algebra.dim)
        assert pt.coisotropy == _direct_coisotropy(pt)
        assert dual(pt) == mat_mul(inverse(pt.algebra.form.matrix), transpose(a))
        assert pt.dual_range == ExactSubspace.span(transpose(dual(pt)), ambient_dim=pt.algebra.dim)
        # computed once: later reads return the same objects
        assert pt.stabilizer is pt.stabilizer
        assert pt.dual_ints is pt.dual_ints


def _shipped_points():
    for name in GROUP_CONTEXT_NAMES:
        for p in get_group_context(name).points:
            yield p.anchor
    for name in TRIPLE_CONTEXT_NAMES:
        for x in get_triple_context(name).points:
            yield x.phi.anchor
            yield from x.dressing
    yield abelian2_desk_point()


def _random_anchors(count):
    """count seeded coisotropic anchors with a nonzero chart, then as many
    dense integer anchors, coisotropic or not."""
    rng = random.Random(41)
    drawn = 0
    while drawn < count:
        k = rng.randint(1, 3)
        anchor, j = random_coisotropic_anchor(rng, k)
        if j:
            drawn += 1
            yield AnchoredPoint(random_abelian_split_algebra(k), anchor, j)
    for _ in range(count):
        k, m = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(2 * k)] for _ in range(m)]
        yield AnchoredPoint(random_abelian_split_algebra(k), rows, m)


def test_dual_range_is_the_range_of_the_metric_dual():
    # ran(a*) = ker(a)-perp; the span of a* = B^-1 a^T is the reference
    points = list(_shipped_points()) + list(_random_anchors(50))
    assert len(points) > 150
    for pt in points:
        assert pt.dual_range == ExactSubspace.span(transpose(dual(pt)), ambient_dim=pt.algebra.dim)


@pytest.mark.parametrize("call", [
    lambda: AnchoredPoint(AB2, ((1, 0, 0),), 1),
    lambda: AnchoredPoint(AB2, ((1, 0),), 2),
    lambda: pullback_point(PT4, (((1,),), 1)),
    lambda: QuadraticLieAlgebra.from_triples(2, [], [[0, 1], [1, 0]], basis_names=("a",)),
    lambda: ChartBivectorField(2, lambda t: np.zeros((len(t), 3, 3)))(((0.0, 0.0),)),
], ids=["anchor-row-length", "anchor-row-count", "dphi-rows", "basis-names", "sampler-shape"])
def test_wrong_shapes_raise_dimension_mismatch(call):
    with pytest.raises(DimensionMismatchError):
        call()


def test_of_ints_equals_and_hashes_like_the_matrix_constructor():
    # an integer table over any multiple of its denominator keys the point
    # as the Fraction matrix it stands for does
    rng = random.Random(44)
    points = list(_shipped_points()) + list(_random_anchors(20)) + [AnchoredPoint(AB2, (), 0)]
    for pt in points:
        rows, den = pt._ints
        direct = AnchoredPoint(pt.algebra, frac_matrix(rows, den), pt.chart_dim)
        for c in (1, 2, 6, rng.randint(2, 10 ** 6)):
            scaled = AnchoredPoint.of_ints(pt.algebra, [[c * x for x in row] for row in rows], c * den, pt.chart_dim)
            assert scaled == direct and hash(scaled) == hash(direct)
            assert scaled._ints == direct._ints and scaled.anchor == direct.anchor
    with pytest.raises(TypeError):
        AnchoredPoint(AB2, ((0.5, 0),), 1)


def test_a_first_bivector_query_decides_one_lagrangian(monkeypatch, capsys, calls):
    # the splitting decided E and F Lagrangian when it was built, so the
    # query meets them with the stabilizer without deciding it again: the
    # one decision left is rank_formula's check of L_m
    ctx = replace(get_group_context("sl2-double"))  # fresh, so no point keeps a value
    s = named_splitting("sl2-double", "delta-triangular")
    monkeypatch.setattr(cli, "get_group_context", lambda name: ctx)
    decided = calls(BilinearForm, "is_lagrangian")
    assert main(["bivector", "--ctx", "sl2-double", "--point", "3", "--splitting", "delta-triangular"]) == 0
    capsys.readouterr()
    pt = ctx.points[3].anchor
    assert [args[1:] for args in decided] == [(drinfeld_lagrangian(pt, s.f),)]
    # the public drinfeld_lagrangian still decides its F first
    with pytest.raises(NotLagrangianError):
        drinfeld_lagrangian(pt, s.e.sum(ExactSubspace.span([s.f.basis[0]], ambient_dim=s.space.dim)))
