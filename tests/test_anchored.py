import random
from fractions import Fraction as F

import numpy as np
import pytest

from courantlab.anchored import (
    AnchoredPoint,
    CourantStructureError,
    SectionJet,
    anchor_image,
    bivector_at,
    courant_bracket_jet_closed,
    courant_bracket_jets,
    diagonal_backward,
    diagonal_relation,
    drinfeld_lagrangian,
    leaf_condition,
    pullback_point,
    rank_formula,
)
from courantlab.contexts import abelian_algebra_split2
from courantlab.exactlin import (
    ExactSubspace,
    add_vec,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    quotient_coords,
    transpose,
    vector,
)
from courantlab.lagrel import Splitting
from courantlab.contexts import sl2_context
from courantlab.quadlie import QuadraticLieAlgebra, diagonal_subspace
from courantlab.randgen import (
    random_abelian_split_algebra,
    random_coisotropic_anchor,
    random_lagrangian_splitting,
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
    assert AnchoredPoint(AB2, ((0, 0),), 1).dual == ((F(0),), (F(0),))
    astar = PT4.dual
    # a o a* = 0 at coisotropic points
    assert all(
        x == 0 for row in mat_mul(matrix(PT4.anchor), astar) for x in row
    )
    # Q^2 split case: a = (1, 0) row gives a* = column (0, 1)
    pt1 = AnchoredPoint(AB2, ((1, 0),), 1)
    assert pt1.dual == ((F(0),), (F(1),))


def test_bivector_formula_and_diagonal_backward():
    piv = bivector_at(PT4, S4)
    assert piv.matrix == matrix([[0, -1], [1, 0]])
    assert bivector_at(PT4, Splitting.of_algebra(AB4, F4, E4)).matrix == matrix([[0, 1], [-1, 0]])
    assert diagonal_backward(PT4, S4).matrix == piv.matrix
    assert rank_formula(PT4, S4) == 2
    lm = drinfeld_lagrangian(PT4, F4)
    assert AB4.form.is_lagrangian(lm)
    assert leaf_condition(PT4, S4)


def test_diagonal_backward_intersects_twice(monkeypatch):
    # once for transversality (E x F against ker R^t) and once for the part
    # of the graph over E x F, which builds both E and the comparison map
    calls = []
    original = ExactSubspace.intersect

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(ExactSubspace, "intersect", counted)
    assert diagonal_backward(PT4, S4).matrix == matrix([[0, -1], [1, 0]])
    assert len(calls) == 2


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


def test_random_points_p3_and_rank(subtests=None):
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randint(1, 3)
        alg = random_abelian_split_algebra(k)
        anchor, j = random_coisotropic_anchor(rng, k)
        pt = AnchoredPoint(alg, anchor if j else (), j)
        assert pt.coisotropy[0]
        if j:
            astar = pt.dual
            assert all(
                x == 0 for row in mat_mul(matrix(pt.anchor), astar) for x in row
            )
        s = random_lagrangian_splitting(rng, k)
        rank_formula(pt, s)
        if j:
            diagonal_backward(pt, s)


def test_float_anchor_guards():
    # anchors are exact: a float entry is refused when the point is built
    for anchor in (((0.5, 0.0), (0.0, 0.5)), ((F(1, 2), 0), (0, np.float64(0.5)))):
        with pytest.raises(TypeError):
            AnchoredPoint(AB2, anchor, 2)
    pt = AnchoredPoint(AB2, ((F(1, 2), 0), (0, F(1, 2))), 2)
    assert pt.exact_anchor() is pt.anchor == ((F(1, 2), F(0)), (F(0), F(1, 2)))
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
    assert courant_bracket_jets(pt, x, y) == alg.bracket_vec(x.value, y.value)


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
    ax = mat_vec(pt.exact_anchor(), x.value)
    scale = sum(a * b for a, b in zip(ax, df))
    want = add_vec(
        tuple(f_val * c for c in alg.bracket_vec(x.value, y0)),
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
            alg.pairing(x.jac_column(u), y.value)
            + alg.pairing(x.value, y.jac_column(u))
            for u in range(j)
        )
        assert lhs == mat_vec(pt.dual, dpair)
        # c2: a(x)<y, z> = <[[x, y]], z> + <y, [[x, z]]>
        ax = mat_vec(pt.exact_anchor(), x.value)
        deriv = sum(
            (
                alg.pairing(y.jac_column(u), z.value)
                + alg.pairing(y.value, z.jac_column(u))
            )
            * ax[u]
            for u in range(j)
        )
        rhs = alg.pairing(courant_bracket_jets(pt, x, y), z.value) + alg.pairing(
            y.value, courant_bracket_jets(pt, x, z)
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
    pb = pullback_point(PT4, dphi)
    assert pb.quotient.dim == 4 - 2 * (2 - 1)
    assert pb.reduced_form.is_nondegenerate()
    # anchor descends: complement lifts carry the chart vector
    assert len(pb.reduced_anchor) == 1
    # failing transversality: zero anchor and a non-surjective dphi
    pt0 = AnchoredPoint(AB4, ((0,) * 4, (0,) * 4), 2)
    with pytest.raises(ValueError):
        pullback_point(pt0, dphi)


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
        assert pt.dual == mat_mul(inverse(pt.algebra.form.matrix), transpose(a))
        assert pt.dual_range == ExactSubspace.span(transpose(pt.dual), ambient_dim=pt.algebra.dim)
        # computed once: later reads return the same objects
        assert pt.stabilizer is pt.stabilizer
        assert pt.dual is pt.dual
