import collections
import random
from fractions import Fraction as F
from math import gcd

import pytest

from courantlab import exactlin, lagrel, quadlie, randgen
from courantlab.contexts import (
    SPLITTING_NAMES,
    TRIPLE_CONTEXT_NAMES,
    get_triple_context,
    named_splitting,
    sl2_algebra,
)
from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    SingularMatrixError,
    identity,
    int_matrix,
    matrix,
    zero_vector,
)
from courantlab.lagrel import (
    Bivector,
    LinearRelation,
    NotLagrangianError,
    SplitSpace,
    Splitting,
    TransversalityError,
    backward_image,
    backward_image_subspace,
    hyperbolic_space,
    pair_groupoid_relation,
    related_lagrangian,
    related_splitting,
    splitting_bivector,
)
from courantlab.quadlie import build_double, diagonal_subspace
from courantlab.suites import _sheared_quasi_splitting
from courantlab.randgen import random_lagrangian_splitting, random_relation
from algebra_reference import (
    courant_form,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    pairing,
    quotient_coords,
    randint_small_ints,
    random_coisotropic_anchor,
    random_invertible,
    random_split_transform,
    reduce_bivector,
    reduced_iso,
    ReductionError,
    transpose,
)

SP2 = SplitSpace(2, BilinearForm(matrix([[0, 1], [1, 0]])))
E2 = ExactSubspace.span([(1, 0)])
F2 = ExactSubspace.span([(0, 1)])


def test_split_space_rejects_nonsplit():
    with pytest.raises(ValueError):
        SplitSpace(2, BilinearForm(matrix([[1, 0], [0, 1]])))
    with pytest.raises(ValueError):
        SplitSpace(3, BilinearForm(matrix([[0, 0, 1], [0, 2, 0], [1, 0, 0]])))


def test_splitting_bivector_dim2():
    pi = Splitting(SP2, E2, F2).bivector
    assert pi.matrix == matrix([[0, "1/2"], ["-1/2", 0]])
    assert Splitting(SP2, F2, E2).bivector.matrix == matrix([[0, "-1/2"], ["1/2", 0]])
    # contraction identity iota(w)Pi = (pr_F - pr_E)(w) / 2, where
    # iota(w) Pi = -Pi B w is row w of I B Pi for a unit row w
    contractions = mat_mul(mat_mul(identity(2), SP2.form.matrix), pi.matrix)
    assert contractions == ((F(-1, 2), F(0)), (F(0), F(1, 2)))


def test_splitting_bivector_rejects_bad_input():
    # Pi is only reachable through a checked Splitting
    with pytest.raises(NotLagrangianError):
        splitting_bivector(Splitting(SP2, E2, E2))
    full = ExactSubspace.full(2)
    with pytest.raises(NotLagrangianError):
        splitting_bivector(Splitting(SP2, full, F2))


def test_identity_relation():
    r = LinearRelation.identity_relation(SP2)
    assert r.kernel().dim == 0
    assert r.range_ == ExactSubspace.full(2)
    assert (r * r).graph == r.graph
    img, alpha = backward_image(E2, r)
    assert img == E2 and alpha == E2.basis


def test_product_relation_kernel_range():
    # R = L' x L has kernel L and range L'
    rows = [(F(1), F(0)) + zero_vector(2), zero_vector(2) + (F(0), F(1))]
    r = LinearRelation.from_rows(SP2, SP2, rows)
    assert r.kernel() == F2
    assert r.range_ == E2


def test_graph_of_form_preserving_map():
    g = matrix([[2, 0], [0, "1/2"]])
    r = LinearRelation.graph_of_map(SP2, SP2, g)
    img, alpha = backward_image(E2, r)
    assert img == E2  # span(g^-1 e1) = span(e1) here
    assert alpha == ((F(2), F(0)),)
    fwd, _ = backward_image(E2, r.transpose())
    assert fwd == E2


def test_pair_groupoid_relation_dims():
    r = pair_groupoid_relation(build_double(sl2_algebra()))
    assert 2 * r.graph.dim == r.source.dim + r.target.dim
    assert r.kernel().dim == 3
    assert r.range_ == ExactSubspace.full(6)
    line = quadlie.QuadraticLieAlgebra.from_triples(1, [], [[1]], basis_names=("a",))
    tiny = pair_groupoid_relation(build_double(line))
    assert tiny.kernel().dim == 1
    assert tiny.kernel().basis == ((F(0), F(1), F(1), F(0)),)


def test_kept_cokernel_is_the_transpose_kernel():
    # ker(R^t), read off the kept flipped elimination, is the kernel of the
    # transposed relation, down to its integer rows, and the target parts
    # of the graph's intersection with W' x 0
    rng = random.Random(5)
    for _ in range(20):
        r = random_relation(rng, rng.randint(1, 4), rng.randint(1, 4))
        nt = r.target.dim
        kernel_t = r.transpose().kernel()
        assert r.cokernel == kernel_t
        assert r.cokernel.rows == kernel_t.rows
        over_zero = r.graph.intersect(ExactSubspace.span(identity(r.graph.ambient_dim)[:nt]))
        assert r.cokernel == ExactSubspace.span([v[:nt] for v in over_zero.basis], ambient_dim=nt)
        assert r.transpose().cokernel == r.kernel()


def test_transpose_compose_reduced_identity():
    rng = random.Random(2)
    for _ in range(10):
        r = random_relation(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = r.transpose() * r
        iso = reduced_iso(t)
        assert iso.matrix == identity(iso.dim) if iso.dim else iso.matrix == ()
        # and the quotients are ran(R^t)/ker(R) on both sides
        assert t.kernel() == r.kernel()
        assert t.range_ == r.transpose().range_


def test_isom_lemma_identities_random():
    rng = random.Random(5)
    for _ in range(30):
        r = random_relation(rng, rng.randint(1, 4), rng.randint(1, 4))
        rt = r.transpose()
        assert r.kernel() == r.source.form.orth_complement(rt.range_)
        assert r.range_ == r.target.form.orth_complement(rt.kernel())
        assert r.kernel().dim + r.range_.dim == r.graph.dim
        iso = reduced_iso(r)
        assert iso.dim == rt.range_.dim - r.kernel().dim


def test_composition_lagrangian_random():
    rng = random.Random(8)
    for _ in range(20):
        k0, k1, k2 = (rng.randint(1, 3) for _ in range(3))
        r = random_relation(rng, k0, k1)
        s = random_relation(rng, k1, k2)
        sr = s * r
        assert 2 * sr.graph.dim == sr.source.dim + sr.target.dim


def test_backward_image_transversality_error():
    # relation with co-kernel meeting the subspace: L' x L
    rows = [(F(1), F(0)) + zero_vector(2), zero_vector(2) + (F(0), F(1))]
    r = LinearRelation.from_rows(SP2, SP2, rows)
    with pytest.raises(TransversalityError) as exc:
        backward_image(E2, r)
    assert exc.value.witness == (F(1), F(0))
    # the subspace-level image is still defined and Lagrangian
    img = backward_image_subspace(E2, r)
    assert r.source.form.is_lagrangian(img)


def test_courant_tensor_pullback_through_morphism():
    # backward image through the groupoid-multiplication subalgebra
    # relation: the tensor of the image is the pulled-back tensor
    sl2 = sl2_algebra()
    d = build_double(sl2)
    r = pair_groupoid_relation(d)
    eprime = diagonal_subspace(sl2, -1)  # the anti-diagonal inside d
    img, alpha = backward_image(eprime, r)
    # source of r is the direct product algebra d (+) d (componentwise)
    triples = [(i + s, j + s, k + s, c) for s in (0, 6) for i, j, k, c in d.bracket]
    form = d.form.direct_sum(d.form)
    from courantlab.quadlie import QuadraticLieAlgebra

    prod_alg = QuadraticLieAlgebra.from_triples(12, triples, form.matrix)
    for a in range(img.dim):
        for b in range(a + 1, img.dim):
            for c in range(b + 1, img.dim):
                lhs = courant_form(prod_alg, img.basis[a], img.basis[b], img.basis[c])
                rhs = courant_form(d, alpha[a], alpha[b], alpha[c])
                assert lhs == rhs


def test_reduce_bivector_dim4():
    sp4 = hyperbolic_space(2)
    e = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
    f = ExactSubspace.span([(0, 0, 1, 0), (0, 0, 0, 1)])
    s = Splitting(sp4, e, f)
    w1 = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    red = reduce_bivector(s, w1)
    assert red.splitting.bivector.matrix == matrix([[0, "1/2"], ["-1/2", 0]])
    assert red.splitting.e.dim == 1 and red.splitting.f.dim == 1
    # trivial reduction: W1 = W
    full = ExactSubspace.full(4)
    red2 = reduce_bivector(s, full)
    assert red2.splitting.bivector.matrix == s.bivector.matrix


def test_reduce_bivector_witness():
    sp4 = hyperbolic_space(2)
    e = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
    f = ExactSubspace.span([(0, 0, 1, 0), (0, 0, 0, 1)])
    w0 = ExactSubspace.span([(1, 0, 0, 1)])  # isotropic, outside E and F
    w1 = sp4.form.orth_complement(w0)
    with pytest.raises(ReductionError) as exc:
        reduce_bivector(Splitting(sp4, e, f), w1)
    assert exc.value.witness == (F(1), F(0), F(0), F(1))


def test_reduce_bivector_refuses_a_non_coisotropic_w1_first():
    # W0 = W1-perp is neither inside W1 nor split along (E, F); the
    # containment check of the quotient decides first
    sp4 = hyperbolic_space(2)
    e = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)])
    f = ExactSubspace.span([(0, 0, 1, 0), (0, 0, 0, 1)])
    w1 = ExactSubspace.span([(1, 0, 0, 1)])
    assert not sp4.form.is_coisotropic(w1)
    with pytest.raises(ValueError, match="W0 is not contained in W1") as exc:
        reduce_bivector(Splitting(sp4, e, f), w1)
    assert not isinstance(exc.value, ReductionError)


def test_splits_matches_the_sum_of_intersections():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(40):
        k = rng.randint(1, 3)
        s = random_lagrangian_splitting(rng, k)
        n = 2 * k
        drawn = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
        parts = list(s.e.rows[:rng.randint(0, k)] + s.f.rows[:rng.randint(0, k)])
        for w in (ExactSubspace.span(drawn), ExactSubspace.span(parts, ambient_dim=n),
                  ExactSubspace.zero(n), ExactSubspace.full(n)):
            want = w.intersect(s.e).sum(w.intersect(s.f)) == w
            assert s.splits(w) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    with pytest.raises(DimensionMismatchError):
        Splitting(SP2, E2, F2).splits(ExactSubspace.full(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LinearRelation(SP2, SP2, ExactSubspace.span([(1, 0, 0)])),
     DimensionMismatchError, "graph not in target"),
    (lambda: LinearRelation(SP2, SP2, ExactSubspace.span([(1, 0, 0, 0)])),
     NotLagrangianError, "graph has dim 1, expected 2"),
    (lambda: LinearRelation.identity_relation(SP2).compose(
        LinearRelation.identity_relation(hyperbolic_space(2))),
     DimensionMismatchError, "composition spaces"),
    (lambda: related_splitting(Splitting(SP2, E2, F2), Splitting(SP2, E2, F2),
                               LinearRelation.identity_relation(hyperbolic_space(2))),
     NotLagrangianError, "not on the relation's spaces"),
    (lambda: backward_image_subspace(ExactSubspace.full(2), LinearRelation.identity_relation(SP2)),
     NotLagrangianError, "needs a Lagrangian subspace"),
    (lambda: BilinearForm(((0, 1), (0, 0))), ValueError, "must be symmetric"),
    (lambda: related_lagrangian(ExactSubspace.full(2), E2, LinearRelation.identity_relation(SP2)),
     NotLagrangianError, "needs Lagrangian subspaces"),
], ids=["graph-ambient", "graph-dim", "compose-spaces", "related-spaces", "backward-non-lagrangian",
        "form-not-symmetric", "related-non-lagrangian"])
def test_relation_and_form_guards(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_related_splitting_identity():
    r = LinearRelation.identity_relation(SP2)
    s = Splitting(SP2, E2, F2)
    rep = related_splitting(s, s, r)
    assert rep.related and rep.reasons == ()
    swapped = related_splitting(s, Splitting(SP2, F2, E2), r)
    assert not swapped.related
    assert swapped.reasons == ("e_not_related", "f_not_related")


def _iso_carries(iso, e, eprime):
    """The reference verdict of the isomorphism lemma: the reduced
    isomorphism carries E_red onto E'_red."""
    e_red = iso.source_quotient.map_subspace(e)
    ep_red = iso.target_quotient.map_subspace(eprime)
    return iso.map_subspace(e_red) == ep_red


def test_related_lagrangian_matches_the_reduced_iso():
    # the identity R(E) = ker(R^t) + (E' cap ran R) against the quotient
    # verdict, on random pairs and on three related by construction: E' the
    # forward image R(E) (the backward image through R^t); E the backward
    # image of F' and E' = F'; and that E with E' = ker(R^t) + (F' cap ran R)
    rng = random.Random(30)
    outcomes = collections.Counter()
    for _ in range(200):
        ks, kt = rng.randint(1, 4), rng.randint(1, 4)
        r = random_relation(rng, ks, kt)
        e = random_lagrangian_splitting(rng, ks).e
        fp = random_lagrangian_splitting(rng, kt).e
        back = backward_image_subspace(fp, r)
        related = [(e, backward_image_subspace(e, r.transpose())), (back, fp),
                   (back, r.cokernel.sum(fp.intersect(r.range_)))]
        for src, tgt in [(e, fp)] + related:
            verdict = related_lagrangian(src, tgt, r)
            assert verdict == _iso_carries(reduced_iso(r), src, tgt)
            outcomes[verdict] += 1
        assert all(related_lagrangian(src, tgt, r) for src, tgt in related)
    assert outcomes[True] > 600 and outcomes[False] > 0


def test_related_splitting_decides_no_lagrangian_again(calls):
    # each Splitting decided its halves Lagrangian when it was built; the
    # public related_lagrangian keeps its check for outside callers
    rng = random.Random(5)
    r = random_relation(rng, 2, 3)
    s, s_prime = random_lagrangian_splitting(rng, 2), random_lagrangian_splitting(rng, 3)
    decided = calls(BilinearForm, "is_lagrangian")
    related_splitting(s, s_prime, r)
    assert decided == []
    related_lagrangian(s.e, s_prime.e, r)
    assert [sub for _, sub in decided] == [s.e, s_prime.e]


def test_relatedness_builds_no_quotient(calls):
    # the verdict is a subspace identity: no coordinatizer, so no quotient
    # coordinates and no reduced isomorphism
    coordinatizers = calls(exactlin.Coordinatizer, "of_rows")
    rng = random.Random(4)
    for _ in range(5):
        r = random_relation(rng, 2, 3)
        related_splitting(random_lagrangian_splitting(rng, 2), random_lagrangian_splitting(rng, 3), r)
    assert coordinatizers == []


def test_reduced_pi_transported_by_related_splittings():
    # relatedness carries the reduced bivector onto the reduced bivector
    rng = random.Random(13)
    for _ in range(6):
        k = 2
        g = random_split_transform(rng, k)
        sp = hyperbolic_space(k)
        cols = transpose(g)
        e = ExactSubspace.span(cols[:k], ambient_dim=2 * k)
        f = ExactSubspace.span(cols[k:], ambient_dim=2 * k)
        r = LinearRelation.graph_of_map(sp, sp, g)
        e0 = ExactSubspace.span(identity(2 * k)[:k], ambient_dim=2 * k)
        f0 = ExactSubspace.span(identity(2 * k)[k:], ambient_dim=2 * k)
        s0, s1 = Splitting(sp, e0, f0), Splitting(sp, e, f)
        rep = related_splitting(s0, s1, r)
        assert rep.related
        pi0, pi1 = s0.bivector, s1.bivector
        # ker = 0 and ran = all, so the reduced map is g: g Pi g^T = Pi'
        lhs = tuple(
            tuple(
                sum(
                    g[u][a] * pi0.matrix[a][b] * g[v][b]
                    for a in range(2 * k)
                    for b in range(2 * k)
                )
                for v in range(2 * k)
            )
            for u in range(2 * k)
        )
        assert lhs == pi1.matrix


def _t_relation(space, c_perp_vec):
    c_perp = ExactSubspace.span([c_perp_vec], ambient_dim=space.dim)
    c = space.form.orth_complement(c_perp)
    q = quotient_coords(c, c_perp)
    rows = [v + v for v in q.complement]
    for z in c_perp.basis:
        rows.append(z + zero_vector(space.dim))
        rows.append(zero_vector(space.dim) + z)
    return LinearRelation.from_rows(space, space, rows)


def test_relatedness_does_not_compose():
    # E ~ E through R and through S, yet not through S o R
    space = hyperbolic_space(2)
    gtw1 = matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, "-1/2", 1, 0], ["1/2", 0, 0, 1]])
    gtw2 = matrix([[0, "-1/3", 0, 0], ["1/2", 1, 0, 0], [0, 0, 6, -3], [0, 0, 2, 0]])
    r = LinearRelation.graph_of_map(space, space, gtw1) * _t_relation(space, (1, 0, 0, 0))
    s = LinearRelation.graph_of_map(space, space, gtw2) * _t_relation(space, (0, 1, 0, 0))
    e = ExactSubspace.span([(1, 0, 0, "-1/8"), (0, 1, "1/8", 0)])
    assert related_lagrangian(e, e, r)
    assert related_lagrangian(e, e, s)
    assert not related_lagrangian(e, e, s * r)


def test_relation_json():
    r = LinearRelation.identity_relation(SP2)
    data = r.to_json()
    assert data["source_dim"] == 2 and data["target_dim"] == 2
    assert len(data["graph_basis"]) == 2


# --- the Splitting value object -------------------------------------------

def test_splitting_keeps_checked_bivector_and_duals():
    sp = hyperbolic_space(2)
    rng = random.Random(41)
    for _ in range(10):
        a = random_split_transform(rng, 2)
        e = ExactSubspace.span([mat_vec(a, v) for v in identity(4)[:2]])
        f = ExactSubspace.span([mat_vec(a, v) for v in identity(4)[2:]])
        s = Splitting(sp, e, f)
        assert s.bivector is s.bivector
        assert s.bivector == splitting_bivector(s)
        assert s.duals is s.duals
        assert ExactSubspace.span(s.duals) == f
        for i, ei in enumerate(e.basis):
            for j, fj in enumerate(s.duals):
                assert pairing(sp.form, ei, fj) == (1 if i == j else 0)
        # the projector pair fixes one factor and kills the other
        p_e, p_f = s.projectors
        zero = zero_vector(4)
        assert all(mat_vec(p_e, v) == v and mat_vec(p_f, v) == zero for v in e.basis)
        assert all(mat_vec(p_f, v) == v and mat_vec(p_e, v) == zero for v in f.basis)


def _fraction_frame(s):
    """The Fraction formulas of the dual frame: G over E's basis, the duals
    G^-T F, Pi = (1/2)(E + D)^T (D - E) over the stacked bases, and
    P_E = E^T D B with P_F = I - P_E."""
    e, f, b = s.e.basis, s.f.basis, s.space.form.matrix
    gram = mat_mul(mat_mul(e, b), transpose(f))
    duals = mat_mul(transpose(inverse(gram)), f)
    pi = mat_scale(F(1, 2), mat_mul(transpose(e + duals), duals + mat_scale(-1, e)))
    p_e = mat_mul(mat_mul(transpose(e), duals), b)
    return duals, pi, (p_e, mat_add(identity(s.space.dim), mat_scale(-1, p_e)))


def _scaled(s, c):
    """The splitting s over its form scaled by c: E and F stay Lagrangian."""
    space = SplitSpace(s.space.dim, BilinearForm(mat_scale(c, s.space.form.matrix)))
    return Splitting(space, s.e, s.f)


def test_the_integer_dual_frame_matches_the_fraction_formulas():
    # every shipped splitting, every triple's, the sheared quasi-splitting,
    # and seeded random splittings over the hyperbolic form and over it
    # scaled by rationals with denominators (every shipped Gram matrix is
    # integral, so only these put the form's denominator in the frame)
    shipped = [named_splitting(ctx, name) for ctx, names in SPLITTING_NAMES.items() for name in names]
    shipped += [get_triple_context(name).splitting for name in TRIPLE_CONTEXT_NAMES]
    shipped.append(_sheared_quasi_splitting()[2])
    randoms = []
    for seed in range(200):
        rng = random.Random(seed)
        randoms.append(random_lagrangian_splitting(rng, 1 + seed % 4))
    scaled = [_scaled(s, c) for s in randoms for c in (F(2, 3), F(3, 4), F(5, 7))]
    assert {s.space.form._ints[1] for s in scaled} == {3, 4, 7}
    for s in shipped + randoms + scaled:
        # a copy keeps nothing the shipped value may have built already
        s = Splitting(s.space, s.e, s.f)
        duals, pi, projectors = _fraction_frame(s)
        assert s.duals == duals
        assert s.bivector.matrix == pi
        assert s.bivector._ints == int_matrix(pi)
        assert s.projectors == projectors


def test_a_splitting_frame_is_one_integer_elimination(calls):
    s = random_lagrangian_splitting(random.Random(5), 3)
    inversions = calls(exactlin, "_inverse_rows")
    reads, conversions = calls(exactlin, "frac_matrix"), calls(exactlin, "int_matrix")
    s.bivector, s.duals, s.projectors
    assert len(inversions) == 1
    # Fractions are read back in the three views alone: the duals, P_E and P_F
    assert len(reads) == 3
    # Pi is kept as the rows its product made, with no conversion back
    assert conversions == []


def test_splitting_rejects_non_splittings():
    with pytest.raises(NotLagrangianError):
        Splitting(SP2, E2, E2)
    with pytest.raises(NotLagrangianError):
        Splitting(SP2, ExactSubspace.full(2), F2)
    # subspaces of another ambient space are refused first
    with pytest.raises(DimensionMismatchError):
        Splitting(SP2, ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0)]), F2)
    with pytest.raises(DimensionMismatchError):
        Splitting(SP2, E2, ExactSubspace.span([(0,)]))


def test_one_not_lagrangian_error_class():
    # a splitting's Lagrangian check raises the class exactlin defines and
    # lagrel callers catch
    d = build_double(sl2_algebra())
    not_lagrangian = ExactSubspace.span([identity(6)[0]])
    with pytest.raises(lagrel.NotLagrangianError):
        Splitting.of_algebra(d, not_lagrangian, diagonal_subspace(sl2_algebra(), -1))
    assert exactlin.NotLagrangianError is lagrel.NotLagrangianError


# --- random generation and the kept split spaces ---------------------------

# Fraction draws making the same randint calls, in the same order, as the
# integer draws of randgen

def _small_fraction(rng):
    return F(rng.randint(-2, 2), rng.randint(1, 3))


def _fraction_antisym(rng, k):
    rows = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = _small_fraction(rng)
            rows[i][j], rows[j][i] = x, -x
    return tuple(map(tuple, rows))


def _fraction_invertible(rng, k):
    while True:
        a = tuple(tuple(_small_fraction(rng) for _ in range(k)) for _ in range(k))
        try:
            return a, inverse(a)
        except SingularMatrixError:
            pass


def _dense_split_transform(rng, k, words=3):
    """The dense reference: one 2k x 2k Fraction product per word."""
    g = identity(2 * k)
    for _ in range(words):
        kind = rng.randrange(3)
        if kind == 0:
            a, a_inv = _fraction_invertible(rng, k)
            b = transpose(a_inv)
            factor = tuple(row + (F(0),) * k for row in a) + tuple((F(0),) * k + row for row in b)
        else:
            n = _fraction_antisym(rng, k)
            rows = [list(row) for row in identity(2 * k)]
            for i in range(k):
                for j in range(k):
                    if kind == 1:
                        rows[i][k + j] += n[i][j]
                    else:
                        rows[k + i][j] += n[i][j]
            factor = matrix(rows)
        g = mat_mul(g, factor)
    return g


def test_block_updates_match_the_dense_split_transform():
    for k in range(1, 9):
        for seed in range(20):
            ref_rng, rng = random.Random(seed), random.Random(seed)
            assert random_split_transform(rng, k) == _dense_split_transform(ref_rng, k)
            assert rng.random() == ref_rng.random()


def _left_to_right_transform(rng, k):
    """The whole split transform the way it was first built, as the
    reference of the column path: each word is drawn by rng.randint and
    multiplied on the right of g in turn, g divided by its content after
    each word, and every invertible draw inverted."""
    g = [[int(i == j) for j in range(2 * k)] for i in range(2 * k)]
    den = 1
    for _ in range(randgen.WORDS):
        kind = rng.randrange(3)
        left, right = [row[:k] for row in g], [row[k:] for row in g]
        if kind == 0:
            (a, da), (b, db) = random_invertible(rng, k)
            left = [[x * db for x in row] for row in exactlin.int_products(left, list(zip(*a)))]
            right = [[x * da for x in row] for row in exactlin.int_products(right, b)]
            den *= da * db
        else:
            nm, dn = int_matrix(_fraction_antisym(rng, k))
            if kind == 1:
                update = exactlin.int_products(left, list(zip(*nm)))
                right = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(right, update)]
                left = [[dn * x for x in row] for row in left]
            else:
                update = exactlin.int_products(right, list(zip(*nm)))
                left = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(left, update)]
                right = [[dn * x for x in row] for row in right]
            den *= dn
        g = [lr + rr for lr, rr in zip(left, right)]
        content = gcd(den, *[x for row in g for x in row])
        g, den = [[x // content for x in row] for row in g], den // content
    return g, den


def test_small_int_draws_are_the_randint_draws():
    # the bit draws give the randint numbers and leave the generator where
    # randint leaves it, from fresh seeds and mid-stream
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for count in (0, 1, 4, 16, 64):
            assert randgen._small_ints(rng, count) == randint_small_ints(ref_rng, count)
            assert rng.getstate() == ref_rng.getstate()


def test_column_path_matches_the_left_to_right_transform(monkeypatch):
    # the first j columns drawn and applied right to left equal the first j
    # columns of the whole transform, and leave the generator where it
    # leaves it; the whole transform (j = 2k) keeps its exact rows and den
    counts = collections.Counter()

    def counted(name):
        real = getattr(randgen, name)

        def call(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(randgen, name, call)

    counted("_full_rank_draw")
    counted("_inverse_rows")
    rng = random.Random(36)
    cases = [(rng.randint(1, 5), rng.random(), rng.randrange(10**6)) for _ in range(200)]
    widths, branches = set(), set()
    for k, where, seed in cases:
        j = min(2 * k, int(where * (2 * k + 1)))
        ref_rng, col_rng = random.Random(seed), random.Random(seed)
        g, den = _left_to_right_transform(ref_rng, k)
        counts.clear()
        cols, cols_den = randgen._split_transform_cols(col_rng, k, j)
        assert exactlin.frac_matrix(cols, cols_den) == exactlin.frac_matrix(list(zip(*g))[:j], den)
        if j == 2 * k:
            assert (cols, cols_den) == (tuple(zip(*g)), den)
        assert col_rng.getstate() == ref_rng.getstate()
        widths.add(0 if j == 0 else 2 if j == 2 * k else 1)
        # an invertible word is inverted only where it meets a nonzero bottom half
        if counts["_inverse_rows"] < counts["_full_rank_draw"]:
            branches.add((j > k, "skipped"))
        if counts["_inverse_rows"]:
            branches.add((j > k, "taken"))
    assert widths == {0, 1, 2}
    # past j = k the columns cannot all have zero bottom halves, so there
    # every inverse is taken
    assert branches == {(False, "skipped"), (False, "taken"), (True, "taken")}


def test_relations_invert_only_the_draws_that_meet_a_bottom_half(monkeypatch, capsys):
    from courantlab.cli import main

    real, calls = randgen._inverse_rows, []
    monkeypatch.setattr(randgen, "_inverse_rows", lambda rows: calls.append(rows) or real(rows))
    assert main(["verify", "relations", "--seed", "1"]) == 0
    capsys.readouterr()
    # one inversion per invertible word applied where a bottom half is
    # nonzero; inverting every draw, the singular ones too, would make 279
    assert len(calls) == 86


def _dense_coisotropic_anchor(rng, k):
    """The Fraction reference of random_coisotropic_anchor: the first j
    f-coordinates of g^-1 = J g^T J, mixed by a Fraction draw."""
    j = rng.randint(0, k)
    g = _dense_split_transform(rng, k)
    if not j:
        return (), 0
    tmix, _ = _fraction_invertible(rng, j)
    rows = tuple(tuple(g[(c + k) % (2 * k)][r] for c in range(2 * k)) for r in range(j))
    return mat_mul(tmix, rows), j


def test_coisotropic_anchor_matches_the_fraction_reference():
    seen = set()
    for k in range(1, 5):
        for seed in range(15):
            ref_rng, rng, int_rng = random.Random(seed), random.Random(seed), random.Random(seed)
            anchor, j = random_coisotropic_anchor(rng, k)
            assert (anchor, j) == _dense_coisotropic_anchor(ref_rng, k)
            assert all(type(x) is F for row in anchor for x in row)
            assert rng.random() == ref_rng.random()
            # the integer builder's table is the anchor's, in lowest terms
            table, den, int_j = randgen._coisotropic_anchor_ints(int_rng, k)
            assert (exactlin.lowest_terms(table, den), int_j) == (int_matrix(anchor), j)
            seen.add(j == 0)
    # both a draw with no mixing matrix (j = 0) and one with it occur
    assert seen == {True, False}


def test_split_spaces_and_graph_forms_are_built_once():
    assert hyperbolic_space(3) is hyperbolic_space(3)
    assert lagrel.graph_form(hyperbolic_space(2), hyperbolic_space(1)) is lagrel.graph_form(
        hyperbolic_space(2), hyperbolic_space(1))
    # the kept graph form still decides isotropy
    rows = list(random_relation(random.Random(3), 1, 2).graph.basis)
    rows[0] = (F(1),) + (F(0),) * 5
    with pytest.raises(NotLagrangianError, match="not isotropic"):
        LinearRelation.from_rows(hyperbolic_space(1), hyperbolic_space(2), rows)


def test_bivector_keeps_integer_rows_and_builds_its_matrix_on_first_read():
    # of_ints keeps the reduced table; the Fraction matrix waits for a read,
    # and equality and hashing read the rows, the same for either way in
    pi = Bivector.of_ints([[0, 6], [-6, 0]], 4)
    assert pi._ints == (((0, 3), (-3, 0)), 2) and pi.dim == 2 and "matrix" not in vars(pi)
    assert pi.rank == 2 and "matrix" not in vars(pi)
    assert pi.matrix == ((F(0), F(3, 2)), (F(-3, 2), F(0))) and pi.matrix is pi.matrix
    same = Bivector(((0, "3/2"), (F(-3, 2), 0)))
    assert same == pi and hash(same) == hash(pi) and same._ints == pi._ints
    assert Bivector.of_ints([[0, 0], [0, 0]], 5) == Bivector(((0, 0), (0, 0)))
    assert Bivector.of_ints([], 3).dim == 0


def test_bivector_dimension_is_its_matrix_size():
    # the matrix alone fixes the dimension, so sharp_range always works
    b = Bivector(((0, 1), (-1, 0)))
    assert b.dim == 2 and b.sharp_range() == ExactSubspace.full(2)
    assert Bivector(((0, F(1, 2), 0), (F(-1, 2), 0, 0), (0, 0, 0))).sharp_range().dim == 2
    with pytest.raises(TypeError):
        Bivector(3, ((0, 1), (-1, 0)))
    with pytest.raises(ValueError, match="antisymmetric"):
        Bivector(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="antisymmetric"):
        Bivector(((0, 1, 0), (-1, 0, 0)))
