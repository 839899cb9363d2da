import random
from fractions import Fraction as F

import pytest

from courantlab import lagrel, quadlie
from courantlab.contexts import sl2_algebra
from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    concat_vec,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    quotient_coords,
    transpose,
    zero_vector,
)
from courantlab.lagrel import (
    LinearRelation,
    NotLagrangianError,
    ReductionError,
    SplitSpace,
    Splitting,
    TransversalityError,
    backward_image,
    backward_image_subspace,
    hyperbolic_space,
    pair_groupoid_relation,
    reduce_bivector,
    related_lagrangian,
    related_splitting,
    splitting_bivector,
)
from courantlab.quadlie import build_double, courant_form, diagonal_subspace
from courantlab.randgen import (
    random_antisym,
    random_invertible,
    random_relation,
    random_split_transform,
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
    # contraction identity iota(w)Pi = (pr_F - pr_E)(w) / 2
    assert pi.contract((1, 0), SP2.form) == (F(-1, 2), F(0))
    assert pi.contract((0, 1), SP2.form) == (F(0), F(1, 2))


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
    assert r.range_() == ExactSubspace.full(2)
    assert (r * r).graph == r.graph
    img, alpha = backward_image(E2, r)
    assert img == E2 and alpha == E2.basis


def test_product_relation_kernel_range():
    # R = L' x L has kernel L and range L'
    rows = [concat_vec((F(1), F(0)), zero_vector(2)),
            concat_vec(zero_vector(2), (F(0), F(1)))]
    r = LinearRelation.from_rows(SP2, SP2, rows)
    assert r.kernel() == F2
    assert r.range_() == E2


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
    assert r.range_() == ExactSubspace.full(6)
    line = quadlie.QuadraticLieAlgebra.from_triples(1, [], [[1]], basis_names=("a",))
    tiny = pair_groupoid_relation(build_double(line))
    assert tiny.kernel().dim == 1
    assert tiny.kernel().basis == ((F(0), F(1), F(1), F(0)),)


def test_transpose_compose_reduced_identity():
    rng = random.Random(2)
    for _ in range(10):
        r = random_relation(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = r.transpose() * r
        iso = t.reduced_iso
        assert iso.matrix == identity(iso.dim) if iso.dim else iso.matrix == ()
        # and the quotients are ran(R^t)/ker(R) on both sides
        assert t.kernel() == r.kernel()
        assert t.range_() == r.transpose().range_()


def test_isom_lemma_identities_random():
    rng = random.Random(5)
    for _ in range(30):
        r = random_relation(rng, rng.randint(1, 4), rng.randint(1, 4))
        rt = r.transpose()
        assert r.kernel() == r.source.form.orth_complement(rt.range_())
        assert r.range_() == r.target.form.orth_complement(rt.kernel())
        assert r.kernel().dim + r.range_().dim == r.graph.dim
        iso = r.reduced_iso
        assert iso.dim == rt.range_().dim - r.kernel().dim


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
    rows = [concat_vec((F(1), F(0)), zero_vector(2)),
            concat_vec(zero_vector(2), (F(0), F(1)))]
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
    triples = []
    for (i, j, row) in d.bracket:
        for k, val in enumerate(row):
            if val != 0:
                triples.append((i, j, k, val))
                triples.append((i + 6, j + 6, k + 6, val))
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


def test_related_splitting_identity():
    r = LinearRelation.identity_relation(SP2)
    s = Splitting(SP2, E2, F2)
    rep = related_splitting(s, s, r)
    assert rep.related and rep.reasons == ()
    swapped = related_splitting(s, Splitting(SP2, F2, E2), r)
    assert not swapped.related
    assert "e_not_related" in swapped.reasons


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
    rows = [concat_vec(v, v) for v in q.complement]
    for z in c_perp.basis:
        rows.append(concat_vec(z, zero_vector(space.dim)))
        rows.append(concat_vec(zero_vector(space.dim), z))
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
                assert sp.form.pairing(ei, fj) == (1 if i == j else 0)
        # the projector pair fixes one factor and kills the other
        p_e, p_f = s.projectors
        zero = zero_vector(4)
        assert all(mat_vec(p_e, v) == v and mat_vec(p_f, v) == zero for v in e.basis)
        assert all(mat_vec(p_f, v) == v and mat_vec(p_e, v) == zero for v in f.basis)


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
    # quadlie's tensor check raises the class lagrel callers catch
    d = build_double(sl2_algebra())
    not_lagrangian = ExactSubspace.span([identity(6)[0]])
    with pytest.raises(lagrel.NotLagrangianError):
        quadlie.courant_tensor(d, not_lagrangian)
    assert quadlie.NotLagrangianError is lagrel.NotLagrangianError


# --- random generation and the kept split spaces ---------------------------

def _dense_split_transform(rng, k, words=3):
    """The dense reference: one 2k x 2k Fraction product per word."""
    g = identity(2 * k)
    for _ in range(words):
        kind = rng.randrange(3)
        if kind == 0:
            a, _ = random_invertible(rng, k)
            b = transpose(inverse(a))
            factor = tuple(row + (F(0),) * k for row in a) + tuple((F(0),) * k + row for row in b)
        else:
            n = random_antisym(rng, k)
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


def test_split_spaces_and_graph_forms_are_built_once():
    assert hyperbolic_space(3) is hyperbolic_space(3)
    assert lagrel.graph_form(hyperbolic_space(2), hyperbolic_space(1)) is lagrel.graph_form(
        hyperbolic_space(2), hyperbolic_space(1))
    # the kept graph form still decides isotropy
    rows = list(random_relation(random.Random(3), 1, 2).graph.basis)
    rows[0] = concat_vec((F(1),), (F(0),) * 5)
    with pytest.raises(NotLagrangianError, match="not isotropic"):
        LinearRelation.from_rows(hyperbolic_space(1), hyperbolic_space(2), rows)
