import random
from fractions import Fraction as F

import pytest

from algebra_reference import dense_validate_algebra, perturbed, scaled, sl_double
from courantlab.contexts import (
    GROUP_CONTEXT_NAMES,
    TRIPLE_CONTEXT_NAMES,
    abelian_algebra_split2,
    get_group_context,
    get_triple_context,
    sl2_algebra,
    triangular_complement,
)
from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    identity,
    inverse,
    matrix,
    scale_vec,
)
from courantlab.quadlie import (
    ManinTriple,
    QuadraticLieAlgebra,
    build_double,
    cartan_trivector,
    courant_form,
    courant_tensor,
    diagonal_subspace,
    is_subalgebra,
    validate_algebra,
    validate_manin_triple,
    NotLagrangianError,
)


def test_abelian_split_passes():
    assert validate_algebra(abelian_algebra_split2()).passed


def test_sl2_killing_passes():
    assert validate_algebra(sl2_algebra()).passed


def test_perturbed_form_fails_invariance_at_ehf():
    bad = QuadraticLieAlgebra.from_triples(
        3,
        [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)],
        [[0, 0, 4], [0, 9, 0], [4, 0, 0]],
        ("e", "h", "f"),
    )
    rep = validate_algebra(bad)
    assert not rep.passed
    assert any(
        r.kind == "invariance" and r.where == ("e", "h", "f") for r in rep.records
    )


def test_failing_algebra_records_and_description():
    # [b0, b1] = b2 and [b1, b2] = b1 break Jacobi; the zero form is
    # invariant but degenerate
    bad = QuadraticLieAlgebra.from_triples(3, [(0, 1, 2, 1), (1, 2, 1, 1)], [[0] * 3] * 3)
    rep = validate_algebra(bad)
    assert [(r.kind, r.where) for r in rep.records] == [
        ("jacobi", ("b0", "b1", "b2")), ("degenerate_form", ())]
    assert rep.describe() == ("jacobi at ('b0', 'b1', 'b2'): [[x,y],z] cyclic sum is nonzero; "
                              "degenerate_form at (): det = 0")


def test_double_structure():
    d = build_double(sl2_algebra())
    assert d.dim == 6
    assert validate_algebra(d).passed
    assert d.form.signature() == (3, 3, 0)
    tiny = build_double(
        QuadraticLieAlgebra.from_triples(1, [], [[1]])
    )
    assert tiny.form.matrix == matrix([[1, 0], [0, -1]])


def test_diagonal_predicates():
    sl2 = sl2_algebra()
    d = build_double(sl2)
    gd = diagonal_subspace(sl2, 1)
    gad = diagonal_subspace(sl2, -1)
    assert d.form.is_lagrangian(gd) and is_subalgebra(d, gd)
    assert d.form.is_lagrangian(gad) and not is_subalgebra(d, gad)
    full = d.full_space()
    assert d.form.is_coisotropic(full) and not d.form.is_lagrangian(full)


def test_courant_tensor_values():
    sl2 = sl2_algebra()
    d = build_double(sl2)
    gd = diagonal_subspace(sl2, 1)
    gad = diagonal_subspace(sl2, -1)
    assert not courant_tensor(d, gd).values
    t = courant_tensor(d, gad)
    assert t.values
    # paired frame x~ = (x, -x)/2 gives the structure trivector values
    xt = [
        tuple(F(1, 2) * v for v in row + scale_vec(-1, row))
        for row in identity(3)
    ]
    assert courant_form(d, xt[0], xt[1], xt[2]) == F(-2)
    with pytest.raises(NotLagrangianError):
        courant_tensor(d, ExactSubspace.span([(1, 0, 0, 0, 0, 0)]))


def test_cartan_trivector():
    sl2 = sl2_algebra()
    assert dict(cartan_trivector(sl2).values) == {(0, 1, 2): F(-2)}
    assert not cartan_trivector(abelian_algebra_split2()).values
    so3ish = QuadraticLieAlgebra.from_triples(
        3,
        [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 0, 1)],
        [[-2, 0, 0], [0, -2, 0], [0, 0, -2]],
        ("x", "y", "z"),
    )
    assert validate_algebra(so3ish).passed
    assert dict(cartan_trivector(so3ish).values) == {(0, 1, 2): F(-1, 2)}


def test_manin_triples():
    sl2 = sl2_algebra()
    d = build_double(sl2)
    gd = diagonal_subspace(sl2, 1)
    sts = ManinTriple(d, gd, triangular_complement())
    assert validate_manin_triple(sts).passed
    quasi = ManinTriple(d, gd, diagonal_subspace(sl2, -1))
    rep = validate_manin_triple(quasi)
    assert not rep.passed
    assert any(r.kind == "subalgebra" and r.where == ("g2",) for r in rep.records)
    ab = abelian_algebra_split2()
    assert validate_manin_triple(
        ManinTriple(ab, ExactSubspace.span([(1, 0)]), ExactSubspace.span([(0, 1)]))
    ).passed


def test_manin_triple_failure_records():
    ab = abelian_algebra_split2()
    line, other = ExactSubspace.span([(1, 0)]), ExactSubspace.span([(0, 1)])
    full, zero = ExactSubspace.full(2), ExactSubspace.zero(2)

    def kinds(g1, g2):
        return [(r.kind, r.where) for r in validate_manin_triple(ManinTriple(ab, g1, g2)).records]

    assert kinds(line, other) == []
    # g1 = g2 meets itself and spans a line
    assert kinds(line, line) == [("transverse", ("g1", "g2")), ("spanning", ("g1", "g2"))]
    # a pair that spans but meets, and one that meets in zero but spans a line
    assert kinds(full, line) == [("lagrangian", ("g1",)), ("transverse", ("g1", "g2"))]
    assert kinds(line, zero) == [("lagrangian", ("g2",)), ("spanning", ("g1", "g2"))]
    # a subspace of another space is reported and skips the pair records
    assert kinds(ExactSubspace.span([(1, 0, 0)]), line) == [("ambient", ("g1",))]


def test_manin_pairing_gram_invertible():
    # the inner product identifies the second Lagrangian with the dual
    sl2 = sl2_algebra()
    d = build_double(sl2)
    gd = diagonal_subspace(sl2, 1)
    tri = triangular_complement()
    gram = tuple(
        tuple(d.pairing(u, v) for v in tri.basis) for u in gd.basis
    )
    assert inverse(gram) is not None


def test_random_lagrangians_tensor_iff_subalgebra():
    from courantlab.randgen import random_abelian_split_algebra, random_lagrangian_splitting

    rng = random.Random(3)
    sl2 = sl2_algebra()
    d = build_double(sl2)
    # transported Lagrangians of the sl2 double: zero tensor iff subalgebra
    from courantlab.lagrel import Splitting
    from courantlab.exactlin import transpose, mat_mul

    quasi = Splitting.of_algebra(d, diagonal_subspace(sl2, 1), diagonal_subspace(sl2, -1))
    h = transpose(matrix(list(quasi.e.basis) + list(quasi.duals)))
    from courantlab.randgen import random_split_transform

    for _ in range(8):
        g = random_split_transform(rng, 3)
        cols = transpose(mat_mul(h, g))
        lag = ExactSubspace.span(cols[:3], ambient_dim=6)
        assert d.form.is_lagrangian(lag)
        assert (not courant_tensor(d, lag).values) == is_subalgebra(d, lag)
    # abelian algebras: every Lagrangian has zero tensor
    ab = random_abelian_split_algebra(3)
    for _ in range(4):
        lag = random_lagrangian_splitting(rng, 3).e
        assert not courant_tensor(ab, lag).values


def test_bracket_input_validation():
    with pytest.raises(ValueError):
        QuadraticLieAlgebra.from_triples(2, [(1, 0, 0, 1)], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        QuadraticLieAlgebra.from_triples(2, [(0, 0, 1, 1)], [[0, 1], [1, 0]])
    for k in (2, -1):
        with pytest.raises(ValueError, match="0 <= k < dim"):
            QuadraticLieAlgebra.from_triples(2, [(0, 1, k, 1)], [[0, 1], [1, 0]])


def _algebra(bracket) -> QuadraticLieAlgebra:
    return QuadraticLieAlgebra(2, bracket, BilinearForm(identity(2)), ("a", "b"))


def test_constructor_rejects_a_pair_out_of_order_or_range():
    for i, j in ((1, 0), (0, 0), (0, 2), (-1, 1)):
        with pytest.raises(ValueError, match=r"must satisfy 0 <= i < j < dim"):
            _algebra(((i, j, (F(1), F(0))),))


def test_constructor_rejects_a_repeated_pair():
    # one copy would read [a, b] = a from the table and 2a from bracket_vec
    z = (F(1), F(0))
    with pytest.raises(ValueError, match="given twice"):
        _algebra(((0, 1, z), (0, 1, z)))


def test_constructor_rejects_a_bracket_vector_of_the_wrong_length():
    for v in ((F(1),), (F(1), F(0), F(0))):
        with pytest.raises(DimensionMismatchError):
            _algebra(((0, 1, v),))


def _shipped_algebras() -> dict:
    algebras = {"sl2": sl2_algebra(), "abelian-split2": abelian_algebra_split2()}
    algebras.update({name: get_group_context(name).algebra for name in GROUP_CONTEXT_NAMES})
    algebras.update({f"{name} d": get_triple_context(name).d_ctx.algebra
                     for name in TRIPLE_CONTEXT_NAMES})
    return algebras


# seeded perturbations of one structure constant and one form entry; the
# degenerate ones also zero a row and column of the form
PERTURBED = {
    **{f"sl2-pair #{seed}": ("sl2-pair", seed) for seed in range(4)},
    **{f"sl2c-real #{seed}": ("sl2c-real", seed) for seed in range(4)},
}


def _perturbed(name: str) -> QuadraticLieAlgebra:
    ctx, seed = PERTURBED[name]
    return perturbed(get_group_context(ctx).algebra, seed, degenerate=seed % 2 == 1)


@pytest.mark.parametrize("name", sorted(_shipped_algebras()))
def test_validate_matches_the_dense_reference_on_shipped_algebras(name):
    alg = _shipped_algebras()[name]
    assert validate_algebra(alg) == dense_validate_algebra(alg)


@pytest.mark.parametrize("name", sorted(PERTURBED))
def test_validate_matches_the_dense_reference_on_perturbed_algebras(name):
    alg = _perturbed(name)
    rep = validate_algebra(alg)
    assert not rep.passed
    assert rep == dense_validate_algebra(alg)


def test_the_perturbed_algebras_record_every_kind():
    kinds = {r.kind for name in PERTURBED for r in validate_algebra(_perturbed(name)).records}
    assert kinds == {"jacobi", "invariance", "degenerate_form"}


def test_validate_matches_the_dense_reference_on_the_sl3_double():
    d = sl_double(3)
    assert d.dim == 16
    rep = validate_algebra(d)
    assert rep.passed and rep == dense_validate_algebra(d)
    bad = perturbed(d, 2, degenerate=True)
    rep = validate_algebra(bad)
    assert {r.kind for r in rep.records} == {"jacobi", "invariance", "degenerate_form"}
    assert rep == dense_validate_algebra(bad)


def test_validate_reads_both_denominators():
    # scaling the bracket and the form moves no zero test, so the records
    # of a scaled algebra are those of the unscaled one
    base = perturbed(sl_double(3), 5)
    alg = scaled(base, F(2, 3), F(3, 5))
    assert alg._columns[1] > 1 and alg.form._ints[1] > 1
    rep = validate_algebra(alg)
    assert not rep.passed
    assert rep == dense_validate_algebra(alg) == validate_algebra(base)


def test_validate_passes_the_sl4_double():
    d = sl_double(4)
    assert d.dim == 30
    assert validate_algebra(d).passed


def test_json_roundtrip():
    sl2 = sl2_algebra()
    again = QuadraticLieAlgebra.from_json(sl2.to_json())
    assert again == sl2
