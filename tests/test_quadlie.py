import random
from fractions import Fraction as F

import pytest

from courantlab.contexts import abelian_algebra_split2, sl2_algebra, triangular_complement
from courantlab.exactlin import (
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


def test_json_roundtrip():
    sl2 = sl2_algebra()
    again = QuadraticLieAlgebra.from_json(sl2.to_json())
    assert again == sl2
