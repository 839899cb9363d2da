import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from algebra_reference import (
    bracket_basis,
    bracket_vec,
    courant_form,
    courant_tensor,
    dense_validate_algebra,
    inverse,
    pairing,
    perturbed,
    random_split_transform,
    scale_vec,
    scaled,
    sl_double,
)
from exact_strategies import rationals
from courantlab.contexts import (
    GROUP_CONTEXT_NAMES,
    TRIPLE_CONTEXT_NAMES,
    abelian_algebra_split2,
    get_group_context,
    get_triple_context,
    sl2_algebra,
    triangular_complement,
)
from courantlab.diffnum import np_matrix, structure_tensor_np
from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    frac_matrix,
    identity,
    int_matrix,
    matrix,
)
from courantlab.quadlie import (
    ManinTriple,
    QuadraticLieAlgebra,
    build_double,
    courant_values,
    diagonal_subspace,
    is_subalgebra,
    validate_algebra,
    validate_manin_triple,
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
    full = ExactSubspace.full(d.dim)
    assert d.form.is_coisotropic(full) and not d.form.is_lagrangian(full)


def _courant_fractions(alg, rows) -> dict:
    """courant_values(alg, rows) as {(i, j, k): Fraction}."""
    values, den = courant_values(alg, rows)
    return {ijk: F(v, den) for ijk, v in values}


def test_courant_tensor_values():
    sl2 = sl2_algebra()
    d = build_double(sl2)
    gd = diagonal_subspace(sl2, 1)
    gad = diagonal_subspace(sl2, -1)
    assert courant_values(d, gd.rows)[0] == []
    assert _courant_fractions(d, gad.rows) == dict(courant_tensor(d, gad.rows)) != {}
    # paired frame x~ = (x, -x)/2 gives the structure trivector values
    xt = [
        tuple(F(1, 2) * v for v in row + scale_vec(-1, row))
        for row in identity(3)
    ]
    assert courant_form(d, xt[0], xt[1], xt[2]) == F(-2)
    paired = [row + tuple(-x for x in row) for row in identity(3)]
    assert _courant_fractions(d, paired) == {(0, 1, 2): 8 * F(-2)}


def test_cartan_trivector():
    # the structure trivector (1/4) <x, [y, z]> on the full basis, zero iff abelian
    sl2 = sl2_algebra()
    assert _courant_fractions(sl2, identity(3)) == {(0, 1, 2): 4 * F(-2)}
    assert courant_values(abelian_algebra_split2(), identity(2))[0] == []
    so3ish = QuadraticLieAlgebra.from_triples(
        3,
        [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 0, 1)],
        [[-2, 0, 0], [0, -2, 0], [0, 0, -2]],
        ("x", "y", "z"),
    )
    assert validate_algebra(so3ish).passed
    assert _courant_fractions(so3ish, identity(3)) == {(0, 1, 2): 4 * F(-1, 2)}


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
        tuple(pairing(d.form, u, v) for v in tri.basis) for u in gd.basis
    )
    assert inverse(gram) is not None


def test_random_lagrangians_tensor_iff_subalgebra():
    from courantlab.randgen import random_abelian_split_algebra, random_lagrangian_splitting

    rng = random.Random(3)
    sl2 = sl2_algebra()
    d = build_double(sl2)
    # transported Lagrangians of the sl2 double: zero tensor iff subalgebra
    from courantlab.lagrel import Splitting
    from algebra_reference import mat_mul, transpose

    quasi = Splitting.of_algebra(d, diagonal_subspace(sl2, 1), diagonal_subspace(sl2, -1))
    h = transpose(matrix(list(quasi.e.basis) + list(quasi.duals)))

    for _ in range(8):
        g = random_split_transform(rng, 3)
        cols = transpose(mat_mul(h, g))
        lag = ExactSubspace.span(cols[:3], ambient_dim=6)
        assert d.form.is_lagrangian(lag)
        assert (courant_values(d, lag.rows)[0] == []) == is_subalgebra(d, lag)
    # abelian algebras: every Lagrangian has zero tensor
    ab = random_abelian_split_algebra(3)
    for _ in range(4):
        lag = random_lagrangian_splitting(rng, 3).e
        assert courant_values(ab, lag.rows)[0] == []


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
            _algebra(((i, j, 0, F(1)),))


def test_constructor_rejects_a_repeated_pair():
    with pytest.raises(ValueError, match="given twice"):
        _algebra(((0, 1, 0, F(1)), (0, 1, 0, F(1))))


def test_constructor_rejects_k_out_of_range():
    for k in (2, -1):
        with pytest.raises(ValueError, match="0 <= k < dim"):
            _algebra(((0, 1, k, F(1)),))


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
    assert alg._den > 1 and alg.form._ints[1] > 1
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


# the one bracket table against Fraction formulas read off the public
# quadruples alone: every shipped algebra, the sl3 double, and the sl3
# double scaled by 2/3 (bracket) and 3/5 (form), whose table has _den > 1
@functools.cache
def _table_algebras() -> dict:
    algebras = dict(_shipped_algebras())
    algebras["sl3 double"] = sl_double(3)
    algebras["sl3 double scaled"] = scaled(sl_double(3), F(2, 3), F(3, 5))
    return algebras


def test_the_scaled_table_has_a_denominator():
    assert _table_algebras()["sl3 double scaled"]._den > 1


@pytest.mark.parametrize("name", sorted(_table_algebras()))
def test_bracket_basis_matches_the_quadruples(name):
    alg = _table_algebras()[name]
    assert all(i < j and c != 0 for i, j, _, c in alg.bracket)
    assert list(alg.bracket) == sorted(alg.bracket)
    unit = identity(alg.dim)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert frac_matrix(*alg.pair_brackets((unit[i], unit[j]))) == (bracket_basis(alg, i, j),)


@pytest.mark.parametrize("name", sorted(_table_algebras()))
@seed(2)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bracket_vec_matches_the_quadruples(name, data):
    alg = _table_algebras()[name]
    vec = st.lists(rationals(3, 4), min_size=alg.dim, max_size=alg.dim).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    rows, d = int_matrix((x, y))
    table, den = alg.pair_brackets(rows)
    assert frac_matrix(table, d * d * den) == (bracket_vec(alg, x, y),)


# pair_brackets and courant_values against the Fraction loops over the
# quadruples: the table algebras, and the perturbed ones, whose forms are
# not invariant (and degenerate for the odd seeds)
def _row_algebras() -> dict:
    return {**_table_algebras(), **{name: _perturbed(name) for name in PERTURBED}}


def _row_sets(alg, rng) -> list:
    """0 rows, 1 row, the unit rows, and a few random integer row sets."""
    unit = identity(alg.dim)
    drawn = [[tuple(rng.randint(-3, 3) for _ in range(alg.dim)) for _ in range(k)]
             for k in (2, 3, min(alg.dim, 5))]
    return [(), (unit[0],), unit] + drawn


@pytest.mark.parametrize("name", sorted(_row_algebras()))
def test_pair_brackets_and_courant_values_match_the_loops(name):
    alg = _row_algebras()[name]
    for rows in _row_sets(alg, random.Random(name)):
        table, den = alg.pair_brackets(rows)
        pairs = [(x, y) for a, x in enumerate(rows) for y in rows[a + 1:]]
        assert len(table) == len(pairs) and den == alg._den
        assert frac_matrix(table, den) == tuple(bracket_vec(alg, x, y) for x, y in pairs)
        assert _courant_fractions(alg, rows) == dict(courant_tensor(alg, rows))
        values, _ = courant_values(alg, rows)
        assert [ijk for ijk, _ in values] == sorted(ijk for ijk, _ in values)
        assert all(v for _, v in values)


def test_pair_brackets_refuses_a_row_of_another_length():
    sl2 = sl2_algebra()
    for rows in (((1, 0),), ((1, 0, 0), (0, 1, 0, 0))):
        with pytest.raises(DimensionMismatchError):
            sl2.pair_brackets(rows)
        with pytest.raises(DimensionMismatchError):
            courant_values(sl2, rows)


@pytest.mark.parametrize("name", sorted(_table_algebras()))
def test_structure_tensor_np_matches_the_dense_table(name):
    alg = _table_algebras()[name]
    n = alg.dim
    dense = np_matrix([[bracket_basis(alg, i, j) for j in range(n)] for i in range(n)])
    assert structure_tensor_np(alg).tobytes() == dense.reshape(n, n, n).tobytes()


def test_from_triples_sorts_adds_and_drops_zero_constants():
    triples = [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)]
    form = [[0, 0, 4], [0, 8, 0], [4, 0, 0]]
    sl2 = QuadraticLieAlgebra.from_triples(3, triples, form)
    for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        again = QuadraticLieAlgebra.from_triples(3, [triples[p] for p in order], form)
        assert again == sl2 and hash(again) == hash(sl2)
    # repeated (i, j, k) entries add up
    split = [(0, 1, 0, -1), (0, 2, 1, F(1, 3)), (1, 2, 2, -2), (0, 1, 0, -1), (0, 2, 1, F(2, 3))]
    assert QuadraticLieAlgebra.from_triples(3, split, form) == sl2
    # a constant that sums to 0 is not kept
    cancelled = triples + [(0, 1, 2, 5), (0, 1, 2, -5), (1, 2, 0, F(1, 2)), (1, 2, 0, F(-1, 2))]
    again = QuadraticLieAlgebra.from_triples(3, cancelled, form)
    assert again == sl2 and hash(again) == hash(sl2)
    assert again.bracket == sl2.bracket == tuple((i, j, k, F(c)) for i, j, k, c in triples)
    assert again.pair_brackets(identity(3)[:2]) == ([[-2, 0, 0]], 1)


def test_the_sl3_double_round_trips_through_json():
    d = sl_double(3)
    assert QuadraticLieAlgebra.from_json(d.to_json()) == d


def _pairwise_is_subalgebra(alg, s):
    """One containment per pair of rows, stopping at the first miss."""
    return all(s.contains(bracket_vec(alg, x, y)) for a, x in enumerate(s.rows) for y in s.rows[a + 1:])


def test_is_subalgebra_reads_every_pair():
    pair = get_group_context("sl2-pair").algebra
    unit = identity(pair.dim)
    # rows e+, h+, e-, f-: [e+, h+] = -2 e+ lies in s, but the last pair's
    # [e-, f-] = h- does not
    s = ExactSubspace.span([unit[0], unit[1], unit[3], unit[5]])
    assert _pairwise_is_subalgebra(pair, ExactSubspace.span(s.rows[:2]))
    assert not is_subalgebra(pair, s)
    assert is_subalgebra(pair, ExactSubspace.span([unit[0], unit[1], unit[3], unit[4]]))
    rng = random.Random(3)
    verdicts = []
    for alg in (pair, get_group_context("sl2c-real").algebra, sl_double(3)):
        unit = identity(alg.dim)
        for _ in range(40):
            k = rng.randrange(2, alg.dim)
            rows = [unit[i] for i in rng.sample(range(alg.dim), k)]
            if rng.random() < 0.3:  # a random combination of the first row
                rows[0] = tuple(x + rng.randint(-2, 2) * y for x, y in zip(rows[0], rows[-1]))
            s = ExactSubspace.span(rows)
            verdicts.append(is_subalgebra(alg, s))
            assert verdicts[-1] == _pairwise_is_subalgebra(alg, s)
    assert set(verdicts) == {True, False}
