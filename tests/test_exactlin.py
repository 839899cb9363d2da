import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import courantlab.exactlin as exactlin
from courantlab.exactlin import (
    BilinearForm,
    Coordinatizer,
    DimensionMismatchError,
    ExactSubspace,
    SingularMatrixError,
    _inverse_of,
    _inverse_rows,
    block_diag,
    frac_matrix,
    hstack,
    identity,
    int_matrix,
    matrix,
    product_subspace,
    table_product,
    zeros,
)
from courantlab.contexts import sl2_algebra, sl2_pair_context
from courantlab.lagrel import Bivector, LinearRelation, hyperbolic_space
from exact_strategies import rationals
from algebra_reference import (
    bracket_vec,
    coords,
    coords_rows,
    inverse,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    nullspace,
    pairing,
    quotient_coords,
    QuotientMap,
    rref,
    solve,
    transpose,
    vector,
)


def test_span_dependent_rows_collapse():
    s = ExactSubspace.span([(1, 0), (2, 0)])
    assert s.basis == ((F(1), F(0)),)
    assert s.dim == 1


def test_empty_span_needs_ambient():
    s = ExactSubspace.span([], ambient_dim=3)
    assert s.dim == 0 and s.ambient_dim == 3
    with pytest.raises(DimensionMismatchError):
        ExactSubspace.span([])


def test_span_full_space_from_determinant():
    assert ExactSubspace.span([(1, 1), (1, -1)]).dim == 2


def test_span_permutation_canonical():
    rng = random.Random(11)
    for _ in range(25):
        vecs = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5))
            for _ in range(4)
        ]
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert ExactSubspace.span(vecs).basis == ExactSubspace.span(shuffled).basis


def test_intersect_examples():
    assert ExactSubspace.span([(1, 0)]).intersect(ExactSubspace.span([(0, 1)])).dim == 0
    s = ExactSubspace.span([(1, 2), (0, 1)])
    assert s.intersect(s) == s
    got = ExactSubspace.span([(1, 0), (0, 1)]).intersect(ExactSubspace.span([(1, 1)]))
    assert got.basis == ((F(1), F(1)),)


def test_sum_and_quotient():
    full = ExactSubspace.span([(1, 0)]).sum(ExactSubspace.span([(0, 1)]))
    assert full.dim == 2
    q = quotient_coords(ExactSubspace.span([(1, 1)]), ExactSubspace.span([(1, 1)]))
    assert q.dim == 0
    q2 = quotient_coords(ExactSubspace.full(2), ExactSubspace.span([(1, 1)]))
    assert q2.dim == 1
    # map is (x, y) -> x - y up to the scale fixed by the complement (1, 0)
    assert q2.coords_rows([(3, 1), (5, 5)]) == ((F(2),), (F(0),))
    with pytest.raises(ValueError):
        quotient_coords(ExactSubspace.span([(1, 0)]), ExactSubspace.span([(0, 1)]))


def test_descended_form_reads_the_complement_gram_matrix():
    # split Q^4 pairing e1 with e3 and e2 with e4; W1 = <e1, e2, e4> is
    # coisotropic with W1-perp = <e1>, so W1/W1-perp is the plane <e2, e4>
    form = BilinearForm(((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))
    w1 = ExactSubspace.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    w0 = form.orth_complement(w1)
    assert w0 == ExactSubspace.span([(1, 0, 0, 0)])
    q = quotient_coords(w1, w0)
    assert q.descended_form(form).matrix == matrix([(0, 1), (1, 0)])
    # shifting the complement by W1-perp does not change the descended form
    shifted = QuotientMap(w1, w0, ((1, 1, 0, 0), (2, 0, 0, 1)))
    assert shifted.descended_form(form) == q.descended_form(form)


def _pairing_gram(q, form):
    """The descended Gram matrix as k^2 pairings: the reference."""
    return BilinearForm(tuple(tuple(pairing(form, a, b) for b in q.complement) for a in q.complement))


def test_descended_form_matches_the_pairing_loop():
    rng = random.Random(27)
    dens = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        sym = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = F(rng.randint(-6, 6), rng.randint(1, 4))
        form = BilinearForm(sym)
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, n))]
        w1 = ExactSubspace.span(rows)
        w0 = ExactSubspace.span(w1.basis[:rng.randint(0, w1.dim)], ambient_dim=n)
        fractional = tuple(tuple(x * F(3, 2) for x in row) for row in w1.basis[w0.dim:])
        for q in (quotient_coords(w1, w0), QuotientMap(w1, w0, fractional)):
            dens |= {x.denominator for row in q.complement for x in row}
            for f in (form, BilinearForm(mat_scale(F(3, 5), form.matrix))):
                assert q.descended_form(f) == _pairing_gram(q, f)
    assert max(dens) > 1
    q = QuotientMap(w1, w0, ())
    assert q.descended_form(form) == _pairing_gram(q, form) == BilinearForm(())
    with pytest.raises(DimensionMismatchError):
        QuotientMap(w1, w0, ((1,) * (n + 1),)).descended_form(form)


def test_orth_complement_examples():
    b = BilinearForm(matrix([[1, 0], [0, -1]]))
    assert b.orth_complement(ExactSubspace.span([(1, 1)])).basis == ((F(1), F(1)),)
    assert b.orth_complement(ExactSubspace.span([], ambient_dim=2)).dim == 2
    assert b.orth_complement(ExactSubspace.full(2)).dim == 0


def test_signature():
    assert BilinearForm(matrix([[0, 1], [1, 0]])).signature() == (1, 1, 0)
    assert BilinearForm(matrix([[2, 0], [0, 3]])).signature() == (2, 0, 0)
    assert BilinearForm(matrix([[0, 0], [0, 0]])).signature() == (0, 0, 2)
    assert BilinearForm(
        matrix([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    ).signature() == (2, 1, 0)


def test_solve_and_inverse():
    a = matrix([[1, 2], [3, 4]])
    x = solve(a, vector((5, 6)))
    assert x is not None and tuple(
        sum(r[i] * x[i] for i in range(2)) for r in a
    ) == (F(5), F(6))
    assert mat_mul(a, inverse(a)) == identity(2)
    assert solve(matrix([[1, 0], [1, 0]]), vector((0, 1))) is None


def test_nullspace():
    ker = nullspace(matrix([[1, 2, 3], [2, 4, 6]]), 3)
    assert ker.dim == 2
    a = matrix([[1, 2, 3], [2, 4, 6]])
    for row in ker.basis:
        assert all(sum(r[i] * row[i] for i in range(3)) == 0 for r in a)


def test_json_roundtrip():
    s = ExactSubspace.span([(1, 2, "1/3")])
    assert ExactSubspace.from_json(s.to_json()) == s


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    def sub():
        rows = draw(
            st.lists(
                st.lists(
                    rationals(3, 3),
                    min_size=n, max_size=n,
                ),
                min_size=0, max_size=n,
            )
        )
        return ExactSubspace.span([tuple(map(F, r)) for r in rows], ambient_dim=n)
    return sub(), sub()


@given(subspace_pairs())
@settings(max_examples=60, deadline=None)
def test_grassmann_dimension_identity(pair):
    s1, s2 = pair
    assert s1.dim + s2.dim == s1.sum(s2).dim + s1.intersect(s2).dim


def _hyperbolic(n):
    rows = []
    for i in range(2 * n):
        row = [F(0)] * (2 * n)
        row[(i + n) % (2 * n)] = F(1)
        rows.append(tuple(row))
    return BilinearForm(tuple(rows))


@given(subspace_pairs(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_orthogonal_laws_nondegenerate(pair, _seed):
    s1, s2 = pair
    b = _hyperbolic(s1.ambient_dim)
    big1 = ExactSubspace.span(
        [row + (F(0),) * s1.ambient_dim for row in s1.basis],
        ambient_dim=2 * s1.ambient_dim,
    )
    big2 = ExactSubspace.span(
        [row + (F(0),) * s2.ambient_dim for row in s2.basis],
        ambient_dim=2 * s2.ambient_dim,
    )
    assert b.orth_complement(b.orth_complement(big1)) == big1
    assert b.orth_complement(big1.sum(big2)) == b.orth_complement(big1).intersect(
        b.orth_complement(big2)
    )


# --- the integer kernel against a naive Fraction reference -------------------

def _ref_dot(u, v):
    assert len(u) == len(v)
    total = F(0)
    for a, b in zip(u, v):
        total += F(a) * F(b)
    return total


def _ref_mat_mul(a, b):
    return tuple(
        tuple(_ref_dot(row, [b[k][j] for k in range(len(b))]) for j in range(len(b[0])))
        for row in a
    )


def _ref_rref(rows):
    work = [[F(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return tuple(tuple(row) for row in work[:r])


def _ref_det(a):
    if not a:
        return F(1)
    total = F(0)
    for j, x in enumerate(a[0]):
        if x != 0:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * F(x) * _ref_det(minor)
    return total


_entries = st.one_of(
    st.just(F(0)),
    st.integers(min_value=-5, max_value=5).map(F),
    rationals(4, 6),
    st.builds(
        F,
        st.integers(min_value=-(10**15), max_value=10**15),
        st.integers(min_value=1, max_value=10**12),
    ),
)


@st.composite
def _matrices(draw, rows=None, cols=None):
    nrows = draw(st.integers(0, 5)) if rows is None else rows
    ncols = draw(st.integers(0, 5)) if cols is None else cols
    out = [
        tuple(draw(_entries) for _ in range(ncols)) for _ in range(nrows)
    ]
    if out and draw(st.booleans()):  # a duplicate, a multiple or a zero row
        src = draw(st.sampled_from(out))
        factor = draw(st.sampled_from([F(1), F(-3, 7), F(0)]))
        out[draw(st.integers(0, len(out) - 1))] = tuple(factor * x for x in src)
    return tuple(out)


@st.composite
def _squares(draw):
    n = draw(st.integers(0, 4))
    return draw(_matrices(rows=n, cols=n))


@given(_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_and_nullspace_match_reference(a):
    ncols = len(a[0]) if a else 3
    assert rref(a) == _ref_rref(a)
    ker = nullspace(a, ncols)
    assert ker.dim == ncols - len(_ref_rref(a))
    for v in ker.basis:
        assert all(_ref_dot(row, v) == 0 for row in a)


@given(_matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_products_match_reference(a, data):
    k = len(a[0]) if a else 0
    b = data.draw(_matrices(rows=k))
    v = data.draw(_matrices(rows=1, cols=len(a)))[0] if a else ()
    if a and k and b and b[0]:
        assert mat_mul(a, b) == _ref_mat_mul(a, b)
        assert mat_mul((v,), a) == _ref_mat_mul((v,), a)
    for row in a:
        assert mat_vec((row,), row) == (_ref_dot(row, row),)
        assert all(type(x) is F for x in mat_mul((row,), transpose((row,)))[0])


def _factor(data, rows, cols):
    """A rows x cols matrix of small rationals; 0 rows is (), 0 columns
    is rows of ()."""
    return tuple(tuple(data.draw(rationals(3, 4)) for _ in range(cols)) for _ in range(rows))


def _outcome(product, factors):
    try:
        return product(*factors)
    except DimensionMismatchError:
        return DimensionMismatchError


def _nested(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = mat_mul(out, f)
    return out


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_a_chained_product_matches_nested_binary_products(data):
    # chains of 2 to 4 factors, some with no rows or no columns, and with
    # a neighbour of the wrong height now and then: the chain raises where
    # the nested calls raise, and equals them otherwise
    dims = data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=5))
    factors = [_factor(data, r, c) for r, c in zip(dims, dims[1:])]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(1, len(factors) - 1))
        factors[i] = _factor(data, data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
    assert _outcome(mat_mul, factors) == _outcome(_nested, factors)


def test_a_chained_product_reads_every_denominator():
    a, b, c = matrix([[F(1, 2), 1]]), matrix([[F(1, 3)], [2]]), matrix([[F(1, 5), F(2, 7)]])
    assert mat_mul(a, b, c) == matrix([[F(13, 30), F(13, 21)]]) == _nested(a, b, c)
    assert mat_mul(transpose(c), c, b, a) == _nested(transpose(c), c, b, a)
    # (13/6) c c^T with c c^T = 1/25 + 4/49
    assert mat_mul(a, b, c, transpose(c)) == matrix([[F(13, 6) * F(149, 1225)]])


def test_a_chained_product_with_an_empty_factor():
    # an n x 0 factor (rows of ()) leaves no columns, and () stands for one
    a = matrix([[1, F(1, 2)], [3, 4], [5, 6]])
    assert mat_mul(a, identity(2), zeros(2, 0)) == ((), (), ()) == _nested(a, identity(2), zeros(2, 0))
    assert mat_mul(a, zeros(2, 0), ()) == ((), (), ())
    assert mat_mul((), a, identity(2)) == ()
    with pytest.raises(DimensionMismatchError):
        mat_mul(a, zeros(2, 0), identity(2))


def test_a_chained_product_rejects_a_shape_mismatch_anywhere():
    a23, i2, i3 = matrix([[1, 2, 3], [4, 5, 6]]), identity(2), identity(3)
    assert mat_mul(i2, a23, i3) == a23
    for factors in ((a23, i2, i3), (i2, a23, i2), (i2, i2, a23, a23), (i2, a23, i3, i2)):
        with pytest.raises(DimensionMismatchError):
            mat_mul(*factors)
    with pytest.raises(TypeError):
        mat_mul(i2, i2, ((0.5, F(1)), (F(0), F(1))))


@given(_squares(), st.data())
@settings(max_examples=150, deadline=None)
def test_inverse_solve_match_reference(a, data):
    n = len(a)
    d = _ref_det(a)
    a_den = math.lcm(*[x.denominator for row in a for x in row])
    nums = [[int(x * a_den) for x in row] for row in a]
    if d != 0:
        inv = inverse(a)
        ref = tuple(row[n:] for row in _ref_rref(
            [row + identity(n)[i] for i, row in enumerate(a)]))
        assert inv == ref
        assert mat_mul(a, inv) == identity(n)
        # the integer rows a_den * a invert to (a^-1 / a_den) over den
        rows, den = _inverse_rows(nums)
        assert den > 0 and all(type(x) is int for row in rows for x in row)
        assert tuple(tuple(F(x, den) for x in row) for row in rows) == tuple(
            tuple(x / a_den for x in row) for row in ref)
    else:
        with pytest.raises(SingularMatrixError):
            inverse(a)
        with pytest.raises(SingularMatrixError):
            _inverse_rows(nums)
    b = data.draw(_matrices(rows=1, cols=n))[0] if n else ()
    x = solve(a, b)
    consistent = len(_ref_rref(a)) == len(_ref_rref([r + (c,) for r, c in zip(a, b)]))
    if n and not consistent:
        assert x is None
    else:
        assert x is not None
        assert tuple(_ref_dot(row, x) for row in a) == b


@given(_squares())
@settings(max_examples=150, deadline=None)
def test_nondegenerate_matches_reference_determinant(a):
    n = len(a)
    sym = tuple(tuple(x + y for x, y in zip(r, c)) for r, c in zip(a, transpose(a)))
    assert BilinearForm(sym).is_nondegenerate() == (_ref_det(sym) != 0)
    if n >= 2:
        # P sym P^T with row n-1 of P a copy of row 0: a repeated row, singular
        p = identity(n)[:-1] + (identity(n)[0],)
        singular = mat_mul(mat_mul(p, sym), transpose(p))
        assert _ref_det(singular) == 0
        assert not BilinearForm(singular).is_nondegenerate()


def test_hstack_lays_out_block_rows():
    a, b = matrix([[1, 2], [3, 4]]), matrix([[5], [6]])
    assert hstack(a, b, zeros(2, 0)) == matrix([[1, 2, 5], [3, 4, 6]])
    # an empty column block keeps its rows, where transpose(()) has none
    assert hstack(zeros(3, 0), zeros(3, 0)) == ((),) * 3 and transpose(()) == ()
    assert hstack() == () and hstack(zeros(0, 2), zeros(0, 5)) == ()
    for blocks in ((a, matrix([[5]])), (a, ()), (zeros(2, 0), zeros(3, 1))):
        with pytest.raises(DimensionMismatchError):
            hstack(*blocks)


def test_entrywise_arithmetic_checks_shapes():
    a = matrix([[1, "1/2"], [0, -3]])
    assert mat_add(a, mat_scale(-1, a)) == zeros(2, 2)
    assert mat_scale(F(1, 2), a) == matrix([["1/2", "1/4"], [0, "-3/2"]])
    for b in (matrix([[1, 2]]), matrix([[1], [2]]), ()):
        with pytest.raises(DimensionMismatchError):
            mat_add(a, b)


def test_block_diag_matches_a_reference_on_the_sl2_pair_samples():
    def ref(a, b):
        n, m = len(a), len(b)
        return tuple(
            tuple(a[i][j] if i < n and j < n else b[i - n][j - n] if i >= n and j >= n else F(0)
                  for j in range(n + m))
            for i in range(n + m))

    for g in sl2_pair_context().sample_points:
        a, b = tuple(r[:2] for r in g[:2]), tuple(r[2:] for r in g[2:])
        assert block_diag(a, b) == ref(a, b) == g
    # blocks need not be square: the offsets are the widths
    assert block_diag(matrix([[1, 2]]), matrix([[3], [4]])) == matrix(
        [[1, 2, 0], [0, 0, 3], [0, 0, 4]])


def test_kernel_shape_mismatches_raise():
    a23 = matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError):
        mat_vec((vector((1, 2)),), vector((1,)))
    with pytest.raises(DimensionMismatchError):
        mat_mul(a23, a23)
    with pytest.raises(DimensionMismatchError):
        mat_mul((vector((1, 2, 3)),), a23)
    with pytest.raises(DimensionMismatchError):
        mat_vec(a23, vector((1, 2)))
    with pytest.raises(DimensionMismatchError):
        inverse(a23)
    with pytest.raises(DimensionMismatchError):
        solve(a23, vector((1,)))
    with pytest.raises(ValueError):
        rref([(1, 2), (3,)])
    # a ragged operand, on either side of a product
    ragged = ((F(1), F(2)), (F(3),))
    for call in (lambda: int_matrix(ragged), lambda: mat_mul(ragged, identity(2)),
                 lambda: mat_mul(identity(2), ragged), lambda: mat_vec(ragged, vector((1, 2))),
                 lambda: mat_mul((vector((1, 2)),), ragged), lambda: mat_vec(ragged[:1], ragged[1])):
        with pytest.raises(DimensionMismatchError):
            call()


def test_float_operands_raise_type_error():
    a = matrix([[1, 2], [3, 4]])
    bad = ((F(1), 0.5), (F(3), F(4)))
    with pytest.raises(TypeError):
        mat_vec(((F(1), 0.5),), (F(1), F(1)))
    with pytest.raises(TypeError):
        mat_vec(((F(1), F(0)),), (0.0, F(1)))
    with pytest.raises(TypeError):
        mat_mul(((0.5, F(1)),), a)
    with pytest.raises(TypeError):
        mat_mul(a, bad)
    for fn in (rref, inverse):
        with pytest.raises(TypeError):
            fn(bad)
    with pytest.raises(TypeError):
        nullspace(bad, 2)
    with pytest.raises(TypeError):
        solve(bad, (F(1), F(1)))
    # every entry point whose input reaches integer rows through int_matrix
    plane = ExactSubspace.span(a)
    coordinatizer = Coordinatizer.of_rows(a, 2)
    for call in (lambda: ExactSubspace.span(bad), lambda: plane.contains((F(1), 0.5)),
                 lambda: Coordinatizer.of_rows(bad, 2),
                 lambda: coords_rows(coordinatizer, ((F(1), 0.5),)),
                 lambda: BilinearForm(((F(1), 0.5), (0.5, F(1)))),
                 lambda: Bivector(((F(0), 0.5), (-0.5, F(0))))):
        with pytest.raises(TypeError):
            call()


def test_int_entries_are_their_own_numerators(calls):
    # only the entries that are not ints are coerced by frac: kept integer
    # rows fed back in (a subspace's rows, a quotient's W0 rows) build no
    # Fraction, and a bool is still coerced and a float still refused
    seen = calls(exactlin, "frac")
    ints = ((1, -2, 0), (3, 1, 2))
    assert int_matrix(ints) == (ints, 1)
    plane = ExactSubspace.span(ints)
    line = ExactSubspace.span([(4, -1, 2)])
    assert plane.contains_subspace(line) and plane.contains((4, -1, 2))
    assert seen == []
    assert int_matrix(((1, F(1, 2)), (2, 3))) == (((2, 1), (4, 6)), 2)
    assert seen == [(F(1, 2),)]
    seen.clear()
    q = quotient_coords(ExactSubspace.full(3), line)
    q.coords_rows(ints)
    # the coordinatizer's rows: W0's integer rows, then the Fraction complement
    assert len(seen) == 3 * q.dim
    seen.clear()
    assert q.map_subspace(plane).dim == 1 and seen == []
    assert int_matrix(((True, 2),)) == (((1, 2),), 1) and seen == [(True,)]
    with pytest.raises(TypeError):
        int_matrix(((1, 0.5),))


# int, Fraction and 'p/q' entries of the same values (the strings are not
# in lowest terms, so they are normalised on the way in)
_ENTRY_KINDS = (lambda x: x, F, lambda x: f"{2 * x}/2")
_ROWS = ((1, -2, 0), (3, 1, 2))
_GRAM = ((0, 1, 0), (1, 0, 0), (0, 0, -2))


def _as_kind(kind, rows):
    return tuple(tuple(map(kind, row)) for row in rows)


@pytest.mark.parametrize("entry_point", [
    lambda k: ExactSubspace.span(_as_kind(k, _ROWS)),
    lambda k: ExactSubspace.span(_ROWS).contains(_as_kind(k, ((4, -1, 2),))[0]),
    lambda k: coords_rows(Coordinatizer.of_rows(_as_kind(k, _ROWS), 3), ((4, -1, 2),)),
    lambda k: coords_rows(Coordinatizer.of_rows(_ROWS, 3), _as_kind(k, ((4, -1, 2),))),
    lambda k: BilinearForm(_as_kind(k, _GRAM)).matrix,
    lambda k: pairing(BilinearForm(_GRAM), *_as_kind(k, _ROWS)),
    lambda k: Bivector(_as_kind(k, ((0, 3), (-3, 0)))).matrix,
    lambda k: bracket_vec(sl2_algebra(), *_as_kind(k, _ROWS)),
    lambda k: rref(_as_kind(k, _ROWS)),
    lambda k: nullspace(_as_kind(k, _ROWS), 3),
    lambda k: inverse(_as_kind(k, _GRAM)),
    lambda k: mat_mul(_as_kind(k, _ROWS), _GRAM),
    lambda k: mat_vec(_GRAM, _as_kind(k, _ROWS)[0]),
], ids=["span", "contains", "of_rows", "coords_rows", "BilinearForm", "pairing", "Bivector",
        "bracket_vec", "rref", "nullspace", "inverse", "mat_mul", "mat_vec"])
def test_int_fraction_and_string_entries_agree(entry_point):
    results = [entry_point(kind) for kind in _ENTRY_KINDS]
    assert results[0] == results[1] == results[2]


def _ref_signature(m):
    """Fraction congruence diagonalisation: one symmetric pivot at a time."""
    a = [[F(x) for x in row] for row in m]
    counts = [0, 0, 0]
    while a:
        if a[0][0] == 0:
            j = next((j for j in range(len(a)) if a[j][j] != 0), None)
            if j is None:
                j = next((j for j in range(len(a)) if a[0][j] != 0), None)
                if j is None:  # e_0 is in the radical
                    counts[2] += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
            else:
                a[0], a[j] = a[j], a[0]
                for row in a:
                    row[0], row[j] = row[j], row[0]
        d = a[0][0]
        counts[0 if d > 0 else 1] += 1
        a = [[a[r][c] - a[r][0] * a[0][c] / d for c in range(1, len(a))]
             for r in range(1, len(a))]
    return tuple(counts)


@given(_squares(), st.data())
@settings(max_examples=150, deadline=None)
def test_signature_matches_reference(a, data):
    n = len(a)
    sym = tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n))
    if n and data.draw(st.booleans()):  # force a degenerate or hyperbolic block
        sym = tuple(tuple(F(0) if i == j else x for j, x in enumerate(row))
                    for i, row in enumerate(sym))
    assert BilinearForm(sym).signature() == _ref_signature(sym)


# --- the integer rows of a subspace against Fraction references ------------

def _pivot(row):
    return next(x for x in row if x)


def _unit_rows(s):
    """The integer rows of s, each divided by its pivot."""
    return tuple(tuple(F(x, _pivot(row)) for x in row) for row in s.rows)


def _ref_gram(form, s):
    g = form.matrix
    return [[_ref_dot(u, [_ref_dot(row, v) for row in g]) for v in s.basis] for u in s.basis]


@given(subspace_pairs())
@settings(max_examples=60, deadline=None)
def test_integer_rows_sum_and_intersection_match_fractions(pair):
    s, t = pair
    both, cap = s.sum(t), s.intersect(t)
    for sub in (s, t, both, cap, nullspace(s.basis, s.ambient_dim)):
        assert _unit_rows(sub) == sub.basis
        assert all(_pivot(r) > 0 and math.gcd(*r) == 1 for r in sub.rows)
    assert both.basis == _ref_rref(s.basis + t.basis)
    assert both.dim + cap.dim == s.dim + t.dim
    assert s.contains_subspace(cap) and t.contains_subspace(cap)


@st.composite
def _symmetric_forms(draw, n):
    entries = rationals(3, 3)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    return BilinearForm(tuple(map(tuple, m)))


@given(subspace_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_orth_complement_and_isotropy_match_the_gram_matrix(pair, data):
    s, _ = pair
    form = data.draw(_symmetric_forms(s.ambient_dim))
    assume(form.is_nondegenerate())
    perp = form.orth_complement(s)
    assert perp.dim == s.ambient_dim - s.dim
    assert all(pairing(form, u, v) == 0 for u in perp.basis for v in s.basis)
    # S cap S-perp is isotropic; S itself may or may not be
    for sub in (s, s.intersect(perp)):
        assert form.is_isotropic(sub) == all(x == 0 for row in _ref_gram(form, sub) for x in row)
    assert form.is_isotropic(s.intersect(perp))


def test_integer_rows_decide_equality_and_json_keeps_the_basis():
    s = ExactSubspace.span([(F(1, 2), 1, 0), (0, 2, 4)])
    assert s.rows == ((1, 0, -4), (0, 1, 2))
    assert s == ExactSubspace.span([(1, 0, -4), (0, 3, 6)])
    assert hash(s) == hash(ExactSubspace.span([(2, 0, -8), (0, 1, 2)]))
    assert "rows" in repr(s) and "basis" not in repr(s)
    assert set(s.to_json()) == {"basis", "ambient_dim"}
    assert ExactSubspace.zero(3).rows == ()
    assert ExactSubspace.full(2).rows == ((1, 0), (0, 1))
    assert ExactSubspace.full(2).basis == identity(2)


@st.composite
def _generator_pairs(draw):
    """Two lists of rational generators of Q^n; about half the time the
    second spans the same space as the first, through scaled, reordered
    and recombined copies of its generators."""
    n = draw(st.integers(1, 5))
    entry = rationals(3, 4)
    gens = st.lists(st.tuples(*[entry] * n), max_size=n + 1)
    first = draw(gens)
    if not draw(st.booleans()):
        return n, first, draw(gens)
    scales = rationals(5, 3).filter(bool)
    second = [tuple(draw(scales) * x for x in v) for v in first]
    if len(second) > 1:  # add a multiple of one generator to another
        c = draw(scales)
        second[0] = tuple(x + c * y for x, y in zip(second[0], second[-1]))
    return n, first, draw(st.permutations(second))


@given(_generator_pairs())
@settings(max_examples=150, deadline=None)
def test_rows_equality_and_hash_agree_with_basis_equality(case):
    n, first, second = case
    s, t = ExactSubspace.span(first, ambient_dim=n), ExactSubspace.span(second, ambient_dim=n)
    same = s.basis == t.basis
    assert (s == t) == same
    assert (hash(s) == hash(t)) or not same
    assert s.basis == _ref_rref(first)


def test_the_fraction_basis_is_built_on_first_read():
    s = ExactSubspace.span([(1, 2, 0, 1), (0, 1, 1, 0)])
    t = ExactSubspace.span([(0, 1, 1, 0), (1, 0, 0, 3)])
    # e' ~ 0 and e ~ 0 on Q^2 = span(e, f): a kernel, a range and a
    # composite that are all nonzero
    r = LinearRelation.from_rows(hyperbolic_space(1), hyperbolic_space(1),
                                 [(1, 0, 0, 0), (0, 0, 1, 0)])
    built = {
        "sum": s.sum(t), "intersect": s.intersect(t),
        "product_subspace": product_subspace(s, t),
        "kernel": r.kernel(), "range_": r.range_, "compose": r.compose(r).graph,
    }
    for name, sub in built.items():
        assert "basis" not in sub.__dict__, name
        assert sub.basis == _unit_rows(sub) and "basis" in sub.__dict__, name


def _ref_coefficients(s, v):
    """The Fraction reference: clear v at each pivot of the stored basis."""
    v = [F(x) for x in v]
    coeffs = []
    for row in s.basis:
        c = v[next(j for j, x in enumerate(row) if x)]
        coeffs.append(c)
        v = [a - c * b for a, b in zip(v, row)]
    return tuple(coeffs) if not any(v) else None


@given(subspace_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_contains_and_coefficients_match_fractions(pair, data):
    s, t = pair
    n = s.ambient_dim
    # vectors inside s, inside t, and arbitrary ones
    combo = data.draw(st.lists(_entries, min_size=s.dim, max_size=s.dim))
    inside = mat_mul((tuple(combo),), s.basis)[0] if s.dim else (F(0),) * n
    other = tuple(data.draw(st.lists(_entries, min_size=n, max_size=n)))
    coordinatizer = Coordinatizer.of_rows(s.basis, n)
    for v in (inside, other) + t.basis:
        want = _ref_coefficients(s, v)
        assert s.contains(v) == (want is not None)
        if want is None:
            with pytest.raises(DimensionMismatchError):
                coords(coordinatizer, v)
        else:
            assert coords(coordinatizer, v) == want
    assert coords(coordinatizer, inside) == (tuple(combo) if s.dim else ())
    with pytest.raises(DimensionMismatchError):
        s.contains((F(0),) * (n + 1))



def _ref_quotient_coords(q, v):
    """The solve reference: coordinates of v over W0 basis + complement,
    cut to the complement's; None outside W1."""
    rows = q.w0.basis + tuple(q.complement)
    if not rows:
        return None if any(v) else ()
    coef = solve(transpose(rows), tuple(v))
    return None if coef is None else coef[q.w0.dim:]


@given(subspace_pairs(), subspace_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_quotient_coords_match_solve(pair, others, data):
    s, t = pair
    n = s.ambient_dim
    w1 = s.sum(t)
    # W0 from the whole chain 0 <= s cap t <= s <= W1; W0 = W1 leaves an
    # empty complement
    w0 = data.draw(st.sampled_from([ExactSubspace.zero(n), s.intersect(t), s, w1]))
    q = quotient_coords(w1, w0)
    assert q.dim == w1.dim - w0.dim
    combo = data.draw(st.lists(_entries, min_size=w1.dim, max_size=w1.dim))
    inside = mat_mul((tuple(combo),), w1.basis)[0] if w1.dim else (F(0),) * n
    want = _ref_quotient_coords(q, inside)
    assert want is not None and q.coords_rows([inside]) == (want,)
    # S cap W1 for an S of the same ambient space, and W1 itself
    other = others[0] if others[0].ambient_dim == n else ExactSubspace.zero(n)
    for sub in (other, w1):
        got = q.map_subspace(sub)
        rows = [_ref_quotient_coords(q, r) for r in sub.intersect(w1).basis]
        assert got == ExactSubspace.span(rows, ambient_dim=q.dim)
    # a unit vector outside W1 moves the vector off W1
    outside_units = [e for e in identity(n) if not w1.contains(e)]
    for e in outside_units[:2]:
        off = tuple(a + b for a, b in zip(inside, e))
        assert _ref_quotient_coords(q, off) is None
        with pytest.raises(DimensionMismatchError):
            q.coords_rows([off])
        with pytest.raises(DimensionMismatchError):
            q.coords_rows([inside, off])
        with pytest.raises(DimensionMismatchError):
            quotient_coords(w1, w1).coords_rows([off])
    assert quotient_coords(w1, w1).coords_rows([inside]) == ((),)
    for wrong in ((F(0),) * (n + 1), inside[:-1]):
        with pytest.raises(DimensionMismatchError):
            q.coords_rows([wrong])


def _ref_greedy_complement(w1, w0):
    """The greedy reference: each W1 basis row outside the span of W0
    and of the rows chosen before it."""
    chosen = []
    current = w0
    for row in w1.basis:
        if not current.contains(row):
            chosen.append(row)
            current = current.sum(ExactSubspace.span([row]))
    return tuple(chosen)


@given(subspace_pairs())
@settings(max_examples=80, deadline=None)
def test_quotient_complement_matches_greedy_choice(pair):
    s, t = pair
    n = s.ambient_dim
    w1 = s.sum(t)
    for w0 in (ExactSubspace.zero(n), s.intersect(t), s, t, w1):
        assert quotient_coords(w1, w0).complement == _ref_greedy_complement(w1, w0)
    # a W0 that W1 does not contain has no quotient
    if s.contains_subspace(t):
        assert quotient_coords(s, t).complement == _ref_greedy_complement(s, t)
    else:
        with pytest.raises(ValueError):
            quotient_coords(s, t)

def test_from_json_keeps_the_callers_ambient_dim():
    data = {"basis": [["1", "0"]], "ambient_dim": 2}
    assert ExactSubspace.from_json(data, ambient_dim=2) == ExactSubspace.span([(1, 0)])
    assert ExactSubspace.from_json(data).ambient_dim == 2
    for dim in (1, 3):
        with pytest.raises(DimensionMismatchError):
            ExactSubspace.from_json(data, ambient_dim=dim)
    with pytest.raises(DimensionMismatchError):
        ExactSubspace.from_json({"basis": [[0], [-1]], "ambient_dim": 1}, ambient_dim=2)


def test_an_empty_basis_is_not_eliminated_column_by_column():
    # the elimination stops once every row has a pivot, so no rows stop it
    # at once, at a stated ambient_dim no loop over the columns could reach
    empty = ExactSubspace.from_json({"basis": [], "ambient_dim": 10**12})
    assert empty.dim == 0 and empty.ambient_dim == 10**12
    assert exactlin._eliminate([], 10**12, reduced=True) == []
    assert exactlin._eliminate([[0, 2, 0]], 10**12, reduced=True) == [1]


# --- meet and the sparse Gram columns against the dense references -----------

def _dense_split_form(rng, k):
    """M^T H M for the hyperbolic Gram matrix H of Q^2k and an invertible
    integer M, redrawn until no Gram entry is zero; returns the form and
    M^-T, which carries H's Lagrangians to the form's (L -> L M^-T)."""
    h = hyperbolic_space(k).form.matrix
    while True:
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(2 * k)) for _ in range(2 * k))
        try:
            m_inv_t = transpose(inverse(m))
        except SingularMatrixError:
            continue
        gram = mat_mul(transpose(m), h, m)
        if all(x for row in gram for x in row):
            return BilinearForm(gram), m_inv_t


def _meet_cases(count=200):
    """Seeded (form, S, L, p, T) with L a Lagrangian of the form, S a span
    in its space (zero and full among them), and T rows of Q^(n + p)
    whose first n entries are their parts in the form's space."""
    from courantlab.randgen import random_lagrangian_splitting

    rng = random.Random(36)
    for i in range(count):
        k = rng.randint(1, 4)
        n = 2 * k
        halves = random_lagrangian_splitting(rng, k)
        lag = rng.choice((halves.e, halves.f))
        if i % 2:
            form = hyperbolic_space(k).form
        else:
            form, m_inv_t = _dense_split_form(rng, k)
            lag = ExactSubspace.span(mat_mul(lag.basis, m_inv_t), ambient_dim=n)
        drawn = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        # halves of drawn rows and of L, so that S cap L is often nonzero
        drawn += [list(r) for r in lag.rows[:rng.randint(0, k)]]
        s = {0: ExactSubspace.zero(n), 1: ExactSubspace.full(n)}.get(i % 10, None)
        s = s or ExactSubspace.span(drawn, ambient_dim=n)
        p = rng.randint(0, 3)
        t = [tuple(r) + tuple(rng.randint(-2, 2) for _ in range(p)) for r in drawn]
        yield form, s, lag, p, t


def test_meet_matches_the_zassenhaus_intersection():
    seen = {"zero": 0, "full": 0, "dense": 0, "nonzero meet": 0}
    for form, s, lag, p, t in _meet_cases():
        n = form.dim
        assert form.is_lagrangian(lag)
        got = ExactSubspace.of_rows(n, form.meet(s.rows, lag))
        assert got == s.intersect(lag)
        # the parts of T against L: T's span cut by L x Q^p
        big = n + p
        cut = ExactSubspace.of_rows(big, form.meet(t, lag))
        ref = ExactSubspace.span(t, ambient_dim=big).intersect(
            product_subspace(lag, ExactSubspace.full(p)))
        assert cut == ref
        seen["zero"] += s.dim == 0
        seen["full"] += s.dim == n
        seen["dense"] += all(x for row in form.matrix for x in row)
        seen["nonzero meet"] += got.dim > 0
    assert min(seen.values()) >= 20, seen


def test_meet_checks_the_subspace_is_in_the_forms_space():
    with pytest.raises(DimensionMismatchError):
        hyperbolic_space(1).form.meet([(1, 0)], ExactSubspace.full(4))


def _dense_gram_product(rows, gram):
    """The dense reference of S G: every Gram entry, zero or not."""
    return [[sum(r[i] * gram[i][j] for i in range(len(gram))) for j in range(len(gram))]
            for r in rows]


def test_sparse_gram_columns_match_the_dense_product():
    rng = random.Random(37)
    forms = [hyperbolic_space(k).form for k in range(1, 4)] + [sl2_algebra().form]
    forms += [_dense_split_form(rng, k)[0] for k in (1, 2)]
    forms += [BilinearForm(((0, 0), (0, 0))), BilinearForm(((F(1, 2), 3, 0), (3, 0, -1), (0, -1, 0))),
              BilinearForm(())]
    for form in forms:
        gram = form._ints[0]
        assert form._columns == tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*gram))
        n = form.dim
        for count in range(n + 2):
            rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(count)]
            assert form._applied(rows) == _dense_gram_product(rows, gram)
        # the empty subspace applies to no rows, and is isotropic
        assert form._applied(ExactSubspace.zero(n).rows) == []
        assert form.is_isotropic(ExactSubspace.zero(n))
        assert form.orth_complement(ExactSubspace.zero(n)) == ExactSubspace.full(n)


_KERNEL_ENTRIES = rationals(3, 3)


def _draw_matrix(data, rows: int, cols: int) -> tuple:
    return tuple(tuple(data.draw(st.lists(_KERNEL_ENTRIES, min_size=cols, max_size=cols)))
                 for _ in range(rows))


@seed(42)
@settings(max_examples=120, deadline=None)
@given(st.data())
def test_the_integer_kernel_matches_the_fraction_loops(data):
    # the reference loops never call int_products or _eliminate, so they
    # check the integer kernel rather than restate it
    n, m, p = (data.draw(st.integers(1, 4)) for _ in range(3))
    a, b, c = _draw_matrix(data, n, m), _draw_matrix(data, m, p), _draw_matrix(data, p, 2)
    assert frac_matrix(*table_product(*map(int_matrix, (a, b, c)))) == mat_mul(a, b, c)
    wrong = _draw_matrix(data, m + 1, p)
    for product in (lambda: table_product(int_matrix(a), int_matrix(wrong)), lambda: mat_mul(a, wrong)):
        with pytest.raises(DimensionMismatchError):
            product()
    # an inverse, or SingularMatrixError from both; a repeated row makes a singular draw likely
    square = _draw_matrix(data, n, n)
    if n > 1 and data.draw(st.booleans()):
        square = square[:-1] + square[:1]
    try:
        want = inverse(square)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            _inverse_of(int_matrix(square))
    else:
        assert frac_matrix(*_inverse_of(int_matrix(square))) == want
    # coordinates over k independent rows, against solve on their columns
    rows = _draw_matrix(data, data.draw(st.integers(1, n)), n)
    assume(ExactSubspace.span(rows).dim == len(rows))
    coordinatizer = Coordinatizer.of_rows(rows, n)
    combo = _draw_matrix(data, 1, len(rows))
    vs = mat_mul(combo, rows) + _draw_matrix(data, 1, n)
    wants = [solve(transpose(rows), v) for v in vs]
    assert wants[0] == combo[0]
    if wants[1] is None:
        with pytest.raises(DimensionMismatchError, match="not in the span"):
            coordinatizer.coords_ints(*int_matrix(vs))
        vs = vs[:1]
    assert frac_matrix(*coordinatizer.coords_ints(*int_matrix(vs))) == tuple(wants[:len(vs)])
    with pytest.raises(DimensionMismatchError):
        coordinatizer.coords_ints(*int_matrix([vs[0] + (F(0),)]))

