import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courantlab.exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    SingularMatrixError,
    det,
    dot,
    frac,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    nullspace,
    quotient_coords,
    rank,
    rref,
    solve,
    span,
    transpose,
    vec_mat,
    vector,
    vector_from_json,
    vector_to_json,
)


def test_span_dependent_rows_collapse():
    s = span([(1, 0), (2, 0)])
    assert s.basis == ((F(1), F(0)),)
    assert s.dim == 1


def test_empty_span_needs_ambient():
    s = span([], ambient_dim=3)
    assert s.dim == 0 and s.ambient_dim == 3
    with pytest.raises(DimensionMismatchError):
        span([])


def test_span_full_space_from_determinant():
    assert span([(1, 1), (1, -1)]).dim == 2


def test_span_permutation_canonical():
    rng = random.Random(11)
    for _ in range(25):
        vecs = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5))
            for _ in range(4)
        ]
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert span(vecs).basis == span(shuffled).basis


def test_intersect_examples():
    assert span([(1, 0)]).intersect(span([(0, 1)])).dim == 0
    s = span([(1, 2), (0, 1)])
    assert s.intersect(s) == s
    got = span([(1, 0), (0, 1)]).intersect(span([(1, 1)]))
    assert got.basis == ((F(1), F(1)),)


def test_sum_and_quotient():
    full = span([(1, 0)]).sum(span([(0, 1)]))
    assert full.dim == 2
    q = quotient_coords(span([(1, 1)]), span([(1, 1)]))
    assert q.dim == 0
    q2 = quotient_coords(ExactSubspace.full(2), span([(1, 1)]))
    assert q2.dim == 1
    # map is (x, y) -> x - y up to the scale fixed by the complement (1, 0)
    assert q2.coords((3, 1)) == (F(2),)
    assert q2.coords((5, 5)) == (F(0),)
    with pytest.raises(ValueError):
        quotient_coords(span([(1, 0)]), span([(0, 1)]))


def test_orth_complement_examples():
    b = BilinearForm(matrix([[1, 0], [0, -1]]))
    assert b.orth_complement(span([(1, 1)])).basis == ((F(1), F(1)),)
    assert b.orth_complement(span([], ambient_dim=2)).dim == 2
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
    assert det(a) == F(-2)


def test_nullspace():
    ker = nullspace(matrix([[1, 2, 3], [2, 4, 6]]), 3)
    assert ker.dim == 2
    a = matrix([[1, 2, 3], [2, 4, 6]])
    for row in ker.basis:
        assert all(sum(r[i] * row[i] for i in range(3)) == 0 for r in a)


def test_json_roundtrip():
    v = vector(("1/2", -3, "7/5"))
    assert vector_from_json(vector_to_json(v)) == v
    s = span([(1, 2, "1/3")])
    assert ExactSubspace.from_json(s.to_json()) == s


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    def sub():
        rows = draw(
            st.lists(
                st.lists(
                    st.fractions(min_value=-3, max_value=3, max_denominator=3),
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
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
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
        assert vec_mat(v, a) == _ref_mat_mul((v,), a)[0]
    for row in a:
        assert dot(row, row) == _ref_dot(row, row)
        assert all(type(x) is F for x in mat_mul((row,), transpose((row,)))[0])


@given(_squares(), st.data())
@settings(max_examples=150, deadline=None)
def test_det_inverse_solve_match_reference(a, data):
    n = len(a)
    d = _ref_det(a)
    assert det(a) == d and type(det(a)) is F
    if d != 0:
        inv = inverse(a)
        assert inv == tuple(row[n:] for row in _ref_rref(
            [row + identity(n)[i] for i, row in enumerate(a)]))
        assert mat_mul(a, inv) == identity(n)
    else:
        with pytest.raises(SingularMatrixError):
            inverse(a)
    b = data.draw(_matrices(rows=1, cols=n))[0] if n else ()
    x = solve(a, b)
    consistent = len(_ref_rref(a)) == len(_ref_rref([r + (c,) for r, c in zip(a, b)]))
    if n and not consistent:
        assert x is None
    else:
        assert x is not None
        assert tuple(_ref_dot(row, x) for row in a) == b


def test_kernel_shape_mismatches_raise():
    a23 = matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError):
        dot(vector((1, 2)), vector((1,)))
    with pytest.raises(DimensionMismatchError):
        mat_mul(a23, a23)
    with pytest.raises(DimensionMismatchError):
        vec_mat(vector((1, 2, 3)), a23)
    with pytest.raises(DimensionMismatchError):
        mat_vec(a23, vector((1, 2)))
    with pytest.raises(DimensionMismatchError):
        det(a23)
    with pytest.raises(DimensionMismatchError):
        inverse(a23)
    with pytest.raises(DimensionMismatchError):
        solve(a23, vector((1,)))
    with pytest.raises(ValueError):
        rref([(1, 2), (3,)])


def test_float_operands_raise_type_error():
    a = matrix([[1, 2], [3, 4]])
    bad = ((F(1), 0.5), (F(3), F(4)))
    with pytest.raises(TypeError):
        dot((F(1), 0.5), (F(1), F(1)))
    with pytest.raises(TypeError):
        dot((F(1), F(0)), (0.0, F(1)))
    with pytest.raises(TypeError):
        vec_mat((0.5, F(1)), a)
    with pytest.raises(TypeError):
        mat_mul(a, bad)
    for fn in (rref, det, inverse):
        with pytest.raises(TypeError):
            fn(bad)
    with pytest.raises(TypeError):
        nullspace(bad, 2)
    with pytest.raises(TypeError):
        solve(bad, (F(1), F(1)))


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
