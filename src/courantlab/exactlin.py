"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``; matrices are tuples of row tuples.
Subspaces are stored as reduced row echelon bases with lowest-index
pivots, so two equal subspaces have identical stored data and subspace
equality is plain structural equality.  The zero subspace keeps an
explicit ambient dimension and an empty basis.

Values are ``Fraction`` at the API and integers inside: products put
each operand over the lcm of its denominators, and elimination works on
primitive integer rows, so a result entry is normalised once.  A
subspace also keeps its canonical basis as primitive integer rows, and
the subspace operations (sum, intersection, kernels, orthogonal
complements, isotropy) work on those rows alone; Fractions are built
once, for the stored basis.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from functools import lru_cache as _lru_cache
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands live in different ambient spaces."""


class SingularMatrixError(ValueError):
    """Raised when an exact inverse does not exist."""


class NotLagrangianError(ValueError):
    """Raised when an operation needs a Lagrangian subspace (or a
    Lagrangian splitting) and is given something else."""


def frac(x) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def vector(entries: Iterable) -> Vector:
    return tuple(map(frac, entries))


def matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix rows")
    return out


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def add_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def scale_vec(c, v: Vector) -> Vector:
    c = frac(c)
    return tuple(c * a for a in v)


_ZERO = Fraction(0)


# A Fraction's own numerator and denominator fields, read at C speed; an
# int, or anything that lacks them, takes the checked path.
_FRACTION_PARTS = attrgetter("_numerator", "_denominator")


def _parts(x) -> tuple[int, int]:
    if not isinstance(x, (Fraction, int)):
        raise TypeError(f"exact arithmetic needs int or Fraction, got {x!r}")
    return x.as_integer_ratio()


def _over_lcm(v: Sequence) -> tuple[list[int], int]:
    """Integer numerators of v over the lcm of its denominators."""
    try:
        pairs = list(map(_FRACTION_PARTS, v))
    except AttributeError:
        pairs = list(map(_parts, v))
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def _products(rows: Sequence[Sequence], cols: Sequence[Sequence], k: int) -> Matrix:
    """The table dot(r, c) over rows r and columns c, all of length k.

    Each operand is put over a common denominator once, so an entry is a
    sum of integer products and a single Fraction normalisation.
    """
    if any(len(x) != k for x in rows) or any(len(x) != k for x in cols):
        raise DimensionMismatchError("operand lengths disagree")
    return _products_over(rows, [_over_lcm(c) for c in cols])


def _products_over(rows: Sequence[Sequence], cs: list[tuple[list[int], int]]) -> Matrix:
    """The table of _products for columns already put over their lcm."""
    out = []
    for r in rows:
        rn, rd = _over_lcm(r)
        entries = []
        for cn, cd in cs:
            total = sum(map(mul, rn, cn))
            entries.append(Fraction(total, rd * cd) if total else _ZERO)
        out.append(tuple(entries))
    return tuple(out)


def dot(u: Vector, v: Vector) -> Fraction:
    return _products((u,), (v,), len(u))[0][0]


def mat_vec(A: Matrix, v: Vector) -> Vector:
    return tuple(row[0] for row in _products(A, (v,), len(v)))


def _columns(A: Matrix) -> list[tuple]:
    if any(len(row) != len(A[0]) for row in A):
        raise DimensionMismatchError("ragged matrix rows")
    return list(zip(*A))


# An empty matrix () also stands for an n x 0 one (the transpose of a 0 x n
# matrix), so a product with an empty right factor has no columns.


def vec_mat(v: Vector, A: Matrix) -> Vector:
    if not A:
        return ()
    if len(v) != len(A):
        raise DimensionMismatchError("vector/matrix shape mismatch")
    return _products((v,), _columns(A), len(A))[0]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if not B:
        return tuple(() for _ in A)
    return _products(A, _columns(B), len(B))


def transpose(A: Matrix) -> Matrix:
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def concat_vec(*parts: Vector) -> Vector:
    out: tuple[Fraction, ...] = ()
    for p in parts:
        out = out + tuple(p)
    return out


def _eliminate(work: list[list[int]], ncols: int, reduced: bool) -> tuple[list[int], Fraction]:
    """Fraction-free row reduction of integer rows, in place.

    A row is cleared at a pivot column by cross-multiplying it with the
    pivot row, then divided by its content (the gcd of its entries).
    With ``reduced`` the rows above each pivot are cleared too.  Returns
    the pivot columns, in row order, and the factor f with
    det(result) = f * det(input) for a square input.
    """
    pivots: list[int] = []
    num = den = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            num = -num
        lead = work[r]
        p = lead[c]
        for i in range(0 if reduced else r + 1, len(work)):
            row = work[i]
            b = row[c]
            if not b or i == r:
                continue
            g = gcd(p, b)
            a, b = p // g, b // g
            row = [a * x - b * y for x, y in zip(row, lead)]
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
                den *= content
            work[i] = row
            num *= a
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return pivots, Fraction(num, den)


def _primitive(v: Iterable) -> list[int]:
    """The primitive integer row on the line of v (all zeros for v = 0)."""
    if not isinstance(v, (tuple, list)):
        v = tuple(v)
    try:
        nums, _ = _over_lcm(v)
    except TypeError:
        nums, _ = _over_lcm(vector(v))
    content = gcd(*nums)
    return [x // content for x in nums] if content > 1 else nums


def _int_rows(rows: Iterable[Iterable]) -> list[list[int]]:
    """Rows as primitive integer rows; raises on ragged input."""
    work = [_primitive(r) for r in rows]
    if work and any(len(r) != len(work[0]) for r in work):
        raise DimensionMismatchError("ragged matrix rows")
    return work


def _rref(work: list, ncols: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The reduced row echelon form of integer rows (consumed) as
    primitive rows with positive pivots, zero rows dropped, and its
    pivot columns."""
    pivots, _ = _eliminate(work, ncols, reduced=True)
    out = []
    for row, c in zip(work, pivots):
        content = gcd(*row)
        if row[c] < 0:
            content = -content
        out.append(tuple(row) if content == 1 else tuple(x // content for x in row))
    return tuple(out), pivots


def _unit_pivot(rows: Iterable[Sequence[int]]) -> Matrix:
    """Fraction rows of integer echelon rows, each divided by its pivot."""
    out = []
    for row in rows:
        p = next(filter(None, row))
        if p == 1:
            out.append(tuple(Fraction(x) if x else _ZERO for x in row))
        else:
            out.append(tuple(Fraction(x, p) if x else _ZERO for x in row))
    return tuple(out)


def zero_prefix_rows(work: list, k: int) -> list:
    """Integer rows spanning the vectors of the row space of ``work``
    (consumed) whose first k entries vanish, cut to their remaining
    entries.

    Fraction-free elimination on the first k columns leaves echelon rows
    with a pivot there, and below them rows that vanish on those
    columns; a combination of the rows vanishes there only if it uses
    none of the pivot rows.  Stacking (s, s) over (t, 0) gives S cap T
    (Zassenhaus); stacking the rows of two relations by their shared
    block gives their composite.
    """
    pivots, _ = _eliminate(work, k, reduced=False)
    return [row[k:] for row in work[len(pivots):]]


def rref(rows: Sequence[Sequence]) -> Matrix:
    """Reduced row echelon form with unit pivots; zero rows dropped."""
    work = _int_rows(rows)
    if not work:
        return ()
    return _unit_pivot(_rref(work, len(work[0]))[0])


def rank(A: Sequence[Sequence]) -> int:
    work = _int_rows(A)
    if not work:
        return 0
    return len(_eliminate(work, len(work[0]), reduced=False)[0])


def pivot_columns(R: Matrix) -> tuple[int, ...]:
    pivots = []
    for row in R:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return tuple(pivots)


def _kernel_rows(work: list, ncols: int) -> list[list[int]]:
    """An integer basis of {x : row . x = 0 for every row} in Q^ncols;
    the rows (integers, each of length ncols) are consumed."""
    rows, piv = _rref(work, ncols)
    pivot_set = set(piv)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        used = [(row, p) for row, p in zip(rows, piv) if row[f]]
        scale = lcm(*[row[p] for row, p in used])
        v = [0] * ncols
        v[f] = scale
        for row, p in used:
            v[p] = -row[f] * (scale // row[p])
        basis.append(v)
    return basis


def nullspace(A: Matrix, ncols: int) -> "ExactSubspace":
    """Kernel of x -> A x as a canonical subspace of Q^ncols."""
    return ExactSubspace.of_rows(ncols, _kernel_rows(_int_rows(A), ncols))


def solve(A: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if len(A) != len(b):
        raise DimensionMismatchError("matrix/vector shape mismatch")
    if not A:
        return ()
    ncols = len(A[0])
    aug = rref([tuple(row) + (bi,) for row, bi in zip(A, b)])
    x = [Fraction(0)] * ncols
    for row in aug:
        lead = None
        for j in range(ncols):
            if row[j] != 0:
                lead = j
                break
        if lead is None:
            if row[ncols] != 0:
                return None
            continue
        x[lead] = row[ncols]
    # verify: free variables were set to zero, which solves iff consistent
    if mat_vec(A, tuple(x)) != tuple(b):
        return None
    return tuple(x)


def inverse(A: Matrix) -> Matrix:
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatchError("inverse needs a square matrix")
    aug = rref([tuple(row) + e for row, e in zip(A, identity(n))])
    if len(aug) < n or pivot_columns(aug)[:n] != tuple(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(row[n:] for row in aug)


def det(A: Matrix) -> Fraction:
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatchError("det needs a square matrix")
    work = []
    scale = 1
    for r in A:
        nums, d = _over_lcm(vector(r))
        work.append(nums)
        scale *= d
    pivots, factor = _eliminate(work, n, reduced=False)
    if len(pivots) < n:
        return _ZERO
    diag = 1
    for i in range(n):
        diag *= work[i][i]
    return diag / (factor * scale)


@dataclass(frozen=True)
class ExactSubspace:
    """A subspace of Q^ambient_dim with canonical (RREF) stored basis.

    ``rows`` is the same basis as primitive integer rows with positive
    pivots; it is determined by ``basis``, so it takes no part in
    equality, hashing or the repr.
    """

    ambient_dim: int
    basis: Matrix
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @classmethod
    def of_rows(cls, ambient_dim: int, work: list) -> "ExactSubspace":
        """The span of integer rows of length ambient_dim (consumed)."""
        rows, _ = _rref(work, ambient_dim)
        return cls(ambient_dim, _unit_pivot(rows), rows)

    @classmethod
    def span(cls, vectors: Iterable[Iterable], ambient_dim: int | None = None) -> "ExactSubspace":
        work = [_primitive(v) for v in vectors]
        if work:
            n = len(work[0])
            if any(len(r) != n for r in work):
                raise DimensionMismatchError("span of vectors with mixed dimensions")
            if ambient_dim is not None and ambient_dim != n:
                raise DimensionMismatchError("ambient_dim disagrees with vectors")
            ambient_dim = n
        elif ambient_dim is None:
            raise DimensionMismatchError("empty span needs an explicit ambient_dim")
        return cls.of_rows(ambient_dim, work)

    @classmethod
    def zero(cls, ambient_dim: int) -> "ExactSubspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "ExactSubspace":
        rows = tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim))
        return cls(ambient_dim, identity(ambient_dim), rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Iterable) -> bool:
        """Whether v's primitive integer row reduces to zero against ``rows``."""
        work = _primitive(v)
        if len(work) != self.ambient_dim:
            raise DimensionMismatchError("vector not in ambient space")
        for row in self.rows:
            p = next(j for j, x in enumerate(row) if x)
            b = work[p]
            if b:
                g = gcd(row[p], b)
                a, b = row[p] // g, b // g
                work = [a * x - b * y for x, y in zip(work, row)]
        return not any(work)

    def contains_subspace(self, other: "ExactSubspace") -> bool:
        self._check(other)
        return all(self.contains(row) for row in other.basis)

    def _check(self, other: "ExactSubspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces in different ambient spaces")

    def sum(self, other: "ExactSubspace") -> "ExactSubspace":
        self._check(other)
        if not other.rows:
            return self
        if not self.rows:
            return other
        return ExactSubspace.of_rows(self.ambient_dim, list(self.rows + other.rows))

    def intersect(self, other: "ExactSubspace") -> "ExactSubspace":
        """S1 cap S2 from the stacked rows (s, s) over (t, 0)."""
        self._check(other)
        n = self.ambient_dim
        if not self.rows or not other.rows:
            return ExactSubspace.zero(n)
        zeros = (0,) * n
        work = [r + r for r in self.rows] + [r + zeros for r in other.rows]
        return ExactSubspace.of_rows(n, zero_prefix_rows(work, n))

    def to_json(self) -> dict:
        return {"basis": [[str(x) for x in row] for row in self.basis],
                "ambient_dim": self.ambient_dim}

    @classmethod
    def from_json(cls, data: dict, ambient_dim: int | None = None) -> "ExactSubspace":
        """The subspace spanned by ``data["basis"]``; a stated
        ``data["ambient_dim"]`` must agree with the caller's."""
        dim = data.get("ambient_dim", ambient_dim)
        if ambient_dim is not None and dim != ambient_dim:
            raise DimensionMismatchError(f"ambient_dim {dim!r} disagrees with {ambient_dim}")
        return cls.span([vector(row) for row in data["basis"]], ambient_dim=dim)


def product_subspace(s1: ExactSubspace, s2: ExactSubspace) -> ExactSubspace:
    """S1 x S2 inside Q^(n1+n2), block coordinates in the given order."""
    n1, n2 = s1.ambient_dim, s2.ambient_dim
    # the block rows of two reduced echelon bases are one already
    rows = tuple(r + (0,) * n2 for r in s1.rows) + tuple((0,) * n1 + r for r in s2.rows)
    basis = tuple(r + zero_vector(n2) for r in s1.basis) + tuple(zero_vector(n1) + r for r in s2.basis)
    return ExactSubspace(n1 + n2, basis, rows)


@dataclass(frozen=True)
class Coordinatizer:
    """Exact coordinates over a basis of independent rows of Q^ambient_dim.

    The pivot columns of the rows' RREF pick k entries at which the
    k x k block of the rows is invertible.  The coordinates of v are its
    entries there times the inverse block, and they count only when they
    rebuild v exactly; otherwise v lies outside ``span``, the name the
    error gives.
    """

    rows: Matrix
    ambient_dim: int
    pivots: tuple[int, ...]
    block_inverse: Matrix
    span: str = "the span"

    @classmethod
    def of_rows(cls, rows: Iterable[Iterable], ambient_dim: int,
                span: str = "the span") -> "Coordinatizer":
        """Raises DimensionMismatchError on rows of the wrong length and
        ValueError on dependent rows."""
        rows = matrix(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise DimensionMismatchError("coordinate rows not in the ambient space")
        pivots = pivot_columns(rref(rows))
        if len(pivots) != len(rows):
            raise ValueError("coordinate rows are linearly dependent")
        block = tuple(tuple(row[p] for p in pivots) for row in rows)
        return cls(rows, ambient_dim, pivots, inverse(block), span)

    def coords(self, v: Iterable) -> Vector:
        """Coordinates of one vector; DimensionMismatchError outside the span."""
        return self.coords_rows((v,))[0]

    def coords_rows(self, vs: Iterable[Iterable]) -> Matrix:
        """Coordinates of each row of vs as one product, then one exact
        rebuild check; DimensionMismatchError on a row of the wrong
        length or outside the span."""
        vs = tuple(map(vector, vs))
        n = self.ambient_dim
        if any(len(v) != n for v in vs):
            raise DimensionMismatchError("vector not in the ambient space")
        inverse_cols, row_cols = self._columns_over_lcm
        coef = _products_over([[v[p] for p in self.pivots] for v in vs], inverse_cols)
        rebuilt = _products_over(coef, row_cols) if self.rows else tuple(zero_vector(n) for _ in vs)
        if rebuilt != vs:
            raise DimensionMismatchError(f"vector not in {self.span}")
        return coef

    @cached_property
    def _columns_over_lcm(self) -> tuple[list, list]:
        """The columns of the inverse block and of the rows, each put over
        the lcm of its denominators once."""
        return ([_over_lcm(c) for c in _columns(self.block_inverse)] if self.block_inverse else [],
                [_over_lcm(c) for c in _columns(self.rows)] if self.rows else [])


@dataclass(frozen=True)
class QuotientMap:
    """Coordinates on W1/W0 through a chosen complement basis inside W1.

    Coordinates are read through one coordinatizer over the rows
    W0 basis + complement, built on first use and kept.
    """

    w1: ExactSubspace
    w0: ExactSubspace
    complement: Matrix

    @property
    def dim(self) -> int:
        return len(self.complement)

    @cached_property
    def _coordinatizer(self) -> Coordinatizer:
        return Coordinatizer.of_rows(self.w0.basis + tuple(self.complement),
                                     self.w1.ambient_dim, "W1")

    def coords(self, v: Iterable) -> Vector:
        """Quotient coordinates of v (requires v in W1)."""
        return self._coordinatizer.coords(v)[self.w0.dim:]

    def lift(self, coords: Iterable) -> Vector:
        coords = vector(coords)
        out = zero_vector(self.w1.ambient_dim)
        for c, row in zip(coords, self.complement, strict=True):
            out = add_vec(out, scale_vec(c, row))
        return out

    def map_subspace(self, s: ExactSubspace) -> ExactSubspace:
        """Image of (S cap W1) in the quotient coordinates."""
        inter = s.intersect(self.w1)
        k = self.w0.dim
        return ExactSubspace.span(
            [c[k:] for c in self._coordinatizer.coords_rows(inter.basis)], ambient_dim=self.dim
        )

    def descended_form(self, form: BilinearForm) -> BilinearForm:
        """The form on W1/W0 read on the complement basis; well defined
        when W0 pairs to zero with W1."""
        return BilinearForm(
            tuple(tuple(form.pairing(a, b) for b in self.complement) for a in self.complement)
        )


def quotient_coords(w1: ExactSubspace, w0: ExactSubspace) -> QuotientMap:
    """Quotient W1/W0 with a greedily chosen complement basis: the W1
    basis rows outside the span of W0 and the W1 rows before them.

    One elimination of the columns W0 rows + W1 rows picks them: its
    pivot columns past the W0 block.  W0 lies in W1 exactly when the
    pivots number dim W1.
    """
    w1._check(w0)
    k = w0.dim
    cols = [list(c) for c in zip(*(w0.rows + w1.rows))]
    pivots, _ = _eliminate(cols, k + w1.dim, reduced=False)
    if len(pivots) != w1.dim:
        raise ValueError("W0 is not contained in W1")
    return QuotientMap(w1, w0, tuple(w1.basis[p - k] for p in pivots if p >= k))


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    matrix: Matrix
    # the Gram matrix as integer rows over one common denominator
    _ints: tuple[tuple[tuple[int, ...], ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m != transpose(m):
            raise ValueError("bilinear form must be symmetric")
        nums, den = _over_lcm([x for row in m for x in row])
        n = len(m)
        rows = tuple(tuple(nums[i * n:(i + 1) * n]) for i in range(n))
        object.__setattr__(self, "_ints", (rows, den))

    def __hash__(self) -> int:
        # equal matrices have equal integer rows, which hash faster than
        # Fractions (split spaces are cache keys)
        return hash(self._ints)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def pairing(self, u: Iterable, v: Iterable) -> Fraction:
        u, v = vector(u), vector(v)
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatchError("vectors not in the form's space")
        rows, den = self._ints
        un, ud = _over_lcm(u)
        vn, vd = _over_lcm(v)
        total = sum(map(mul, un, [sum(map(mul, row, vn)) for row in rows]))
        return Fraction(total, ud * vd * den) if total else _ZERO

    def is_nondegenerate(self) -> bool:
        return _nondegenerate(self.matrix)

    def apply(self, v: Iterable) -> Vector:
        return mat_vec(self.matrix, vector(v))

    @cached_property
    def inverse_matrix(self) -> Matrix:
        """B^-1, computed on first use; raises SingularMatrixError."""
        return inverse(self.matrix)

    def signature(self) -> tuple[int, int, int]:
        """(positives, negatives, zeros) via exact congruence diagonalization,
        computed once per form (every split space built on it asks)."""
        return self._signature

    @cached_property
    def _signature(self) -> tuple[int, int, int]:
        # Works on the integer Gram matrix: scaling by a positive number is
        # a congruence, so each step replaces the trailing block by |d|
        # times its Schur complement and then divides it by its content.
        n = self.dim
        A = [list(row) for row in self._ints[0]]
        pos = neg = zer = 0
        for k in range(n):
            if A[k][k] == 0:
                j = next((j for j in range(k + 1, n) if A[j][j] != 0), None)
                if j is not None:
                    A[k], A[j] = A[j], A[k]
                    for row in A:
                        row[k], row[j] = row[j], row[k]
                else:
                    j = next((j for j in range(k + 1, n) if A[k][j] != 0), None)
                    if j is None:
                        zer += 1
                        continue
                    # congruence shear: makes A[k][k] = 2 A[k][j] != 0
                    for c in range(n):
                        A[k][c] += A[j][c]
                    for r in range(n):
                        A[r][k] += A[r][j]
            d = A[k][k]
            if d > 0:
                pos += 1
            else:
                neg += 1
            sign = 1 if d > 0 else -1
            pivot_row = A[k]
            for r in range(k + 1, n):
                row, b = A[r], A[r][k]
                for c in range(k + 1, n):
                    row[c] = sign * (d * row[c] - b * pivot_row[c])
            content = gcd(*[x for row in A[k + 1:] for x in row[k + 1:]])
            if content > 1:
                for row in A[k + 1:]:
                    row[k + 1:] = [x // content for x in row[k + 1:]]
        return pos, neg, zer

    def orth_complement(self, s: ExactSubspace) -> ExactSubspace:
        """{w : <w, v> = 0 for all v in S}."""
        if s.ambient_dim != self.dim:
            raise DimensionMismatchError("subspace not in the form's space")
        if not s.rows:
            return ExactSubspace.full(self.dim)
        return ExactSubspace.of_rows(self.dim, _kernel_rows(self._applied(s), self.dim))

    def _applied(self, s: ExactSubspace) -> list[list[int]]:
        """G applied to each integer row of S (G is symmetric, so these
        are the rows of S G), up to the Gram denominator."""
        gram = self._ints[0]
        return [[sum(map(mul, g, r)) for g in gram] for r in s.rows]

    def is_isotropic(self, s: ExactSubspace) -> bool:
        if s.ambient_dim != self.dim:
            raise DimensionMismatchError("subspace not in the form's space")
        rows = s.rows
        return not any(
            sum(map(mul, gr, t)) for i, gr in enumerate(self._applied(s)) for t in rows[i:]
        )

    def is_coisotropic(self, s: ExactSubspace) -> bool:
        return s.contains_subspace(self.orth_complement(s))

    def is_lagrangian(self, s: ExactSubspace) -> bool:
        if self.is_nondegenerate():
            return 2 * s.dim == self.dim and self.is_isotropic(s)
        return self.orth_complement(s) == s

    def direct_sum(self, other: "BilinearForm") -> "BilinearForm":
        n, m = self.dim, other.dim
        rows = []
        for i in range(n):
            rows.append(tuple(self.matrix[i]) + zero_vector(m))
        for i in range(m):
            rows.append(zero_vector(n) + tuple(other.matrix[i]))
        return BilinearForm(tuple(rows))

    def negate(self) -> "BilinearForm":
        return BilinearForm(tuple(tuple(-x for x in row) for row in self.matrix))


@_lru_cache(maxsize=256)
def _nondegenerate(m: Matrix) -> bool:
    return det(m) != 0
