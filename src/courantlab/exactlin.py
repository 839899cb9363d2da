"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``; matrices are tuples of row tuples.
Subspaces are stored as reduced row echelon bases with lowest-index
pivots, so two equal subspaces have identical stored data and subspace
equality is plain structural equality.  The zero subspace keeps an
explicit ambient dimension and an empty basis.

Values are ``Fraction`` at the API and integers inside: products put
each operand over the lcm of its denominators, and elimination works on
primitive integer rows, so a result entry is normalised once.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


def sub_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


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
    cs = [_over_lcm(c) for c in cols]
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


def rref(rows: Sequence[Sequence]) -> Matrix:
    """Reduced row echelon form with unit pivots; zero rows dropped."""
    vecs = [vector(r) for r in rows]
    if not vecs:
        return ()
    ncols = len(vecs[0])
    if any(len(v) != ncols for v in vecs):
        raise DimensionMismatchError("ragged matrix rows")
    work = []
    for v in vecs:
        nums, _ = _over_lcm(v)
        content = gcd(*nums)
        if content:
            work.append([x // content for x in nums] if content > 1 else nums)
    pivots, _ = _eliminate(work, ncols, reduced=True)
    return tuple(
        tuple(Fraction(x, row[c]) if x else _ZERO for x in row)
        for row, c in zip(work, pivots)
    )


def rank(A: Sequence[Sequence]) -> int:
    return len(rref(A))


def pivot_columns(R: Matrix) -> tuple[int, ...]:
    pivots = []
    for row in R:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return tuple(pivots)


def nullspace(A: Matrix, ncols: int) -> "ExactSubspace":
    """Kernel of x -> A x as a canonical subspace of Q^ncols."""
    R = rref(A)
    piv = pivot_columns(R)
    free = [j for j in range(ncols) if j not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(R, piv):
            v[p] = -row[f]
        basis.append(tuple(v))
    return ExactSubspace.span(basis, ambient_dim=ncols)


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
    """A subspace of Q^ambient_dim with canonical (RREF) stored basis."""

    ambient_dim: int
    basis: Matrix

    @classmethod
    def span(cls, vectors: Iterable[Iterable], ambient_dim: int | None = None) -> "ExactSubspace":
        rows = [vector(v) for v in vectors]
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise DimensionMismatchError("span of vectors with mixed dimensions")
            if ambient_dim is not None and ambient_dim != n:
                raise DimensionMismatchError("ambient_dim disagrees with vectors")
            ambient_dim = n
        elif ambient_dim is None:
            raise DimensionMismatchError("empty span needs an explicit ambient_dim")
        return cls(ambient_dim, rref(rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "ExactSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "ExactSubspace":
        return cls(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Iterable) -> bool:
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector not in ambient space")
        return self.coefficients(v) is not None

    def coefficients(self, v: Vector) -> Vector | None:
        """Coordinates of v over the stored basis, or None if outside.

        Fast path: the stored basis is in reduced row echelon form, so
        the coordinates are read off at the pivot columns.
        """
        v = list(vector(v))
        coeffs = []
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x != 0)
            c = v[p]
            coeffs.append(c)
            if c != 0:
                for j in range(p, self.ambient_dim):
                    if row[j] != 0:
                        v[j] -= c * row[j]
        if any(x != 0 for x in v):
            return None
        return tuple(coeffs)

    def contains_subspace(self, other: "ExactSubspace") -> bool:
        self._check(other)
        return all(self.contains(row) for row in other.basis)

    def _check(self, other: "ExactSubspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces in different ambient spaces")

    def sum(self, other: "ExactSubspace") -> "ExactSubspace":
        self._check(other)
        return ExactSubspace.span(
            list(self.basis) + list(other.basis), ambient_dim=self.ambient_dim
        )

    def intersect(self, other: "ExactSubspace") -> "ExactSubspace":
        """S1 cap S2 via the kernel of the stacked coefficient system."""
        self._check(other)
        if not self.basis or not other.basis:
            return ExactSubspace.zero(self.ambient_dim)
        # x^T A = y^T B  <=>  (x, y) in ker [A^T | -B^T]
        A, B = self.basis, other.basis
        rows = []
        for i in range(self.ambient_dim):
            rows.append(
                tuple(A[k][i] for k in range(len(A)))
                + tuple(-B[k][i] for k in range(len(B)))
            )
        ker = nullspace(tuple(rows), len(A) + len(B))
        vecs = [vec_mat(coef[: len(A)], A) for coef in ker.basis]
        return ExactSubspace.span(vecs, ambient_dim=self.ambient_dim)

    def to_json(self) -> dict:
        return {"basis": [[str(x) for x in row] for row in self.basis],
                "ambient_dim": self.ambient_dim}

    @classmethod
    def from_json(cls, data: dict, ambient_dim: int | None = None) -> "ExactSubspace":
        dim = data.get("ambient_dim", ambient_dim)
        return cls.span([vector(row) for row in data["basis"]], ambient_dim=dim)


def span(vectors: Iterable[Iterable], ambient_dim: int | None = None) -> ExactSubspace:
    return ExactSubspace.span(vectors, ambient_dim=ambient_dim)


def intersect(s1: ExactSubspace, s2: ExactSubspace) -> ExactSubspace:
    return s1.intersect(s2)


def subspace_sum(s1: ExactSubspace, s2: ExactSubspace) -> ExactSubspace:
    return s1.sum(s2)


def product_subspace(s1: ExactSubspace, s2: ExactSubspace) -> ExactSubspace:
    """S1 x S2 inside Q^(n1+n2), block coordinates in the given order."""
    n1, n2 = s1.ambient_dim, s2.ambient_dim
    rows = [concat_vec(r, zero_vector(n2)) for r in s1.basis]
    rows += [concat_vec(zero_vector(n1), r) for r in s2.basis]
    return ExactSubspace.span(rows, ambient_dim=n1 + n2)


@dataclass(frozen=True)
class QuotientMap:
    """Coordinates on W1/W0 through a chosen complement basis inside W1."""

    w1: ExactSubspace
    w0: ExactSubspace
    complement: Matrix

    @property
    def dim(self) -> int:
        return len(self.complement)

    def coords(self, v: Iterable) -> Vector:
        """Quotient coordinates of v (requires v in W1)."""
        v = vector(v)
        rows = list(self.w0.basis) + list(self.complement)
        coef = solve(transpose(matrix(rows)), v) if rows else ()
        if coef is None and rows:
            raise DimensionMismatchError("vector not in W1")
        if not rows:
            if any(x != 0 for x in v):
                raise DimensionMismatchError("vector not in W1")
            return ()
        return tuple(coef[self.w0.dim:])

    def lift(self, coords: Iterable) -> Vector:
        coords = vector(coords)
        out = zero_vector(self.w1.ambient_dim)
        for c, row in zip(coords, self.complement, strict=True):
            out = add_vec(out, scale_vec(c, row))
        return out

    def map_subspace(self, s: ExactSubspace) -> ExactSubspace:
        """Image of (S cap W1) in the quotient coordinates."""
        inter = s.intersect(self.w1)
        return ExactSubspace.span(
            [self.coords(row) for row in inter.basis], ambient_dim=self.dim
        )


def quotient_coords(w1: ExactSubspace, w0: ExactSubspace) -> QuotientMap:
    """Quotient W1/W0 with a greedily chosen complement basis."""
    w1._check(w0)
    if not w1.contains_subspace(w0):
        raise ValueError("W0 is not contained in W1")
    chosen: list[Vector] = []
    current = w0
    for row in w1.basis:
        if not current.contains(row):
            chosen.append(row)
            current = current.sum(ExactSubspace.span([row]))
    return QuotientMap(w1, w0, tuple(chosen))


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric bilinear form given by its Gram matrix."""

    matrix: Matrix
    # the Gram matrix as integer rows over one common denominator
    _ints: tuple[tuple[list[int], ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m != transpose(m):
            raise ValueError("bilinear form must be symmetric")
        nums, den = _over_lcm([x for row in m for x in row])
        n = len(m)
        rows = tuple(nums[i * n:(i + 1) * n] for i in range(n))
        object.__setattr__(self, "_ints", (rows, den))

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

    def signature(self) -> tuple[int, int, int]:
        """(positives, negatives, zeros) via exact congruence diagonalization.

        Works on the integer Gram matrix: scaling by a positive number is a
        congruence, so each step replaces the trailing block by |d| times
        its Schur complement and then divides it by its content.
        """
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
        if not s.basis:
            return ExactSubspace.full(self.dim)
        # the form is symmetric, so row i of basis * G is G applied to row i
        return nullspace(mat_mul(s.basis, self.matrix), self.dim)

    def is_isotropic(self, s: ExactSubspace) -> bool:
        if s.ambient_dim != self.dim:
            raise DimensionMismatchError("subspace not in the form's space")
        gram = _products(mat_mul(s.basis, self.matrix), s.basis, self.dim)
        return not any(x for row in gram for x in row)

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


def orth_complement(s: ExactSubspace, form: BilinearForm) -> ExactSubspace:
    return form.orth_complement(s)


@_lru_cache(maxsize=256)
def _nondegenerate(m: Matrix) -> bool:
    return det(m) != 0


def vector_to_json(v: Vector) -> list[str]:
    return [str(x) for x in v]


def vector_from_json(data: Sequence) -> Vector:
    return vector(data)
