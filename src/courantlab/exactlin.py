"""Exact linear algebra over the rationals.

Every exact matrix is an integer table (rows, den): integer rows over one
positive denominator.  ``int_matrix`` is the one way in: it puts a
matrix of int, Fraction or 'p/q' entries over the lcm of its
denominators (a float raises TypeError at every entry point), and
``frac_matrix`` is the one way back, normalising each entry once, for
the Fraction views read at the edges (JSON out, the report); ``matrix``
coerces exact input given as Fractions (JSON in, the literal context
data).  Every dense exact product is one ``int_products`` (a
chain of tables is one ``table_product``), and a sparse factor (a Gram
matrix, a kernel basis) is read by its nonzeros; every elimination
(rank, kernels, inverses, spans, membership, coordinates) is one
fraction-free ``_eliminate`` of integer rows.

A subspace is stored as its reduced row echelon basis with lowest-index
pivots, written as primitive integer rows with positive pivots, so two
equal subspaces have identical stored rows and subspace equality is
plain structural equality.  The zero subspace keeps an explicit ambient
dimension and no rows.  The subspace operations (sum, intersection,
kernels, orthogonal complements, isotropy, meets) work on the integer
rows alone; the unit-pivot Fraction basis is a view, built on first
read.  A ``BilinearForm`` keeps its Gram matrix as an integer table and
its inverse as one integer elimination of [A | I] (``_inverse_rows``);
nonsingularity is decided by rank.

Block matrices are laid out here alone: ``hstack`` joins blocks row by
row, and ``zeros``, ``identity`` and ``block_diag`` (int entries) pad
and fill them.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntRows = tuple[tuple[int, ...], ...]


class DimensionMismatchError(ValueError):
    """Raised when an input has the wrong shape, or when operands live
    in different ambient spaces."""


class SingularMatrixError(ValueError):
    """Raised when an exact inverse does not exist."""


class NotLagrangianError(ValueError):
    """Raised when an operation needs a Lagrangian subspace (or a
    Lagrangian splitting) and is given something else."""


class Frozen:
    """The base of the package's immutable value classes.

    A subclass sets its fields once, in its own ``__init__``, by
    ``object.__setattr__`` (a write to ``self.__dict__`` would build each
    instance's dict and about double its size); assigning to or deleting
    an attribute afterwards raises AttributeError.  The class keyword
    ``fields`` names, in order, the fields the repr prints, and
    ``compared`` those that equality and hashing read (by default
    ``fields``): instances of one class are equal when the tuples of
    those fields are, and the hash is the tuple's.  With
    ``compared=None`` an instance equals only itself.  Instances keep a
    ``__dict__``, so ``cached_property`` works on them.
    """

    def __init_subclass__(cls, fields: tuple[str, ...] = (), compared: tuple[str, ...] | None = (),
                          **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields
        if compared is None:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
            return
        compared = compared or fields
        get = attrgetter(*compared)
        # attrgetter of one name gives the value, not a 1-tuple
        cls._key = staticmethod(get if len(compared) > 1 else lambda obj: (get(obj),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


def frac(x) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def matrix(rows: Iterable[Iterable]) -> Matrix:
    """Rows of int, Fraction or 'p/q' entries as Fractions: the coercion
    of exact input at the edges (JSON, literal data, the report)."""
    out = tuple(tuple(map(frac, r)) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix rows")
    return out


def zero_vector(n: int) -> tuple[int, ...]:
    return (0,) * n


def zeros(r: int, c: int) -> IntRows:
    """The r x c zero matrix.  zeros(r, 0) is r empty rows: the block
    ``hstack`` takes for no columns."""
    return (zero_vector(c),) * r


def identity(n: int) -> IntRows:
    """The n x n identity; its rows are the unit vectors of Q^n."""
    zero = zero_vector(n)
    return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))


def hstack(*blocks: Sequence[Sequence]) -> Matrix:
    """The rows of [B1 | B2 | ...]: the one home of block rows.  Raises
    DimensionMismatchError when the blocks have different row counts."""
    if len({len(b) for b in blocks}) > 1:
        raise DimensionMismatchError("blocks have different row counts")
    return tuple(tuple(chain.from_iterable(rows)) for rows in zip(*blocks))


def block_diag(*blocks: Matrix) -> Matrix:
    """The block diagonal matrix of the blocks, which need not be square.
    Entries are placed, not computed, so float blocks place too."""
    widths = [len(b[0]) if len(b) else 0 for b in blocks]
    total, before, rows = sum(widths), 0, ()
    for b, w in zip(blocks, widths):
        rows += hstack(zeros(len(b), before), b, zeros(len(b), total - before - w))
        before += w
    return rows


_ZERO = Fraction(0)


# A Fraction's own numerator and denominator fields, read at C speed; an
# entry that lacks them is its own numerator (an int) or coerced by frac.
_FRACTION_PARTS = attrgetter("_numerator", "_denominator")


def _over_lcm(v: Sequence) -> tuple[list[int], int]:
    """Integer numerators of v over the lcm of its denominators; an int is
    its own numerator, and frac coerces the rest (TypeError on a float)."""
    try:
        pairs = list(map(_FRACTION_PARTS, v))
    except AttributeError:
        pairs = [(x, 1) if type(x) is int else _FRACTION_PARTS(frac(x)) for x in v]
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // d) for n, d in pairs], den


def int_matrix(A: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A as integer rows over the lcm of all its entries' denominators:
    the one way from exact input (int, Fraction or 'p/q' entries) into
    integer rows, for every product, elimination and check.  Raises
    DimensionMismatchError on ragged rows and TypeError on a float."""
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise DimensionMismatchError("ragged matrix rows")
    nums, den = _over_lcm([x for row in A for x in row])
    return tuple(tuple(nums[i * n:(i + 1) * n]) for i in range(len(A))), den


def int_products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """The table r . c over integer rows r and columns c: the one exact
    matrix product."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def _nonzeros(rows: Iterable[Sequence[int]]) -> list[tuple[tuple[int, int], ...]]:
    """Each integer row as its nonzeros ((i, x_i), ...)."""
    return [tuple((i, x) for i, x in enumerate(row) if x) for row in rows]


def _sparse_products(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[tuple]]) -> list[list[int]]:
    """The table r . c over integer rows r and columns c given by their
    nonzeros: a product whose second factor is sparse, read by its nonzeros."""
    out = []
    for r in rows:
        row = []
        for col in cols:
            total = 0
            for i, x in col:
                total += r[i] * x
            row.append(total)
        out.append(row)
    return out


def lowest_terms(table: Iterable[Iterable[int]], den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """An integer table over den > 0 with the gcd of den and every entry
    divided out: equal matrices give equal pairs, the pair int_matrix gives."""
    rows = tuple(map(tuple, table))
    g = gcd(den, *chain.from_iterable(rows))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def frac_matrix(table: Iterable[Iterable[int]], den: int) -> Matrix:
    """An integer table over den as Fraction rows: the one way back from
    an integer product, normalising each entry once."""
    return tuple(tuple(Fraction(x, den) if x else _ZERO for x in row) for row in table)


# An empty matrix () also stands for an n x 0 one (the transpose of a 0 x n
# matrix), so a product with an empty right factor has no columns.


def table_product(*tables: tuple[Sequence[Sequence[int]], int]) -> tuple[list, int]:
    """The product of a chain of integer tables (rows, den) as one table by
    ``int_products``; DimensionMismatchError when neighbours' shapes disagree."""
    table, den = tables[0]
    for b, db in tables[1:]:
        if b and table and len(table[0]) != len(b):
            raise DimensionMismatchError("matrix shapes disagree")
        table, den = int_products(table, list(zip(*b))) if b else [() for _ in table], den * db
    return table, den


def _eliminate(work: list[list[int]], ncols: int, reduced: bool) -> list[int]:
    """Fraction-free row reduction of integer rows, in place.

    A row is cleared at a pivot column by cross-multiplying it with the
    pivot row, then divided by its content (the gcd of its entries).
    With ``reduced`` the rows above each pivot are cleared too.  Returns
    the pivot columns, in row order.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        for piv in range(r, len(work)):
            if work[piv][c]:
                break
        else:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
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
            work[i] = row
        pivots.append(c)
        r += 1
    return pivots


def _rref(work: list, ncols: int) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The reduced row echelon form of integer rows (consumed) as
    primitive rows with positive pivots, zero rows dropped, and its
    pivot columns."""
    pivots = _eliminate(work, ncols, reduced=True)
    out = []
    for row, c in zip(work, pivots):
        content = gcd(*row)
        if row[c] < 0:
            content = -content
        out.append(tuple(row) if content == 1 else tuple(x // content for x in row))
    return tuple(out), pivots


def _unit_pivot(rows: Iterable[Sequence[int]]) -> Matrix:
    """Fraction rows of integer echelon rows, each divided by its pivot."""
    return tuple(frac_matrix((row,), next(filter(None, row)))[0] for row in rows)


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
    pivots = _eliminate(work, k, reduced=False)
    return [row[k:] for row in work[len(pivots):]]


def rank(A: Sequence[Sequence]) -> int:
    work = list(int_matrix(A)[0])
    if not work:
        return 0
    return len(_eliminate(work, len(work[0]), reduced=False))


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


def _inverse_rows(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """The inverse of a square integer matrix as integer rows over one
    positive denominator, from one fraction-free reduced elimination of
    [A | I]; raises SingularMatrixError."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if len(_eliminate(aug, n, reduced=True)) < n:
        raise SingularMatrixError("matrix is singular")
    # row i of the reduced [A | I] is p_i e_i | p_i (row i of A^-1)
    den = lcm(*[row[i] for i, row in enumerate(aug)])
    return [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(aug)], den


def _inverse_of(ints: tuple[Sequence[Sequence[int]], int]) -> tuple[list[list[int]], int]:
    """(N / den)^-1 = den * N^-1 as integer rows over one denominator, for
    integer rows N over den; raises SingularMatrixError."""
    rows, den = ints
    inv, inv_den = _inverse_rows(rows)
    return [[den * x for x in row] for row in inv], inv_den


class ExactSubspace(Frozen, fields=("ambient_dim", "rows")):
    """A subspace of Q^ambient_dim stored as its canonical basis: the
    reduced row echelon rows as primitive integer rows with positive
    pivots.  They determine the unit-pivot RREF and are determined by
    it, so equality, hashing and the repr read ``rows`` alone.

    Build one through ``of_rows``, ``span``, ``zero`` or ``full``, which
    keep the rows canonical.
    """

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def of_rows(cls, ambient_dim: int, work: list) -> "ExactSubspace":
        """The span of integer rows of length ambient_dim (consumed)."""
        return cls(ambient_dim, _rref(work, ambient_dim)[0])

    @classmethod
    def span(cls, vectors: Sequence[Sequence], ambient_dim: int | None = None) -> "ExactSubspace":
        work = list(int_matrix(vectors)[0])
        if work:
            n = len(work[0])
            if ambient_dim is not None and ambient_dim != n:
                raise DimensionMismatchError("ambient_dim disagrees with vectors")
            ambient_dim = n
        elif ambient_dim is None:
            raise DimensionMismatchError("empty span needs an explicit ambient_dim")
        return cls.of_rows(ambient_dim, work)

    @classmethod
    def zero(cls, ambient_dim: int) -> "ExactSubspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "ExactSubspace":
        return cls(ambient_dim, tuple(tuple(int(i == j) for j in range(ambient_dim))
                                      for i in range(ambient_dim)))

    @cached_property
    def basis(self) -> Matrix:
        """The canonical basis with unit pivots, as Fractions; built on
        first read."""
        return _unit_pivot(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the subspace; DimensionMismatchError when v
        has another length."""
        (row,), _ = int_matrix((v,))
        if len(row) != self.ambient_dim:
            raise DimensionMismatchError("vector not in ambient space")
        return self._spans((row,))

    def contains_subspace(self, other: "ExactSubspace") -> bool:
        self._check(other)
        return self._spans(other.rows)

    def _spans(self, rows: tuple[tuple[int, ...], ...]) -> bool:
        """Whether integer rows lie in the span: stacked under ``rows``
        they add no pivot to one elimination."""
        work = list(self.rows + rows)
        return len(_eliminate(work, self.ambient_dim, reduced=False)) == self.dim

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
        return cls.span(matrix(data["basis"]), ambient_dim=dim)


def product_subspace(s1: ExactSubspace, s2: ExactSubspace) -> ExactSubspace:
    """S1 x S2 inside Q^(n1+n2), block coordinates in the given order."""
    n1, n2 = s1.ambient_dim, s2.ambient_dim
    # the block rows of two reduced echelon bases are one already
    rows = tuple(r + (0,) * n2 for r in s1.rows) + tuple((0,) * n1 + r for r in s2.rows)
    return ExactSubspace(n1 + n2, rows)


class Coordinatizer(Frozen, fields=("ambient_dim", "pivots", "inverse_columns", "row_columns", "span")):
    """Exact coordinates over a basis of independent rows of Q^ambient_dim.

    The pivot columns of the rows' RREF pick k entries at which the
    k x k block of the rows is invertible.  The coordinates of v are its
    entries there times the inverse block, and they count only when they
    rebuild v exactly; otherwise v lies outside ``span``, the name the
    error gives.  Both products read integer columns over one
    denominator, kept from one ``int_matrix`` of the rows: those of the
    inverse block and those of the rows.  ``coords_ints`` takes integer
    rows over a denominator and gives an integer table.
    """

    def __init__(self, ambient_dim: int, pivots: tuple[int, ...],
                 inverse_columns: tuple[tuple[tuple[int, ...], ...], int],
                 row_columns: tuple[tuple[tuple[int, ...], ...], int], span: str = "the span"):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "inverse_columns", inverse_columns)
        object.__setattr__(self, "row_columns", row_columns)
        object.__setattr__(self, "span", span)

    @classmethod
    def of_rows(cls, rows: Sequence[Sequence], ambient_dim: int,
                span: str = "the span") -> "Coordinatizer":
        """Raises DimensionMismatchError on rows of the wrong length and
        ValueError on dependent rows."""
        ints, den = int_matrix(rows)
        if ints and len(ints[0]) != ambient_dim:
            raise DimensionMismatchError("coordinate rows not in the ambient space")
        pivots = tuple(_rref(list(ints), ambient_dim)[1])
        if len(pivots) != len(ints):
            raise ValueError("coordinate rows are linearly dependent")
        inv, inv_den = _inverse_rows([[row[p] for p in pivots] for row in ints])
        # (N / den)^-1 = den * N^-1; k = 0 rows still have ambient_dim (empty) columns
        inverse_columns = tuple(zip(*[[den * x for x in row] for row in inv]))
        row_columns = tuple(zip(*ints)) if ints else ((),) * ambient_dim
        return cls(ambient_dim, pivots, (inverse_columns, inv_den), (row_columns, den), span)

    def coords_ints(self, ints: Sequence[Sequence[int]], den: int) -> tuple[list[list[int]], int]:
        """Coordinates of integer rows over den as an integer table over one
        denominator: one product, then one exact rebuild check on integers;
        DimensionMismatchError on a row of the wrong length or outside the span."""
        if ints and len(ints[0]) != self.ambient_dim:
            raise DimensionMismatchError("vector not in the ambient space")
        inverse_cols, inverse_den = self.inverse_columns
        row_cols, row_den = self.row_columns
        coef = int_products([[v[p] for p in self.pivots] for v in ints], inverse_cols)
        # coef / (den inverse_den) . row_cols / row_den == ints / den
        scale = inverse_den * row_den
        if int_products(coef, row_cols) != [[scale * x for x in v] for v in ints]:
            raise DimensionMismatchError(f"vector not in {self.span}")
        return coef, den * inverse_den


class BilinearForm(Frozen, fields=("_ints",)):
    """A symmetric bilinear form, kept as its Gram matrix's integer rows
    over one common denominator in lowest terms, which decide equality
    and hashing.  ``BilinearForm(entries)`` takes an exact matrix (a float
    entry raises TypeError), ``of_ints`` an integer table, and the
    Fraction ``matrix`` is built on first read."""

    def __init__(self, entries: Sequence[Sequence] | None, *, _ints: tuple | None = None):
        if _ints is None:
            _ints = int_matrix(entries)
        rows = _ints[0]
        if rows != tuple(zip(*rows)):
            raise ValueError("bilinear form must be symmetric")
        object.__setattr__(self, "_ints", _ints)
        # the nonzeros of each Gram column, not compared
        object.__setattr__(self, "_columns", tuple(_nonzeros(rows)))

    @classmethod
    def of_ints(cls, table: Iterable[Iterable[int]], den: int) -> "BilinearForm":
        """The form of the Gram table / den (den > 0), kept in lowest terms."""
        return cls(None, _ints=lowest_terms(table, den))

    @cached_property
    def matrix(self) -> Matrix:
        """The Gram matrix as Fractions, read back from the kept rows."""
        return frac_matrix(*self._ints)

    @property
    def dim(self) -> int:
        return len(self._ints[0])

    def is_nondegenerate(self) -> bool:
        # Sylvester: the zeros of the signature count n - rank
        return self._signature[2] == 0

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        """B^-1 as integer rows over one denominator, built on first use; SingularMatrixError."""
        return _inverse_of(self._ints)

    @cached_property
    def _inverse_columns(self) -> list[tuple[tuple[int, int], ...]]:
        """The nonzeros of each column (row) of B^-1, built on first use; SingularMatrixError."""
        return _nonzeros(self._inverse[0])

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
        return ExactSubspace.of_rows(self.dim, _kernel_rows(self._applied(s.rows), self.dim))

    def _applied(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """G applied to each integer row (the rows of S G, as G is symmetric)
        up to the Gram denominator, by the nonzeros of each Gram column."""
        return _sparse_products(rows, self._columns)

    def is_isotropic(self, s: ExactSubspace) -> bool:
        if s.ambient_dim != self.dim:
            raise DimensionMismatchError("subspace not in the form's space")
        return not any(map(any, _sparse_products(s.rows, _nonzeros(self._applied(s.rows)))))

    def meet(self, rows: Sequence[Sequence[int]], lag: ExactSubspace) -> list[list[int]]:
        """The combinations of integer rows whose parts P = row[:dim] pair to
        zero with L, the kernel of L G P^T: when L = L-perp, which the caller
        decides first, S cap L with no Zassenhaus stack over 2 dim columns.
        DimensionMismatchError when L is not in the form's space."""
        if lag.ambient_dim != self.dim:
            raise DimensionMismatchError("subspace not in the form's space")
        table = _sparse_products([r[:self.dim] for r in rows], _nonzeros(self._applied(lag.rows)))
        kernel = _kernel_rows(list(zip(*table)), len(rows))
        return [list(c) for c in zip(*_sparse_products(list(zip(*rows)), _nonzeros(kernel)))]

    def is_coisotropic(self, s: ExactSubspace) -> bool:
        return s.contains_subspace(self.orth_complement(s))

    def is_lagrangian(self, s: ExactSubspace) -> bool:
        if self.is_nondegenerate():
            return 2 * s.dim == self.dim and self.is_isotropic(s)
        return self.orth_complement(s) == s

    def direct_sum(self, other: "BilinearForm") -> "BilinearForm":
        """B (+) C, its two integer blocks put over one denominator."""
        (a, da), (b, db) = self._ints, other._ints
        den = lcm(da, db)
        return BilinearForm.of_ints(block_diag([[x * (den // da) for x in row] for row in a],
                                               [[x * (den // db) for x in row] for row in b]), den)

    def negate(self) -> "BilinearForm":
        rows, den = self._ints
        return BilinearForm.of_ints([[-x for x in row] for row in rows], den)
