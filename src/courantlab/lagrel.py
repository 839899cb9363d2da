"""Lagrangian relations between split-form vector spaces.

A relation W -> W' is stored as a Lagrangian subspace of W' (+) W-bar,
with block order (target, source).  Composition, transpose, kernels and
ranges, backward images of Lagrangian subspaces, splitting bivectors,
and the splitting-relatedness predicate all live here, on integer rows.
Everything is exact.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import neg

from .exactlin import (
    BilinearForm,
    DimensionMismatchError,
    ExactSubspace,
    Frozen,
    Matrix,
    NotLagrangianError,
    Vector,
    _eliminate,
    _inverse_rows,
    frac_matrix,
    hstack,
    identity,
    int_matrix,
    int_products,
    lowest_terms,
    zero_prefix_rows,
    zeros,
)
from .quadlie import QuadraticLieAlgebra


class TransversalityError(ValueError):
    """Backward image through a relation whose co-kernel meets the subspace."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


class SplitSpace(Frozen, fields=("dim", "form")):
    """Even-dimensional space whose form has signature (n/2, n/2)."""

    def __init__(self, dim: int, form: BilinearForm):
        if form.dim != dim:
            raise DimensionMismatchError("form does not match dimension")
        if dim % 2 != 0:
            raise ValueError("split spaces are even-dimensional")
        pos, neg, zer = form.signature()
        if zer or pos != neg:
            raise ValueError(f"form signature {(pos, neg, zer)} is not split")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "form", form)

    def direct_sum(self, other: "SplitSpace") -> "SplitSpace":
        return SplitSpace(self.dim + other.dim, self.form.direct_sum(other.form))


@lru_cache(maxsize=64)
def hyperbolic_space(k: int) -> SplitSpace:
    """Q^2k with <e_i, f^j> = delta, basis order (e_1..e_k, f^1..f^k),
    built once per k."""
    rows = hstack(zeros(k, k), identity(k)) + hstack(identity(k), zeros(k, k))
    return SplitSpace(2 * k, BilinearForm(rows))


def from_algebra(alg: QuadraticLieAlgebra) -> SplitSpace:
    """The algebra's form as a split space; its signature is computed
    once per form, so repeated calls cost no elimination."""
    return SplitSpace(alg.dim, alg.form)


@lru_cache(maxsize=256)
def graph_form(target: SplitSpace, source: SplitSpace) -> BilinearForm:
    """Form on W' (+) W-bar, built once per pair of spaces."""
    return target.form.direct_sum(source.form.negate())


class LinearRelation(Frozen, fields=("source", "target", "graph")):
    """A Lagrangian subspace of target (+) source-bar, acting W -> W'."""

    def __init__(self, source: SplitSpace, target: SplitSpace, graph: ExactSubspace):
        n = source.dim + target.dim
        if graph.ambient_dim != n:
            raise DimensionMismatchError("graph not in target (+) source")
        if 2 * graph.dim != n:
            raise NotLagrangianError(
                f"graph has dim {graph.dim}, expected {n // 2}"
            )
        gf = graph_form(target, source)
        if not gf.is_isotropic(graph):
            raise NotLagrangianError("graph is not isotropic")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "graph", graph)

    @classmethod
    def from_rows(cls, source: SplitSpace, target: SplitSpace, rows) -> "LinearRelation":
        sub = ExactSubspace.span(rows, ambient_dim=source.dim + target.dim)
        return cls(source, target, sub)

    @classmethod
    def identity_relation(cls, space: SplitSpace) -> "LinearRelation":
        return cls.from_rows(space, space, hstack(identity(space.dim), identity(space.dim)))

    @classmethod
    def graph_of_map(cls, source: SplitSpace, target: SplitSpace, A: Matrix) -> "LinearRelation":
        """Relation {(A w, w)}; A must intertwine the forms."""
        # row j is den (A e_j, e_j) for the integer rows a / den of A:
        # column j of a beside den e_j
        a, den = int_matrix(A)
        a_cols = list(zip(*a)) if a else zeros(source.dim, 0)
        units = [[den * x for x in row] for row in identity(source.dim)]
        return cls.from_rows(source, target, hstack(a_cols, units))

    def kernel(self) -> ExactSubspace:
        """{w : w ~ 0}.

        The graph's echelon rows with a pivot in the source block (which
        comes second) are the ones with a zero target part, and they span
        every graph vector with a zero target part.
        """
        nt = self.target.dim
        return ExactSubspace.of_rows(
            self.source.dim, [r[nt:] for r in self.graph.rows if not any(r[:nt])]
        )

    @cached_property
    def range_(self) -> ExactSubspace:
        """{w' : w ~ w' for some w}, the graph's target parts, built once."""
        nt = self.target.dim
        return ExactSubspace.of_rows(nt, [r[:nt] for r in self.graph.rows])

    @cached_property
    def flipped(self) -> ExactSubspace:
        """The graph eliminated in (source, target) order, built once: its
        rows with a source pivot carry the canonical basis of ran(R^t),
        and the others span ker(R^t) x 0."""
        nt = self.target.dim
        return ExactSubspace.of_rows(self.graph.ambient_dim, [r[nt:] + r[:nt] for r in self.graph.rows])

    @cached_property
    def cokernel(self) -> ExactSubspace:
        """ker(R^t) = {w' : 0 ~ w'}, read off the flipped elimination."""
        ns = self.source.dim
        return ExactSubspace.of_rows(self.target.dim, [r[ns:] for r in self.flipped.rows if not any(r[:ns])])

    def transpose(self) -> "LinearRelation":
        return LinearRelation(self.target, self.source, self.flipped)

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """self after other: (self o other): other.source -> self.target."""
        if self.source != other.target:
            raise DimensionMismatchError("composition spaces do not match")
        nt, nm, ns = self.target.dim, self.source.dim, other.source.dim
        mine, theirs = self.graph.rows, other.graph.rows
        # rows (middle, target, source): (y, x', 0) for (x', y) in self and
        # (-y, 0, x) for (y, x) in other; the pairs matching in the middle
        # are the combinations with a zero middle
        work = list(hstack([r[nt:] for r in mine], [r[:nt] for r in mine], zeros(len(mine), ns)))
        work += hstack([[-x for x in r[:nm]] for r in theirs], zeros(len(theirs), nt), [r[nm:] for r in theirs])
        sub = ExactSubspace.of_rows(nt + ns, zero_prefix_rows(work, nm))
        return LinearRelation(other.source, self.target, sub)

    def __mul__(self, other: "LinearRelation") -> "LinearRelation":
        return self.compose(other)

    def to_json(self) -> dict:
        return {
            "source_dim": self.source.dim,
            "target_dim": self.target.dim,
            "graph_basis": [[str(x) for x in row] for row in self.graph.basis],
        }


def _graph_over(eprime: ExactSubspace, r: LinearRelation) -> list[list[int]]:
    """Integer rows spanning R cap (E' x W): the graph rows meeting a Lagrangian E'."""
    if not r.target.form.is_lagrangian(eprime):
        raise NotLagrangianError("backward image needs a Lagrangian subspace")
    return r.target.form.meet(r.graph.rows, eprime)


def backward_image_subspace(eprime: ExactSubspace, r: LinearRelation) -> ExactSubspace:
    """The set {w : exists w' in E' with w ~ w'}; Lagrangian whenever E' is.

    No transversality is required here, but without it the comparison
    map to E' is not unique (use backward_image for that).
    """
    nt = r.target.dim
    return ExactSubspace.of_rows(r.source.dim, [row[nt:] for row in _graph_over(eprime, r)])


def backward_image(eprime: ExactSubspace, r: LinearRelation) -> tuple[ExactSubspace, Matrix]:
    """Backward image E = E' o R and the comparison map alpha: E -> E'.

    alpha is returned as a matrix over E's stored basis: row i is the
    unique x' in E' with (basis row i) ~ x'.  Raises TransversalityError
    with a witness when E' meets ker(R^t) nontrivially (alpha would not
    be unique there).
    """
    bad = eprime.intersect(r.cokernel)
    if bad.dim:
        raise TransversalityError(
            "subspace meets the relation's co-kernel", bad.basis[0]
        )
    inter = _graph_over(eprime, r)
    nt, ns = r.target.dim, r.source.dim
    # Transversality makes (x', x) -> x injective on the intersection, so
    # its echelon basis in (source, target) order has every pivot in the
    # source block: the source parts are E's canonical basis, and the
    # target parts their images alpha(x).
    pairs = ExactSubspace.of_rows(nt + ns, [row[nt:] + row[:nt] for row in inter])
    e = ExactSubspace.of_rows(ns, [row[:ns] for row in pairs.rows])
    return e, tuple(row[ns:] for row in pairs.basis)


class Bivector(Frozen, fields=("_ints",)):
    """Antisymmetric coefficient matrix P: pi = sum_{u<v} P[u][v] d_u ^ d_v,
    kept as integer rows over the lcm of its denominators, which its checks
    eliminate and which decide equality; ``Bivector(entries)`` takes the
    matrix, and the Fraction ``matrix`` is built on first read."""

    def __init__(self, entries: Matrix | None, *, _ints: tuple | None = None):
        if _ints is None:
            _ints = int_matrix(entries)
        rows = _ints[0]
        if rows != tuple(tuple(map(neg, col)) for col in zip(*rows)):
            raise ValueError("bivector matrix must be antisymmetric")
        object.__setattr__(self, "_ints", _ints)

    @classmethod
    def of_ints(cls, table: list[list[int]], den: int) -> "Bivector":
        """The bivector table / den (den > 0), keeping the table over the
        lcm of the entries' denominators, den / gcd(den, entries)."""
        return cls(None, _ints=lowest_terms(table, den))

    @cached_property
    def matrix(self) -> Matrix:
        return frac_matrix(*self._ints)

    @property
    def dim(self) -> int:
        return len(self._ints[0])

    @cached_property
    def rank(self) -> int:
        """The matrix rank, one elimination of the kept rows."""
        return len(_eliminate(list(self._ints[0]), self.dim, reduced=False))

    def sharp_range(self) -> ExactSubspace:
        # P^T = -P spans the same rows as P
        return ExactSubspace.of_rows(self.dim, list(self._ints[0]))


class Splitting(Frozen, fields=("space", "e", "f")):
    """A Lagrangian splitting W = E (+) F with its point-independent data.

    Construction checks that E and F lie in W and are transverse
    Lagrangians (raising DimensionMismatchError or NotLagrangianError
    otherwise).  The dual frame of F, kept as integer rows over one
    denominator from one elimination, is built on first use; the duals
    f^i, Pi = (1/2) sum e_i ^ f^i and the projector pair read it and are
    kept, so pointwise bivectors a(Pi) reuse one Pi.
    """

    def __init__(self, space: SplitSpace, e: ExactSubspace, f: ExactSubspace):
        form = space.form
        if e.ambient_dim != space.dim or f.ambient_dim != space.dim:
            raise DimensionMismatchError("splitting subspaces are not in the space")
        if not (form.is_lagrangian(e) and form.is_lagrangian(f)):
            raise NotLagrangianError("splitting requires two Lagrangian subspaces")
        # Lagrangians of a split space have half its dimension, so E and F
        # meet in zero exactly when they span it
        if e.sum(f).dim != space.dim:
            raise NotLagrangianError("splitting subspaces are not transverse")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)

    @classmethod
    def of_algebra(cls, alg: QuadraticLieAlgebra, e: ExactSubspace, f: ExactSubspace) -> "Splitting":
        return cls(from_algebra(alg), e, f)

    def splits(self, w: ExactSubspace) -> bool:
        """Whether W = (W cap E) + (W cap F): its two meets have dim W rows, as E cap F = 0."""
        self.e._check(w)
        return sum(len(self.space.form.meet(w.rows, half)) for half in (self.e, self.f)) == w.dim

    @cached_property
    def _dual_frame(self) -> tuple[list[list[int]], int]:
        """The frame D of F with <e.rows[i], D[j]> = delta, as integer rows
        over one denominator: D = (G / n)^-T F = n G^-T F for the Gram
        matrix G = E N F^T of the rows and the form N / n."""
        form_rows, form_den = self.space.form._ints
        gram = int_products(int_products(self.e.rows, form_rows), self.f.rows)
        inv, den = _inverse_rows(gram)
        # row j of G^-T F is column j of G^-1 against F's columns
        d = int_products(list(zip(*inv)), list(zip(*self.f.rows)))
        return [[form_den * x for x in row] for row in d], den

    @cached_property
    def duals(self) -> Matrix:
        """Basis f^i of F with <e_i, f^j> = delta over E's stored basis,
        which is e.rows over their pivots: the dual frame times them."""
        d, den = self._dual_frame
        pivots = [next(filter(None, row)) for row in self.e.rows]
        return frac_matrix([[p * x for x in row] for p, row in zip(pivots, d)], den)

    @cached_property
    def bivector(self) -> Bivector:
        return splitting_bivector(self)

    @cached_property
    def projector_ints(self) -> tuple[tuple[list[list[int]], list[list[int]]], int]:
        """(P_E, P_F) as integer rows over one denominator: the projections
        onto E along F and onto F along E.

        pr_E(w) = sum <w, f^i> e_i, so P_E = E^T D B for the dual frame D
        and the Gram matrix B; P_F = I - P_E.
        """
        d, den = self._dual_frame
        form_rows, form_den = self.space.form._ints
        # B = N / n is symmetric: its columns are N's rows
        d_b = int_products(d, form_rows)
        p_e = int_products(list(zip(*self.e.rows)), list(zip(*d_b)))
        den *= form_den
        p_f = [[den * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(p_e)]
        return (p_e, p_f), den

    @cached_property
    def projectors(self) -> tuple[Matrix, Matrix]:
        """(P_E, P_F) as Fractions, read back from ``projector_ints``."""
        (p_e, p_f), den = self.projector_ints
        return frac_matrix(p_e, den), frac_matrix(p_f, den)


def splitting_bivector(s: Splitting) -> Bivector:
    """Pi = (1/2) sum e_i ^ f^i over the dual frames of a splitting:
    (1/2)(E^T D - D^T E) over E's integer rows and their dual frame D."""
    e = s.e.rows
    d, den = s._dual_frame
    # sum e_i^T d_i - d_i^T e_i as one product of stacked columns
    lhs = list(zip(*(e + tuple(d))))
    rhs = list(zip(*(d + [tuple(map(neg, row)) for row in e])))
    return Bivector.of_ints(int_products(lhs, rhs), 2 * den)


class RelatednessReport(Frozen, fields=("reasons",)):
    """The names of the conditions a relatedness check failed, in the
    order E, F, kernel, range; related when there are none."""

    def __init__(self, reasons: tuple[str, ...]):
        object.__setattr__(self, "reasons", reasons)

    @property
    def related(self) -> bool:
        return not self.reasons


def related_lagrangian(e: ExactSubspace, eprime: ExactSubspace, r: LinearRelation) -> bool:
    """True when the reduced isomorphism carries E_red onto E'_red;
    NotLagrangianError unless E, E' are Lagrangian."""
    if not (r.source.form.is_lagrangian(e) and r.target.form.is_lagrangian(eprime)):
        raise NotLagrangianError("relatedness needs Lagrangian subspaces")
    return _carries(e, eprime, r)


def _carries(e: ExactSubspace, eprime: ExactSubspace, r: LinearRelation) -> bool:
    """R(E) = ker(R^t) + (E' cap ran R) for Lagrangian E, E' (decided by
    the caller): the reduced isomorphism carries E_red onto R(E)/ker(R^t),
    as R(E) contains R(0) = ker(R^t).  R(E) is the target parts of the
    flipped graph's meet with E."""
    nt, ns = r.target.dim, r.source.dim
    image = ExactSubspace.of_rows(nt, [row[ns:] for row in r.source.form.meet(r.flipped.rows, e)])
    return image == r.cokernel.sum(ExactSubspace.of_rows(nt, r.target.form.meet(r.range_.rows, eprime)))


def related_splitting(s: Splitting, s_prime: Splitting, r: LinearRelation) -> RelatednessReport:
    """Whether R relates the splitting s of its source to s_prime of its
    target; NotLagrangianError when they split other spaces."""
    if s.space != r.source or s_prime.space != r.target:
        raise NotLagrangianError("splittings are not on the relation's spaces")
    checks = {"e_not_related": _carries(s.e, s_prime.e, r),
              "f_not_related": _carries(s.f, s_prime.f, r),
              "kernel_not_split": s.splits(r.kernel()),
              "range_not_split": s_prime.splits(r.range_)}
    return RelatednessReport(tuple(name for name, holds in checks.items() if not holds))


def pair_groupoid_relation(dd: QuadraticLieAlgebra) -> LinearRelation:
    """Multiplication relation of the double dd = d (+) d-bar (as
    ``build_double(d)`` makes it) viewed as a pair groupoid.

    Elements compose by (a, b) o (b, c) = (a, c); the relation maps the
    direct-sum space (d (+) d-bar)^2 to d (+) d-bar.
    """
    n = dd.dim // 2
    space_d = from_algebra(dd)
    source = space_d.direct_sum(space_d)
    one, zero = identity(n), zeros(n, n)
    # parameter a: z = (a, 0), z' = (a, 0), z'' = 0
    rows = hstack(one, zero, one, zero, zero, zero)
    # parameter b: z = 0, z' = (0, b), z'' = (b, 0)
    rows += hstack(zero, zero, zero, one, one, zero)
    # parameter c: z = (0, c), z' = 0, z'' = (0, c)
    rows += hstack(zero, one, zero, zero, zero, one)
    return LinearRelation.from_rows(source, space_d, rows)
