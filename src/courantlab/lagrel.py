"""Lagrangian relations between split-form vector spaces.

A relation W -> W' is stored as a Lagrangian subspace of W' (+) W-bar,
with block order (target, source).  Composition, transpose, kernels and
ranges, the reduced isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t),
backward images of Lagrangian subspaces, splitting bivectors and their
coisotropic reduction, and the splitting-relatedness predicate all live
here.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable

from .exactlin import (
    BilinearForm,
    Coordinatizer,
    DimensionMismatchError,
    ExactSubspace,
    Matrix,
    NotLagrangianError,
    QuotientMap,
    Vector,
    concat_vec,
    identity,
    inverse,
    mat_mul,
    mat_vec,
    matrix,
    product_subspace,
    quotient_coords,
    rank,
    scale_vec,
    transpose,
    vector,
    zero_prefix_rows,
    zero_vector,
)
from .quadlie import QuadraticLieAlgebra


class TransversalityError(ValueError):
    """Backward image through a relation whose co-kernel meets the subspace."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


class ReductionError(ValueError):
    """Bivector does not descend; carries a witness vector."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SplitSpace:
    """Even-dimensional space whose form has signature (n/2, n/2)."""

    dim: int
    form: BilinearForm

    def __post_init__(self):
        if self.form.dim != self.dim:
            raise DimensionMismatchError("form does not match dimension")
        if self.dim % 2 != 0:
            raise ValueError("split spaces are even-dimensional")
        pos, neg, zer = self.form.signature()
        if zer or pos != neg:
            raise ValueError(f"form signature {(pos, neg, zer)} is not split")

    def opposite(self) -> "SplitSpace":
        return SplitSpace(self.dim, self.form.negate())

    def direct_sum(self, other: "SplitSpace") -> "SplitSpace":
        return SplitSpace(self.dim + other.dim, self.form.direct_sum(other.form))


@lru_cache(maxsize=64)
def hyperbolic_space(k: int) -> SplitSpace:
    """Q^2k with <e_i, f^j> = delta, basis order (e_1..e_k, f^1..f^k),
    built once per k."""
    rows = []
    for i in range(2 * k):
        row = [Fraction(0)] * 2 * k
        row[(i + k) % (2 * k)] = Fraction(1)
        rows.append(tuple(row))
    return SplitSpace(2 * k, BilinearForm(tuple(rows)))


def from_algebra(alg: QuadraticLieAlgebra) -> SplitSpace:
    """The algebra's form as a split space; its signature is computed
    once per form, so repeated calls cost no elimination."""
    return SplitSpace(alg.dim, alg.form)


@lru_cache(maxsize=256)
def graph_form(target: SplitSpace, source: SplitSpace) -> BilinearForm:
    """Form on W' (+) W-bar, built once per pair of spaces."""
    return target.form.direct_sum(source.form.negate())


@dataclass(frozen=True)
class LinearRelation:
    """A Lagrangian subspace of target (+) source-bar, acting W -> W'."""

    source: SplitSpace
    target: SplitSpace
    graph: ExactSubspace

    def __post_init__(self):
        n = self.source.dim + self.target.dim
        if self.graph.ambient_dim != n:
            raise DimensionMismatchError("graph not in target (+) source")
        if 2 * self.graph.dim != n:
            raise NotLagrangianError(
                f"graph has dim {self.graph.dim}, expected {n // 2}"
            )
        gf = graph_form(self.target, self.source)
        if not gf.is_isotropic(self.graph):
            raise NotLagrangianError("graph is not isotropic")

    @classmethod
    def from_rows(cls, source: SplitSpace, target: SplitSpace, rows) -> "LinearRelation":
        sub = ExactSubspace.span(rows, ambient_dim=source.dim + target.dim)
        return cls(source, target, sub)

    @classmethod
    def identity_relation(cls, space: SplitSpace) -> "LinearRelation":
        rows = [concat_vec(r, r) for r in identity(space.dim)]
        return cls.from_rows(space, space, rows)

    @classmethod
    def graph_of_map(cls, source: SplitSpace, target: SplitSpace, A: Matrix) -> "LinearRelation":
        """Relation {(A w, w)}; A must intertwine the forms."""
        rows = [
            concat_vec(mat_vec(A, e), e) for e in identity(source.dim)
        ]
        return cls.from_rows(source, target, rows)

    def holds(self, w: Iterable, wprime: Iterable) -> bool:
        """True when w ~ w' through the relation."""
        return self.graph.contains(concat_vec(vector(wprime), vector(w)))

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

    def range_(self) -> ExactSubspace:
        nt = self.target.dim
        return ExactSubspace.of_rows(nt, [r[:nt] for r in self.graph.rows])

    def transpose(self) -> "LinearRelation":
        nt = self.target.dim
        sub = ExactSubspace.of_rows(self.graph.ambient_dim, [r[nt:] + r[:nt] for r in self.graph.rows])
        return LinearRelation(self.target, self.source, sub)

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """self after other: (self o other): other.source -> self.target."""
        if self.source != other.target:
            raise DimensionMismatchError("composition spaces do not match")
        nt, nm, ns = self.target.dim, self.source.dim, other.source.dim
        # rows (middle, target, source): (y, x', 0) for (x', y) in self and
        # (-y, 0, x) for (y, x) in other; the pairs matching in the middle
        # are the combinations with a zero middle
        work = [r[nt:] + r[:nt] + (0,) * ns for r in self.graph.rows]
        work += [tuple(-x for x in r[:nm]) + (0,) * nt + r[nm:] for r in other.graph.rows]
        sub = ExactSubspace.of_rows(nt + ns, zero_prefix_rows(work, nm))
        return LinearRelation(other.source, self.target, sub)

    def __mul__(self, other: "LinearRelation") -> "LinearRelation":
        return self.compose(other)

    @cached_property
    def reduced_iso(self) -> "ReducedIso":
        """The isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t) that maps [w]
        to [w'] whenever w ~ w', built once; NotLagrangianError when the
        induced map is not invertible.

        One elimination of the graph in (source, target) order gives both
        source-side spaces: its rows with a source pivot carry the
        canonical basis of ran(R^t), each with an image, and the others
        span ker(R^t) x 0.
        """
        nt, ns = self.target.dim, self.source.dim
        flipped = ExactSubspace.of_rows(nt + ns, [r[nt:] + r[:nt] for r in self.graph.rows])
        with_image = [r for r in flipped.basis if any(r[:ns])]
        qs = quotient_coords(
            ExactSubspace.of_rows(ns, [r[:ns] for r in flipped.rows if any(r[:ns])]),
            self.kernel(),
        )
        qt = quotient_coords(
            self.range_(),
            ExactSubspace.of_rows(nt, [r[ns:] for r in flipped.rows if not any(r[:ns])]),
        )
        # an image of each complement vector: its coordinates over the
        # source parts applied to the target parts
        coef = Coordinatizer.of_rows([r[:ns] for r in with_image], ns, "ran(R^t)").coords_rows(
            qs.complement)
        cols = [qt.coords(img) for img in mat_mul(coef, tuple(r[ns:] for r in with_image))]
        mat = transpose(matrix(cols)) if cols else ()
        if cols and rank(mat) != len(cols):
            raise NotLagrangianError("reduced map failed to be invertible")
        return ReducedIso(qs, qt, mat)

    def to_json(self) -> dict:
        return {
            "source_dim": self.source.dim,
            "target_dim": self.target.dim,
            "graph_basis": [[str(x) for x in row] for row in self.graph.basis],
        }


@dataclass(frozen=True)
class ReducedIso:
    """The induced isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t)."""

    source_quotient: QuotientMap
    target_quotient: QuotientMap
    matrix: Matrix  # columns are images of the source complement basis

    @property
    def dim(self) -> int:
        return len(self.source_quotient.complement)

    def apply_coords(self, c: Vector) -> Vector:
        return mat_vec(self.matrix, c)

    def map_subspace(self, s_red: ExactSubspace) -> ExactSubspace:
        rows = [self.apply_coords(r) for r in s_red.basis]
        return ExactSubspace.span(rows, ambient_dim=self.dim)


def _graph_over(eprime: ExactSubspace, r: LinearRelation) -> ExactSubspace:
    """The part R cap (E' x W) of the graph over a Lagrangian E'."""
    if not r.target.form.is_lagrangian(eprime):
        raise NotLagrangianError("backward image needs a Lagrangian subspace")
    return r.graph.intersect(product_subspace(eprime, ExactSubspace.full(r.source.dim)))


def backward_image_subspace(eprime: ExactSubspace, r: LinearRelation) -> ExactSubspace:
    """The set {w : exists w' in E' with w ~ w'}; Lagrangian whenever E' is.

    No transversality is required here, but without it the comparison
    map to E' is not unique (use backward_image for that).
    """
    nt = r.target.dim
    return ExactSubspace.of_rows(r.source.dim, [row[nt:] for row in _graph_over(eprime, r).rows])


def backward_image(eprime: ExactSubspace, r: LinearRelation) -> tuple[ExactSubspace, Matrix]:
    """Backward image E = E' o R and the comparison map alpha: E -> E'.

    alpha is returned as a matrix over E's stored basis: row i is the
    unique x' in E' with (basis row i) ~ x'.  Raises TransversalityError
    with a witness when E' meets ker(R^t) nontrivially (alpha would not
    be unique there).
    """
    bad = eprime.intersect(r.transpose().kernel())
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
    pairs = ExactSubspace.of_rows(nt + ns, [row[nt:] + row[:nt] for row in inter.rows])
    e = ExactSubspace.of_rows(ns, [row[:ns] for row in pairs.rows])
    return e, tuple(row[ns:] for row in pairs.basis)


@dataclass(frozen=True)
class Bivector:
    """Antisymmetric coefficient matrix P: pi = sum_{u<v} P[u][v] d_u ^ d_v."""

    dim: int
    matrix: Matrix

    def __post_init__(self):
        m = matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m != tuple(tuple(-x for x in row) for row in transpose(m)):
            raise ValueError("bivector matrix must be antisymmetric")

    def contract(self, w: Iterable, form: BilinearForm) -> Vector:
        """iota(w) Pi, the derivation pairing against the split form."""
        bw = form.apply(w)
        return scale_vec(-1, mat_vec(self.matrix, bw))

    def rank(self) -> int:
        return rank(self.matrix)

    def sharp_range(self) -> ExactSubspace:
        return ExactSubspace.span(
            [row for row in transpose(self.matrix)], ambient_dim=self.dim
        )


@dataclass(frozen=True)
class Splitting:
    """A Lagrangian splitting W = E (+) F with its point-independent data.

    Construction checks that E and F lie in W and are transverse
    Lagrangians (raising DimensionMismatchError or NotLagrangianError
    otherwise).  The dual frame f^i of F, Pi = (1/2) sum e_i ^ f^i and
    the projector pair are built on first use and kept, so pointwise
    bivectors a(Pi) reuse one Pi.
    """

    space: SplitSpace
    e: ExactSubspace
    f: ExactSubspace
    # the (algebra, tables) pair of diffnum.splitting_tensor_tables, kept
    # here once they are built for that algebra
    tensor_tables: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        form = self.space.form
        if self.e.ambient_dim != self.space.dim or self.f.ambient_dim != self.space.dim:
            raise DimensionMismatchError("splitting subspaces are not in the space")
        if not (form.is_lagrangian(self.e) and form.is_lagrangian(self.f)):
            raise NotLagrangianError("splitting requires two Lagrangian subspaces")
        if self.e.intersect(self.f).dim != 0:
            raise NotLagrangianError("splitting subspaces are not transverse")

    @classmethod
    def of_algebra(cls, alg: QuadraticLieAlgebra, e: ExactSubspace, f: ExactSubspace) -> "Splitting":
        return cls(from_algebra(alg), e, f)

    @cached_property
    def duals(self) -> Matrix:
        """Basis f^i of F with <e_i, f^j> = delta over E's stored basis:
        the rows of G^-T F for the Gram matrix G of E against F."""
        gram = mat_mul(mat_mul(self.e.basis, self.space.form.matrix), transpose(self.f.basis))
        return mat_mul(transpose(inverse(gram)), self.f.basis)

    @cached_property
    def bivector(self) -> Bivector:
        return splitting_bivector(self)

    @cached_property
    def projectors(self) -> tuple[Matrix, Matrix]:
        """(P_E, P_F): projections onto E along F and onto F along E.

        pr_E(w) = sum <w, f^i> e_i, so P_E = E^T D B for the dual frame D
        and the Gram matrix B; P_F = I - P_E.
        """
        p_e = mat_mul(mat_mul(transpose(self.e.basis), self.duals), self.space.form.matrix)
        p_f = tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(identity(self.space.dim), p_e)
        )
        return p_e, p_f


def splitting_bivector(s: Splitting) -> Bivector:
    """Pi = (1/2) sum e_i ^ f^i over the dual frames of a splitting."""
    e, duals = s.e.basis, s.duals
    # sum e_i^T f^i - f^i^T e_i as one product of stacked bases
    lhs = transpose(e + duals)
    rhs = duals + tuple(scale_vec(-1, ei) for ei in e)
    p = mat_mul(lhs, rhs)
    return Bivector(s.space.dim, tuple(tuple(x / 2 for x in row) for row in p))


@dataclass(frozen=True)
class ReducedBivector:
    """The splitting of W1/W0 a splitting descends to; its bivector is
    the descended Pi."""

    quotient: QuotientMap
    splitting: Splitting


def reduce_bivector(s: Splitting, w1: ExactSubspace) -> ReducedBivector:
    """Descend a splitting's bivector along a coisotropic W1.

    Succeeds exactly when W0 = (E cap W0) (+) (F cap W0) for W0 = W1-perp;
    on failure raises ReductionError carrying a witness w in W0 whose
    E-projection leaves W0.
    """
    form = s.space.form
    if not form.is_coisotropic(w1):
        raise ValueError("W1 must be coisotropic")
    w0 = form.orth_complement(w1)
    if s.e.intersect(w0).sum(s.f.intersect(w0)) != w0:
        p_e, _ = s.projectors
        witness = next((w for w in w0.basis if not w0.contains(mat_vec(p_e, w))), w0.basis[0])
        raise ReductionError("W0 is not split by the decomposition", witness)
    q = quotient_coords(w1, w0)
    red_form = q.descended_form(form)
    e_red = q.map_subspace(s.e)
    f_red = q.map_subspace(s.f)
    if e_red.intersect(f_red).dim != 0:
        raise ReductionError("reduced subspaces are not transverse", w0.basis[0])
    reduced = Splitting(SplitSpace(q.dim, red_form), e_red, f_red)
    red_pi_cols = [q.coords(s.bivector.contract(c, form)) for c in q.complement]
    # iota(w_red) Pi_red = (iota(w) Pi)_red and iota(w) Pi = -P B w
    bred = mat_mul(
        tuple(tuple(-x for x in row) for row in transpose(matrix(red_pi_cols))),
        red_form.inverse_matrix,
    )
    if bred != reduced.bivector.matrix:
        raise ReductionError("descended bivector disagrees with reduced splitting",
                             w0.basis[0] if w0.basis else zero_vector(s.space.dim))
    return ReducedBivector(q, reduced)


@dataclass(frozen=True)
class RelatednessReport:
    e_related: bool
    f_related: bool
    kernel_splits: bool
    range_splits: bool

    @property
    def related(self) -> bool:
        return (
            self.e_related
            and self.f_related
            and self.kernel_splits
            and self.range_splits
        )

    @property
    def reasons(self) -> tuple[str, ...]:
        out = []
        if not self.e_related:
            out.append("e_not_related")
        if not self.f_related:
            out.append("f_not_related")
        if not self.kernel_splits:
            out.append("kernel_not_split")
        if not self.range_splits:
            out.append("range_not_split")
        return tuple(out)


def _iso_carries(iso: ReducedIso, e: ExactSubspace, eprime: ExactSubspace) -> bool:
    e_red = iso.source_quotient.map_subspace(e)
    ep_red = iso.target_quotient.map_subspace(eprime)
    return iso.map_subspace(e_red) == ep_red


def related_lagrangian(
    e: ExactSubspace, eprime: ExactSubspace, r: LinearRelation
) -> bool:
    """True when the reduced isomorphism carries E_red onto E'_red."""
    return _iso_carries(r.reduced_iso, e, eprime)


def related_splitting(s: Splitting, s_prime: Splitting, r: LinearRelation) -> RelatednessReport:
    """Whether R relates the splitting s of its source to s_prime of its
    target; NotLagrangianError when they split other spaces."""
    if s.space != r.source or s_prime.space != r.target:
        raise NotLagrangianError("splittings are not on the relation's spaces")
    e, f, ep, fp = s.e, s.f, s_prime.e, s_prime.f
    ker = r.kernel()
    ran = r.range_()
    kernel_splits = ker.intersect(e).sum(ker.intersect(f)) == ker
    range_splits = ran.intersect(ep).sum(ran.intersect(fp)) == ran
    iso = r.reduced_iso
    return RelatednessReport(
        e_related=_iso_carries(iso, e, ep),
        f_related=_iso_carries(iso, f, fp),
        kernel_splits=kernel_splits,
        range_splits=range_splits,
    )


def pair_groupoid_relation(dd: QuadraticLieAlgebra) -> LinearRelation:
    """Multiplication relation of the double dd = d (+) d-bar (as
    ``build_double(d)`` makes it) viewed as a pair groupoid.

    Elements compose by (a, b) o (b, c) = (a, c); the relation maps the
    direct-sum space (d (+) d-bar)^2 to d (+) d-bar.
    """
    n = dd.dim // 2
    space_d = from_algebra(dd)
    source = space_d.direct_sum(space_d)
    rows = []
    zero = zero_vector(n)
    for basis_vec in identity(n):
        b = tuple(basis_vec)
        # parameter a: z = (a, 0), z' = (a, 0), z'' = 0
        rows.append(concat_vec(b, zero, b, zero, zero, zero))
        # parameter b: z = 0, z' = (0, b), z'' = (b, 0)
        rows.append(concat_vec(zero, zero, zero, b, b, zero))
        # parameter c: z = (0, c), z' = 0, z'' = (0, c)
        rows.append(concat_vec(zero, b, zero, zero, zero, b))
    return LinearRelation.from_rows(source, space_d, rows)
