"""Reference algebras, the Fraction matrix arithmetic, and the dense
reference of ``validate_algebra``.

The Fraction helpers (``vector``, ``add_vec``, ``scale_vec``,
``transpose``, ``mat_add``, ``mat_scale``, ``mat_mul``, ``mat_vec``,
``rref``, ``solve``, ``nullspace``, ``inverse``) are plain loops over
``Fraction`` entries that never call ``exactlin.int_products`` or
``exactlin._eliminate``: an independent reference for the integer kernel
that ``courantlab`` computes on.  ``coords_rows``, ``coordinatize``,
``dual`` and ``inverse_matrix`` read integer results back as Fractions.

The names that left the package because no module called them stay here
as the tests' references: quotient coordinates (``QuotientMap``,
``quotient_coords``), the reduced isomorphism of a relation
(``reduced_iso``, ``ReducedIso``), the descended splitting bivector
(``reduce_bivector``, ``ReducedBivector``, ``ReductionError``), the
jet-level Courant bracket (``SectionJet``, ``courant_bracket_jets``,
``courant_bracket_jet_closed``) and ``random_coisotropic_anchor``.

The bracket, the pairing and the Courant tensor that ``quadlie`` once
computed on Fractions are plain loops too, read off the public
quadruples ``alg.bracket`` and ``form.matrix``, never the kept integer
table: ``bracket_basis``, ``bracket_vec``, ``pairing``, ``courant_form``
and ``courant_tensor``, the references of ``pair_brackets`` and
``courant_values``.

``dense_validate_algebra`` is the triple loop over basis vectors that
``quadlie.validate_algebra`` replaced: Jacobi through ``bracket_vec`` and
invariance through ``pairing``, one dense call per index triple.  The
sparse path must give the same records in the same order.

``reference_pullback`` is the elimination path that
``anchored.pullback_point`` replaced: C as the kernel of [-a | dPhi | 0],
its orthogonal complement, quotient coordinates on C / C-perp, the
descended form and the anchor read off the complement's v-block.

The ``fraction_*`` functions are the Fraction formulas the group layer's
integer builders replaced, Ad_g conjugated and coordinatized on
Fractions included: the anchor of the two-sided action, the dressing
pair, the multiplication fiber and its expected kernel, the fiber of the
embedding, phi^R, the invariant-frame pi+- and the pull-back's phi^R
lifts.  ``ad`` and ``ad_inverse`` read a point's integer Ad tables back
as Fractions.

``randint_small_ints`` and ``random_invertible`` are the generator's
draws the way they were first made: small rationals by ``rng.randint``,
and every invertible draw inverted.  ``random_split_transform`` reads
all 2k columns of the generator back as one Fraction matrix.

``sl_double(n)`` is sl_n (+) sl_n-bar with the trace form, of dimension
2(n^2 - 1).  Run as a script it writes the double as ``validate`` input:

    PYTHONPATH=src python tests/algebra_reference.py 4 > sl4-double.json
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from courantlab.anchored import AnchoredPoint, require_coisotropic
from courantlab.exactlin import (
    BilinearForm,
    Coordinatizer,
    DimensionMismatchError,
    ExactSubspace,
    Matrix,
    NotLagrangianError,
    SingularMatrixError,
    Vector,
    _eliminate,
    _inverse_rows,
    frac,
    frac_matrix,
    hstack,
    identity,
    int_matrix,
    int_products,
    matrix,
    rank,
    zeros,
)
from courantlab.lagrel import LinearRelation, SplitSpace, Splitting, from_algebra, hyperbolic_space
from courantlab.liegrp import G1Point, GroupContext, GroupPoint, TripleContext, flatten
from courantlab.randgen import _coisotropic_anchor_ints
from courantlab.quadlie import (
    QuadraticLieAlgebra,
    ValidationRecord,
    ValidationReport,
    build_double,
)
from courantlab.randgen import _split_transform_cols


# --- the Fraction matrix arithmetic, as plain loops ----------------------

def vector(entries: Iterable) -> Vector:
    return tuple(map(frac, entries))


def add_vec(u: Sequence, v: Sequence) -> Vector:
    return tuple(frac(a) + frac(b) for a, b in zip(u, v, strict=True))


def scale_vec(c, v: Sequence) -> Vector:
    c = frac(c)
    return tuple(c * frac(a) for a in v)


def transpose(A: Sequence[Sequence]) -> Matrix:
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    """A + B entrywise; DimensionMismatchError when the shapes differ."""
    if len(A) != len(B) or any(len(r) != len(s) for r, s in zip(A, B)):
        raise DimensionMismatchError("matrix shapes disagree")
    return tuple(tuple(frac(a) + frac(b) for a, b in zip(r, s)) for r, s in zip(A, B))


def mat_scale(c, A: Matrix) -> Matrix:
    return tuple(scale_vec(c, row) for row in A)


def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(u, v):
        total += a * b
    return total


def _product(A: Matrix, B: Sequence[Sequence]) -> Matrix:
    """A B; an empty B stands for an n x 0 matrix, so the product has no columns."""
    B = matrix(B)
    if not B:
        return tuple(() for _ in A)
    if A and len(A[0]) != len(B):
        raise DimensionMismatchError("matrix shapes disagree")
    cols = transpose(B)
    return tuple(tuple(_dot(row, col) for col in cols) for row in A)


def mat_mul(*factors: Sequence[Sequence]) -> Matrix:
    """The product of a chain of exact matrices, as Fractions."""
    out = matrix(factors[0])
    for b in factors[1:]:
        out = _product(out, b)
    return out


def mat_vec(A: Sequence[Sequence], v: Sequence) -> Vector:
    A, v = matrix(A), vector(v)
    if A and len(A[0]) != len(v):
        raise DimensionMismatchError("matrix/vector shape mismatch")
    return tuple(_dot(row, v) for row in A)


def rref(rows: Sequence[Sequence]) -> Matrix:
    """Reduced row echelon form with unit pivots; zero rows dropped."""
    m = [list(row) for row in matrix(rows)]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r])


def _pivot(row: Sequence) -> int:
    return next(j for j, x in enumerate(row) if x)


def nullspace(A: Sequence[Sequence], ncols: int) -> ExactSubspace:
    """Kernel of x -> A x as a canonical subspace of Q^ncols: the free
    columns of rref(A), each with the pivots solved for."""
    reduced = rref(A)
    pivots = [_pivot(row) for row in reduced]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return ExactSubspace.span(basis, ambient_dim=ncols)


def solve(A: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b, or None if inconsistent."""
    if len(A) != len(b):
        raise DimensionMismatchError("matrix/vector shape mismatch")
    if not A:
        return ()
    ncols = len(A[0])
    x = [Fraction(0)] * ncols
    for row in rref([tuple(row) + (bi,) for row, bi in zip(A, b)]):
        lead = _pivot(row)
        if lead == ncols:
            return None
        x[lead] = row[ncols]
    # free variables were set to zero, which solves iff consistent
    if mat_vec(A, x) != vector(b):
        return None
    return tuple(x)


def inverse(A: Sequence[Sequence]) -> Matrix:
    """A^-1 by Gauss-Jordan on [A | I]; DimensionMismatchError unless A is
    square, SingularMatrixError when it is singular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatchError("inverse needs a square matrix")
    units = identity(n)
    aug = rref([row + unit for row, unit in zip(matrix(A), units)])
    if tuple(row[:n] for row in aug) != units:
        raise SingularMatrixError("matrix is singular")
    return tuple(row[n:] for row in aug)


# --- the bracket, the pairing and the Courant tensor, as plain loops -----

def bracket_basis(alg: QuadraticLieAlgebra, i: int, j: int) -> Vector:
    """[b_i, b_j] read off the public quadruples, the (j, i) half negated."""
    v = [Fraction(0)] * alg.dim
    for a, b, k, c in alg.bracket:
        if (a, b) == (i, j):
            v[k] = Fraction(c)
        elif (a, b) == (j, i):
            v[k] = -Fraction(c)
    return tuple(v)


def bracket_vec(alg: QuadraticLieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """[x, y] = sum over the quadruples of (x_i y_j - x_j y_i) c [b_k]."""
    x, y = vector(x), vector(y)
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionMismatchError("vectors not in the algebra")
    v = [Fraction(0)] * alg.dim
    for i, j, k, c in alg.bracket:
        if (x[i] and y[j]) or (x[j] and y[i]):
            v[k] += (x[i] * y[j] - x[j] * y[i]) * c
    return tuple(v)


def pairing(form: BilinearForm, u: Sequence, v: Sequence) -> Fraction:
    """u^T G v over the Fraction Gram matrix, skipping zero entries."""
    u, v = vector(u), vector(v)
    if len(u) != form.dim or len(v) != form.dim:
        raise DimensionMismatchError("vectors not in the form's space")
    total = Fraction(0)
    for a, row in zip(u, form.matrix):
        for g, b in zip(row, v):
            if a and g and b:
                total += a * g * b
    return total


def courant_form(alg: QuadraticLieAlgebra, u1: Sequence, u2: Sequence, u3: Sequence) -> Fraction:
    """The trilinear obstruction <u1, [u2, u3]>."""
    return pairing(alg.form, u1, bracket_vec(alg, u2, u3))


def courant_tensor(alg: QuadraticLieAlgebra, basis: Sequence[Sequence]) -> tuple:
    """The nonzero <u_i, [u_j, u_k]> for i < j < k over the rows of basis,
    in index order, as ((i, j, k), value)."""
    r = len(basis)
    values = (((i, j, k), courant_form(alg, basis[i], basis[j], basis[k]))
              for i in range(r) for j in range(i + 1, r) for k in range(j + 1, r))
    return tuple((ijk, v) for ijk, v in values if v)


# --- integer results read back as Fractions -----------------------------

def coords_rows(coordinatizer: Coordinatizer, vs: Sequence[Sequence]) -> Matrix:
    """Coordinates of each row of vs as Fraction rows, by coords_ints."""
    return frac_matrix(*coordinatizer.coords_ints(*int_matrix(vs)))


def coords(coordinatizer: Coordinatizer, v: Sequence) -> Vector:
    return coords_rows(coordinatizer, (v,))[0]


def coordinatize(ctx: GroupContext, elt: Matrix) -> Vector:
    """Exact coordinates of an ambient algebra element over the context's
    basis; DimensionMismatchError when it is not in the algebra's span."""
    return coords(ctx.coordinatizer, flatten(elt))


def dual(pt: AnchoredPoint) -> Matrix:
    """a* = B^-1 a^T of a point as Fractions."""
    return frac_matrix(*pt.dual_ints)


def inverse_matrix(form: BilinearForm) -> Matrix:
    """B^-1 as Fractions, read back from the form's integer inverse."""
    return frac_matrix(*form._inverse)


def random_coisotropic_anchor(rng: random.Random, k: int) -> tuple[Matrix, int]:
    """An anchor on Q^2k (hyperbolic form) whose kernel is coisotropic, as
    Fractions, and its chart dimension."""
    table, den, j = _coisotropic_anchor_ints(rng, k)
    return frac_matrix(table, den), j


# --- quotient coordinates -----------------------------------------------

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
        return Coordinatizer.of_rows(self.w0.rows + tuple(self.complement),
                                     self.w1.ambient_dim, "W1")

    def coords_rows(self, vs: Sequence[Sequence]) -> Matrix:
        """Quotient coordinates of each row of vs, as one product;
        DimensionMismatchError on a row outside W1."""
        k = self.w0.dim
        return tuple(c[k:] for c in coords_rows(self._coordinatizer, vs))

    def map_subspace(self, s: ExactSubspace) -> ExactSubspace:
        """Image of (S cap W1) in the quotient coordinates."""
        rows = self.coords_rows(s.intersect(self.w1).rows)
        return ExactSubspace.span(rows, ambient_dim=self.dim)

    def descended_form(self, form: BilinearForm) -> BilinearForm:
        """The form on W1/W0 read on the complement basis C: C G C^T, one
        integer product over the form's kept rows G (symmetric, so also its
        columns); well defined when W0 pairs to zero with W1."""
        c, dc = int_matrix(self.complement)
        if c and len(c[0]) != form.dim:
            raise DimensionMismatchError("complement not in the form's space")
        gram, dg = form._ints
        return BilinearForm.of_ints(int_products(int_products(c, gram), c), dc * dc * dg)


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
    pivots = _eliminate(cols, k + w1.dim, reduced=False)
    if len(pivots) != w1.dim:
        raise ValueError("W0 is not contained in W1")
    return QuotientMap(w1, w0, tuple(w1.basis[p - k] for p in pivots if p >= k))


# --- the reduced isomorphism and the descended bivector -----------------

@dataclass(frozen=True)
class ReducedIso:
    """The induced isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t)."""

    source_quotient: QuotientMap
    target_quotient: QuotientMap
    matrix: Matrix  # columns are images of the source complement basis

    @property
    def dim(self) -> int:
        return len(self.source_quotient.complement)

    def map_subspace(self, s_red: ExactSubspace) -> ExactSubspace:
        rows = mat_mul(s_red.rows, transpose(self.matrix))
        return ExactSubspace.span(rows, ambient_dim=self.dim)


def reduced_iso(r: LinearRelation) -> ReducedIso:
    """The isomorphism ran(R^t)/ker(R) -> ran(R)/ker(R^t) that maps [w]
    to [w'] whenever w ~ w'; NotLagrangianError when the induced map is
    not invertible.  Both source-side spaces come from the kept
    ``flipped`` elimination: its source-pivot rows each carry an image.
    """
    ns = r.source.dim
    with_image = [row for row in r.flipped.rows if any(row[:ns])]
    sources = [row[:ns] for row in with_image]
    qs = quotient_coords(ExactSubspace.of_rows(ns, list(sources)), r.kernel())
    qt = quotient_coords(r.range_, r.cokernel)
    # an image of each complement vector: its coordinates over the
    # source parts applied to the target parts
    coef = coords_rows(Coordinatizer.of_rows(sources, ns, "ran(R^t)"), qs.complement)
    cols = qt.coords_rows(mat_mul(coef, tuple(row[ns:] for row in with_image)))
    mat = transpose(cols) if cols else ()
    if cols and rank(mat) != len(cols):
        raise NotLagrangianError("reduced map failed to be invertible")
    return ReducedIso(qs, qt, mat)


class ReductionError(ValueError):
    """Bivector does not descend; carries a witness vector."""

    def __init__(self, message: str, witness: Vector):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ReducedBivector:
    """The splitting of W1/W0 a splitting descends to; its bivector is
    the descended Pi."""

    quotient: QuotientMap
    splitting: Splitting


def reduce_bivector(s: Splitting, w1: ExactSubspace) -> ReducedBivector:
    """Descend a splitting's bivector along a coisotropic W1.

    Raises ValueError when W1 is not coisotropic, that is when the
    quotient finds W0 = W1-perp outside W1.  Succeeds exactly when
    W0 = (E cap W0) (+) (F cap W0); on failure raises ReductionError
    carrying a witness w in W0 whose E-projection leaves W0.
    """
    form = s.space.form
    w0 = form.orth_complement(w1)
    q = quotient_coords(w1, w0)
    if not s.splits(w0):
        p_e, _ = s.projectors
        witness = next((w for w in w0.basis if not w0.contains(mat_vec(p_e, w))), w0.basis[0])
        raise ReductionError("W0 is not split by the decomposition", witness)
    red_form = q.descended_form(form)
    reduced = Splitting(SplitSpace(q.dim, red_form), q.map_subspace(s.e), q.map_subspace(s.f))
    # iota(w) Pi = -Pi B w, for every complement row w at once the rows of
    # C B Pi (B is symmetric and Pi antisymmetric), and
    # iota(w_red) Pi_red = (iota(w) Pi)_red
    red_pi_cols = q.coords_rows(mat_mul(q.complement, form.matrix, s.bivector.matrix))
    bred = mat_mul(mat_scale(-1, transpose(red_pi_cols)), inverse_matrix(red_form))
    if bred != reduced.bivector.matrix:
        raise ReductionError("descended bivector disagrees with reduced splitting",
                             w0.basis[0] if w0.basis else vector((0,) * s.space.dim))
    return ReducedBivector(q, reduced)


# --- the jet-level Courant bracket --------------------------------------

@dataclass(frozen=True)
class SectionJet:
    """Value and first partials of an algebra-valued section at the point."""

    value: Vector
    jacobian: Matrix  # algebra dim x chart dim

    def __post_init__(self):
        object.__setattr__(self, "value", vector(self.value))
        object.__setattr__(self, "jacobian", matrix(self.jacobian))

    @classmethod
    def constant(cls, value: Iterable, chart_dim: int) -> "SectionJet":
        v = vector(value)
        return cls(v, zeros(len(v), chart_dim))

    def jac_column(self, u: int) -> Vector:
        return tuple(row[u] for row in self.jacobian)


def courant_bracket_jets(pt: AnchoredPoint, x: SectionJet, y: SectionJet) -> Vector:
    """Bracket value [[x, y]] at the point from first-derivative data.

    [[x, y]] = [x, y]_pointwise + Dy(a x) - Dx(a y) + a* <dx, y>.
    """
    require_coisotropic(pt)
    alg = pt.algebra
    a = pt.anchor
    out = bracket_vec(alg, x.value, y.value)
    out = add_vec(out, mat_vec(y.jacobian, mat_vec(a, x.value)))
    out = add_vec(out, scale_vec(-1, mat_vec(x.jacobian, mat_vec(a, y.value))))
    pairing_dx_y = tuple(
        pairing(alg.form, x.jac_column(u), y.value) for u in range(pt.chart_dim)
    )
    return add_vec(out, mat_vec(dual(pt), pairing_dx_y))


def courant_bracket_jet_closed(pt: AnchoredPoint, x: SectionJet, y: SectionJet) -> SectionJet:
    """Full jet of [[x, y]] assuming the anchor is constant on the chart.

    Only meaningful when constant fields act (the anchor kills brackets),
    e.g. abelian algebras; lets the Jacobi identity close on linear jets.
    """
    alg = pt.algebra
    a = pt.anchor
    value = courant_bracket_jets(pt, x, y)
    cols = []
    for u in range(pt.chart_dim):
        col = bracket_vec(alg, x.jac_column(u), y.value)
        col = add_vec(col, bracket_vec(alg, x.value, y.jac_column(u)))
        col = add_vec(col, mat_vec(y.jacobian, mat_vec(a, x.jac_column(u))))
        col = add_vec(col, scale_vec(-1, mat_vec(x.jacobian, mat_vec(a, y.jac_column(u)))))
        dxy = tuple(pairing(alg.form, x.jac_column(w), y.jac_column(u)) for w in range(pt.chart_dim))
        cols.append(add_vec(col, mat_vec(dual(pt), dxy)))
    return SectionJet(value, transpose(matrix(cols)))


def dense_validate_algebra(alg: QuadraticLieAlgebra) -> ValidationReport:
    records: list[ValidationRecord] = []
    n = alg.dim
    basis = identity(n)
    names = alg.basis_names
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = bracket_vec(alg, bracket_basis(alg, i, j), basis[k])
                jac = add_vec(jac, bracket_vec(alg, bracket_basis(alg, j, k), basis[i]))
                jac = add_vec(jac, bracket_vec(alg, bracket_basis(alg, k, i), basis[j]))
                if any(x != 0 for x in jac):
                    records.append(ValidationRecord(
                        "jacobi", (names[i], names[j], names[k]),
                        "[[x,y],z] cyclic sum is nonzero",
                    ))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = pairing(alg.form, bracket_basis(alg, i, j), basis[k])
                rhs = pairing(alg.form, basis[j], bracket_basis(alg, i, k))
                if lhs + rhs != 0:
                    records.append(ValidationRecord(
                        "invariance", (names[i], names[j], names[k]),
                        "<[x,y],z> + <y,[x,z]> is nonzero",
                    ))
    if not alg.form.is_nondegenerate():
        records.append(ValidationRecord("degenerate_form", (), "det = 0"))
    return ValidationReport(tuple(records))


class ReferencePullback(NamedTuple):
    """The pull-back's C, the quotient C / C-perp (its W1 and W0), the
    descended form and the reduced anchor (source chart dim x quotient dim)."""

    c: ExactSubspace
    quotient: QuotientMap
    reduced_form: BilinearForm
    reduced_anchor: Matrix


def reference_pullback(pt: AnchoredPoint, dphi) -> ReferencePullback:
    """The pull-back along dPhi by kernels and quotient coordinates, with
    G = B (+) H_s; ValueError when C-perp is not inside C."""
    dphi = matrix(dphi)
    n, m, s = pt.algebra.dim, pt.chart_dim, len(dphi[0])
    ambient = pt.algebra.form.direct_sum(hyperbolic_space(s).form)
    c = nullspace(hstack(mat_scale(-1, pt.anchor), dphi, zeros(m, s)), n + 2 * s)
    q = quotient_coords(c, ambient.orth_complement(c))
    anchor = tuple(tuple(row[n + j] for row in q.complement) for j in range(s))
    return ReferencePullback(c, q, q.descended_form(ambient), anchor)


def ad(p: GroupPoint) -> Matrix:
    """Ad_g of a point as Fractions, read back from its integer table."""
    return frac_matrix(*p.adjoint_ints)


def ad_inverse(p: GroupPoint) -> Matrix:
    return frac_matrix(*p.adjoint_inverse_ints)


def fraction_conjugation(ctx, h: Matrix, h_inv: Matrix) -> Matrix:
    """Ad_h as the group layer once computed it, on Fractions: one product
    chain per basis element, each converting h and h^-1 again, then one
    coordinatization.  The reference for GroupPoint._conjugation."""
    conj = [flatten(mat_mul(h, b, h_inv)) for b in ctx.algebra_basis]
    return transpose(coords_rows(ctx.coordinatizer, conj))


def _fraction_ads(p: GroupPoint) -> tuple[Matrix, Matrix]:
    """(Ad_g, Ad_{g^-1}) by the Fraction conjugation."""
    g_inv = inverse(p.g)
    return fraction_conjugation(p.ctx, p.g, g_inv), fraction_conjugation(p.ctx, g_inv, p.g)


def fraction_anchor(p: GroupPoint) -> Matrix:
    """The two-sided action's anchor [-Ad_{g^-1} | I] at g."""
    return hstack(mat_scale(-1, _fraction_ads(p)[1]), identity(p.ctx.dim))


def fraction_dressing(x: G1Point) -> tuple[Matrix, Matrix]:
    """The right and left dressing anchors Ad_{g^-1} p1 Ad_{Phi(g)} and
    -p1 Ad_{Phi(g)^-1}, their columns read in G1's coordinates."""
    t = x.triple
    p1, _ = t.splitting.projectors

    def g1_columns(m: Matrix) -> Matrix:
        return transpose(coords_rows(t.g1_coordinatizer, transpose(m)))

    ad_phi, ad_phi_inv = _fraction_ads(x.phi)
    right = mat_mul(_fraction_ads(x.g1)[1], g1_columns(mat_mul(p1, ad_phi)))
    return right, mat_scale(-1, g1_columns(mat_mul(p1, ad_phi_inv)))


def fraction_mult_fiber(xpp: G1Point) -> LinearRelation:
    """The multiplication fiber over (g' g'', g', g''): the parameters
    (z', z'') with p2 z' = p2 Ad_{Phi(g'')} z'' as a Fraction kernel basis,
    and zeta = Ad_{Phi(g'')^-1} p1 z' + z''."""
    t = xpp.triple
    n = t.d_algebra.dim
    p1, p2 = t.splitting.projectors
    ad_phi, ad_phi_inv = _fraction_ads(xpp.phi)
    params = nullspace(hstack(mat_scale(-1, p2), mat_mul(p2, ad_phi)), 2 * n).basis
    moved = mat_mul(tuple(p[:n] for p in params), transpose(mat_mul(ad_phi_inv, p1)))
    zeta = mat_add(moved, tuple(p[n:] for p in params))
    return LinearRelation.from_rows(t.dbar_pair, t.splitting_bar.space, hstack(zeta, params))


def fraction_kernel_expected(xpp: G1Point) -> ExactSubspace:
    """{(xi, -Ad_{Phi(g''^-1)} xi) : xi in g1} over g1's unit-pivot basis."""
    t = xpp.triple
    moved = mat_mul(t.g1.basis, transpose(_fraction_ads(xpp.phi)[1]))
    return ExactSubspace.span(hstack(t.g1.basis, mat_scale(-1, moved)), ambient_dim=2 * t.d_algebra.dim)


def fraction_p_phi_fiber(x: G1Point) -> LinearRelation:
    """The embedding's fiber: (-xi, -Ad_{Phi(g)^-1} xi, 0) for xi in g1 and
    (p2 Ad_{Phi(g)} e_i, e_i, e_i)."""
    t = x.triple
    n = t.d_algebra.dim
    _, p2 = t.splitting.projectors
    ad_phi, ad_phi_inv = _fraction_ads(x.phi)
    moved = mat_mul(t.g1.basis, transpose(ad_phi_inv))
    rows = hstack(mat_scale(-1, t.g1.basis), mat_scale(-1, moved), zeros(t.g1.dim, n))
    rows += hstack(transpose(mat_mul(p2, ad_phi)), identity(n), identity(n))
    return LinearRelation.from_rows(t.splitting_bar.space, from_algebra(t.d_ctx.double_algebra), rows)


def fraction_phi_r_value(t: TripleContext, d: GroupPoint, zeta: Vector) -> Vector:
    """phi^R(zeta) = (p2(Ad_d zeta), zeta)."""
    return mat_vec(t.splitting.projectors[1], mat_vec(_fraction_ads(d)[0], zeta)) + tuple(zeta)


def fraction_pi_plus_minus_invariant(t: TripleContext, d: GroupPoint) -> tuple[Matrix, Matrix]:
    """r^R +/- r^L at d, with r^R = Ad_{d^-1} r Ad_{d^-1}^T."""
    r, c = t.splitting.bivector.matrix, _fraction_ads(d)[1]
    r_right = mat_mul(c, r, transpose(c))
    return mat_add(r_right, r), mat_add(r_right, mat_scale(-1, r))


def fraction_lifts(x: G1Point) -> Matrix:
    """The phi^R lifts of the pull-back check: row b of
    [(p2 Ad_{Phi(g)})^T | I | ra^T | 0] for the right dressing anchor ra."""
    t = x.triple
    n, k = t.d_algebra.dim, t.g1.dim
    p2_ad = mat_mul(t.splitting.projectors[1], _fraction_ads(x.phi)[0])
    return hstack(transpose(p2_ad), identity(n), transpose(fraction_dressing(x)[0]), zeros(n, k))


def _sl_basis(n: int) -> list[tuple[str, list[list[int]]]]:
    """E_ab (a != b), then H_a = E_aa - E_(a+1)(a+1), as n x n matrices."""
    def unit(a, b):
        m = [[0] * n for _ in range(n)]
        m[a][b] = 1
        return m

    basis = [(f"E{a + 1}{b + 1}", unit(a, b)) for a in range(n) for b in range(n) if a != b]
    for a in range(n - 1):
        h = unit(a, a)
        h[a + 1][a + 1] = -1
        basis.append((f"H{a + 1}", h))
    return basis


def _coords(m: list[list[int]], n: int) -> list[int]:
    """Coordinates of a trace-free matrix in the basis of _sl_basis: the
    off-diagonal entries, then the partial sums of the diagonal."""
    off = [m[a][b] for a in range(n) for b in range(n) if a != b]
    partial = [sum(m[c][c] for c in range(a + 1)) for a in range(n - 1)]
    return off + partial


def sl_algebra(n: int) -> QuadraticLieAlgebra:
    """sl_n with the trace form tr(XY)."""
    basis = _sl_basis(n)

    def mul(x, y):
        return [[sum(x[a][c] * y[c][b] for c in range(n)) for b in range(n)] for a in range(n)]

    triples = []
    for i, (_, x) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            y = basis[j][1]
            xy, yx = mul(x, y), mul(y, x)
            diff = [[p - q for p, q in zip(r, s)] for r, s in zip(xy, yx)]
            triples += [(i, j, k, c) for k, c in enumerate(_coords(diff, n)) if c]
    form = [[sum(mul(x, y)[a][a] for a in range(n)) for _, y in basis] for _, x in basis]
    return QuadraticLieAlgebra.from_triples(len(basis), triples, form, [nm for nm, _ in basis])


def sl_double(n: int) -> QuadraticLieAlgebra:
    """sl_n (+) sl_n-bar with the trace form and its negative."""
    return build_double(sl_algebra(n))


def scaled(alg: QuadraticLieAlgebra, bracket, form) -> QuadraticLieAlgebra:
    """alg with every structure constant times bracket and the form times form."""
    data = alg.to_json()
    data["brackets"] = [[i, j, k, str(Fraction(v) * bracket)] for i, j, k, v in data["brackets"]]
    data["form"] = [[str(Fraction(x) * form) for x in row] for row in data["form"]]
    return QuadraticLieAlgebra.from_json(data)


def perturbed(alg: QuadraticLieAlgebra, seed: int, degenerate: bool = False) -> QuadraticLieAlgebra:
    """alg with one structure constant and one symmetric pair of form
    entries moved by a seeded nonzero amount; with degenerate, one row
    and column of the form are zeroed as well."""
    rng = random.Random(seed)
    n = alg.dim
    data = alg.to_json()
    i, j = sorted(rng.sample(range(n), 2))
    # from_triples adds repeated (i, j, k) entries, so this shifts one constant
    data["brackets"].append([i, j, rng.randrange(n), str(Fraction(rng.choice([-2, -1, 1, 3]), 2))])
    form = [[Fraction(x) for x in row] for row in data["form"]]
    a, b = rng.randrange(n), rng.randrange(n)
    form[a][b] += 1
    if a != b:
        form[b][a] += 1
    if degenerate:
        z = rng.randrange(n)
        for c in range(n):
            form[z][c] = form[c][z] = Fraction(0)
    data["form"] = [[str(x) for x in row] for row in form]
    return QuadraticLieAlgebra.from_json(data)


def randint_small_ints(rng: random.Random, count: int) -> tuple[list[int], int]:
    """count small rationals n/d, n in [-2, 2] and d in [1, 3], drawn by
    rng.randint in turn, as integer numerators over one denominator."""
    draws = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(count)]
    den = lcm(*[d for _, d in draws])
    return [n * (den // d) for n, d in draws], den


def random_invertible(rng: random.Random, k: int) -> tuple[tuple[list, int], tuple[list, int]]:
    """A random invertible k x k matrix a and a^-1, each as integer rows
    over one denominator: draws until one elimination inverts the draw."""
    while True:
        nums, den = randint_small_ints(rng, k * k)
        a = [nums[i * k:(i + 1) * k] for i in range(k)]
        try:
            inv, inv_den = _inverse_rows(a)
        except SingularMatrixError:
            continue
        # (a / den)^-1 = den * a^-1
        return (a, den), ([[den * x for x in row] for row in inv], inv_den)


def random_split_transform(rng: random.Random, k: int) -> Matrix:
    """A word of elementary transformations preserving the hyperbolic form
    [[0, I], [I, 0]] on Q^2k: all 2k columns of the generator's column
    path, as Fraction rows."""
    cols, den = _split_transform_cols(rng, k, 2 * k)
    return frac_matrix(list(zip(*cols)), den)


if __name__ == "__main__":
    json.dump(sl_double(int(sys.argv[1])).to_json(), sys.stdout)
