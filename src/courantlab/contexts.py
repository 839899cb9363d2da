"""Shipped algebra and group data: sl2 with its Killing form, the
double sl2 (+) sl2-bar with the diagonal/triangular Manin triple over
SL2 x SL2, a split abelian rank-2 triple over a diagonal matrix group,
and the named Lagrangian splittings of each context.  All sample points
are rational, so adjoint matrices and relation fibers stay exact."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .anchored import AnchoredPoint
from .exactlin import (
    ExactSubspace,
    Matrix,
    block_diag,
    hstack,
    identity,
    matrix,
    zeros,
)
from .lagrel import Splitting
from .liegrp import GroupContext, TripleContext
from .quadlie import QuadraticLieAlgebra, build_double, diagonal_subspace

F = Fraction

SL2_E = ((F(0), F(1)), (F(0), F(0)))
SL2_H = ((F(1), F(0)), (F(0), F(-1)))
SL2_F = ((F(0), F(0)), (F(1), F(0)))


def sl2_algebra() -> QuadraticLieAlgebra:
    """sl2 in the basis (e, h, f) with its Killing form."""
    return QuadraticLieAlgebra.from_triples(
        3,
        [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)],
        [[0, 0, 4], [0, 8, 0], [4, 0, 0]],
        basis_names=("e", "h", "f"),
    )


def abelian_algebra_split2() -> QuadraticLieAlgebra:
    return QuadraticLieAlgebra.from_triples(
        2, [], [[0, 1], [1, 0]], basis_names=("a1", "a2")
    )


def _is_sl(g: Matrix) -> bool:
    """Whether the 2 x 2 matrix g has determinant 1."""
    return g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1


def sl2_samples() -> tuple[Matrix, ...]:
    up = matrix([[1, 1], [0, 1]])
    up_half = matrix([[1, F(1, 2)], [0, 1]])
    lo = matrix([[1, 0], [1, 1]])
    lo_half = matrix([[1, 0], [F(1, 2), 1]])
    dg = matrix([[2, 0], [0, F(1, 2)]])
    eye = matrix([[1, 0], [0, 1]])
    return (
        eye,
        up,
        lo,
        up_half,
        lo_half,
        dg,
        matrix([[2, 1], [1, 1]]),  # up lo
        matrix([[1, F(1, 2)], [1, F(3, 2)]]),  # lo up_half
        matrix([[2, F(1, 4)], [0, F(1, 2)]]),  # up_half dg
        matrix([[2, 0], [F(1, 4), F(1, 2)]]),  # dg lo_half
        matrix([[4, F(1, 2)], [2, F(1, 2)]]),  # up lo dg
        matrix([[1, -1], [0, 1]]),
    )


@lru_cache(maxsize=None)
def sl2_context() -> GroupContext:
    return GroupContext(
        name="sl2",
        ambient_size=2,
        algebra_basis=(matrix(SL2_E), matrix(SL2_H), matrix(SL2_F)),
        algebra=sl2_algebra(),
        sample_points=sl2_samples(),
        membership=_is_sl,
    )


def _is_block_sl2(g: Matrix) -> bool:
    for i in range(4):
        for j in range(4):
            if (i < 2) != (j < 2) and g[i][j] != 0:
                return False
    return _is_sl([row[:2] for row in g[:2]]) and _is_sl([row[2:] for row in g[2:]])


@lru_cache(maxsize=None)
def sl2_pair_context() -> GroupContext:
    """SL2 x SL2 as 4x4 block diagonals; algebra sl2 (+) sl2-bar."""
    base = (matrix(SL2_E), matrix(SL2_H), matrix(SL2_F))
    zero2 = zeros(2, 2)
    basis = tuple(block_diag(x, zero2) for x in base) + tuple(
        block_diag(zero2, x) for x in base
    )
    s = sl2_samples()
    samples = (
        block_diag(s[0], s[0]),
        block_diag(s[1], s[2]),
        block_diag(s[5], s[1]),
        block_diag(s[3], s[4]),
        block_diag(s[6], s[5]),
        block_diag(s[2], s[3]),
        block_diag(s[4], s[6]),
        block_diag(s[7], s[0]),
        block_diag(s[0], s[8]),
        block_diag(s[9], s[2]),
        block_diag(s[1], s[1]),
        block_diag(s[10], s[4]),
    )
    return GroupContext(
        name="sl2-pair",
        ambient_size=4,
        algebra_basis=basis,
        algebra=build_double(sl2_algebra()),
        sample_points=samples,
        membership=_is_block_sl2,
    )


def triangular_complement() -> ExactSubspace:
    """h_{-diag} + (lower (+) upper) inside sl2 (+) sl2-bar."""
    return ExactSubspace.span(
        [
            (0, 1, 0, 0, -1, 0),  # (h, -h)
            (0, 0, 1, 0, 0, 0),   # (f, 0)
            (0, 0, 0, 1, 0, 0),   # (0, e)
        ],
        ambient_dim=6,
    )


def twisted_diagonal_complement() -> ExactSubspace:
    """h_diag + (lower (+) upper): a third Lagrangian subalgebra."""
    return ExactSubspace.span(
        [
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
        ],
        ambient_dim=6,
    )


@lru_cache(maxsize=None)
def sl2_triangular_triple() -> TripleContext:
    """(sl2 (+) sl2-bar, diagonal, triangular) over D = SL2 x SL2.

    G1 is SL2 embedded diagonally; the inclusion of its algebra sends
    x to (x, x)."""
    return TripleContext(
        name="sl2-triangular-triple",
        d_ctx=sl2_pair_context(),
        g1=diagonal_subspace(sl2_algebra(), sign=1),
        g2=triangular_complement(),
        g1_ctx=sl2_context(),
        embed=lambda g: block_diag(g, g),
        inclusion=identity(3) + identity(3),
    )


def _is_pos_diag(g: Matrix) -> bool:
    return g[0][1] == 0 and g[1][0] == 0 and g[0][0] > 0 and g[1][1] > 0


def _is_pos_diag_unit_second(g: Matrix) -> bool:
    return _is_pos_diag(g) and g[1][1] == 1


@lru_cache(maxsize=None)
def abelian2_group_context() -> GroupContext:
    """Positive diagonal 2x2 matrices: the group of the split abelian d."""
    basis = (matrix([[1, 0], [0, 0]]), matrix([[0, 0], [0, 1]]))
    samples = (
        matrix([[1, 0], [0, 1]]),
        matrix([[2, 0], [0, 1]]),
        matrix([[1, 0], [0, 3]]),
        matrix([[F(1, 2), 0], [0, 2]]),
        matrix([[3, 0], [0, F(1, 3)]]),
        matrix([[2, 0], [0, F(1, 2)]]),
        matrix([[F(2, 3), 0], [0, 1]]),
        matrix([[1, 0], [0, F(3, 2)]]),
        matrix([[4, 0], [0, 1]]),
        matrix([[F(1, 4), 0], [0, F(1, 2)]]),
    )
    return GroupContext(
        name="abelian-2",
        ambient_size=2,
        algebra_basis=basis,
        algebra=abelian_algebra_split2(),
        sample_points=samples,
        membership=_is_pos_diag,
    )


@lru_cache(maxsize=None)
def abelian2_triple() -> TripleContext:
    """Split abelian Q^2 with the coordinate-line Manin triple."""
    g1_basis = (matrix([[1, 0], [0, 0]]),)
    g1_samples = (
        matrix([[1, 0], [0, 1]]),
        matrix([[2, 0], [0, 1]]),
        matrix([[F(1, 2), 0], [0, 1]]),
        matrix([[3, 0], [0, 1]]),
        matrix([[F(2, 3), 0], [0, 1]]),
        matrix([[4, 0], [0, 1]]),
        matrix([[F(1, 4), 0], [0, 1]]),
        matrix([[F(3, 2), 0], [0, 1]]),
        matrix([[5, 0], [0, 1]]),
        matrix([[F(1, 5), 0], [0, 1]]),
    )
    g1_ctx = GroupContext(
        name="abelian-2-line",
        ambient_size=2,
        algebra_basis=g1_basis,
        algebra=QuadraticLieAlgebra.from_triples(1, [], [[1]], basis_names=("a1",)),
        sample_points=g1_samples,
        membership=_is_pos_diag_unit_second,
    )
    return TripleContext(
        name="abelian-2",
        d_ctx=abelian2_group_context(),
        g1=ExactSubspace.span([(1, 0)]),
        g2=ExactSubspace.span([(0, 1)]),
        g1_ctx=g1_ctx,
        embed=lambda g: g,
        inclusion=((1,), (0,)),
    )


@lru_cache(maxsize=None)
def abelian2_desk_point() -> AnchoredPoint:
    """The abelian-2 desk case (identity anchor on a 2-dim chart), built once."""
    return AnchoredPoint(abelian_algebra_split2(), ((1, 0), (0, 1)), 2)


def _realify(z_rows) -> Matrix:
    """Complex k x k matrix (entries (re, im)) as a real 2k x 2k matrix."""
    k = len(z_rows)
    out = [[F(0)] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for j in range(k):
            re, im = z_rows[i][j]
            re, im = F(re), F(im)
            out[2 * i][2 * j] = re
            out[2 * i][2 * j + 1] = -im
            out[2 * i + 1][2 * j] = im
            out[2 * i + 1][2 * j + 1] = re
    return tuple(tuple(r) for r in out)


def _complex_det_is_one(g: Matrix) -> bool:
    """Whether the real 4 x 4 matrix g commutes with J (multiplication by
    i), that is its 2 x 2 blocks have the form [[re, -im], [im, re]], and
    is a complex matrix of determinant 1."""
    if any(g[2 * i][2 * j] != g[2 * i + 1][2 * j + 1] or g[2 * i][2 * j + 1] != -g[2 * i + 1][2 * j]
           for i in range(2) for j in range(2)):
        return False
    z = {}
    for i in range(2):
        for jj in range(2):
            z[(i, jj)] = (g[2 * i][2 * jj], g[2 * i + 1][2 * jj])
    (a, b), (c, d) = z[(0, 0)], z[(0, 1)]
    (e_, f_), (gg, hh) = z[(1, 0)], z[(1, 1)]
    det_re = a * gg - b * hh - (c * e_ - d * f_)
    det_im = a * hh + b * gg - (c * f_ + d * e_)
    return det_re == 1 and det_im == 0


@lru_cache(maxsize=None)
def sl2c_realified_context() -> GroupContext:
    """sl2 over the complex numbers, realified to a 6-dim simple real
    algebra with the real part of the trace form (signature (3, 3)).

    Unlike 3-dimensional factors, the doubled two-sided action here has
    anchors of rank 4 on the diagonal, so the structure trivector
    pushes to a nonzero chart trivector at generic points."""
    cz = (0, 0)
    co = (1, 0)
    ci = (0, 1)
    e_c = [[cz, co], [cz, cz]]
    h_c = [[co, cz], [cz, (-1, 0)]]
    f_c = [[cz, cz], [co, cz]]
    ie_c = [[cz, ci], [cz, cz]]
    ih_c = [[ci, cz], [cz, (0, -1)]]
    if_c = [[cz, cz], [ci, cz]]
    basis = tuple(_realify(m) for m in (e_c, h_c, f_c, ie_c, ih_c, if_c))
    # brackets of (e,h,f,ie,ih,if); [x, iy] = i[x,y], [ix, iy] = -[x,y]
    triples = [
        (0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2),
        (0, 4, 3, -2), (0, 5, 4, 1), (1, 3, 3, 2),
        (1, 5, 5, -2), (2, 3, 4, -1), (2, 4, 5, 2),
        (3, 4, 0, 2), (3, 5, 1, -1), (4, 5, 2, 2),
    ]
    form = block_diag([[0, 0, 1], [0, 2, 0], [1, 0, 0]], [[0, 0, -1], [0, -2, 0], [-1, 0, 0]])
    alg = QuadraticLieAlgebra.from_triples(
        6, triples, form, basis_names=("e", "h", "f", "ie", "ih", "if")
    )
    half = F(1, 2)
    samples = (
        _realify([[co, cz], [cz, co]]),
        _realify([[co, co], [cz, co]]),
        _realify([[co, ci], [cz, co]]),
        _realify([[co, cz], [ci, co]]),
        _realify([[co, (1, 1)], [cz, co]]),
        _realify([[(2, 0), cz], [cz, (half, 0)]]),
        _realify([[(1, 1), (0, 0)], [(0, 0), (half, -half)]]),
        _realify([[(1, 0), (1, 0)], [(1, 0), (2, 0)]]),
        _realify([[(1, 0), (0, -1)], [(0, 1), (2, 0)]]),
        _realify([[(2, 0), (1, 1)], [(0, 0), (half, 0)]]),
    )
    return GroupContext(
        name="sl2c-real",
        ambient_size=4,
        algebra_basis=basis,
        algebra=alg,
        sample_points=samples,
        membership=_complex_det_is_one,
    )


def sl2c_triangular_complement() -> ExactSubspace:
    """Complex-Cartan anti-diagonal plus the two complex nilpotent wings,
    inside the double of the realified algebra (ambient dim 12)."""
    one = identity(6)
    cartan, lower, upper = ((one[i], one[j]) for i, j in ((1, 4), (2, 5), (0, 3)))
    # (h, -h) and (ih, -ih); f and if on the left; e and ie on the right
    rows = hstack(cartan, [[-x for x in row] for row in cartan])
    rows += hstack(lower, zeros(2, 6)) + hstack(zeros(2, 6), upper)
    return ExactSubspace.span(rows, ambient_dim=12)


GROUP_CONTEXT_NAMES = ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real")
TRIPLE_CONTEXT_NAMES = ("sl2-triangular-triple", "abelian-2")


def get_group_context(name: str) -> GroupContext:
    if name == "sl2-double":
        return sl2_context()
    if name == "sl2-pair":
        return sl2_pair_context()
    if name == "abelian-2":
        return abelian2_group_context()
    if name == "sl2c-real":
        return sl2c_realified_context()
    raise KeyError(f"unknown context {name!r}")


def get_triple_context(name: str) -> TripleContext:
    if name == "sl2-triangular-triple":
        return sl2_triangular_triple()
    if name == "abelian-2":
        return abelian2_triple()
    raise KeyError(f"unknown triple context {name!r}")


# the named splittings of each context that `courantlab bivector
# --splitting` offers; the first is the default
SPLITTING_NAMES = {
    "sl2-double": ("delta-antidelta", "delta-triangular"),
    "sl2-pair": ("plus", "minus"),
    "abelian-2": ("lines",),
    "sl2c-real": ("delta-antidelta",),
}


@lru_cache(maxsize=None)
def named_splitting(ctx_name: str, name: str) -> Splitting:
    """The splitting ``name`` of the context's double (of its own algebra
    for abelian-2), built on first use and kept; a splitting that a
    triple keeps is that one."""
    if name not in SPLITTING_NAMES.get(ctx_name, ()):
        raise KeyError(f"context {ctx_name!r} has no splitting {name!r}")
    if ctx_name == "sl2-pair":
        t = sl2_triangular_triple()
        return t.plus if name == "plus" else t.minus
    if ctx_name == "abelian-2":
        return abelian2_triple().splitting
    if name == "delta-triangular":
        return sl2_triangular_triple().splitting
    ctx = get_group_context(ctx_name)
    return Splitting.of_algebra(
        ctx.double_algebra, diagonal_subspace(ctx.algebra, 1), diagonal_subspace(ctx.algebra, -1)
    )
