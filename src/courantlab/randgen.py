"""Seeded random instances: split-form-preserving matrices, Lagrangian
splittings, anchors with coisotropic stabilizers, and Lagrangian
relations.  Entries stay small rationals so the exact elimination
downstream is fast and overflow-free.

Everything is driven by a caller-supplied ``random.Random`` so fixed
seeds reproduce identical instances byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .exactlin import (
    ExactSubspace,
    Matrix,
    SingularMatrixError,
    _over_lcm,
    inverse,
    mat_mul,
    matrix,
    transpose,
)
from .lagrel import LinearRelation, Splitting, hyperbolic_space
from .quadlie import QuadraticLieAlgebra


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


def random_antisym(rng: random.Random, k: int) -> Matrix:
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = small_fraction(rng)
            rows[i][j] = x
            rows[j][i] = -x
    return tuple(tuple(r) for r in rows)


def random_invertible(rng: random.Random, k: int) -> tuple[Matrix, Matrix]:
    """A random invertible k x k matrix a and a^-1: draws until one
    elimination inverts the draw."""
    while True:
        a = matrix(
            [[small_fraction(rng) for _ in range(k)] for _ in range(k)]
        )
        try:
            return a, inverse(a)
        except SingularMatrixError:
            pass


def _ints_over_lcm(m: Matrix) -> tuple[list[list[int]], int]:
    """A k x k Fraction matrix as integer rows over one denominator."""
    k = len(m)
    nums, den = _over_lcm([x for row in m for x in row])
    return [nums[i * k:(i + 1) * k] for i in range(k)], den


def _times(rows: list[list[int]], m: list[list[int]]) -> list[list[int]]:
    """The integer product rows * m."""
    cols = list(zip(*m))
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def _split_transform_ints(rng: random.Random, k: int, words: int = 3) -> tuple[list[list[int]], int]:
    """random_split_transform as integer rows over one denominator.

    With g = [G1 | G2] in k-column blocks, the factors act by block
    updates: block_diag(a, a^-T) sends g to [G1 a | G2 a^-T],
    [[I, N], [0, I]] to [G1 | G1 N + G2] and [[I, 0], [N, I]] to
    [G1 + G2 N | G2].
    """
    n = 2 * k
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 1
    for _ in range(words):
        kind = rng.randrange(3)
        left = [row[:k] for row in g]
        right = [row[k:] for row in g]
        if kind == 0:
            a_frac, a_inv = random_invertible(rng, k)
            a, da = _ints_over_lcm(a_frac)
            b, db = _ints_over_lcm(transpose(a_inv))
            left = [[x * db for x in row] for row in _times(left, a)]
            right = [[x * da for x in row] for row in _times(right, b)]
            den *= da * db
        else:
            nm, dn = _ints_over_lcm(random_antisym(rng, k))
            if kind == 1:
                right = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(right, _times(left, nm))]
                left = [[dn * x for x in row] for row in left]
            else:
                left = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(left, _times(right, nm))]
                right = [[dn * x for x in row] for row in right]
            den *= dn
        g = [lr + rr for lr, rr in zip(left, right)]
        content = gcd(den, *[x for row in g for x in row])
        if content > 1:
            g = [[x // content for x in row] for row in g]
            den //= content
    return g, den


def random_split_transform(rng: random.Random, k: int, words: int = 3) -> Matrix:
    """A word of elementary transformations preserving the hyperbolic form
    [[0, I], [I, 0]] on Q^2k."""
    g, den = _split_transform_ints(rng, k, words)
    return tuple(tuple(Fraction(x, den) for x in row) for row in g)


def random_lagrangian_splitting(rng: random.Random, k: int) -> Splitting:
    """A random splitting of the hyperbolic space Q^2k."""
    g, _ = _split_transform_ints(rng, k)
    cols = [list(c) for c in zip(*g)]
    e = ExactSubspace.of_rows(2 * k, cols[:k])
    f = ExactSubspace.of_rows(2 * k, cols[k:])
    return Splitting(hyperbolic_space(k), e, f)


def random_lagrangian_subspace(rng: random.Random, k: int) -> ExactSubspace:
    g, _ = _split_transform_ints(rng, k)
    return ExactSubspace.of_rows(2 * k, [list(c) for c in zip(*g)][:k])


def random_coisotropic_anchor(
    rng: random.Random, k: int
) -> tuple[Matrix, int]:
    """An anchor on Q^2k (hyperbolic form) whose kernel is coisotropic.

    The kernel is the orthogonal of a random isotropic subspace of
    dimension j <= k; the chart dimension equals j.
    """
    j = rng.randint(0, k)
    g, den = _split_transform_ints(rng, k)
    tmix = random_invertible(rng, j)[0] if j else ()
    # read the first j "f"-coordinates of g^-1 x: kernel = g(span of the
    # orthogonal of the first j isotropic e-directions).  g preserves the
    # form J = [[0, I], [I, 0]], so g^-1 = J g^T J and row k + r of g^-1
    # is column r of g with its two halves swapped.
    rows = tuple(
        tuple(Fraction(g[(c + k) % (2 * k)][r], den) for c in range(2 * k)) for r in range(j)
    )
    return (mat_mul(tmix, rows) if j else ()), j


@lru_cache(maxsize=64)
def random_abelian_split_algebra(k: int) -> QuadraticLieAlgebra:
    """The abelian quadratic algebra on the hyperbolic Q^2k, built once
    per k."""
    form = hyperbolic_space(k).form
    return QuadraticLieAlgebra.from_triples(2 * k, [], form.matrix)


def random_relation(
    rng: random.Random, k_source: int, k_target: int
) -> LinearRelation:
    """A random Lagrangian relation between hyperbolic spaces.

    Built from a random Lagrangian subspace of the graph space, using a
    hyperbolic frame of target (+) source-bar.
    """
    source = hyperbolic_space(k_source)
    target = hyperbolic_space(k_target)
    kk = k_source + k_target
    nt = 2 * k_target
    # hyperbolic frame of the graph space: (e', e) paired with (f', -f);
    # frame vector c is sign * (unit vector at index)
    frame = ([(i, 1) for i in range(k_target)]
             + [(nt + i, 1) for i in range(k_source)]
             + [(k_target + i, 1) for i in range(k_target)]
             + [(nt + k_source + i, -1) for i in range(k_source)])
    g, _ = _split_transform_ints(rng, kk)
    # the first kk columns of frame * g: row c of g lands at its frame index
    rows = [[0] * (2 * kk) for _ in range(kk)]
    for (index, sign), grow in zip(frame, g):
        for j in range(kk):
            rows[j][index] = sign * grow[j]
    graph = ExactSubspace.of_rows(2 * kk, rows)
    return LinearRelation(source, target, graph)
