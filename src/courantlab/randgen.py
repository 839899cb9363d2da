"""Seeded random instances: split-form-preserving matrices, Lagrangian
splittings, anchors with coisotropic stabilizers, and Lagrangian
relations.  Entries stay small rationals so the exact elimination
downstream is fast and overflow-free.

Draws are integers: a block of small rationals is drawn as integer
numerators over one denominator, a draw is inverted by one integer
elimination, and the transforms are multiplied up on integer rows by
``exactlin.int_products``.  Fractions are read back, by
``exactlin.frac_matrix``, only in the matrices that
``random_split_transform`` and ``random_coisotropic_anchor`` return.

Everything is driven by a caller-supplied ``random.Random`` so fixed
seeds reproduce identical instances byte for byte.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, lcm

from .exactlin import (
    ExactSubspace,
    Matrix,
    SingularMatrixError,
    _inverse_rows,
    frac_matrix,
    int_products,
)
from .lagrel import LinearRelation, Splitting, hyperbolic_space
from .quadlie import QuadraticLieAlgebra

IntRows = list[list[int]]

WORDS = 3  # elementary factors in one random split transform


def _small_ints(rng: random.Random, count: int) -> tuple[list[int], int]:
    """count small rationals n/d, n in [-2, 2] and d in [1, 3], drawn in
    turn, as integer numerators over one denominator."""
    draws = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(count)]
    den = lcm(*[d for _, d in draws])
    return [n * (den // d) for n, d in draws], den


def random_antisym(rng: random.Random, k: int) -> tuple[IntRows, int]:
    """A random antisymmetric k x k matrix as integer rows over one
    denominator; the entries above the diagonal are drawn row by row."""
    nums, den = _small_ints(rng, k * (k - 1) // 2)
    upper = iter(nums)
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            x = next(upper)
            rows[i][j], rows[j][i] = x, -x
    return rows, den


def random_invertible(rng: random.Random, k: int) -> tuple[tuple[IntRows, int], tuple[IntRows, int]]:
    """A random invertible k x k matrix a and a^-1, each as integer rows
    over one denominator: draws until one elimination inverts the draw."""
    while True:
        nums, den = _small_ints(rng, k * k)
        a = [nums[i * k:(i + 1) * k] for i in range(k)]
        try:
            inv, inv_den = _inverse_rows(a)
        except SingularMatrixError:
            continue
        # (a / den)^-1 = den * a^-1
        return (a, den), ([[den * x for x in row] for row in inv], inv_den)


def _split_transform_cols(rng: random.Random, k: int, j: int) -> tuple[IntRows, int]:
    """The first j columns of random_split_transform (j = 2k: all of it) as
    integer rows over one denominator, divided by their content after each
    word.  The WORDS factors are drawn in order, then applied right to left
    to [I_j; 0]: with x = [X1; X2] in k-row blocks, block_diag(a, a^-T)
    sends x to [a X1; a^-T X2], [[I, N], [0, I]] to [X1 + N X2; X2] and
    [[I, 0], [N, I]] to [X1; N X1 + X2]."""
    words = []
    for _ in range(WORDS):
        kind = rng.randrange(3)
        words.append((kind, (random_invertible if kind == 0 else random_antisym)(rng, k)))
    g = [[int(i == c) for c in range(j)] for i in range(2 * k)]
    den = 1
    for kind, word in reversed(words):
        top, bottom = g[:k], g[k:]
        if kind == 0:
            (a, da), (b, db) = word
            top = [[x * db for x in row] for row in int_products(a, list(zip(*top)))]
            # the rows of a^-T are the columns of b
            bottom = [[x * da for x in row] for row in int_products(list(zip(*b)), list(zip(*bottom)))]
            den *= da * db
        else:
            nm, dn = word
            if kind == 1:
                top = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(top, int_products(nm, list(zip(*bottom))))]
                bottom = [[dn * x for x in row] for row in bottom]
            else:
                bottom = [[dn * x + y for x, y in zip(r, u)] for r, u in zip(bottom, int_products(nm, list(zip(*top))))]
                top = [[dn * x for x in row] for row in top]
            den *= dn
        g = top + bottom
        content = gcd(den, *[x for row in g for x in row])
        if content > 1:
            g = [[x // content for x in row] for row in g]
            den //= content
    return g, den


def random_split_transform(rng: random.Random, k: int) -> Matrix:
    """A word of elementary transformations preserving the hyperbolic form
    [[0, I], [I, 0]] on Q^2k."""
    g, den = _split_transform_cols(rng, k, 2 * k)
    return frac_matrix(g, den)


def random_lagrangian_splitting(rng: random.Random, k: int) -> Splitting:
    """A random splitting of the hyperbolic space Q^2k."""
    g, _ = _split_transform_cols(rng, k, 2 * k)
    cols = [list(c) for c in zip(*g)]
    e = ExactSubspace.of_rows(2 * k, cols[:k])
    f = ExactSubspace.of_rows(2 * k, cols[k:])
    return Splitting(hyperbolic_space(k), e, f)


def random_coisotropic_anchor(
    rng: random.Random, k: int
) -> tuple[Matrix, int]:
    """An anchor on Q^2k (hyperbolic form) whose kernel is coisotropic.

    The kernel is the orthogonal of a random isotropic subspace of
    dimension j <= k; the chart dimension equals j.
    """
    j = rng.randint(0, k)
    g, den = _split_transform_cols(rng, k, j)
    if not j:
        return (), 0
    (tmix, dt), _ = random_invertible(rng, j)
    # read the first j "f"-coordinates of g^-1 x: kernel = g(span of the
    # orthogonal of the first j isotropic e-directions).  g preserves the
    # form J = [[0, I], [I, 0]], so g^-1 = J g^T J and row k + r of g^-1
    # is column r of g with its two halves swapped, so column c of those
    # j rows is row c + k (mod 2k) of the first j columns of g.
    cols = [g[(c + k) % (2 * k)] for c in range(2 * k)]
    return frac_matrix(int_products(tmix, cols), dt * den), j


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
    g, _ = _split_transform_cols(rng, kk, kk)
    # the first kk columns of frame * g: row c of g lands at its frame index
    rows = [[0] * (2 * kk) for _ in range(kk)]
    for (index, sign), grow in zip(frame, g):
        for j in range(kk):
            rows[j][index] = sign * grow[j]
    graph = ExactSubspace.of_rows(2 * kk, rows)
    return LinearRelation(source, target, graph)
