"""Seeded random instances: split-form-preserving matrices, Lagrangian
splittings, anchors with coisotropic stabilizers, and Lagrangian
relations.  Entries stay small rationals so the exact elimination
downstream is fast and overflow-free.

Draws are integers: a block of small rationals is drawn as integer
numerators over one denominator, each numerator and denominator read
directly from ``rng.getrandbits`` with the rejection that
``rng.randint`` makes in CPython, so the draws and the generator's state
are those of the ``randint`` calls.  A split transform is applied to the
columns a caller reads, each kept as two k-entry halves and multiplied
by ``exactlin.int_products``; a draw's inverse is computed only where it
meets a nonzero half, and the columns are put in lowest terms once, at
the end.  Every instance is built from integer rows: no Fraction is made.

Everything is driven by a caller-supplied ``random.Random`` so fixed
seeds reproduce identical instances byte for byte.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import lcm

from .exactlin import ExactSubspace, _eliminate, _inverse_rows, int_products, lowest_terms
from .lagrel import LinearRelation, Splitting, hyperbolic_space
from .quadlie import QuadraticLieAlgebra

IntRows = list[list[int]]

WORDS = 3  # elementary factors in one random split transform


def _small_ints(rng: random.Random, count: int) -> tuple[list[int], int]:
    """count small rationals n/d, n in [-2, 2] and d in [1, 3], drawn in
    turn, as integer numerators over one denominator.  Each is read from
    rng.getrandbits(3) and rng.getrandbits(2), redrawn while out of range:
    CPython's randint(-2, 2) and randint(1, 3) make exactly these reads."""
    bits = rng.getrandbits
    nums, dens = [], []
    for _ in range(count):
        n = bits(3)
        while n > 4:
            n = bits(3)
        d = bits(2)
        while d > 2:
            d = bits(2)
        nums.append(n - 2)
        dens.append(d + 1)
    den = lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


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


def _full_rank_draw(rng: random.Random, k: int) -> tuple[IntRows, int]:
    """A random invertible k x k matrix as integer rows over one
    denominator: draws until one elimination finds rank k."""
    while True:
        nums, den = _small_ints(rng, k * k)
        a = [nums[i * k:(i + 1) * k] for i in range(k)]
        if len(_eliminate([row[:] for row in a], k, reduced=False)) == k:
            return a, den


def _split_transform_cols(rng: random.Random, k: int, j: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The first j columns of a random split transform (j = 2k: all of
    it), each as its 2k integer entries, over one denominator in lowest
    terms.  The WORDS factors are drawn in order, then applied right to
    left to the columns of [I_j; 0], each kept as halves x = [x1; x2]:
    block_diag(a, a^-T) sends x to [a x1; a^-T x2], [[I, N], [0, I]] to
    [x1 + N x2; x2] and [[I, 0], [N, I]] to [x1; N x1 + x2].  While every
    x2 is 0 (j <= k, up to the first [[I, 0], [N, I]]) the first two act
    on x1 alone, so a^-T is computed only where it meets a nonzero x2."""
    words = []
    for _ in range(WORDS):
        kind = rng.randrange(3)
        words.append((kind, (_full_rank_draw if kind == 0 else random_antisym)(rng, k)))
    tops = [[int(i == c) for i in range(k)] for c in range(j)]
    bottoms = [[int(i + k == c) for i in range(k)] for c in range(j)]
    den = 1
    for kind, (m, dm) in reversed(words):
        live = any(map(any, bottoms))
        if kind == 0:
            tops = int_products(tops, m)
            if live:
                # (m / dm)^-T = dm (m^T)^-1, and (m^T)^-1 = inv / di
                inv, di = _inverse_rows(list(zip(*m)))
                tops = [[di * x for x in t] for t in tops]
                bottoms = [[dm * dm * x for x in b] for b in int_products(bottoms, inv)]
                den *= di
            den *= dm
        elif kind == 2:
            bottoms = [[dm * x + y for x, y in zip(b, u)] for b, u in zip(bottoms, int_products(tops, m))]
            tops = [[dm * x for x in t] for t in tops]
            den *= dm
        elif live:
            tops = [[dm * x + y for x, y in zip(t, u)] for t, u in zip(tops, int_products(bottoms, m))]
            bottoms = [[dm * x for x in b] for b in bottoms]
            den *= dm
    return lowest_terms([t + b for t, b in zip(tops, bottoms)], den)


def random_lagrangian_splitting(rng: random.Random, k: int) -> Splitting:
    """A random splitting of the hyperbolic space Q^2k."""
    cols, _ = _split_transform_cols(rng, k, 2 * k)
    e = ExactSubspace.of_rows(2 * k, list(cols[:k]))
    f = ExactSubspace.of_rows(2 * k, list(cols[k:]))
    return Splitting(hyperbolic_space(k), e, f)


def _coisotropic_anchor_ints(rng: random.Random, k: int) -> tuple[IntRows, int, int]:
    """An anchor on Q^2k (hyperbolic form) whose kernel is coisotropic, as
    (integer rows, den, j): the kernel is the orthogonal of a random
    isotropic subspace of dimension j <= k, and the chart dimension is j."""
    j = rng.randint(0, k)
    cols, den = _split_transform_cols(rng, k, j)
    if not j:
        return [], 1, 0
    tmix, dt = _full_rank_draw(rng, j)
    # read the first j "f"-coordinates of g^-1 x: kernel = g(span of the
    # orthogonal of the first j isotropic e-directions).  g preserves the
    # form J = [[0, I], [I, 0]], so g^-1 = J g^T J and row k + r of g^-1
    # is column r of g with its two halves swapped.
    swapped = [c[k:] + c[:k] for c in cols]
    return int_products(tmix, list(zip(*swapped))), dt * den, j


@lru_cache(maxsize=64)
def random_abelian_split_algebra(k: int) -> QuadraticLieAlgebra:
    """The abelian quadratic algebra on the hyperbolic Q^2k, built once
    per k."""
    return QuadraticLieAlgebra(2 * k, (), hyperbolic_space(k).form, tuple(f"b{i}" for i in range(2 * k)))


def random_relation(
    rng: random.Random, k_source: int, k_target: int
) -> LinearRelation:
    """A random Lagrangian relation between hyperbolic spaces.

    Built from a random Lagrangian subspace of the graph space, using a
    hyperbolic frame of target (+) source-bar.
    """
    source = hyperbolic_space(k_source)
    target = hyperbolic_space(k_target)
    kt, kk = k_target, k_source + k_target
    cols, _ = _split_transform_cols(rng, kk, kk)
    # the first kk columns of frame * g, for the hyperbolic frame (e', e)
    # paired with (f', -f) of the graph space: entry c of a column lands
    # at frame vector c's index, e', f' in the target and e, f in the source
    rows = [c[:kt] + c[kk:kk + kt] + c[kt:kk] + tuple(-x for x in c[kk + kt:]) for c in cols]
    graph = ExactSubspace.of_rows(2 * kk, rows)
    return LinearRelation(source, target, graph)
