"""Hypothesis strategies for small exact rationals.

``st.fractions(min_value=-b, max_value=b, max_denominator=d)`` draws from
a finite set, but it builds each draw in Hypothesis's engine, which took
most of the time of the tests that use it.  ``rationals(b, d)`` samples
the same set directly.
"""

from fractions import Fraction

from hypothesis import strategies as st


def rational_values(bound: int, max_denominator: int) -> list[Fraction]:
    """Every p/q with q <= max_denominator and |p/q| <= bound, once each,
    simplest first: by denominator, then by size, positive before
    negative."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(-bound * q, bound * q + 1)}
    return sorted(values, key=lambda x: (x.denominator, abs(x), x < 0))


def rationals(bound: int, max_denominator: int) -> st.SearchStrategy[Fraction]:
    """The values of ``rational_values(bound, max_denominator)``; a draw
    shrinks towards the front of that list, so towards 0."""
    return st.sampled_from(rational_values(bound, max_denominator))
