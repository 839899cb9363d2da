import ast
import math
from fractions import Fraction as F
from pathlib import Path

from exact_strategies import rational_values


def _helper_calls() -> set[tuple[int, int]]:
    """The (bound, max_denominator) of each rationals(...) call in the tests."""
    found = set()
    for path in Path(__file__).parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "rationals"):
                found.add(tuple(ast.literal_eval(a) for a in node.args))
    return found


def _over_one_denominator(bound: int, max_denominator: int) -> set[F]:
    """The same set, enumerated as multiples of 1/L for L = lcm(1..d)."""
    den = math.lcm(*range(1, max_denominator + 1))
    return {x for k in range(-bound * den, bound * den + 1)
            if (x := F(k, den)).denominator <= max_denominator}


def test_each_helper_call_draws_the_fraction_strategy_value_set():
    calls = _helper_calls()
    # the six sites: four distinct calls in test_exactlin, one in test_liegrp
    assert calls == {(3, 3), (4, 6), (3, 4), (5, 3), (5, 7)}
    for bound, d in calls:
        values = rational_values(bound, d)
        assert len(values) == len(set(values))
        assert set(values) == _over_one_denominator(bound, d)
        # simplest first: 0, then the integers, then by denominator
        assert values[0] == 0 and values[1:3] == [1, -1]
        assert [x.denominator for x in values] == sorted(x.denominator for x in values)
