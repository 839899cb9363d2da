"""Fractions are built only at the edges of the package.

While ``verify all --seed 1`` (and a ``bivector`` and a ``validate`` run
beside it) runs in process, each call of ``exactlin.frac_matrix``,
``exactlin.matrix`` and ``exactlin._unit_pivot`` records the function that
made it.  Every such caller must be on ``EDGES``, which says why each one
stays: JSON in and out, the report, the shipped literal context data, and
the Fraction views a reader asks for.  Every other exact matrix is an
integer table.
"""

import contextlib
import io
import sys
from pathlib import Path

from courantlab import exactlin
from courantlab.cli import main

RECORDED = ("frac_matrix", "matrix", "_unit_pivot")

EDGES = {
    "exactlin.ExactSubspace.basis": "the unit-pivot Fraction basis, a view built on first read "
                                    "(the report's drinfeld_lagrangian rows, JSON out)",
    "exactlin._unit_pivot": "the rows of that view, each divided by its pivot",
    "exactlin.ExactSubspace.from_json": "JSON in: the basis of a --g1/--g2/--e-file/--f-file",
    "quadlie.QuadraticLieAlgebra.from_triples": "input coercion of the form rows, from JSON "
                                                "and from the literal shipped algebras",
    "lagrel.Splitting.duals": "the Fraction view of the dual frame, which the README reads",
    "lagrel.Bivector.matrix": "the report: the pi rows of the bivector command",
    "contexts.sl2_samples": "shipped literal context data: the SL2 sample points",
    "contexts.sl2_context": "shipped literal context data: the sl2 basis",
    "contexts.sl2_pair_context": "shipped literal context data: the SL2 x SL2 basis",
    "contexts.abelian2_group_context": "shipped literal context data: the abelian basis "
                                       "and sample points",
}

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
RUNS = (
    ["verify", "all", "--seed", "1"],
    ["bivector", "--ctx", "sl2-pair", "--point", "3", "--json"],
    ["validate", f"{DATA}/sl2-pair.json", "--g1", f"{DATA}/sl2-triangular-g1.json",
     "--g2", f"{DATA}/sl2-triangular-g2.json"],
)


def _caller(depth: int) -> str:
    """The module-qualified function ``depth`` frames up, with the package
    prefix and any nested comprehension or local function dropped."""
    frame = sys._getframe(depth + 1)
    module = frame.f_globals["__name__"].removeprefix("courantlab.")
    return f"{module}.{frame.f_code.co_qualname.split('.<locals>')[0]}"


def _record(monkeypatch) -> set[str]:
    """Wrap the recorded functions on every courantlab module that binds
    them; the returned set fills with their callers."""
    callers = set()
    for name in RECORDED:
        original = getattr(exactlin, name)

        def recorder(*args, _original=original, **kwargs):
            callers.add(_caller(1))
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (module and module.__name__.startswith("courantlab")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, recorder)
    return callers


def _off_the_edges(callers: set[str]) -> set[str]:
    return callers - EDGES.keys()


def test_fractions_are_built_at_the_edges_only(monkeypatch):
    callers = _record(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in RUNS] == [0, 0, 0]
    # kept views built by earlier tests in the process are not built again,
    # but JSON is read afresh on every run
    assert "exactlin.ExactSubspace.from_json" in callers
    assert _off_the_edges(callers) == set()


def _off_the_list():
    return exactlin.frac_matrix([[1, 2]], 3)


def test_a_caller_off_the_edges_fails(monkeypatch):
    callers = _record(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(RUNS[1]) == 0
    assert _off_the_edges(callers) == set()
    _off_the_list()
    assert _off_the_edges(callers) == {f"{__name__}._off_the_list"}
