"""Malformed input ends in a report or an ``error:`` line, never a traceback.

Each case copies one of the six ``perfbench/data`` files (read, never
changed), applies 1 to 3 seeded edits to its parsed JSON or to its text,
writes the result to a temporary file and runs it in process through
``validate`` (alone, or with the triangular ``--g1``/``--g2`` pair) or
through ``bivector --e-file/--f-file``.  Every case must return exit code
0, 1 or 2 and raise nothing.  The seed and the case count are fixed.
"""

import contextlib
import io
import json
import random
from pathlib import Path

from courantlab.cli import main

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
ALGEBRAS = ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real")
HALVES = ("sl2-triangular-g1", "sl2-triangular-g2")
SEED = 1
CASES = 300

# values an edit puts in place of, or beside, a part of the document
JUNK = (0, 1, -1, 2, 7, 10 ** 9, -(10 ** 9), 0.5, 1e308, "1/0", "0/0", "x", "1/2", "-3/4",
        "", "1e3", None, True, False, [], {}, [0], [[0]], ["1", "0"], {"a": 1})


def _containers(doc, found=None):
    """Every list and dict in the document, the document first."""
    found = [] if found is None else found
    if isinstance(doc, (list, dict)):
        found.append(doc)
        for child in (doc.values() if isinstance(doc, dict) else doc):
            _containers(child, found)
    return found


def _edit(rng: random.Random, doc):
    """One structural edit in place: replace, delete or insert an item of a
    random list or dict; the document itself may be replaced."""
    target = rng.choice(_containers(doc)) if isinstance(doc, (list, dict)) else None
    if target is None or rng.random() < 0.05:
        return rng.choice(JUNK)
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    kind = rng.choice(("replace", "delete", "insert")) if keys else "insert"
    if kind == "replace":
        target[rng.choice(keys)] = rng.choice(JUNK)
    elif kind == "delete":
        del target[rng.choice(keys)]
    elif isinstance(target, dict):
        target[rng.choice(("ambient_dim", "basis", "dim", "form", "brackets", "extra"))] = rng.choice(JUNK)
    else:
        target.insert(rng.randrange(len(target) + 1), rng.choice(JUNK))
    return doc


def _mutated(rng: random.Random, name: str) -> str:
    """The text of a data file after 1 to 3 edits, of its JSON or its text."""
    text = (DATA / f"{name}.json").read_text()
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(("", "[", "]", "{", ",", "\"", "9", "-")) + text[i + 1:]
            continue
        try:
            doc = json.loads(text)
        except ValueError:
            continue
        text = json.dumps(_edit(rng, doc))
    return text


def _case(rng: random.Random, tmp: Path, index: int) -> list[str]:
    """The argv of one case, with its mutated file written under tmp."""
    paths = {name: str(DATA / f"{name}.json") for name in ALGEBRAS + HALVES}
    name = rng.choice(ALGEBRAS + HALVES)
    path = tmp / f"case-{index}-{name}.json"
    path.write_text(_mutated(rng, name))
    paths[name] = str(path)
    if name in HALVES and rng.random() < 0.5:
        return ["bivector", "--ctx", "sl2-double", "--point", str(rng.randrange(12)),
                "--e-file", paths[HALVES[0]], "--f-file", paths[HALVES[1]]]
    if name in HALVES or (name == "sl2-pair" and rng.random() < 0.5):
        return ["validate", paths["sl2-pair"], "--g1", paths[HALVES[0]], "--g2", paths[HALVES[1]]]
    return ["validate", paths[name]]


def test_malformed_input_never_ends_in_a_traceback(tmp_path):
    rng = random.Random(SEED)
    failures, codes = [], set()
    for index in range(CASES):
        argv = _case(rng, tmp_path, index)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # a traceback: the case is the finding
            failures.append(f"{argv}: {type(exc).__name__}: {exc}")
            continue
        codes.add(code)
        if code not in (0, 1, 2) or "Traceback" in err.getvalue():
            failures.append(f"{argv}: exit {code}: {err.getvalue()!r}")
    assert failures == []
    # the edits reach both the input errors and the checks past them
    assert {0, 1, 2} <= codes
