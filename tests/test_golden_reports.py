"""Byte-level pins of a few fast seeded reports.

The sha256 of each report file is fixed, so any change to the exact
kernel or the calculus that moves a single byte of these reports fails
here, long before the full ``verify all`` determinism check runs.  Each
pinned report is also kept as bytes, in ``tests/golden/<name>.json``,
which must hash to its digest; when a report differs, the failure names
the records added, removed and changed before the digest check fails.
A deliberate change of a report must update its digest and its stored
file, and say why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from courantlab import liegrp
from courantlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "mult": (
        ["verify", "mult", "--seed", "1"],
        "6fc7ff38e4ca5edce9907f3d295f7594ce48b2863d08ad96995a19fa8f659666",
    ),
    "dressing": (
        ["verify", "dressing", "--seed", "1"],
        "cca591e0bef891d381987bc1aa69f5af535d690e535860fa9f2edf7ae00dc2ad",
    ),
    "all": (
        ["verify", "all", "--seed", "1"],
        "9e8326a8b1a83b52543cea1398fcb9b6fb2800a27bd4c681f4b1b92ebf20aca9",
    ),
    "leaves": (
        ["verify", "leaves", "--seed", "1"],
        "96752ced42424b7370e1830f4ff85a952a3c17a6c34f53f84d1118bcbb06a586",
    ),
    "rank": (
        ["verify", "rank", "--seed", "1", "--samples", "20"],
        "6929fcde0d4c62ae4d0106b5e992982a1a4349eeb21ad23f139a567c7b3f9848",
    ),
    "relations": (
        ["verify", "relations", "--seed", "1", "--samples", "20"],
        "29dea1997dacb33d2d5259b99054883970514499b472000c89fe04d2779a901d",
    ),
    "mult-abelian-2": (
        ["verify", "mult", "--ctx", "abelian-2", "--seed", "1"],
        "ba77eea2effcd194d71c737617b664b0673933434f09a3fbaf809a242d2f9b82",
    ),
    "dressing-abelian-2": (
        ["verify", "dressing", "--ctx", "abelian-2", "--seed", "1"],
        "acb1f30c1e9f8b27af692b85b374576dd562810875859f72f16dfe283882b6ce",
    ),
    "schouten-sl2c-real": (
        ["verify", "schouten", "--ctx", "sl2c-real", "--samples", "4"],
        "31ab23c4ef814b8a3777e13140e077f27900b0fe08f693926a1fc9d9e06d8afe",
    ),
    "bivector-sl2-double": (
        ["bivector", "--ctx", "sl2-double", "--point", "3", "--splitting", "delta-triangular"],
        "9901e21319142e16ed9ca9c2c888f2848b70cf032420c824778973c03c890515",
    ),
    "bivector-sl2-pair": (
        ["bivector", "--ctx", "sl2-pair", "--point", "2", "--splitting", "minus"],
        "16863e4ca9c2c17dc9d4b318ee9a355719a2c82da2da26d43acd585f3bed8ee0",
    ),
    "bivector-sl2c-real": (
        ["bivector", "--ctx", "sl2c-real", "--point", "1"],
        "0c0f1d5227a92e0e3bd80f017fe1f57489891b13429617b93081f4b630a56006",
    ),
    # the FD stencils at a step and at seeds the pins above do not reach
    "schouten-h-0.001": (
        ["verify", "schouten", "--h", "0.001"],
        "598e6bb75e8224dd503b0b3014f5ac6403767b4da41afb40b050d88409d65234",
    ),
    "mult-seed-2": (
        ["verify", "mult", "--seed", "2"],
        "12f7a05442d9f9fd09af92e0eb93c7b1cb564f2acf8dca095fae8d1ab7638caf",
    ),
    "dressing-seed-7": (
        ["verify", "dressing", "--seed", "7"],
        "2fa0bbcf5ea2d92b2c1287b26a3a177549ef102f4f32378e5d4262331a96576d",
    ),
    "dressing-seed-11": (
        ["verify", "dressing", "--seed", "11"],
        "66ba3ed1c7fed894f2be6f2e211658be0f35c39d20ec9651b519a076382c78be",
    ),
    "mult-seed-5": (
        ["verify", "mult", "--seed", "5"],
        "26936e532673953730fd6de89d1a07b092cf881a832f2b57c9379f5fa4fa3bdd",
    ),
    # the random generator at a second seed, and rank at the benchmark's size
    "all-seed-3": (
        ["verify", "all", "--seed", "3"],
        "667e6245fbb17d2384808ce0ed356348dd6b00926dadbf66658fb4a0b64fca30",
    ),
    "rank-seed-3": (
        ["verify", "rank", "--seed", "3", "--samples", "50"],
        "c48f0c708432c7c7a09bd28b3ae2ac4b066c2aeb1b31f77c7115dde3530b8bd5",
    ),
    # the random generator's relations and anchors at a held-out seed
    "relations-seed-5": (
        ["verify", "relations", "--seed", "5"],
        "79ad82c296f8b4db112b3aa180b7c54363d375002bfc1f96e3669626abb20b01",
    ),
    "leaves-seed-5": (
        ["verify", "leaves", "--seed", "5"],
        "e38a8300976760185485c8ca67b72151753b18119cc19dcab8351a5134a67690",
    ),
    # a step at which the mult FD records break down: they fail with the
    # exception text, and every other record of every suite still runs
    "all-h-0.3": (
        ["verify", "all", "--seed", "1", "--h", "0.3"],
        "d9cba9a32c1752e3bf968c134462ff2f38fec207796678bd5a5a19ce56f68bae",
    ),
}

# the exit code of a pinned report that fails a check; every other one
# passes.  At h = 1e-3 the flat chart's O(h^2) residual is 4e-6, above
# the default tolerance; at h = 0.3 the FD records fail or break down.
FAILING = {"schouten-h-0.001": 2, "all-h-0.3": 2}


def _keyed_records(report: dict) -> dict:
    """The report's records by name; a name's later occurrences get
    " (#k)" appended, so repeated names stay apart."""
    keyed, seen = {}, {}
    for record in report.get("records", []):
        name = record.get("name")
        seen[name] = seen.get(name, 0) + 1
        keyed[name if seen[name] == 1 else f"{name} (#{seen[name]})"] = record
    return keyed


def report_diff(want: bytes, got: bytes) -> list[str]:
    """One line per record added, removed or changed between two reports,
    by name, and per other top-level field that differs."""
    old, new = json.loads(want), json.loads(got)
    lines = [f"field {key!r} changed" for key in sorted(set(old) | set(new))
             if key != "records" and old.get(key) != new.get(key)]
    before, after = _keyed_records(old), _keyed_records(new)
    lines += [f"added record {name!r}" for name in after if name not in before]
    lines += [f"removed record {name!r}" for name in before if name not in after]
    lines += [f"changed record {name!r}: {before[name]} -> {after[name]}"
              for name in before if name in after and before[name] != after[name]]
    return lines


def check_report(name: str, out: Path) -> None:
    """Write the report ``name`` to ``out`` and compare it with the stored
    bytes, record by record, then by digest."""
    argv, digest = GOLDEN[name]
    code = main(argv + ["--out", str(out)])
    got, want = out.read_bytes(), (GOLDEN_DIR / f"{name}.json").read_bytes()
    diff = report_diff(want, got)
    assert not diff, f"report {name} differs from tests/golden/{name}.json:\n" + "\n".join(diff)
    assert code == FAILING.get(name, 0)
    assert hashlib.sha256(got).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stored_report_hashes_to_its_digest(name):
    stored = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert hashlib.sha256(stored).hexdigest() == GOLDEN[name][1]


def test_every_stored_report_is_pinned():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path, capsys):
    check_report(name, tmp_path / "report.json")
    capsys.readouterr()


def test_a_changed_record_is_named_before_the_digest(monkeypatch, tmp_path, capsys):
    # a pull-back check that fails turns one record of the dressing report
    # from pass to fail, and the report's verdict with it
    monkeypatch.setattr(liegrp, "dressing_pullback_check", lambda x: False)
    with pytest.raises(AssertionError) as failure:
        check_report("dressing-abelian-2", tmp_path / "report.json")
    capsys.readouterr()
    message = str(failure.value)
    assert "changed record 'pull-back reduction == dressing anchor through phi^R'" in message
    assert "field 'pass' changed" in message
    assert "added record" not in message and "removed record" not in message


def test_report_diff_names_added_removed_and_repeated_records():
    old = {"pass": True, "records": [{"name": "a", "status": "pass"}, {"name": "b"},
                                     {"name": "a", "status": "pass"}]}
    new = {"pass": True, "records": [{"name": "a", "status": "pass"}, {"name": "c"},
                                     {"name": "a", "status": "fail"}]}
    as_bytes = [json.dumps(r).encode() for r in (old, new)]
    assert report_diff(*as_bytes) == [
        "added record 'c'", "removed record 'b'",
        "changed record 'a (#2)': {'name': 'a', 'status': 'pass'} -> {'name': 'a', 'status': 'fail'}",
    ]
    assert report_diff(as_bytes[0], as_bytes[0]) == []
