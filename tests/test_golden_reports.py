"""Byte-level pins of a few fast seeded reports.

The sha256 of each report file is fixed, so any change to the exact
kernel or the calculus that moves a single byte of these reports fails
here, long before the full ``verify all`` determinism check runs.  A
deliberate change of a report must update its digest and say why in
CHANGES.md.
"""

import hashlib

import pytest

from courantlab.cli import main

GOLDEN = {
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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
