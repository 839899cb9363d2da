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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
