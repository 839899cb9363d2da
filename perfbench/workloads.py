"""The benchmark's workloads: seeded lists of courantlab CLI invocations.

An op is one `courantlab.cli.main` call.  Every op carries a `name`
(its argv, which identifies its report across passes and runs) and a
`slot` ("a", "b", "c" or None): the `verdict_s.<slot>` metric is the
median time to verdict of the ops in that slot.  Pass p of a run at
seed s runs the ops of workload seed `pass_seed(s, p)`, so the same seed
gives the same inputs while the passes of a run cover different ones.
"""

from __future__ import annotations

import random

DATA = "perfbench/data"
DEFAULT_SEED = 1
# A run makes at most this many passes; the default seed's digests are
# recorded for all of them.
MAX_PASSES = 12

# Every context, splitting and sample point that `courantlab bivector`
# accepts.  The abelian-2 desk case ignores --point, so it has one query.
QUERY_SPACE = (
    ("sl2-double", "delta-antidelta", 12),
    ("sl2-double", "delta-triangular", 12),
    ("sl2-pair", "plus", 12),
    ("sl2-pair", "minus", 12),
    ("sl2c-real", "delta-antidelta", 10),
    ("abelian-2", "lines", 1),
)
QUERY_SLOTS = {"sl2-double": "a", "sl2-pair": "b", "sl2c-real": "c"}
QUERIES_PER_PASS = 100

# Op slots, per workload, in the order a, b, c.
SLOT_NAMES = {
    "exact-random": ("rank", "leaves", "relations"),
    "group-shipped": ("schouten-sl2c", "mult", "dressing"),
    "bivector-queries": ("sl2-double queries", "sl2-pair queries", "sl2c-real queries"),
}
WORKLOADS = tuple(SLOT_NAMES)


def _op(argv: list[str], slot: str | None = None) -> dict:
    return {"name": " ".join(argv), "argv": argv, "slot": slot}


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def exact_random(seed: int, tiny: bool = False) -> list[dict]:
    """`verify rank`, `leaves` and `relations` on fresh random instances.

    The instance sizes of one seed move a suite's time by about 15%, so
    a pass is small (rank at half and relations at a quarter of their
    `verify all` sizes, leaves at its size) and a run makes as many
    passes on new instances as fit in its time."""
    samples = ({"rank": 6, "leaves": 4, "relations": 16} if tiny
               else {"rank": 50, "leaves": 40, "relations": 50})
    ops = []
    for suite, slot in (("rank", "a"), ("leaves", "b"), ("relations", "c")):
        argv = ["verify", suite, "--seed", str(seed)]
        if suite in samples:
            argv += ["--samples", str(samples[suite])]
        ops.append(_op(argv, slot))
    return ops


def group_shipped(seed: int, tiny: bool = False) -> list[dict]:
    """`validate` on the shipped algebras, then the chart and group suites."""
    ops = [_op(["validate", f"{DATA}/{name}.json"])
           for name in ("sl2-double", "sl2-pair", "abelian-2", "sl2c-real")]
    ops.append(_op(["validate", f"{DATA}/sl2-pair.json",
                    "--g1", f"{DATA}/sl2-triangular-g1.json",
                    "--g2", f"{DATA}/sl2-triangular-g2.json"]))
    ops.append(_op(["verify", "schouten"]))
    ops.append(_op(["verify", "schouten", "--ctx", "sl2c-real", "--samples", "2" if tiny else "4"], "a"))
    # Below 3 samples `verify dressing` indexes past its sample points.
    ops.append(_op(["verify", "mult", "--seed", str(seed)] + (["--samples", "2"] if tiny else []), "b"))
    ops.append(_op(["verify", "dressing", "--seed", str(seed)] + (["--samples", "3"] if tiny else []), "c"))
    return ops


def query_space() -> list[list[str]]:
    return [
        ["bivector", "--ctx", ctx, "--splitting", splitting, "--point", str(p)]
        for ctx, splitting, points in QUERY_SPACE
        for p in range(points)
    ]


def bivector_queries(seed: int, tiny: bool = False) -> list[dict]:
    """A shuffled stream that covers the query space once, topped up to
    QUERIES_PER_PASS with seeded repeats."""
    rng = random.Random(f"bivector-queries:{seed}")
    space = query_space()
    if tiny:
        space = rng.sample(space, 8)
        stream = space + [rng.choice(space) for _ in range(4)]
    else:
        stream = space + [rng.choice(space) for _ in range(QUERIES_PER_PASS - len(space))]
    rng.shuffle(stream)
    return [_op(argv, QUERY_SLOTS.get(argv[2])) for argv in stream]


def ops_for(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    if workload == "exact-random":
        return exact_random(seed, tiny)
    if workload == "group-shipped":
        return group_shipped(seed, tiny)
    if workload == "bivector-queries":
        return bivector_queries(seed, tiny)
    raise KeyError(f"unknown workload {workload!r}")


def repeat_share(ops: list[dict]) -> float:
    """Share of ops whose exact argv already ran earlier in the list."""
    return 1.0 - len({op["name"] for op in ops}) / len(ops)
