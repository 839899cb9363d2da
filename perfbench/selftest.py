"""Self-test of the benchmark, with no timing assertions.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It
- runs every workload at a tiny size, untraced and traced, and checks
  the result line against BENCHMARK.json's metric lists;
- checks two negative controls: a wrong recorded digest and a report
  with one record flipped to "fail" must each count as a failed op;
- checks that the benchmark refuses to run, without printing a result,
  in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from worker import inspect_report  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'pass' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names the workloads the benchmark runs")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            what = f"{workload} --trace {trace} --tiny"
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and bool(lines), f"{what} exits 0")
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what} result line is correct")
            check(sorted(result["metrics"]) == sorted(wanted[trace]),
                  f"{what} reports exactly the metrics of BENCHMARK.json")
            check(all(m["unit"] == units[name] for name, m in result["metrics"].items()),
                  f"{what} reports the units of BENCHMARK.json")


def negative_controls() -> None:
    ops = workloads.ops_for("bivector-queries", 7, tiny=True)[:3]
    os.makedirs(run.WORK, exist_ok=True)
    job = {"src": run.SRC, "ops": ops, "out_dir": os.path.join(run.WORK, "selftest")}
    results = run.run_worker(job, "selftest", time.monotonic() + run.RUN_LIMIT_S)["ops"]
    shutil.rmtree(job["out_dir"], ignore_errors=True)
    check(run.judge([dict(r) for r in results], {}, strict=False) == 0,
          "an untampered pass has no failed ops")
    wrong = {results[0]["name"]: "0" * 64}
    check(run.judge([dict(r) for r in results], wrong, strict=False) >= 1,
          "a wrong recorded digest counts as a failed op")
    check(run.judge([dict(r) for r in results], {}, strict=True) == len(results),
          "an op with no recorded digest fails at the default seed")

    sys.path.insert(0, run.SRC)
    from courantlab import cli

    out = os.path.join(run.WORK, "selftest-report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(ops[0]["argv"] + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    check(inspect_report(rc, json.dumps(report)) is None, "a real report passes the gate")
    report["records"][0]["status"] = "fail"
    flipped = [{**results[0], "problem": inspect_report(rc, json.dumps(report))}] + results[1:]
    check(run.judge(flipped, {}, strict=False) == 1,
          "a report with a flipped record counts as a failed op")
    check(inspect_report(2, None) is not None, "a nonzero exit code fails the gate")


def refuses_without_sources() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", workloads.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "with only BENCHMARK.json and perfbench/ it exits nonzero and prints no result")


def main() -> int:
    tiny_runs()
    negative_controls()
    refuses_without_sources()
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
