"""courantlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

Run it from the root of a checkout.  Every pass of a workload runs in a
fresh interpreter (perfbench/worker.py), because a CLI user never starts
with warm caches.  With --trace 0 the run measures set-up several times,
then runs passes, each on the inputs of its own pass seed, for about
--seconds, and reports the end-to-end metrics.  With --trace 1 it runs
the first pass untraced and then traced, and reports the per-layer
metrics.  Every op's report is checked; the last line of output is one
JSON object, and the exit code is 0 only when every op passed its
checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.json")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}
SETUP_PROBES = 3
MIN_PASSES = 2
# A run (one workload) must end within 180 s, whatever hangs.
RUN_LIMIT_S = 170
# Every reported time is scaled to a host on which the worker's speed
# kernel takes this long (about its fastest on the 2-vCPU Xeon this
# benchmark was defined on).  There the host's speed moved by up to 2x
# within seconds: the same op's raw time had an interquartile spread of
# 33% of its median, its scaled time 5%.
REFERENCE_CAL_S = 0.0006


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an op failing)."""


def machine(versions: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        **versions,
        "env_note": "COURANTLAB_THREADS is removed from every worker's environment",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COURANTLAB_THREADS", None)
    return env


def run_worker(job: dict, tag: str, deadline: float | None) -> dict:
    """Run one worker process to completion, at the latest by `deadline`
    on the monotonic clock (if given), and return its result."""
    job_path = os.path.join(WORK, f"{tag}.job.json")
    result_path = os.path.join(WORK, f"{tag}.result.json")
    log_path = os.path.join(WORK, f"{tag}.log")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=None if deadline is None else max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {tag} timed out; see {log_path}") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker {tag} exited with {proc.returncode}; see {log_path}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for path in (job_path, result_path, log_path):
        os.remove(path)
    if result["module"] != os.path.join("src", "courantlab", "__init__.py"):
        raise BenchError(f"imported courantlab from {result['module']}, not this checkout")
    return result


def judge(op_results: list[dict], expected: dict, strict: bool) -> int:
    """Set each op's `problem`, in run order, from its report check, its
    expected digest (recorded, or seen in an earlier run), and the digest
    of its first run in this benchmark run, and return the number of
    failed ops.  With `strict`, an op with no expected digest fails too."""
    first: dict[str, str] = {}
    for r in op_results:
        if r["problem"] is None:
            want = expected.get(r["name"])
            if want is None and strict:
                r["problem"] = "no recorded digest for the default seed"
            elif want is not None and r["digest"] != want:
                r["problem"] = "digest differs from the recorded or an earlier run's"
        if r["problem"] is None:
            seen = first.setdefault(r["name"], r["digest"])
            if r["digest"] != seen:
                r["problem"] = "digest differs from an earlier run of the same op"
    return sum(1 for r in op_results if r["problem"] is not None)


class DigestStore:
    """Digests of passing ops from earlier runs in this checkout, so that
    two runs at the same seed must agree even where no digest is
    recorded in expected_digests.json."""

    def __init__(self, workload: str):
        self.path = os.path.join(WORK, f"digests-{workload}.json")
        self.digests: dict[str, str] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                self.digests = json.load(fh)

    def add(self, op_results: list[dict]) -> None:
        for r in op_results:
            if r["problem"] is None:
                self.digests.setdefault(r["name"], r["digest"])
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh)


def load_expected(workload: str) -> dict:
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(seconds: float, cal_s: float) -> float:
    """A time measured while the calibration kernel took `cal_s`, scaled
    to the reference host speed."""
    return seconds * REFERENCE_CAL_S / cal_s


def end_to_end(setups: list[tuple[float, float]], passes: list[dict], scale=scaled) -> dict:
    """The end-to-end metrics as (value, sample count).  `setups` holds
    (seconds, speed kernel seconds) pairs; `scale` maps such a pair to
    the reported time."""
    ops = [op for p in passes for op in p["ops"]]
    op_s = [scale(op["seconds"], op["cal_s"]) for op in ops]
    op_ms = [t * 1000.0 for t in op_s]
    walls = [sum(scale(op["seconds"], op["cal_s"]) for op in p["ops"]) for p in passes]
    metrics = {
        "setup_s": (statistics.median(scale(*pair) for pair in setups), len(setups)),
        "wall_s": (statistics.median(walls), len(passes)),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
        "op_ms.p50": (quantile(op_ms, 50), len(op_ms)),
        "op_ms.p90": (quantile(op_ms, 90), len(op_ms)),
    }
    for slot in ("a", "b", "c"):
        times = [t for t, op in zip(op_s, ops) if op["slot"] == slot]
        metrics[f"verdict_s.{slot}"] = (statistics.median(times), len(times))
    return metrics


def per_layer(plain: dict, traced: dict, ops: list[dict]) -> dict:
    metrics = {name: (value, 1) for name, value in traced["layers"].items()}
    walls = [sum(scaled(op["seconds"], op["cal_s"]) for op in p["ops"]) for p in (plain, traced)]
    metrics["trace.overhead_ratio"] = (walls[1] / walls[0], 1)
    metrics["workload.ops"] = (len(ops), 1)
    metrics["workload.repeat_share"] = (workloads.repeat_share(ops), 1)
    return metrics


def run_passes(workload: str, seed: int, seconds: float, tiny: bool, record: bool,
               tag: str, deadline: float | None) -> tuple[list[tuple[float, float]], list[dict]]:
    """Set-up probes, then passes until another would end after `seconds`
    (at least MIN_PASSES, at most MAX_PASSES; all of them with `record`)."""
    out_dir = os.path.join(WORK, tag)
    # The first set-up in a checkout also compiles bytecode; drop it.
    run_worker({"src": SRC, "ops": [], "out_dir": out_dir}, f"{tag}-warmup", deadline)
    probes = [run_worker({"src": SRC, "ops": [], "out_dir": out_dir}, f"{tag}-setup{i}", deadline)
              for i in range(SETUP_PROBES)]
    setups = [(p["setup_s"], p["setup_cal_s"]) for p in probes]
    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < workloads.MAX_PASSES:
        ops = workloads.ops_for(workload, workloads.pass_seed(seed, len(passes)), tiny)
        passes.append(run_worker({"src": SRC, "ops": ops, "out_dir": out_dir},
                                 f"{tag}-pass{len(passes)}", deadline))
        setups.append((passes[-1]["setup_s"], passes[-1]["setup_cal_s"]))
        elapsed = time.perf_counter() - start
        if (not record and len(passes) >= MIN_PASSES
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    return setups, passes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 record: bool) -> tuple[dict, int]:
    tag = f"{workload}-s{seed}-t{int(trace)}"
    # Recording runs every pass, however long that takes.
    deadline = None if record else time.monotonic() + RUN_LIMIT_S
    first_ops = workloads.ops_for(workload, workloads.pass_seed(seed, 0), tiny)
    unscaled: dict = {}
    if trace:
        job = {"src": SRC, "ops": first_ops, "out_dir": os.path.join(WORK, tag)}
        passes = [run_worker(job, f"{tag}-plain", deadline),
                  run_worker({**job, "trace": True}, f"{tag}-traced", deadline)]
        metrics = per_layer(passes[0], passes[1], first_ops)
    else:
        setups, passes = run_passes(workload, seed, seconds, tiny, record, tag, deadline)
        metrics = end_to_end(setups, passes)
        unscaled = end_to_end(setups, passes, scale=lambda seconds, cal_s: seconds)
    op_results = [op for p in passes for op in p["ops"]]
    default_full = seed == workloads.DEFAULT_SEED and not tiny
    if record and default_full:
        _record(workload, {op["name"]: op["digest"] for op in op_results if op["problem"] is None})
    seen = DigestStore(workload)
    failed = judge(op_results, {**seen.digests, **load_expected(workload)}, strict=default_full)
    seen.add(op_results)
    info = {
        "workload": workload, "seed": seed, "trace": trace, "tiny": tiny,
        "machine": {
            **machine(passes[0]["versions"]),
            "reference_cal_s": REFERENCE_CAL_S,
            "median_cal_s": statistics.median(op["cal_s"] for p in passes for op in p["ops"]),
        },
        "inputs": {
            "ops_per_pass": len(first_ops),
            "passes": len(passes),
            "repeat_share": workloads.repeat_share(first_ops),
            "slots": dict(zip("abc", workloads.SLOT_NAMES[workload])),
        },
        "failures": [{"op": op["name"], "problem": op["problem"]}
                     for op in op_results if op["problem"] is not None],
        "passes": passes,
    }
    with open(os.path.join(WORK, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "unscaled": unscaled}, fh, indent=1)
    shutil.rmtree(os.path.join(WORK, tag), ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(op_results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, (v, _) in metrics.items()},
    }
    _print_human(info, metrics, unscaled, result)
    return result, 0 if failed == 0 else 1


def _record(workload: str, digests: dict) -> None:
    data = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    data["workloads"][workload] = dict(sorted(digests.items()))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _print_human(info: dict, metrics: dict, unscaled: dict, result: dict) -> None:
    print(f"workload {info['workload']}  seed {info['seed']}  trace {int(info['trace'])}")
    print("machine " + json.dumps(info["machine"], sort_keys=True))
    print("inputs " + json.dumps(info["inputs"], sort_keys=True))
    for name, (value, n) in metrics.items():
        unit = UNITS[name]
        raw = unscaled.get(name, (value,))[0]
        tail = f"; unscaled {raw:.6g} {unit}" if raw != value else ""
        print(f"  {name} = {value:.6g} {unit}  (n={n}{tail})")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {ratio:.6g}  ({result['failed']} of {result['attempted']} ops)")
    for failure in info["failures"]:
        print(f"  FAILED {failure['op']}: {failure['problem']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's self-test")
    p.add_argument("--record", action="store_true",
                   help="store the default seed's report digests before checking")
    args = p.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "courantlab", "__init__.py")):
        sys.stderr.write(f"error: no courantlab sources under {SRC}\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for name in names:
        try:
            result, rc = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.tiny, args.record)
        except BenchError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        print(json.dumps(result), flush=True)
        code = max(code, rc)
    return code


if __name__ == "__main__":
    sys.exit(main())
