"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the checkout's `src` directory, the ops to run and
whether to trace.  The worker times set-up (importing courantlab and
building the shipped contexts), then calls `courantlab.cli.main`
in-process once per op with `--out`, and writes per-op times, exit
codes and report digests to RESULT.json.  Judging the digests is left
to run.py, which sees every pass.

While it runs, a SpeedSampler measures the host's current speed every
SAMPLE_EVERY_S with a tiny fixed kernel; every timing carries the mean
kernel time of the samples around it, and excludes the sampler's own
time.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

SAMPLE_EVERY_S = 0.05
# Samples taken this close to a timed region also count for it, so that
# a region shorter than SAMPLE_EVERY_S still gets a speed.
SAMPLE_MARGIN_S = 0.25


def speed_kernel() -> None:
    """A fixed exact-arithmetic kernel of about half a millisecond.

    It does the kind of work courantlab does (pure-Python Fraction
    arithmetic) and none of its code, so its time tracks how fast the
    host runs this process at the moment."""
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)


class SpeedSampler:
    """Runs `speed_kernel` from a SIGALRM handler every SAMPLE_EVERY_S.

    The host's speed changed by up to 2x within seconds, so samples are
    taken during each timed region, not only at its ends."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed_kernel()
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.times.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """Run fn(*args); return its result, its time without the
        sampler's, and its (start, end) on the perf_counter clock."""
        spent = self.spent
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, end - start - (self.spent - spent), (start, end)

    def kernel_s(self, span: tuple[float, float]) -> float:
        """Mean kernel time of the samples taken in or near `span`."""
        lo = bisect.bisect_left(self.starts, span[0] - SAMPLE_MARGIN_S)
        hi = bisect.bisect_right(self.starts, span[1] + SAMPLE_MARGIN_S)
        near = self.times[lo:hi] or self.times
        return sum(near) / len(near)


def inspect_report(rc: int | str, text: str | None) -> str | None:
    """Why an op's report fails the correctness gate, or None if it passes:
    exit code 0, a parseable report, and every record with status pass."""
    if rc != 0:
        return f"exit code {rc}"
    if text is None:
        return "no --out report"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    records = report.get("records") or []
    if not records:
        return "report has no records"
    bad = [r.get("name") for r in records if r.get("status") != "pass"]
    if bad:
        return f"records not passing: {bad[:3]}"
    if report.get("pass") is not True:
        return "report pass flag is not true"
    return None


def _setup(src: str) -> None:
    sys.path.insert(0, src)
    import courantlab.cli  # noqa: F401  (the import is what set-up times)
    from courantlab import contexts

    for name in contexts.GROUP_CONTEXT_NAMES:
        contexts.get_group_context(name)
    for name in contexts.TRIPLE_CONTEXT_NAMES:
        contexts.get_triple_context(name)


def _call(cli, argv: list[str], sink: io.StringIO) -> int | str:
    sink.seek(0)
    sink.truncate()
    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except Exception:  # a traceback is an op failure, not a benchmark crash
        traceback.print_exc()
        return "uncaught exception"


def _report(out: str) -> str | None:
    if not os.path.exists(out):
        return None
    with open(out, "rb") as fh:
        text = fh.read().decode("utf-8")
    os.remove(out)
    return text


def run(job: dict, sampler: SpeedSampler) -> dict:
    src = job["src"]
    tracer = None
    if job.get("trace"):
        # Contexts are built under the tracer so that their layer's time
        # shows; the tracer itself is installed outside set-up.
        sys.path.insert(0, src)
        import courantlab.cli  # noqa: F401
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    _, setup_s, setup_span = sampler.timed(_setup, src)
    import courantlab
    import courantlab.cli
    import numpy

    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    sink = io.StringIO()
    ops, spans = [], []
    for i, op in enumerate(job["ops"]):
        out = os.path.join(out_dir, f"{i}.json")
        rc, seconds, span = sampler.timed(_call, courantlab.cli, op["argv"] + ["--out", out], sink)
        text = _report(out)
        spans.append(span)
        ops.append({
            "name": op["name"],
            "slot": op["slot"],
            "seconds": seconds,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest() if text else None,
            "problem": inspect_report(rc, text),
        })
    # Sample the margin after the last timed region too.
    time.sleep(SAMPLE_MARGIN_S)
    for op, span in zip(ops, spans):
        op["cal_s"] = sampler.kernel_s(span)
    return {
        "module": os.path.relpath(courantlab.__file__, os.path.dirname(src)),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
        "setup_s": setup_s,
        "setup_cal_s": sampler.kernel_s(setup_span),
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.layer_metrics() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    with SpeedSampler() as sampler:
        result = run(job, sampler)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
