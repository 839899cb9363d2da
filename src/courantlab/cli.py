"""Command-line harness: validate JSON algebra descriptions, run the
named verification suites, and print splitting bivectors with their
rank diagnostics.

Exit codes: 0 all checks pass, 1 usage or input error, 2 a validation
or verification check failed.  Reports carry no wall-clock data, so a
fixed seed and configuration reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from . import anchored, quadlie, suites
from .contexts import SPLITTING_NAMES, abelian2_desk_point, get_group_context, named_splitting
from .exactlin import ExactSubspace
from .lagrel import NotLagrangianError, Splitting
from .quadlie import ManinTriple, QuadraticLieAlgebra
from .suites import _rec

USAGE_ERROR = 1
CHECK_FAILED = 2


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; we reserve 2 for checks
        raise _ArgumentError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused by every
    later `main` call in the process."""
    p = _Parser(prog="courantlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a JSON algebra (and triple)")
    v.add_argument("algebra", help="path to an algebra JSON file")
    v.add_argument("--g1", help="subspace JSON for the first Lagrangian")
    v.add_argument("--g2", help="subspace JSON for the second Lagrangian")
    v.add_argument("--out", help="write the JSON report here")
    v.add_argument("--json", action="store_true", help="print the JSON report")

    w = sub.add_parser("verify", help="run a named verification suite")
    w.add_argument("suite", choices=suites.SUITE_NAMES)
    w.add_argument("--ctx", default=None, help="context name for chart suites")
    w.add_argument("--samples", type=int, default=None)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--h", type=float, default=suites.DEFAULT_H)
    w.add_argument("--tol", type=float, default=suites.DEFAULT_TOL)
    w.add_argument("--out", help="write the JSON report here")
    w.add_argument("--json", action="store_true")

    b = sub.add_parser("bivector", help="print a splitting bivector at a point")
    b.add_argument("--ctx", default="sl2-double")
    b.add_argument("--point", default="0", help="sample index into the context")
    b.add_argument("--splitting", default=None, help="named splitting for the context")
    b.add_argument("--e-file", help="subspace JSON overriding the first factor")
    b.add_argument("--f-file", help="subspace JSON overriding the second factor")
    b.add_argument("--out", help="write the JSON report here")
    b.add_argument("--json", action="store_true")
    return p


def _positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise _ArgumentError(f"{name} must be finite and positive")


def _emit(report: dict, out: str | None, as_json: bool, elapsed: float) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _ArgumentError(f"cannot write {out}: {exc}") from exc
    if as_json:
        sys.stdout.write(text)
    else:
        for rec in report.get("records", []):
            resid = rec.get("residual")
            tail = f"  residual={resid:.3e}" if isinstance(resid, float) else ""
            detail = rec.get("detail")
            tail += f"  ({detail})" if detail else ""
            sys.stdout.write(f"[{rec['status']:>4}] {rec['name']}{tail}\n")
        status = "PASS" if report["pass"] else "FAIL"
        sys.stdout.write(f"{status} ({len(report.get('records', []))} checks, {elapsed:.2f}s)\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ArgumentError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


# what a malformed JSON description raises while it is loaded: "1/0"
# raises ZeroDivisionError, a wrong shape DimensionMismatchError, a list
# where an object belongs AttributeError
_BAD_INPUT = (AttributeError, KeyError, IndexError, ValueError, TypeError,
              ZeroDivisionError)


def _load_subspace(path: str, ambient_dim: int) -> ExactSubspace:
    try:
        return ExactSubspace.from_json(_load_json(path), ambient_dim=ambient_dim)
    except _BAD_INPUT as exc:
        raise _ArgumentError(f"bad subspace description {path}: {exc}") from exc


def cmd_validate(args) -> tuple[dict, int]:
    data = _load_json(args.algebra)
    try:
        alg = QuadraticLieAlgebra.from_json(data)
    except _BAD_INPUT as exc:
        raise _ArgumentError(f"bad algebra description: {exc}") from exc
    rep = quadlie.validate_algebra(alg)
    report_records = [_rec(f"{r.kind} at {r.where}", False, detail=r.detail) for r in rep.records]
    if rep.passed:
        report_records.append(_rec("algebra axioms", True))
    if (args.g1 is None) != (args.g2 is None):
        raise _ArgumentError("--g1 and --g2 must be given together")
    if args.g1:
        g1 = _load_subspace(args.g1, alg.dim)
        g2 = _load_subspace(args.g2, alg.dim)
        trep = quadlie.validate_manin_triple(ManinTriple(alg, g1, g2))
        report_records += [_rec(f"manin {r.kind} at {r.where}", False, detail=r.detail)
                           for r in trep.records]
        if trep.passed:
            report_records.append(_rec("manin triple axioms", True))
    passed = all(r["status"] == "pass" for r in report_records)
    report = {"command": "validate", "input": args.algebra,
              "records": report_records, "pass": passed}
    return report, (0 if passed else CHECK_FAILED)


def cmd_verify(args) -> tuple[dict, int]:
    _positive(args.h, "--h")
    _positive(args.tol, "--tol")
    if args.samples is not None and args.samples <= 0:
        raise _ArgumentError("--samples must be positive")
    least = suites.MIN_SAMPLES.get(args.suite, 1)
    if args.samples is not None and args.samples < least:
        raise _ArgumentError(f"verify {args.suite} needs --samples >= {least}")
    if args.ctx is not None and args.suite not in suites.CONTEXT_SUITES:
        raise _ArgumentError(f"verify {args.suite} takes no --ctx")
    try:
        records = suites.run_suite(
            args.suite, ctx=args.ctx, samples=args.samples,
            seed=args.seed, h=args.h, tol=args.tol,
        )
    except KeyError as exc:
        raise _ArgumentError(exc.args[0]) from exc
    passed = all(r["status"] == "pass" for r in records)
    report = {
        "command": "verify",
        "suite": args.suite,
        "config": {
            "ctx": args.ctx,
            "samples": args.samples,
            "seed": args.seed,
            "h": args.h,
            "tol": args.tol,
        },
        "records": records,
        "pass": passed,
    }
    return report, (0 if passed else CHECK_FAILED)


def _desk_point_and_splitting(ctx_name: str, point: str, splitting: str | None):
    try:
        idx = int(point)
        if idx < 0:
            raise ValueError("sample indices start at 0")
    except ValueError as exc:
        raise _ArgumentError(f"bad --point {point!r}: {exc}") from exc
    name = splitting or SPLITTING_NAMES[ctx_name][0]
    if name not in SPLITTING_NAMES[ctx_name]:
        raise _ArgumentError(f"context {ctx_name!r} has no splitting {name!r}")
    if ctx_name == "abelian-2":
        if idx != 0:
            raise _ArgumentError(f"bad --point {point!r}: the {ctx_name} desk case has only point 0")
        pt = abelian2_desk_point()
    else:
        ctx = get_group_context(ctx_name)
        if idx >= len(ctx.sample_points):
            raise _ArgumentError(f"bad --point {point!r}: {ctx_name} has {len(ctx.sample_points)} sample points")
        pt = ctx.points[idx].anchor
    return pt, named_splitting(ctx_name, name)


def cmd_bivector(args) -> tuple[dict, int]:
    if args.ctx not in SPLITTING_NAMES:
        raise _ArgumentError(f"unknown context {args.ctx!r}")
    pt, s = _desk_point_and_splitting(args.ctx, args.point, args.splitting)
    if args.e_file or args.f_file:
        e = _load_subspace(args.e_file, pt.algebra.dim) if args.e_file else s.e
        f = _load_subspace(args.f_file, pt.algebra.dim) if args.f_file else s.f
        try:
            s = Splitting.of_algebra(pt.algebra, e, f)
        except NotLagrangianError as exc:
            raise _ArgumentError(f"E and F do not split the algebra: {exc}") from exc
    piv = anchored.bivector_at(pt, s)
    cois, _ = pt.coisotropy
    report = {
        "command": "bivector",
        "context": args.ctx,
        "point": args.point,
        "pi": [[str(x) for x in row] for row in piv.matrix],
        "matrix_rank": piv.rank,
        "coisotropic_stabilizer": cois,
    }
    if cois:
        lm = anchored.splitting_drinfeld(pt, s)
        report["formula_rank"] = anchored.rank_formula(pt, s)
        report["drinfeld_lagrangian"] = [[str(x) for x in row] for row in lm.basis]
        report["leaf_condition"] = anchored.leaf_condition(pt, s)
    else:
        report["formula_rank"] = None
        report["drinfeld_lagrangian"] = None
        report["leaf_condition"] = None
        report["note"] = "stabilizer not coisotropic: formula diagnostics unavailable"
    report["records"] = [_rec("bivector computed", True)]
    report["pass"] = True
    return report, 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    start = time.perf_counter()
    try:
        if args.command == "validate":
            report, code = cmd_validate(args)
        elif args.command == "verify":
            report, code = cmd_verify(args)
        else:
            report, code = cmd_bivector(args)
        _emit(report, args.out, args.json, time.perf_counter() - start)
    except _ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
