"""Command-line harness: validate JSON algebra descriptions, run the
named verification suites, and print splitting bivectors with their
rank diagnostics.

Exit codes: 0 all checks pass, 1 usage or input error, 2 a validation
or verification check failed.  Reports carry no wall-clock data, so a
fixed seed and configuration reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from . import anchored, liegrp, quadlie, suites
from .contexts import (
    abelian_algebra_split2,
    get_group_context,
    sl2_triangular_triple,
    triangular_complement,
)
from .exactlin import ExactSubspace
from .quadlie import ManinTriple, QuadraticLieAlgebra, diagonal_subspace

USAGE_ERROR = 1
CHECK_FAILED = 2


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; we reserve 2 for checks
        raise _ArgumentError(message)


def _build_parser() -> _Parser:
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
    if value <= 0:
        raise _ArgumentError(f"{name} must be positive")


def _emit(report: dict, out: str | None, as_json: bool, elapsed: float) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def cmd_validate(args) -> int:
    data = _load_json(args.algebra)
    try:
        alg = QuadraticLieAlgebra.from_json(data)
    except _BAD_INPUT as exc:
        raise _ArgumentError(f"bad algebra description: {exc}") from exc
    report_records = []
    rep = quadlie.validate_algebra(alg)
    for r in rep.records:
        report_records.append(
            {"name": f"{r.kind} at {r.where}", "status": "fail", "detail": r.detail}
        )
    if rep.passed:
        report_records.append({"name": "algebra axioms", "status": "pass"})
    if (args.g1 is None) != (args.g2 is None):
        raise _ArgumentError("--g1 and --g2 must be given together")
    if args.g1:
        g1 = _load_subspace(args.g1, alg.dim)
        g2 = _load_subspace(args.g2, alg.dim)
        trep = quadlie.validate_manin_triple(ManinTriple(alg, g1, g2))
        for r in trep.records:
            report_records.append(
                {"name": f"manin {r.kind} at {r.where}", "status": "fail", "detail": r.detail}
            )
        if trep.passed:
            report_records.append({"name": "manin triple axioms", "status": "pass"})
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
    try:
        records = suites.run_suite(
            args.suite, ctx=args.ctx, samples=args.samples,
            seed=args.seed, h=args.h, tol=args.tol,
        )
    except KeyError as exc:
        raise _ArgumentError(str(exc)) from exc
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


_SPLITTINGS = {
    "sl2-double": ("delta-antidelta", "delta-triangular"),
    "sl2-pair": ("plus", "minus"),
    "abelian-2": ("lines",),
    "sl2c-real": ("delta-antidelta",),
}


def _desk_point_and_splitting(ctx_name: str, point: str, splitting: str | None):
    if ctx_name == "abelian-2":
        # the formula-level desk case: identity anchor on a 2-dim chart
        alg = abelian_algebra_split2()
        pt = anchored.AnchoredPoint(alg, ((1, 0), (0, 1)), 2)
        e = ExactSubspace.span([(1, 0)])
        f = ExactSubspace.span([(0, 1)])
        return pt, e, f
    ctx = get_group_context(ctx_name)
    try:
        idx = int(point)
        g = ctx.sample_points[idx]
    except (ValueError, IndexError) as exc:
        raise _ArgumentError(f"bad --point {point!r}: {exc}") from exc
    pt = liegrp.double_action_anchor(ctx, g)
    name = splitting or _SPLITTINGS[ctx_name][0]
    alg = ctx.algebra
    if ctx_name in ("sl2-double", "sl2c-real"):
        if name == "delta-antidelta":
            return pt, diagonal_subspace(alg, 1), diagonal_subspace(alg, -1)
        if name == "delta-triangular" and ctx_name == "sl2-double":
            return pt, diagonal_subspace(alg, 1), triangular_complement()
    if ctx_name == "sl2-pair":
        t = sl2_triangular_triple()
        eplus, fplus, eminus, fminus = liegrp.product_splittings(t)
        if name == "plus":
            return pt, eplus, fplus
        if name == "minus":
            return pt, eminus, fminus
    raise _ArgumentError(f"context {ctx_name!r} has no splitting {name!r}")


def cmd_bivector(args) -> tuple[dict, int]:
    if args.ctx not in _SPLITTINGS:
        raise _ArgumentError(f"unknown context {args.ctx!r}")
    pt, e, f = _desk_point_and_splitting(args.ctx, args.point, args.splitting)
    if args.e_file:
        e = _load_subspace(args.e_file, pt.algebra.dim)
    if args.f_file:
        f = _load_subspace(args.f_file, pt.algebra.dim)
    piv = anchored.bivector_at(pt, e, f)
    cois, _ = anchored.check_coisotropic_stabilizer(pt)
    report = {
        "command": "bivector",
        "context": args.ctx,
        "point": args.point,
        "pi": [[str(x) for x in row] for row in piv.matrix],
        "matrix_rank": piv.rank(),
        "coisotropic_stabilizer": cois,
    }
    if cois:
        lm = anchored.drinfeld_lagrangian(pt, f)
        report["formula_rank"] = anchored.rank_formula(pt, e, f)
        report["drinfeld_lagrangian"] = [[str(x) for x in row] for row in lm.basis]
        report["leaf_condition"] = anchored.leaf_condition(pt, e, f)
    else:
        report["formula_rank"] = None
        report["drinfeld_lagrangian"] = None
        report["leaf_condition"] = None
        report["note"] = "stabilizer not coisotropic: formula diagnostics unavailable"
    report["records"] = [{"name": "bivector computed", "status": "pass"}]
    report["pass"] = True
    return report, 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except _ArgumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    _emit(report, args.out, args.json, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
