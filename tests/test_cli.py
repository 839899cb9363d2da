import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import courantlab
from courantlab.cli import main
from courantlab.contexts import sl2_algebra, triangular_complement
from courantlab.quadlie import QuadraticLieAlgebra, build_double, diagonal_subspace


@pytest.fixture()
def double_json(tmp_path):
    path = tmp_path / "double.json"
    path.write_text(json.dumps(build_double(sl2_algebra()).to_json()))
    return str(path)


def test_validate_passes(double_json, capsys):
    assert main(["validate", double_json]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_triple(double_json, tmp_path):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps(diagonal_subspace(sl2_algebra(), 1).to_json()))
    g2.write_text(json.dumps(triangular_complement().to_json()))
    assert main(["validate", double_json, "--g1", str(g1), "--g2", str(g2)]) == 0
    # the quasi pair is not a triple: exit 2
    g2.write_text(json.dumps(diagonal_subspace(sl2_algebra(), -1).to_json()))
    assert main(["validate", double_json, "--g1", str(g1), "--g2", str(g2)]) == 2


def test_validate_corrupted_bracket(tmp_path, capsys):
    data = sl2_algebra().to_json()
    data["form"][1][1] = "9"  # break invariance
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "invariance" in out and "'e', 'h', 'f'" in out


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/algebra.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_suite_is_usage_error():
    assert main(["verify", "nonsense"]) == 1


def test_bad_flags_are_usage_errors():
    assert main(["verify", "rank", "--samples", "-3"]) == 1
    assert main(["verify", "schouten", "--h", "0"]) == 1
    assert main(["bivector", "--ctx", "nope"]) == 1
    assert main(["bivector", "--ctx", "sl2-double", "--point", "99"]) == 1


def test_verify_rank_small(capsys):
    assert main(["verify", "rank", "--samples", "12", "--seed", "7"]) == 0
    assert "12 seeded instances" in capsys.readouterr().out


def test_verify_json_output(capsys):
    assert main(["verify", "relations", "--samples", "16", "--seed", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["config"]["seed"] == 3


def test_relations_below_eight_samples_runs_a_triple(capsys):
    # samples // 8 is 0 here; the associativity record must still check one
    assert main(["verify", "relations", "--samples", "1", "--json"]) == 0
    names = [r["name"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert "composition associativity on 1 seeded triples" in names


def test_verify_deterministic_bytes(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "relations", "--samples", "20", "--seed", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bivector_abelian_desk_case(capsys):
    assert main(["bivector", "--ctx", "abelian-2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pi"] == [["0", "1/2"], ["-1/2", "0"]]
    assert report["matrix_rank"] == 2
    assert report["coisotropic_stabilizer"] is False
    assert report["formula_rank"] is None


def test_bivector_sl2_double_identity(capsys):
    assert main(["bivector", "--ctx", "sl2-double", "--point", "0", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(x == "0" for row in report["pi"] for x in row)
    assert report["matrix_rank"] == 0
    assert report["formula_rank"] == 0
    assert report["leaf_condition"] is True


def test_bivector_swapped_splitting_negates(tmp_path, capsys):
    e = tmp_path / "e.json"
    f = tmp_path / "f.json"
    e.write_text(json.dumps(diagonal_subspace(sl2_algebra(), 1).to_json()))
    f.write_text(json.dumps(triangular_complement().to_json()))
    assert main(["bivector", "--ctx", "sl2-double", "--point", "1",
                 "--e-file", str(e), "--f-file", str(f), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)["pi"]
    assert main(["bivector", "--ctx", "sl2-double", "--point", "1",
                 "--e-file", str(f), "--f-file", str(e), "--json"]) == 0
    second = json.loads(capsys.readouterr().out)["pi"]
    from fractions import Fraction

    for r1, r2 in zip(first, second):
        for a, b in zip(r1, r2):
            assert Fraction(a) == -Fraction(b)


def _assert_usage_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_dressing_too_few_samples_is_usage_error(capsys):
    _assert_usage_error(["verify", "dressing", "--samples", "2"], capsys)
    _assert_usage_error(["verify", "all", "--samples", "1"], capsys)


def _zero_denominator(data):
    data["form"][0][0] = "1/0"


def _form_too_small(data):
    data["form"] = [row[:2] for row in data["form"][:2]]


def _float_indices(data):
    data["brackets"][0] = [0.9, 1.2, 0, "-2"]


def _string_indices(data):
    data["brackets"][0] = ["0", "1", 0, -2]


def _bool_index(data):
    data["brackets"][0][2] = True


def _bool_dim(data):
    data.clear()
    data.update(dim=True, brackets=[], form=[[1]])


def _number_names(data):
    data["basis_names"] = [1, 2, 3]


@pytest.mark.parametrize("corrupt", [_zero_denominator, _form_too_small, _float_indices,
                                     _string_indices, _bool_index, _bool_dim, _number_names])
def test_validate_malformed_algebra_is_usage_error(corrupt, tmp_path, capsys):
    data = sl2_algebra().to_json()
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    _assert_usage_error(["validate", str(path)], capsys)


def test_validate_wrong_ambient_subspace_is_usage_error(double_json, tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps({"basis": [["1", "0", "0"]]}))  # Q^3, not Q^6
    g2.write_text(json.dumps(triangular_complement().to_json()))
    _assert_usage_error(["validate", double_json, "--g1", str(g1), "--g2", str(g2)], capsys)


def test_two_main_calls_in_one_process_give_identical_reports(capsys):
    args = ["bivector", "--ctx", "sl2-double", "--point", "2", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    # options given to one call do not leak into the next
    assert main(["verify", "relations", "--samples", "4", "--seed", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 3
    assert main(["verify", "relations", "--samples", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 0


@pytest.mark.parametrize("ctx", ["sl2-double", "abelian-2"])
@pytest.mark.parametrize("point", ["-1", "abc", "99"])
def test_bad_point_is_usage_error(ctx, point, capsys):
    _assert_usage_error(["bivector", "--ctx", ctx, "--point", point], capsys)


@pytest.mark.parametrize("ctx,splitting", [("abelian-2", "nope"), ("sl2-double", "nope"),
                                           ("sl2c-real", "delta-triangular")])
def test_unknown_splitting_is_usage_error(ctx, splitting, capsys):
    _assert_usage_error(["bivector", "--ctx", ctx, "--splitting", splitting], capsys)


@pytest.mark.parametrize("argv", [["rank", "--ctx", "nonsense"], ["leaves", "--ctx", "nonsense"],
                                  ["relations", "--ctx", "sl2-double"], ["all", "--ctx", "nonsense"],
                                  ["mult", "--ctx", "nope"], ["dressing", "--ctx", "sl2-double"],
                                  ["schouten", "--ctx", "abelian-2"]])
def test_unknown_or_unused_ctx_is_usage_error(argv, capsys):
    _assert_usage_error(["verify"] + argv, capsys)


@pytest.mark.parametrize("ctx", ["all-builtin", "nope"])
def test_unknown_schouten_ctx_stops_before_fd_work(ctx, monkeypatch, capsys):
    from courantlab import diffnum

    calls = []
    monkeypatch.setattr(diffnum, "schouten_fd", lambda *a, **k: calls.append(a))
    _assert_usage_error(["verify", "schouten", "--ctx", ctx, "--samples", "2"], capsys)
    assert calls == []


@pytest.mark.parametrize("suite", ["mult", "dressing"])
def test_triple_suites_run_on_abelian_2(suite, capsys):
    assert main(["verify", suite, "--ctx", "abelian-2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["ctx"] == "abelian-2"
    assert len(report["records"]) == 8
    assert all(r["status"] == "pass" for r in report["records"])


def _broken_triple():
    """The sl2 triangular triple over an algebra whose form is not
    invariant: its product subspaces are not Lagrangian."""
    from algebra_reference import replace
    from courantlab.contexts import sl2_triangular_triple

    t = sl2_triangular_triple()
    bad_alg = QuadraticLieAlgebra.from_triples(
        6,
        t.d_algebra.bracket,
        [[(9 if (i == j == 1) else x) for j, x in enumerate(row)]
         for i, row in enumerate(t.d_algebra.form.matrix)],
    )
    return replace(t, d_ctx=replace(t.d_ctx, algebra=bad_alg))


def test_broken_triple_stops_mult_before_fd_work(monkeypatch, capsys):
    from courantlab import diffnum, suites
    from courantlab.lagrel import NotLagrangianError

    calls = []
    original = diffnum.dmult_fd
    monkeypatch.setattr(diffnum, "dmult_fd", lambda *a, **k: calls.append(a) or original(*a, **k))
    bad = _broken_triple()
    with pytest.raises(NotLagrangianError):
        next(suites.suite_mult(bad, samples=2))
    # through the command line it is one failed record, exit 2
    monkeypatch.setattr(suites, "get_triple_context", lambda name: bad)
    assert main(["verify", "mult", "--json"]) == 2
    (rec,) = json.loads(capsys.readouterr().out)["records"]
    assert rec["name"] == "mult suite stopped" and "NotLagrangianError" in rec["detail"]
    assert calls == []


def test_schouten_reports_a_capped_sample_count(capsys):
    assert main(["verify", "schouten", "--samples", "1000", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert records[-1] == {"name": "sample count capped at the shipped points",
                           "status": "pass", "detail": "asked for 1000, ran 12"}
    assert main(["verify", "schouten", "--samples", "12", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert not any("capped" in r["name"] for r in records)
    _assert_usage_error(["verify", "schouten", "--samples", "1"], capsys)



def test_mult_dressing_and_all_report_capped_sample_counts(capsys):
    # both triple suites have 12 shipped points; verify all runs them on 10
    for suite, asked in (("dressing", 100), ("mult", 13)):
        assert main(["verify", suite, "--samples", str(asked), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert records[-1] == {"name": "sample count capped at the shipped points",
                               "status": "pass", "detail": f"asked for {asked}, ran 12"}
    assert main(["verify", "all", "--samples", "11", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r for r in records if "capped" in r["name"]] == [
        {"name": f"{suite}: sample count capped at 10 in verify all",
         "status": "pass", "detail": "asked for 11, ran 10"}
        for suite in ("mult", "dressing")
    ]

def test_non_splitting_files_are_usage_error(tmp_path, capsys):
    e = tmp_path / "e.json"
    e.write_text(json.dumps(diagonal_subspace(sl2_algebra(), 1).to_json()))
    _assert_usage_error(["bivector", "--ctx", "sl2-double", "--point", "1",
                         "--e-file", str(e), "--f-file", str(e)], capsys)


def test_numeric_breakdown_in_a_suite_is_a_failed_record(capsys):
    # at h = 0.5 the chart products leave the range of the log series: the
    # two records that read the FD Jacobians fail with the exception text,
    # and the exact records of the suite still run and pass
    assert main(["verify", "mult", "--h", "0.5", "--json"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["pass"] is False
    records = report["records"]
    assert len(records) == 8
    # 4 relatedness records, the 2 FD records, then the 2 exact pi+- records
    assert [r["name"].split()[0] for r in records] == ["algebraic"] * 4 + ["anchor", "pi", "pi+-", "pi-"]
    broken = "ValueError: matrix too far from the identity for the log series"
    assert records[4:6] == [{"name": "anchor equivariance of multiplication", "status": "fail", "detail": broken},
                            {"name": "pi multiplicativity (4 relations) under dMult", "status": "fail",
                             "detail": broken}]
    assert all(r["status"] == "pass" for r in records[:4] + records[6:])


# the records of `verify all --seed 1`, which tests/test_golden_reports.py
# pins to the bytes the program writes
ALL_SEED_1 = Path(__file__).parent / "golden" / "all.json"


def _records_but(records, suites):
    """The records, as bytes, but those of the named suites."""
    return [json.dumps(r, sort_keys=True) for r in records
            if not r["name"].startswith(tuple(f"{s}: " for s in suites))]


def test_a_breakdown_leaves_the_records_that_do_not_read_the_step(capsys):
    # at h = 0.3 the mult FD records break down; the records of validate
    # and of the exact suites, which never read --h, keep their bytes
    default = json.loads(ALL_SEED_1.read_text())["records"]
    assert main(["verify", "all", "--seed", "1", "--h", "0.3", "--json"]) == 2
    broken = json.loads(capsys.readouterr().out)["records"]
    assert len(broken) == len(default) == 58
    step_free = _records_but(default, ("schouten", "mult", "dressing"))
    assert len(step_free) == 5 + 2 + 3 + 2
    assert _records_but(broken, ("schouten", "mult", "dressing")) == step_free
    assert "mult: anchor equivariance of multiplication" in [
        r["name"] for r in broken if r["status"] == "fail"]


def test_a_stopped_suite_under_all_costs_only_its_own_records(monkeypatch, capsys):
    # a broken triple stops mult in its set-up, and fails each dressing
    # record that reads it; every other suite keeps its bytes
    from courantlab import suites

    monkeypatch.setattr(suites, "get_triple_context", lambda name: _broken_triple())
    assert main(["verify", "all", "--seed", "1", "--json"]) == 2
    records = json.loads(capsys.readouterr().out)["records"]
    (stopped,) = [r for r in records if r["name"].startswith("mult: ")]
    assert stopped["name"] == "mult: mult suite stopped" and "NotLagrangianError" in stopped["detail"]
    default = json.loads(ALL_SEED_1.read_text())["records"]
    assert _records_but(records, ("mult", "dressing")) == _records_but(default, ("mult", "dressing"))


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in a report")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("samples", ["2", "3"])
def test_schouten_ladder_with_zero_rungs_passes(samples, capsys):
    assert main(["verify", "schouten", "--samples", samples, "--json"]) == 0
    report = _strict_json(capsys.readouterr().out)
    (ladder,) = [r for r in report["records"] if r["name"] == "main identity h-ladder ratio"]
    assert ladder["status"] == "pass" and "residual" not in ladder
    assert "no truncation error" in ladder["detail"]


def test_ladder_record_never_writes_a_non_finite_residual():
    from courantlab.suites import _ladder, _rec

    assert _rec("r", *_ladder(8.0, 2.0)) == {"name": "r", "status": "pass", "residual": 4.0}
    assert _rec("r", *_ladder(0.0, 0.0))["status"] == "pass"
    for coarse, fine in ((1e-8, 0.0), (float("inf"), 1e-8), (float("nan"), 1e-8)):
        rec = _rec("r", *_ladder(coarse, fine))
        assert rec["status"] == "fail" and "residual" not in rec and rec["detail"]


def test_record_never_writes_a_non_finite_residual():
    from courantlab.suites import _rec

    assert _rec("r", True, 1e-9) == {"name": "r", "status": "pass", "residual": 1e-9}
    for residual in (float("nan"), float("inf"), -float("inf")):
        rec = _rec("r", True, residual)
        assert rec["status"] == "fail" and "residual" not in rec and rec["detail"]


def test_nan_residuals_fail_their_records(capsys):
    # at h = 1e5 the dressing FD jets are NaN; a max fold used to hide them
    assert main(["verify", "dressing", "--h", "1e5", "--json"]) == 2
    report = _strict_json(capsys.readouterr().out)
    fd = [r for r in report["records"] if "(FD" in r["name"]]
    assert len(fd) == 2
    for rec in fd:
        assert rec["status"] == "fail" and "residual" not in rec and "nan" in rec["detail"]


def _verify_argv(draw):
    suite = draw(st.sampled_from(["schouten", "rank", "leaves", "mult", "dressing", "relations"]))
    argv = ["verify", suite, "--samples", str(draw(st.integers(1, 3))),
            "--seed", str(draw(st.sampled_from([0, 1, 7])))]
    for flag in ("--h", "--tol"):
        if draw(st.booleans()):
            argv += [flag, repr(draw(st.floats(min_value=1e-8, max_value=1e12)))]
    if draw(st.booleans()):
        argv += ["--ctx", draw(st.sampled_from(["sl2-double", "sl2c-real", "abelian-2", "nope"]))]
    return argv


def _bivector_argv(draw):
    argv = ["bivector", "--ctx", draw(st.sampled_from(["sl2-double", "sl2-pair", "abelian-2",
                                                       "sl2c-real", "nope"])),
            "--point", draw(st.sampled_from(["0", "1", "7", "11", "12", "-1", "x"]))]
    splitting = draw(st.sampled_from([None, "delta-antidelta", "delta-triangular", "plus",
                                      "minus", "lines"]))
    return argv + (["--splitting", splitting] if splitting else [])


@st.composite
def _small_argv(draw):
    return (_verify_argv if draw(st.booleans()) else _bivector_argv)(draw)


@settings(max_examples=30, deadline=None)
@example(argv=["verify", "dressing", "--h", "1e5"])
@given(argv=_small_argv())
def test_cli_boundary_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        report = _strict_json(out.getvalue())
        assert all(math.isfinite(r["residual"]) for r in report["records"] if "residual" in r)


def test_bivector_query_computes_pi_once(capsys, point_builds, calls):
    # Pi is built at most once per named splitting per process, and each
    # value a point keeps once per (point, splitting): a first query at a
    # point with nothing kept builds pi_m, L_m, the rank formula, a(F),
    # the leaf verdict and a(E), and a repeated query builds none
    from courantlab import lagrel
    from courantlab.contexts import get_group_context, named_splitting

    bivectors = calls(lagrel, "splitting_bivector")
    queries = (("sl2-double", 3, "delta-triangular"), ("sl2c-real", 1, "delta-antidelta"),
               ("sl2-pair", 5, "minus"))
    for ctx, point, _ in queries:
        get_group_context(ctx).points[point].anchor.kept.clear()
    for built in (1, 0):
        for ctx, point, name in queries:
            bivectors.clear()
            point_builds.clear()
            assert main(["bivector", "--ctx", ctx, "--point", str(point), "--splitting", name]) == 0
            assert len(bivectors) <= built
            s = named_splitting(ctx, name)
            first = [("pi", s), ("lm", s.f), ("rank", s), ("image", s.f), ("leaf", s), ("image", s.e)]
            assert [key for _, key in point_builds] == (first if built else [])
    capsys.readouterr()


def test_repeated_bivector_queries_eliminate_and_multiply_nothing(capsys, calls):
    # a repeated query reads the kept pi_m, its rank, L_m, the images a(S),
    # the rank formula and the leaf verdict: no elimination, and no exact
    # product (int_products, through every module that binds it)
    from courantlab import exactlin

    counts = [calls(exactlin, name) for name in ("_eliminate", "int_products")]
    for ctx, point, name in (("sl2-double", "3", "delta-triangular"), ("sl2-double", "0", "delta-antidelta"),
                             ("sl2-pair", "5", "minus"), ("sl2-pair", "2", "plus"),
                             ("sl2c-real", "1", "delta-antidelta"), ("abelian-2", "0", "lines")):
        argv = ["bivector", "--ctx", ctx, "--point", point, "--splitting", name]
        assert main(argv) == 0
        for seen in counts:
            seen.clear()
        assert main(argv) == 0
        assert counts == [[], []], (ctx, point, name)
    capsys.readouterr()


def test_repeated_abelian_2_queries_build_pi_once(capsys, point_builds):
    # the abelian-2 desk point is kept like the sample points, so a
    # repeated query reads the pi_m it keeps; its stabilizer is not
    # coisotropic, so pi_m is all the query builds
    from courantlab.contexts import abelian2_desk_point, named_splitting

    abelian2_desk_point.cache_clear()
    for _ in range(3):
        assert main(["bivector", "--ctx", "abelian-2"]) == 0
    capsys.readouterr()
    assert [key for _, key in point_builds] == [("pi", named_splitting("abelian-2", "lines"))]


def test_verify_rank_builds_one_chart_bivector_per_instance(capsys, point_builds):
    # seed 1 draws 100 instances; rank_formula and diagonal_backward read
    # the one bivector each point keeps
    assert main(["verify", "rank", "--seed", "1", "--json"]) == 0
    capsys.readouterr()
    assert len([key for _, key in point_builds if key[0] == "pi"]) == 100


def test_dressing_makes_one_fd_stencil_per_point(monkeypatch, capsys, calls):
    # 3 action-axiom points and 3 phi^R points, one central difference
    # each; an action-axiom point reads the dressing fields once, on the
    # stack of the point and its 2k = 6 stencil points
    from courantlab import diffnum

    stencils = calls(diffnum, "central_difference")
    stacks = []
    sampler = diffnum.dressing_field_sampler

    def counting_sampler(x):
        fields = sampler(x)
        stacks.append([])

        def counted(t):
            stacks[-1].append(t.shape)
            return fields(t)

        return counted

    monkeypatch.setattr(diffnum, "dressing_field_sampler", counting_sampler)
    assert main(["verify", "dressing", "--seed", "1", "--json"]) == 0
    capsys.readouterr()
    assert len(stencils) == 6
    assert stacks == [[(2 * 3 + 1, 3)]] * 3


def test_schouten_makes_one_field_call_per_stencil(capsys, calls):
    # 43 stencils: the flat field at 3 steps, and the manin and quasi
    # splittings at 10 points with the manin h-ladder at 2 more steps;
    # each point's a(Y^E) + a(Y^F) is pushed once per splitting
    from courantlab import diffnum

    fields = calls(diffnum.ChartBivectorField, "__call__")
    rhs = calls(diffnum, "main_identity_rhs")
    assert main(["verify", "schouten", "--json"]) == 0
    capsys.readouterr()
    assert len(fields) == 3 + 4 * 10
    assert {points.shape for _, points in fields} == {(2 * 3 + 1, 3)}
    assert len(rhs) == 2 * 10


def test_sheared_schouten_pushes_each_point_once(capsys, calls):
    # the sheared case's defect and residual read the same push
    from courantlab import diffnum

    rhs = calls(diffnum, "main_identity_rhs")
    assert main(["verify", "schouten", "--ctx", "sl2c-real", "--samples", "4", "--json"]) == 0
    capsys.readouterr()
    assert len(rhs) == 4


def test_mult_makes_one_product_call_per_jacobian(capsys, calls):
    # 10 pairs, each one dMult stencil of 2 * 2k points in the product
    # chart of D x D, with k = 6: the product sampler takes one log of
    # the whole stack
    from courantlab import diffnum

    logs = calls(diffnum, "logm_np")
    assert main(["verify", "mult", "--seed", "1", "--json"]) == 0
    capsys.readouterr()
    assert [len(stack) for stack, in logs] == [4 * 6] * 10


def test_bivector_reads_the_kept_named_splittings(monkeypatch, capsys):
    from courantlab import anchored
    from courantlab.contexts import named_splitting, sl2_triangular_triple

    seen = []
    original = anchored.bivector_at

    def spy(pt, s):
        seen.append(s)
        return original(pt, s)

    monkeypatch.setattr(anchored, "bivector_at", spy)
    t = sl2_triangular_triple()
    for ctx, name, kept in (("sl2-double", "delta-triangular", t.splitting),
                            ("sl2-pair", "plus", t.plus), ("sl2-pair", "minus", t.minus)):
        assert main(["bivector", "--ctx", ctx, "--point", "2", "--splitting", name]) == 0
        assert seen.pop() is kept is named_splitting(ctx, name)
    capsys.readouterr()


def test_mult_suite_builds_no_pi_for_its_product_splittings(calls):
    from courantlab import lagrel, suites
    from courantlab.contexts import sl2_triangular_triple

    bivectors = calls(lagrel, "splitting_bivector")
    t = sl2_triangular_triple()
    records = suites.run_suite("mult", samples=2)
    assert all(r["status"] == "pass" for r in records)
    # the source splittings live on (d (+) d-bar)^2; pi+- on d (+) d-bar
    assert 2 * t.d_ctx.double_algebra.dim not in [s.space.dim for s, in bivectors]


def test_subspace_file_must_agree_with_the_ambient_dim(double_json, tmp_path, capsys):
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"basis": [[0], [-1]], "ambient_dim": 1}))
    _assert_usage_error(["bivector", "--ctx", "abelian-2", "--e-file", str(e)], capsys)
    e.write_text(json.dumps({"basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "ambient_dim": 3}))
    _assert_usage_error(["bivector", "--ctx", "sl2-double", "--e-file", str(e)], capsys)
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"basis": [["1", "0", "0"]], "ambient_dim": 3}))
    _assert_usage_error(["validate", double_json, "--g1", str(g), "--g2", str(g)], capsys)


# --- fuzzed JSON inputs ------------------------------------------------------

_JSON_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-3/4", "2/0", "0", "x", "", "1/", "nan", "inf", "1e3"]),
    st.floats(-2, 2),
    st.none(),
)
_JSON_ROWS = st.lists(st.lists(_JSON_ENTRY, max_size=5), max_size=5)


def _mutate(draw, rows):
    """rows with a few entries replaced and perhaps a row cut short."""
    rows = [list(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        if rows and rows[0]:
            i = draw(st.integers(0, len(rows) - 1))
            if rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_JSON_ENTRY)
    if rows and draw(st.integers(0, 4)) == 0:
        rows[-1] = rows[-1][:-1]
    return rows


@st.composite
def _algebra_json(draw):
    from courantlab.contexts import abelian_algebra_split2
    from courantlab.randgen import random_abelian_split_algebra

    if draw(st.booleans()):
        return {"dim": draw(st.one_of(st.integers(-1, 4), st.sampled_from(["2", None, 2.5]))),
                "brackets": draw(st.lists(st.lists(_JSON_ENTRY, min_size=3, max_size=5), max_size=4)),
                "form": draw(_JSON_ROWS)}
    alg = draw(st.sampled_from([sl2_algebra(), abelian_algebra_split2(),
                                random_abelian_split_algebra(2)]))
    data = alg.to_json()
    data["form"] = _mutate(draw, data["form"])
    data["brackets"] = _mutate(draw, data["brackets"])
    if draw(st.integers(0, 4)) == 0:
        data["dim"] = draw(st.integers(0, 5))
    return data


@st.composite
def _subspace_json(draw, known=()):
    rows = draw(st.sampled_from(known)) if known and draw(st.booleans()) else draw(_JSON_ROWS)
    data = {"basis": _mutate(draw, rows)}
    if draw(st.booleans()):
        data["ambient_dim"] = draw(st.one_of(st.integers(0, 13), st.sampled_from(["6", None])))
    return data


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@settings(max_examples=60, deadline=None)
@example(alg={**sl2_algebra().to_json(), "brackets": [[0.9, 1.2, 0, "-2"]]}, g=None)
@given(alg=_algebra_json(), g=st.none() | st.tuples(_subspace_json(), _subspace_json()))
def test_fuzzed_validate_inputs_end_in_an_exit_code(tmp_path_factory, alg, g):
    d = tmp_path_factory.getbasetemp()
    argv = ["validate", _write(d / "fuzz-alg.json", alg)]
    if g is not None:
        argv += ["--g1", _write(d / "fuzz-g1.json", g[0]), "--g2", _write(d / "fuzz-g2.json", g[1])]
    _run_quietly(argv)


_KNOWN_ROWS = (
    [[1, 0]], [[0, 1]],
    [list(r) for r in diagonal_subspace(sl2_algebra(), 1).to_json()["basis"]],
    [list(r) for r in triangular_complement().to_json()["basis"]],
)


@settings(max_examples=60, deadline=None)
@example(ctx="abelian-2", e={"basis": [[0], [-1]], "ambient_dim": 1}, f=None)
@given(ctx=st.sampled_from(["sl2-double", "sl2-pair", "abelian-2", "sl2c-real"]),
       e=st.none() | _subspace_json(_KNOWN_ROWS), f=st.none() | _subspace_json(_KNOWN_ROWS))
def test_fuzzed_subspace_files_end_in_an_exit_code(tmp_path_factory, ctx, e, f):
    d = tmp_path_factory.getbasetemp()
    argv = ["bivector", "--ctx", ctx]
    if e is not None:
        argv += ["--e-file", _write(d / "fuzz-e.json", e)]
    if f is not None:
        argv += ["--f-file", _write(d / "fuzz-f.json", f)]
    _run_quietly(argv)


@pytest.mark.parametrize("argv", [["mult", "--h", "nan"], ["mult", "--h", "inf"],
                                  ["schouten", "--tol", "nan"], ["rank", "--tol", "nan"],
                                  ["dressing", "--tol", "inf"]])
def test_non_finite_step_or_tolerance_is_usage_error(argv, capsys):
    _assert_usage_error(["verify"] + argv, capsys)


@pytest.mark.parametrize("argv", [["verify", "leaves", "--samples", "2"],
                                  ["bivector", "--ctx", "sl2-double"]])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    _assert_usage_error(argv + ["--out", str(tmp_path / "missing" / "x.json")], capsys)
    _assert_usage_error(argv + ["--out", str(tmp_path)], capsys)  # a directory


def _fresh_interpreter(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter, started with flags, that imports this courantlab."""
    src = str(Path(courantlab.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, *flags, "-c", f"import sys\nsys.path.insert(0, {src!r})\n{code}"],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [[], ["verify", "rank", "--samples", "2"],
                                  ["verify", "leaves", "--samples", "2"],
                                  ["verify", "relations", "--samples", "2"],
                                  ["bivector", "--ctx", "sl2-double"],
                                  ["bivector", "--ctx", "abelian-2"], ["validate"]], ids=" ".join)
def test_exact_paths_never_load_numpy(argv, double_json):
    # [] is the bare package import; validate reads the shipped double
    call = ""
    if argv:
        argv = argv + [double_json] if argv == ["validate"] else argv
        call = f"from courantlab.cli import main\nassert main({argv!r}) == 0\n"
    proc = _fresh_interpreter(f"import courantlab\n{call}assert 'numpy' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def test_start_up_loads_no_dataclasses_inspect_or_typing():
    # dataclasses loads inspect, ast, dis and tokenize, and @dataclass builds
    # each method by exec: a start-up cost the value classes on Frozen avoid.
    # numpy loads inspect itself, so diffnum is checked for dataclasses only;
    # -S keeps site-packages, whose .pth files may import typing, out
    loaded = "print(sorted({!r} & set(sys.modules)))"
    proc = _fresh_interpreter("import courantlab.cli\nimport courantlab.diffnum\n"
                              + loaded.format({"dataclasses"}))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = _fresh_interpreter("import courantlab.cli\n" + loaded.format({"dataclasses", "inspect", "typing"}),
                              "-S")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# the report digests of `verify SUITE --h 1e300 --json`, as before the
# float warnings were silenced
OVERFLOW_DIGESTS = {
    "schouten": "36ca69bc67f02ece9b649b656095c1fa26a07c224a5fc20f088ff9cec7f0ba05",
    "dressing": "41ca112eacae7cfda8e85df9a74d7b2e6b91e140b9ebdec2527639ee54c9c7db",
}


@pytest.mark.parametrize("suite", sorted(OVERFLOW_DIGESTS))
def test_an_overflowing_step_fails_without_float_warnings(suite):
    # a step of 1e300 overflows the FD work: each FD record fails, on a
    # non-finite residual or on the text of its breakdown (a singular chart
    # solve), and numpy's float warnings stay off stderr while checks run
    proc = _fresh_interpreter("from courantlab.cli import main\n"
                              f"sys.exit(main(['verify', {suite!r}, '--h', '1e300', '--json']))")
    assert proc.returncode == 2 and proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == OVERFLOW_DIGESTS[suite]


def test_a_large_stated_dim_is_refused_before_anything_is_built(tmp_path, capsys):
    # dim 10^5 with a 1 x 1 form: dim is checked against the form's rows
    # first, so nothing is built per stated index (no basis name, no row)
    path = _write(tmp_path / "large-dim.json", {"dim": 10**5, "brackets": [], "form": [[1]]})
    tracemalloc.start()
    try:
        code = main(["validate", path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad algebra description: the form must be dim x dim")
    assert peak < 1_000_000
    # the library entry point refuses it the same way, also at a size no memory holds
    with pytest.raises(ValueError, match="dim x dim"):
        QuadraticLieAlgebra.from_triples(10**30, [], [[1]])
