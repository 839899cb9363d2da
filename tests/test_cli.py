import json

import pytest

from courantlab.cli import main
from courantlab.contexts import sl2_algebra, triangular_complement
from courantlab.quadlie import build_double, diagonal_subspace


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


def test_thread_env_var(monkeypatch, capsys):
    monkeypatch.setenv("COURANTLAB_THREADS", "2")
    assert main(["verify", "rank", "--samples", "8", "--seed", "5"]) == 0
    monkeypatch.setenv("COURANTLAB_THREADS", "not-a-number")
    assert main(["verify", "rank", "--samples", "4", "--seed", "5"]) == 0


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


@pytest.mark.parametrize("corrupt", [_zero_denominator, _form_too_small])
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
