"""CLI contract: subcommands, formats, exit codes, determinism."""

import json
import math

import pytest

from regpot import cli
from regpot.core import EvalParams, eval_vmp


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------- eval

def test_eval_sqrt_pi(capsys):
    code, out = run(capsys, ["eval", "--m", "0", "--p", "2", "--x", "0"])
    assert code == 0
    assert "1.772453851" in out


def test_eval_convention(capsys):
    code, out = run(capsys, ["eval", "--m", "-1", "--p", "2", "--x", "4"])
    assert code == 0
    assert "0.25" in out


def test_eval_json_bit_for_bit(capsys):
    code, out = run(capsys, ["eval", "--m", "2", "--p", "2", "--x", "1.5",
                             "--format", "json"])
    assert code == 0
    d = json.loads(out)
    lib = eval_vmp(EvalParams(2.0, 2.0, 1.5))
    assert float(d["value"]) == lib.value
    assert d["method"] == lib.method


def test_eval_seventeen_digits_roundtrip(capsys):
    _, out = run(capsys, ["eval", "--m", "1", "--p", "2", "--x", "0.7",
                          "--format", "json"])
    v = json.loads(out)["value"]
    assert float(format(float(v), ".17g")) == float(v)


# ---------------------------------------------------------------- table

def test_table_csv_shape(capsys):
    code, out = run(capsys, ["table", "--m", "0", "--p", "2",
                             "--grid", "1,3,3,linear"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value,abs_err_estimate,method"
    assert len(lines) == 4
    assert not any(line.endswith(",") for line in lines)
    assert "\r" not in out


def test_table_with_bounds_columns(capsys):
    _, out = run(capsys, ["table", "--m", "0", "--p", "2",
                          "--grid", "1,2,2,linear", "--with-bounds"])
    header = out.splitlines()[0].split(",")
    assert "g_pi" in header and "g_4" in header


def test_table_json_matches_csv_numbers(capsys):
    _, csv_out = run(capsys, ["table", "--m", "1", "--p", "2",
                              "--grid", "0.5,2,3,geometric"])
    _, json_out = run(capsys, ["table", "--m", "1", "--p", "2",
                               "--grid", "0.5,2,3,geometric", "--format", "json"])
    rows = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    assert len(rows) == len(csv_rows) == 3
    for jr, cr in zip(rows, csv_rows):
        assert float(jr["value"]) == pytest.approx(float(cr[1]), rel=1e-9)


def test_table_deterministic(capsys):
    _, a = run(capsys, ["table", "--m", "2", "--p", "2", "--grid", "0.1,10,5,geometric"])
    _, b = run(capsys, ["table", "--m", "2", "--p", "2", "--grid", "0.1,10,5,geometric"])
    assert a == b


def test_bad_grid_spec_is_domain_error(capsys):
    code, _ = run(capsys, ["table", "--m", "0", "--p", "2", "--grid", "1,2,1,linear"])
    assert code == 3
    code, _ = run(capsys, ["table", "--m", "0", "--p", "2", "--grid", "1,2,5,log"])
    assert code == 3


# ---------------------------------------------------------------- verify

def test_verify_v0_passes(capsys):
    code, out = run(capsys, ["verify", "v0"])
    assert code == 0
    assert out.startswith("PASS")


def test_verify_ratio(capsys):
    code, _ = run(capsys, ["verify", "ratio", "--m-max", "5"])
    assert code == 0


def test_verify_r123_json(capsys):
    code, out = run(capsys, ["verify", "r123", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["passed"] is True


def test_verify_unknown_suite_usage_error(capsys):
    code = cli.main(["verify", "nonsense"])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------- certify

def test_certify_k4p2(capsys):
    code, out = run(capsys, ["certify", "k4p2"])
    assert code == 0
    assert "all_coeffs_nonneg" in out
    assert "101250" in out and "14400" in out


def test_certify_generic_k(capsys):
    code, out = run(capsys, ["certify", "generic_k"])
    assert code == 0
    assert "24*k^3*m*(1+2*m)*(k*m-6*m-k)" in out


def test_certify_p3k4_json(capsys):
    code, out = run(capsys, ["certify", "p3k4", "--format", "json"])
    assert code == 0
    d = json.loads(out)[0]
    assert d["chain"] == "p3k4"
    assert d["certificate"]["status"] == "all_coeffs_nonneg"


# ---------------------------------------------------------------- roots, sweep

def test_roots_table(capsys):
    code, out = run(capsys, ["roots", "--m-max", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,tildeP_root,P_root"
    assert len(lines) == 5


def test_sweep(capsys):
    code, out = run(capsys, ["sweep", "--k", "4", "--p", "2", "--m-list", "1,2",
                             "--grid", "0.1,10,100,linear"])
    assert code == 0
    assert "m=1: ok" in out


# ---------------------------------------------------------------- env and errors

def test_vmp_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("VMP_TOL", "1e-6")
    code, _ = run(capsys, ["eval", "--m", "0", "--p", "2", "--x", "1"])
    assert code == 0
    monkeypatch.setenv("VMP_TOL", "banana")
    code, _ = run(capsys, ["eval", "--m", "0", "--p", "2", "--x", "1"])
    assert code == 3


def test_domain_error_exit_code(capsys):
    code, _ = run(capsys, ["eval", "--m", "0", "--p", "-2", "--x", "1"])
    assert code == 3


def test_large_m_is_clean_error(capsys):
    code = cli.main(["eval", "--m", "200", "--p", "2", "--x", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "overflows" in err
    assert "Traceback" not in err


def test_non_finite_input_is_domain_error(capsys):
    for argv in (["--m", "nan", "--p", "2", "--x", "1"], ["--m", "1", "--p", "nan", "--x", "1"],
                 ["--m", "1", "--p", "2", "--x", "nan"]):
        code = cli.main(["eval", *argv])
        err = capsys.readouterr().err
        assert code == 3
        assert "must be finite" in err


def test_usage_error_exit_code(capsys):
    code = cli.main(["eval", "--m", "0"])
    capsys.readouterr()
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code = cli.main(["table", "--m", "0", "--p", "2", "--grid", "1,2,2,linear",
                     "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0].startswith("x,")
    assert "\r" not in text
