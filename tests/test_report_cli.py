import json
import subprocess
import sys

import pytest

from splitcone import quadrature, suites
from splitcone.cli import main
from splitcone.report import (
    VerificationReport,
    emit_report,
    make_check,
    to_csv,
    to_json,
    to_text,
)
from splitcone.suites import SuiteConfig, build_suite


def _tiny_report():
    checks = [
        make_check("a.one", "S5.prop-ft", {"R": 1.0}, 1.0 + 2.0j, 1.0 + 2.0j, 1e-9),
        make_check("a.two", "S4.K-rel", {"n": 3}, 0.5, 0.25, 1e-3),
    ]
    return VerificationReport("demo", {"seed": 1}, checks, wall_ms=12.5)


def test_check_result_errors():
    c = make_check("x", "S", {}, 1.0, 2.0, 0.5, kind="rel")
    assert c.abs_error == 1.0
    assert c.rel_error == 0.5
    assert c.passed
    c2 = make_check("x", "S", {}, 1.0, 2.0, 0.4, kind="rel")
    assert not c2.passed


def test_json_roundtrip_and_schema():
    rep = _tiny_report()
    payload = json.loads(to_json(rep))
    assert payload["schema_version"] == 1
    assert payload["suite"] == "demo"
    assert payload["generator"] == "splitmix64"
    assert set(payload["summary"]) == {"passed", "failed", "skipped"}
    assert payload["summary"]["failed"] == 1
    assert len(payload["checks"]) == 2
    first = payload["checks"][0]
    for fieldname in ("check_id", "paper_anchor", "parameters", "computed",
                      "reference", "abs_error", "rel_error", "tolerance", "pass"):
        assert fieldname in first
    # complex numbers serialize as [re, im]; precision round-trips floats
    assert first["computed"] == [1.0, 2.0]
    assert json.loads(json.dumps(first["abs_error"])) == first["abs_error"]


def test_csv_row_count_and_text():
    rep = _tiny_report()
    csv_text = to_csv(rep)
    assert len(csv_text.strip().splitlines()) == len(rep.checks) + 1
    txt = to_text(rep)
    assert "PASS" in txt and "FAIL" in txt
    assert "1 failed" in txt


def test_emit_to_file(tmp_path):
    rep = _tiny_report()
    path = tmp_path / "rep.json"
    emit_report(rep, "json", str(path))
    assert json.loads(path.read_text())["suite"] == "demo"
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")
    with pytest.raises(OSError):
        emit_report(rep, "json", str(tmp_path / "nodir" / "rep.json"))


def test_fixed_seed_reports_are_byte_identical():
    cfg = SuiteConfig(suite="corollary", seed=7)
    rep1 = VerificationReport("corollary", {"seed": 7}, build_suite(cfg))
    rep2 = VerificationReport("corollary", {"seed": 7}, build_suite(cfg))
    assert to_json(rep1, include_wall_time=False) == to_json(
        rep2, include_wall_time=False)


def test_worker_count_does_not_change_numbers(monkeypatch):
    # several suites, so workers > 1 runs them on the thread pool
    monkeypatch.setattr(suites, "SUITE_NAMES", ("bessel", "corollary", "lemma"))
    rep1 = build_suite(SuiteConfig(suite="all", seed=3, workers=1))
    rep2 = build_suite(SuiteConfig(suite="all", seed=3, workers=3))
    assert [(c.check_id, c.computed) for c in rep1] == [
        (c.check_id, c.computed) for c in rep2]


def test_tolerance_scale_keeps_ids_and_scales_every_tolerance(monkeypatch):
    monkeypatch.setattr(suites, "SUITE_NAMES", ("bessel", "corollary", "lemma"))
    base = build_suite(SuiteConfig(suite="all"))
    tight = build_suite(SuiteConfig(suite="all", tol_scale=1e-3))
    assert [c.check_id for c in tight] == [c.check_id for c in base]
    for b, t in zip(base, tight):
        assert t.tolerance == (b.tolerance * 1e-3 if b.tolerance > 0 else -1.0)
    # an exact check keeps tolerance 0 unless the scale tightens it
    exact = make_check("x", "S", {}, 1.0, 1.0, 0.0)
    assert suites._scale_tolerance(exact, 1.0).passed
    assert not suites._scale_tolerance(exact, 1e-3).passed


def test_cli_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    assert main(["corollary", "--format", "json", "--out", str(out),
                 "--seed", "7"]) == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "corollary"
    assert payload["summary"]["failed"] == 0
    # forced failure via tolerance scaling
    assert main(["corollary", "--tol", "1e-30", "--format", "json",
                 "--out", str(out)]) == 1
    # usage errors
    assert main(["not-a-suite"]) == 2
    assert main(["corollary", "--tol", "-1"]) == 2
    assert main(["corollary", "--rho", "abc"]) == 2
    assert main(["fourier", "--panel-budget", "3"]) == 2
    # numerical non-convergence via a negative error budget
    monkeypatch.setattr(quadrature, "_ERROR_BUDGET", -1.0)
    assert main(["fourier", "--format", "json", "--out", str(out)]) == 3


@pytest.mark.parametrize("flag, value", [
    ("--R", "-1"), ("--R", "0"), ("--R", "nan"), ("--R", "inf"),
    ("--rho", "0"), ("--rho", "nan"), ("--rho", "inf"), ("--rho", "-inf"),
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
])
def test_cli_bad_parameters_are_usage_errors(flag, value, capsys):
    assert main(["mellin_ratio", f"{flag}={value}"]) == 2
    assert "bad configuration" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["bessel", "fourier", "corollary", "lemma",
                                   "mellin_ratio", "kernels", "ktypes"])
def test_cheap_suites_pass_at_defaults(suite):
    failed = [c.check_id for c in build_suite(SuiteConfig(suite=suite))
              if not c.passed]
    assert failed == []


@pytest.mark.parametrize("seed", [136, 184, 211, 1169, 1247])
def test_corollary_symmetric_passes_at_former_failing_seeds(seed):
    # seeds where extrapolating the transform along the epsilon ladder
    # misses one corollary.symmetric check
    failed = [c.check_id for c in build_suite(SuiteConfig(suite="corollary",
                                                          seed=seed))
              if not c.passed]
    assert failed == []


def test_cli_no_wall_time_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["corollary", "--seed", "7", "--format", "json", "--out",
                 str(a), "--no-wall-time"]) == 0
    assert main(["corollary", "--seed", "7", "--format", "json", "--out",
                 str(b), "--no-wall-time"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_csv_and_text(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["lemma", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,")
    assert len(lines) > 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "splitcone.cli", "corollary", "--format",
         "text"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "summary:" in proc.stdout
