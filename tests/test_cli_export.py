"""CLI, CSV export, and validation-band tests."""

import csv
import io
import os

import pytest

from repro.analysis.export import result_to_csv, results_to_csv_files
from repro.analysis.validation import CheckResult, validate
from repro.cli import build_parser, main
from repro.experiments.base import ExperimentResult


def fake_result(eid="figure99", rows=None, columns=None):
    return ExperimentResult(
        experiment_id=eid,
        title="T",
        paper_reference="ref",
        columns=columns or ["a", "b"],
        rows=rows if rows is not None else [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}],
    )


# ---------------------------------------------------------------- export
def test_csv_roundtrip():
    text = result_to_csv(fake_result())
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "4.5"}]


def test_csv_missing_cells_blank():
    text = result_to_csv(fake_result(rows=[{"a": 1}]))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["b"] == ""


def test_csv_files_written(tmp_path):
    paths = results_to_csv_files([fake_result("e1"), fake_result("e2")], str(tmp_path))
    assert sorted(os.path.basename(p) for p in paths) == ["e1.csv", "e2.csv"]
    assert all(os.path.exists(p) for p in paths)


# ---------------------------------------------------------------- validation
def test_validate_unknown_experiment_returns_empty():
    assert validate(fake_result("not-registered")) == []


def test_validate_table1_bands():
    result = ExperimentResult(
        experiment_id="table1", title="t", paper_reference="r",
        columns=["system", "delta %"],
        rows=[{"system": "Linux UP", "delta %": 0.2},
              {"system": "Xen", "delta %": -3.0}],
    )
    checks = validate(result)
    assert [c.passed for c in checks] == [True, False]
    assert "FAIL" in str(checks[1])


def test_validate_figure12_band():
    result = ExperimentResult(
        experiment_id="figure12", title="t", paper_reference="r",
        columns=["connections", "gain %"],
        rows=[{"connections": 400, "gain %": 55.0}],
    )
    checks = validate(result)
    assert checks[0].passed


# ---------------------------------------------------------------- CLI
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure7" in out and "extension_hw_lro" in out


def test_cli_run_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "not-an-experiment"])


def test_cli_run_quick_with_csv(tmp_path, capsys):
    csv_path = str(tmp_path / "out.csv")
    assert main(["run", "ablation_limit1", "--quick", "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "ablation_limit1" in out
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2


def test_cli_report_quick(tmp_path, capsys, monkeypatch):
    # Patch the registry to a single cheap experiment to keep this fast.
    import repro.experiments.runner as runner

    monkeypatch.setattr(runner, "REGISTRY", {"ablation_limit1": runner.REGISTRY["ablation_limit1"]})
    out_path = str(tmp_path / "EXP.md")
    assert main(["report", out_path, "--quick"]) == 0
    text = open(out_path).read()
    assert "ablation_limit1" in text


# ---------------------------------------------------------------- obs flags
def _must_not_run(*_args, **_kwargs):
    raise AssertionError("an experiment ran")


@pytest.mark.parametrize("flag, value", [
    ("--trace", "t.json"),
    ("--metrics-out", "m.json"),
    ("--sample-interval", "0.005"),
    ("--ledger-out", "l.json"),
    ("--flame-out", "f.flame"),
])
def test_cli_obs_flag_with_jobs_exits_before_running(flag, value, tmp_path, capsys, monkeypatch):
    """The collectors never see sweep points sent to worker processes, so
    an observability flag with --jobs above 1 on a sweep experiment exits 2,
    naming both flags, before anything runs or is written."""
    import repro.cli as cli

    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "figure11", "--quick", "--jobs", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "--jobs 2" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_all_obs_flag_with_jobs_exits_before_running(tmp_path, capsys, monkeypatch):
    import repro.cli as cli

    monkeypatch.setattr(cli, "run_all", _must_not_run)
    monkeypatch.chdir(tmp_path)
    assert main(["all", "--quick", "--jobs", "2", "--metrics-out", "m.json"]) == 2
    err = capsys.readouterr().err
    assert "--metrics-out" in err and "--jobs 2" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--ledger-out", "--flame-out"])
def test_cli_all_rejects_ledger_flags(flag):
    """Most experiments cannot export a ledger, so only ``run`` takes these."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["all", "--quick", flag, "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["run", "figure11", "--jobs", "1", "--ledger-out", "l.json"],
    ["run", "table1", "--jobs", "2", "--trace", "t.json"],
    ["run", "figure11", "--jobs", "2", "--profile-out", "p.json"],
], ids=["serial", "no-sweep-to-split", "profile-read-from-rows"])
def test_cli_obs_output_without_worker_runs_is_accepted(argv, tmp_path, monkeypatch):
    import repro.cli as cli

    monkeypatch.setattr(cli, "run_experiment", lambda *_a, **_k: fake_result())
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert (tmp_path / argv[-1]).exists()


def test_cli_rejected_run_turns_observation_back_off(tmp_path, capsys, monkeypatch):
    """A request the experiment rejects exits 2 and leaves the process-wide
    obs config all-off, so later runs in the same process (a test suite,
    a notebook) are not observed."""
    from repro import obs

    monkeypatch.chdir(tmp_path)
    try:
        assert main(["run", "table1", "--quick", "--ledger-out", "L.json"]) == 2
        assert "--ledger-out" in capsys.readouterr().err
        assert obs.config() == obs.ObsConfig()
    finally:
        obs.reset()
    assert list(tmp_path.iterdir()) == []


def test_breakdown_to_json_transposes_categories():
    from repro.analysis.export import breakdown_to_json

    result = fake_result(
        columns=["category", "baseline", "optimized"],
        rows=[{"category": "driver", "baseline": 100.0, "optimized": 40.0},
              {"category": "tcp", "baseline": 50.0, "optimized": 45.0}],
    )
    doc = breakdown_to_json(result)
    assert doc["breakdown"] == {
        "baseline": {"driver": 100.0, "tcp": 50.0},
        "optimized": {"driver": 40.0, "tcp": 45.0},
    }


def test_breakdown_to_json_passthrough_for_plain_rows():
    from repro.analysis.export import breakdown_to_json

    doc = breakdown_to_json(fake_result())
    assert "breakdown" not in doc
    assert doc["columns"] == ["a", "b"] and len(doc["rows"]) == 2


def test_cli_run_with_observability_flags(tmp_path, capsys):
    """End-to-end: every obs flag produces a file that validates."""
    import json as _json

    from repro.obs.__main__ import check_document

    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    profile = tmp_path / "profile.json"
    assert main([
        "run", "ablation_limit1", "--quick",
        "--trace", str(trace),
        "--metrics-out", str(metrics),
        "--sample-interval", "0.005",
        "--profile-out", str(profile),
    ]) == 0
    out = capsys.readouterr().out
    assert "time-series dashboard" in out
    for path, expected_kind in (
        (trace, "chrome-trace"),
        (metrics, "observation-bundle"),
        (profile, "profile"),
    ):
        with open(path) as fh:
            doc = _json.load(fh)
        kind, problems = check_document(doc)
        assert kind == expected_kind and problems == [], (path, kind, problems)
    # The CLI resets the process-global config after exporting.
    from repro import obs

    assert not obs.config().enabled
    assert obs.drain_completed() == []
