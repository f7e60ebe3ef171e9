"""CLI, CSV export, and validation-band tests."""

import csv
import functools
import io
import json
import os

import pytest

from repro.analysis.export import result_to_csv, results_to_csv_files
from repro.analysis.validation import validate
from repro.cli import build_parser, main
from repro.experiments.base import ExperimentResult
from repro.sim.engine import Simulator


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
_RETIRED_OBS_FLAGS = ("--trace", "--metrics-out", "--sample-interval", "--ledger-out", "--flame-out")


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("an experiment ran")


def _stand_in(fn):
    """A fake experiment with ``fn``'s signature, so the runner's gates see
    the real parameters."""

    @functools.wraps(fn)
    def fake(**_kwargs):
        return fake_result()

    return fake


def test_cli_obs_dir_is_the_only_observability_flag(capsys):
    """``run`` takes ``--obs-dir`` in place of the five export flags."""
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    usage = capsys.readouterr().out
    assert "--obs-dir" in usage
    assert [flag for flag in _RETIRED_OBS_FLAGS if flag in usage] == []


@pytest.mark.parametrize("flag", ["--ledger-out", "--flame-out", "--obs-dir"])
def test_cli_all_rejects_ledger_flags(flag):
    """``all`` takes no observability flag: only ``run`` takes
    ``--obs-dir``."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["all", "--quick", flag, "x.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--trace", "t.json"),
    ("--metrics-out", "m.json"),
    ("--sample-interval", "0.005"),
    ("--ledger-out", "l.json"),
    ("--flame-out", "f.flame"),
    ("--obs-dir", "D"),
])
def test_cli_obs_flag_with_jobs_exits_before_running(flag, value, tmp_path, capsys, monkeypatch):
    """The collectors never see sweep points sent to worker processes, so
    --obs-dir with --jobs above 1 on a sweep experiment exits 2, naming both
    flags, before anything runs or is written.  The five export flags it
    replaced are refused by the parser, before the gate is reached."""
    import repro.experiments.runner as runner

    real = runner.REGISTRY["figure11"]
    monkeypatch.setitem(runner.REGISTRY, "figure11", functools.wraps(real)(lambda **_k: _must_not_run()))
    monkeypatch.chdir(tmp_path)
    try:
        code = main(["run", "figure11", "--quick", "--jobs", "2", flag, value])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert flag in err and ("--jobs 2" in err) == (flag == "--obs-dir")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "figure11", "--jobs", "1", "--obs-dir", "D"],
    ["run", "figure3", "--jobs", "2", "--obs-dir", "D"],
    ["run", "figure11", "--jobs", "2", "--profile-out", "p.json"],
], ids=["serial", "no-sweep-to-split", "profile-read-from-rows"])
def test_cli_obs_output_without_worker_runs_is_accepted(argv, tmp_path, monkeypatch):
    import repro.experiments.runner as runner

    eid = argv[1]
    monkeypatch.setitem(runner.REGISTRY, eid, _stand_in(runner.REGISTRY[eid]))
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
        assert main(["run", "table1", "--quick", "--queues", "2", "--obs-dir", "D"]) == 2
        assert "--queues" in capsys.readouterr().err
        assert obs.config() == obs.ObsConfig()
    finally:
        obs.reset()
    assert list(tmp_path.iterdir()) == []


def test_cli_obs_dir_observes_every_rig_of_table1(tmp_path, capsys, monkeypatch):
    """table1 builds its six request/response rigs itself: --obs-dir exports
    one observation per rig, the directory validates, and the rows equal
    their pin with every collector on."""
    import repro.cli as cli
    from repro import obs
    from repro.experiments.runner import run_experiment
    from repro.obs.__main__ import main as obs_main

    from tests.conftest import assert_rows_match_pin

    results = []

    def run(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_experiment", run)
    obs_dir = tmp_path / "obs"
    try:
        assert main(["run", "table1", "--quick", "--obs-dir", str(obs_dir)]) == 0
    finally:
        obs.reset()
    assert_rows_match_pin("table1", results[0], "--obs-dir")
    runs = json.loads((obs_dir / "observations.json").read_text())["runs"]
    assert [entry["label"] for entry in runs] == [
        f"{system}/{mode}/rr"
        for system in ("Linux UP", "Linux SMP", "Xen") for mode in ("base", "opt")
    ]
    capsys.readouterr()
    assert obs_main(["check", *sorted(str(p) for p in obs_dir.iterdir())]) == 0
    assert ": observation-bundle: ok" in capsys.readouterr().out


def _observer_names() -> list:
    return sorted(type(o).__name__ for o in Simulator().observers)


@pytest.mark.parametrize("exit_code", [0, 2])
def test_cli_checkers_are_on_for_the_command_only(exit_code, monkeypatch):
    """--sanitize and --racecheck install their checkers for the command,
    uninstall them however it ends, and leave the environment alone."""
    import repro.cli as cli

    seen = []

    def run(*_args, **_kwargs):
        seen.append(_observer_names())
        if exit_code:
            raise ValueError("rejected")
        return fake_result()

    monkeypatch.setattr(cli, "run_experiment", run)
    before = _observer_names()
    environ = dict(os.environ)
    assert main(["run", "table1", "--quick", "--sanitize", "--racecheck"]) == exit_code
    assert seen == [sorted(set(before) | {"RaceChecker", "SimSanitizer"})]
    assert _observer_names() == before
    assert dict(os.environ) == environ


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
    """End-to-end: --obs-dir writes its four files and each one validates,
    as does the --profile-out document written next to them."""
    from repro import obs
    from repro.obs.__main__ import main as obs_main

    obs_dir = tmp_path / "obs"
    assert main([
        "run", "ablation_limit1", "--quick",
        "--obs-dir", str(obs_dir),
        "--profile-out", str(obs_dir / "profile.json"),
    ]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in obs_dir.iterdir()) == [
        "dashboard.txt", "observations.json", "profile.json", "run.flame", "trace.json",
    ]
    assert obs_main(["check", *sorted(str(p) for p in obs_dir.iterdir())]) == 0
    kinds = capsys.readouterr().out
    for kind in ("dashboard", "observation-bundle", "profile", "flame", "chrome-trace"):
        assert f": {kind}: ok" in kinds, kind
    # The CLI resets the process-global config after exporting.
    assert not obs.config().enabled
    assert obs.drain_completed() == []
