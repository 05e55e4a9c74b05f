"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "digests.json")


def test_demo_runs_clean(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "accel read: 21" in out
    assert "cpu read: 42" in out
    assert "guarantee violations: 0" in out


def test_demo_hammer_transactional(capsys):
    assert main(["demo", "--host", "hammer", "--variant", "transactional"]) == 0
    assert "hammer/xg-txn-L1" in capsys.readouterr().out


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "transactional-style" in out and "OK" in out


def test_fuzz_command_safe(capsys):
    assert main(["fuzz", "--duration", "8000", "--cpu-ops", "200"]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out


def test_chaos_command_safe(capsys):
    assert main([
        "chaos", "--duration", "10000", "--cpu-ops", "200", "--rate", "0.2",
        "--accel-timeout", "1500", "--probe-retries", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "faults_total:" in out


def test_chaos_command_blackhole_and_disable(capsys):
    assert main([
        "chaos", "--duration", "12000", "--cpu-ops", "200", "--rate", "0.1",
        "--blackhole", "3000:6000", "--accel-timeout", "1500",
        "--adversary", "fuzz", "--disable-after", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "OS error log:" in out


def test_experiment_e1(capsys):
    assert main(["experiment", "e1"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_experiment_unknown(capsys):
    assert main(["experiment", "nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_stress_small(capsys):
    assert main(["stress", "--seeds", "1", "--ops", "400"]) == 0
    assert "stress runs, 0 failures" in capsys.readouterr().out


def test_stress_live_plain_on_non_tty(capsys, tmp_path):
    # capsys' stdout is not a TTY, so --live must degrade to periodic
    # plain-text lines (no ANSI) and still produce the normal report
    dash = tmp_path / "campaign_dash.json"
    assert main([
        "stress", "--seeds", "1", "--ops", "300", "--workers", "2",
        "--live", "--live-interval", "0.2", "--dash-out", str(dash),
    ]) == 0
    out = capsys.readouterr().out
    assert "\x1b[" not in out, "non-TTY live output must stay plain"
    assert "fabric: jobs" in out
    assert "stress runs, 0 failures" in out
    import json

    payload = json.loads(dash.read_text())
    assert payload["schema"] == "repro.campaign_dash/1"
    assert payload["fabric"]["jobs_done"] == payload["fabric"]["jobs_total"]


def test_explore_reports_states_per_sec(capsys, tmp_path):
    report = tmp_path / "explore_report.json"
    assert main(["explore", "--max-states", "20", "--progress",
                 "-o", str(report)]) == 0
    captured = capsys.readouterr()
    assert "states/s" in captured.out  # table column
    assert "states/s" in captured.err  # --progress lines
    # each level's wall-clock split over the expansion phases
    level = next(line for line in captured.err.splitlines() if "depth 1," in line)
    split = level[level.index("[") + 1:level.index("]")].split()
    assert split[::2] == ["replay", "restore", "apply+settle", "canonical",
                          "checks"]
    assert all(seconds.endswith("s") for seconds in split[1::2])
    import json

    cell = json.loads(report.read_text())["cells"][0]
    assert cell["states"] == 20
    assert cell["states_per_sec"] > 0
    assert "elapsed_sec" in cell


def test_top_command_prints_fabric_summary(capsys):
    assert main(["top", "--seeds", "1", "--ops", "300", "--workers", "1",
                 "--live-interval", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "campaign fabric summary" in out
    assert "job_ms" in out
    assert "\x1b[" not in out


def test_fuzz_live_frames_single_run(capsys):
    assert main(["fuzz", "--duration", "8000", "--cpu-ops", "200",
                 "--live", "--live-interval", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "host_safe: True" in out
    assert "fabric: jobs 1/1" in out


def test_golden_verifies_committed_digests(capsys, tmp_path):
    assert main(["golden", "--path", GOLDEN_PATH]) == 0
    assert "all golden digests match" in capsys.readouterr().out

    with open(GOLDEN_PATH) as fh:
        payload = json.load(fh)
    label = "stress/mesi/xg"
    payload["digests"][label]["stats"] = "0" * 64
    altered = tmp_path / "digests.json"
    altered.write_text(json.dumps(payload))
    assert main(["golden", "--path", str(altered)]) == 1
    assert f"{label}: CHANGED" in capsys.readouterr().out


def test_golden_rejects_matrix_flag():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["golden", "--matrix"])
    assert info.value.code == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
