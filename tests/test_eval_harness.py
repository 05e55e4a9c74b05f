"""Tests for the evaluation harness itself (E1/E2 correctness, reporting)."""

import pytest

from repro.eval.experiments import PAPER_TABLE1, run_complexity_comparison, run_table1_accel_l1
from repro.eval.overheads import analytic_storage_bits
from repro.eval.report import format_table, normalize_rows


def test_table1_reproduced_exactly():
    result = run_table1_accel_l1()
    assert len(result["rows"]) == len(PAPER_TABLE1) == 24
    for row in result["rows"]:
        assert row["implemented"] not in ("MISSING", "UNEXPECTED"), row


def test_complexity_rows_match_paper_claims():
    """E2 counts each declared table: the accel L1 has 4 stable states + 1
    transient against the host L1s' many transients. Exact rows, so a
    dropped or added table row fails here rather than slipping through."""
    _ = "-"
    columns = ("controller", "stable_states", "transient_states", "transitions",
               "incoming_requests", "incoming_responses", "outgoing_requests")
    expected = [
        ("accel L1 (XG interface)", 4, 1, 20, 1, 4, 5),
        ("host MESI L1", 4, 9, 40, 4, 7, 6),
        ("host Hammer cache", 5, 8, 75, 3, 6, 5),
        ("interface message kinds", _, _, _, 14, 20, 19),
    ]
    assert run_complexity_comparison() == [dict(zip(columns, row)) for row in expected]


def test_analytic_storage_paper_datapoint():
    """Section 2.3.1: 256kB accel cache, 64B blocks -> ~16kB of tags."""
    bits = analytic_storage_bits(256)
    kib = bits["full_state_bits"] / 8 / 1024
    assert 14 <= kib <= 17


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="t")
    lines = out.splitlines()
    assert lines[0] == "t"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_normalize_rows():
    rows = [
        {"config": "base", "ticks": 100},
        {"config": "other", "ticks": 150},
    ]
    normalize_rows(rows, "ticks", "base")
    assert rows[0]["ticks_norm"] == 1.0
    assert rows[1]["ticks_norm"] == 1.5
    with pytest.raises(ValueError):
        normalize_rows(rows, "ticks", "missing")
