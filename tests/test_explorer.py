"""Tests for the concrete-state reachability explorer.

Tier-1 runs capped explorations (seconds); full cell enumerations are
marked ``explore_full`` and only run with ``--explore-full`` (CI's
explore-smoke job and local deep verification).
"""

import json

import pytest

from repro.coherence.coverage import CoverageReport
from repro.eval.campaign import shard_evenly
from repro.host.config import HostProtocol
from repro.host.system import build_system
from repro.obs.matrix import CellSummary, render_missing
from repro.obs import CoverageMatrix
from repro.verify.explorer import (
    ADDRESS_POOL,
    CHECKS,
    ExplorerHarness,
    authoritative_uncovered,
    cell_config,
    cross_check_coverage,
    explore_cell,
    load_reachable_report,
    replay_path,
    run_cell_stress,
    state_set_digest,
)
from repro.verify.model import reachable_projections

CELL = {"host": "mesi", "variant": "full_state", "addresses": 1}
ADDR = ADDRESS_POOL[0]


# -- snapshot / transition-relation hooks -------------------------------------


def test_controller_hooks_expose_relation_and_coverage():
    system = build_system(cell_config(**CELL))
    l2 = system.directory
    relation = l2.transition_relation()
    assert relation and all(
        isinstance(s, str) and isinstance(e, str) for s, e in relation)
    assert l2.covered_transitions() == []  # nothing ran yet
    snap = l2.snapshot_state()
    assert snap.get("cache", {}) == {}
    assert snap.get("tbes", {}) == {}


def test_sequencer_snapshot_tracks_outstanding():
    system = build_system(cell_config(**CELL))
    seq = system.cpu_seqs[0]
    assert seq.snapshot_state() == {"outstanding": ()}
    seq.load(ADDR)
    outstanding = seq.snapshot_state()["outstanding"]
    assert len(outstanding) == 1
    assert outstanding[0][0] == ADDR


def test_xg_snapshot_extra_has_mirror_and_quarantine():
    system = build_system(cell_config(**CELL))
    extra = system.xg.snapshot_extra()
    assert extra["quarantine"] == "healthy"
    assert extra["errors"] == 0
    assert extra["mirror"] == {}


def test_hammer_directory_snapshot_extra_owners():
    system = build_system(cell_config(host="hammer", variant="full_state"))
    assert system.directory.snapshot_extra() == {"owners": {}}


# -- harness basics -----------------------------------------------------------


def test_root_state_is_quiescent_and_clean():
    harness = ExplorerHarness(CELL)
    assert harness.is_quiescent()
    assert harness.state_problems() == []
    actions = harness.enabled_actions()
    # 3 sequencers (2 CPU + 1 accel) x {load, store} x 1 address
    assert len(actions) == 6
    assert all(action[0] == "issue" for action in actions)


def test_issue_parks_instead_of_delivering():
    harness = ExplorerHarness(CELL)
    harness.apply(("issue", 0, "load", ADDR))
    assert len(harness.parked) == 1
    parked = harness.parked[0]
    assert parked.msg.dest == "l2"
    assert not harness.is_quiescent()
    delivers = [a for a in harness.enabled_actions() if a[0] == "deliver"]
    assert len(delivers) == 1


def test_ordered_lane_exposes_only_oldest():
    harness = ExplorerHarness(CELL)
    # accel load parks GetS on the ordered accel net (accel_l1 -> xg)
    harness.apply(("issue", 2, "load", ADDR))
    lanes = {p.lane for p in harness.parked}
    assert len(harness.parked) == 1
    delivers = [a for a in harness.enabled_actions() if a[0] == "deliver"]
    assert len(delivers) == len(lanes) == 1


# -- canonical hashing and symmetry -------------------------------------------


def test_core_permutation_symmetry():
    """Issuing on cpu.0 and on cpu.1 must reach the same canonical state."""
    a = replay_path(CELL, [("issue", 0, "load", ADDR)])
    b = replay_path(CELL, [("issue", 1, "load", ADDR)])
    assert a.digest() == b.digest()
    assert a.canonical() == b.canonical()


def test_distinct_ops_hash_differently():
    load = replay_path(CELL, [("issue", 0, "load", ADDR)])
    store = replay_path(CELL, [("issue", 0, "store", ADDR)])
    assert load.digest() != store.digest()


def test_address_renaming_symmetry():
    cell2 = dict(CELL, addresses=2)
    a = replay_path(cell2, [("issue", 0, "load", ADDRESS_POOL[0])])
    b = replay_path(cell2, [("issue", 0, "load", ADDRESS_POOL[1])])
    assert a.digest() == b.digest()


def test_replay_is_deterministic():
    path = [("issue", 0, "store", ADDR), ("deliver", 0)]
    assert replay_path(CELL, path).digest() == replay_path(CELL, path).digest()


# -- capped BFS ---------------------------------------------------------------


def test_capped_bfs_finds_no_violations():
    result = explore_cell(**CELL, max_states=120)
    assert result["ok"]
    assert result["truncated"]
    assert result["states"] == 120
    assert result["transitions"] > 0
    assert len(result["digest"]) == 64
    assert result["reachable"]  # transitions were harvested
    assert result["counterexample"] is None


def test_serial_and_sharded_digests_identical():
    serial = explore_cell(**CELL, max_states=80)
    sharded = explore_cell(**CELL, max_states=80, workers=2)
    assert serial["digest"] == sharded["digest"]
    assert serial["states"] == sharded["states"]
    assert serial["transitions"] == sharded["transitions"]
    assert serial["reachable"] == sharded["reachable"]


# -- pinned explorer behaviour ------------------------------------------------

#: ``(states, transitions, quiescent_states, digest)`` of capped cells.
#: Any change to the canonical text, the symmetry reduction or the BFS
#: order changes them.
PINNED_CELLS = {
    ("mesi", "full_state", 1, 150): (
        150, 627, 3,
        "5aca09dfb9007c42c3b83b385b8cdcde76d79c4654865d90040f927487a33f78"),
    ("mesi", "transactional", 1, 150): (
        150, 627, 3,
        "073bec0881879ba45f710b4f5c63f15bc7e2ab6aaaf37cfec903b7e6b682086a"),
    ("hammer", "full_state", 1, 150): (
        150, 777, 1,
        "e1088475a1f9a3535f08e947bd7dbcc8e47726220c47dbc5a9e198001f4184b6"),
    ("hammer", "transactional", 1, 150): (
        150, 780, 1,
        "743ec67a3acceef073e7b8bb7471b2c50106ed18ad0b7f19354b87699583385e"),
    ("mesif", "full_state", 1, 150): (
        150, 627, 3,
        "142805b23761feff7aec1ab34545a8ed1a78648d29c7ff979ddc9ece7d148981"),
    ("mesif", "transactional", 1, 150): (
        150, 627, 3,
        "9e64ec58341cc0f90de8acd8a3887bf6c97940b65c4c33a102978c5e618c4998"),
    ("mesi", "full_state", 2, 100): (
        100, 520, 1,
        "d7636c05a3ff1cd149e38f5f787774cd3c3b6e6ddf79be5c4c7937fcaebdfe00"),
}


@pytest.mark.parametrize("host,variant,addresses,cap", sorted(PINNED_CELLS))
def test_pinned_cell_counts_and_digest(host, variant, addresses, cap):
    result = explore_cell(host=host, variant=variant, addresses=addresses,
                          max_states=cap)
    assert result["ok"]
    assert (result["states"], result["transitions"],
            result["quiescent_states"], result["digest"]) == PINNED_CELLS[
                (host, variant, addresses, cap)]


# -- counterexamples (satellite: replay byte-for-byte) ------------------------


@pytest.fixture(scope="module")
def demo_counterexample():
    """One ``demo_accel_never_owns`` search shared by the tests below."""
    result = explore_cell(**CELL, max_states=5000,
                          check="demo_accel_never_owns")
    assert not result["ok"]
    return result["counterexample"]


def test_counterexample_replays_byte_for_byte(demo_counterexample):
    counterexample = demo_counterexample
    assert counterexample is not None
    assert "demo_accel_never_owns" in counterexample["reason"]
    replayed = replay_path(counterexample["cell"],
                           [tuple(a) for a in counterexample["path"]])
    assert replayed.canonical() == counterexample["canonical"]
    assert replayed.digest() == counterexample["digest"]
    assert replayed.state_problems("demo_accel_never_owns")


def test_counterexample_path_is_json_round_trippable(demo_counterexample):
    wire = json.loads(json.dumps(demo_counterexample))
    replayed = replay_path(wire["cell"], [tuple(a) for a in wire["path"]])
    assert replayed.digest() == wire["digest"]


def test_counterexample_at_reset_state(monkeypatch):
    """A check failing at reset is caught on the root, with an empty path."""
    monkeypatch.setitem(CHECKS, "always_fails",
                        lambda harness: "flagged every state")
    result = explore_cell(**CELL, max_states=50, check="always_fails")
    counterexample = result["counterexample"]
    assert not result["ok"]
    assert result["states"] == 1 and result["transitions"] == 0
    assert counterexample["path"] == []
    assert "always_fails" in counterexample["reason"]
    replayed = replay_path(counterexample["cell"], counterexample["path"])
    assert replayed.canonical() == counterexample["canonical"]
    assert replayed.digest() == counterexample["digest"]
    assert replayed.digest() == ExplorerHarness(CELL).digest()


# -- differential vs the abstract model (satellite) ---------------------------


def test_concrete_projections_subset_of_abstract_model():
    abstract = reachable_projections()
    result = explore_cell(**CELL, max_states=2500)
    concrete = {tuple(pair) for pair in result["projections"]}
    assert concrete, "explorer observed no XG-link projections"
    assert concrete <= abstract, (
        f"concrete XG-link states unreachable in the abstract model: "
        f"{sorted(concrete - abstract)}")


def test_transactional_cell_has_no_projection():
    result = explore_cell(host="mesi", variant="transactional",
                          addresses=1, max_states=60)
    assert result["projections"] == []
    assert result["ok"]


# -- coverage cross-check machinery -------------------------------------------


def test_cross_check_flags_unreachable_covered():
    result = {"reachable": {"l2": [("A", "X"), ("B", "Y")]}}
    ok = cross_check_coverage(result, {"l2": [("A", "X")]})
    assert ok == []
    bad = cross_check_coverage(result, {"l2": [("C", "Z")]})
    assert bad == [("l2", [("C", "Z")])]


def test_authoritative_uncovered_is_reachable_minus_covered():
    result = {"reachable": {"l2": [("A", "X"), ("B", "Y")]}}
    out = authoritative_uncovered(result, {"l2": [("A", "X")]})
    assert out == {"l2": [("B", "Y")]}
    assert authoritative_uncovered(result, {"l2": [("A", "X"), ("B", "Y")]}) == {}


def test_stress_runs_on_cell_config_produce_coverage():
    covered = run_cell_stress(CELL, seed=1, ops=40)
    assert covered
    assert any(pairs for pairs in covered.values())


def test_load_reachable_report_skips_truncated(tmp_path):
    path = tmp_path / "explore_report.json"
    payload = {"cells": [
        {"truncated": False, "reachable": {"l2": [["A", "X"]]}},
        {"truncated": True, "reachable": {"l2": [["B", "Y"]]}},
    ]}
    path.write_text(json.dumps(payload))
    assert load_reachable_report(path) == {"l2": {("A", "X")}}
    both = load_reachable_report(path, include_partial=True)
    assert both == {"l2": {("A", "X"), ("B", "Y")}}


# -- report integration -------------------------------------------------------


def _summary_with_holes():
    cell = CellSummary("mesi/xg-full-L1")
    report = CoverageReport("l2")
    report.possible = {("A", "X"), ("B", "Y"), ("C", "Z")}
    report.visited[("A", "X")] += 1
    cell.coverage["l2"] = report
    return cell


def test_missing_transitions_reachability_filter():
    cell = _summary_with_holes()
    assert cell.missing_transitions() == [
        ("l2", "B", "Y"), ("l2", "C", "Z")]
    reachable = {"l2": {("A", "X"), ("B", "Y")}}
    assert cell.missing_transitions(reachable) == [("l2", "B", "Y")]
    # unknown ctypes pass through unfiltered
    assert cell.missing_transitions({"other": set()}) == [
        ("l2", "B", "Y"), ("l2", "C", "Z")]


def test_render_missing_reports_unreachable_excluded():
    matrix = CoverageMatrix()
    matrix.cells["mesi/xg-full-L1"] = _summary_with_holes()
    text = render_missing(matrix, reachable={"l2": {("B", "Y")}})
    assert "1 uncovered reachable transition(s)" in text
    assert "1 proven unreachable excluded" in text


# -- shard helper -------------------------------------------------------------


def test_shard_evenly():
    assert shard_evenly([], 4) == []
    assert shard_evenly([1, 2, 3], 1) == [[1, 2, 3]]
    shards = shard_evenly(list(range(10)), 3)
    assert [len(s) for s in shards] == [4, 3, 3]
    assert [x for shard in shards for x in shard] == list(range(10))
    assert shard_evenly([1, 2], 5) == [[1], [2]]


# -- exhaustive proofs (explore-full only) ------------------------------------

#: Visited-set digest of the complete mesi/full_state 1-address cell.
FULL_CELL_DIGEST = (
    "b283923c429195703a9f2b2cc01e075e43c7c5389c7878bd14170233eb282bed")


@pytest.fixture(scope="module")
def full_cell():
    """The acceptance cell enumerated once, serially, for the tests below."""
    return explore_cell(**CELL, max_states=100_000)


@pytest.mark.explore_full
def test_full_mesi_full_state_cell_proved(full_cell):
    """The acceptance cell: complete enumeration, zero violations."""
    assert full_cell["complete"]
    assert full_cell["ok"]
    assert full_cell["states"] == 20_876
    assert full_cell["transitions"] == 70_348
    assert full_cell["quiescent_states"] == 17
    assert full_cell["depth"] == 45
    assert full_cell["digest"] == FULL_CELL_DIGEST


@pytest.mark.explore_full
def test_full_cell_sharded_digest_matches_serial(full_cell):
    sharded = explore_cell(**CELL, max_states=100_000, workers=4)
    assert sharded["complete"]
    assert full_cell["digest"] == sharded["digest"]


@pytest.mark.explore_full
def test_full_cell_stress_coverage_is_reachable_subset(full_cell):
    assert full_cell["complete"]
    for seed in range(3):
        covered = run_cell_stress(CELL, seed=seed, ops=150)
        assert cross_check_coverage(full_cell, covered) == []


@pytest.mark.explore_full
@pytest.mark.parametrize("host", ["hammer", "mesif"])
def test_other_hosts_capped_exploration_clean(host):
    result = explore_cell(host=host, variant="full_state",
                          addresses=1, max_states=5000)
    assert result["ok"]
