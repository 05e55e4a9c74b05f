"""Tests for controller occupancy (per-message processing time)."""

import pytest

from repro.coherence.controller import CONSUMED, CoherenceController
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.sim.message import Message
from repro.sim.simulator import Simulator
from repro.testing.invariants import check_all
from repro.testing.random_tester import RandomTester
from repro.workloads.synthetic import PERF_WORKLOADS, run_drivers


class _Counter(CoherenceController):
    CONTROLLER_TYPE = "counter"
    PORTS = ("inbox",)

    def __init__(self, sim, name):
        self.handled_at = []
        super().__init__(sim, name)

    def handle_message(self, port, msg):
        self.handled_at.append(self.sim.tick)
        return CONSUMED


def test_zero_occupancy_processes_same_tick():
    sim = Simulator()
    ctrl = _Counter(sim, "c")
    for i in range(4):
        ctrl.deliver("inbox", 5, Message("m", 64 * i, dest="c"))
    sim.run()
    assert ctrl.handled_at == [5, 5, 5, 5]


def test_occupancy_serializes_processing():
    sim = Simulator()
    ctrl = _Counter(sim, "c")
    ctrl.occupancy = 10
    for i in range(4):
        ctrl.deliver("inbox", 5, Message("m", 64 * i, dest="c"))
    sim.run()
    assert ctrl.handled_at == [5, 15, 25, 35]
    assert ctrl.stats.get("busy_ticks") == 40


def test_busy_gate_blocks_early_wakeups():
    sim = Simulator()
    ctrl = _Counter(sim, "c")
    ctrl.occupancy = 20
    ctrl.deliver("inbox", 5, Message("m", 0x0, dest="c"))
    ctrl.deliver("inbox", 8, Message("m", 0x40, dest="c"))  # arrives mid-window
    sim.run()
    assert ctrl.handled_at == [5, 25]


def test_directory_occupancy_slows_contended_workload():
    ticks = {}
    for occ in (0, 16):
        config = SystemConfig(
            host=HostProtocol.MESI, org=AccelOrg.XG, n_cpus=2, n_accel_cores=2,
            seed=3, directory_occupancy=occ,
        )
        system = build_system(config)
        ticks[occ] = run_drivers(
            system.sim, PERF_WORKLOADS(scale=1)["shared_pingpong"](system)
        )
    assert ticks[16] > ticks[0] * 1.3


def test_note_busy_feeds_telemetry():
    from repro.obs import Telemetry

    sim = Simulator()
    obs = Telemetry(sim)
    ctrl = _Counter(sim, "c")
    ctrl.occupancy = 10
    for i in range(3):
        ctrl.deliver("inbox", 5, Message("m", 64 * i, dest="c"))
    sim.run()
    obs.finalize()
    assert ctrl.stats.get("busy_ticks") == 30
    # One busy record per handled message, each carrying the window length.
    assert [(c, t) for _tick, c, t in obs.busy] == [("c", 10)] * 3
    assert sum(t for _tick, comp, t in obs.busy if comp == "c") == 30


def _occupancy_tracks(payload):
    """Perfetto occupancy counter samples, keyed by component."""
    tracks = {}
    for event in payload["traceEvents"]:
        if event.get("cat") != "occupancy":
            continue
        component = event["name"].split("occupancy.", 1)[1]
        tracks.setdefault(component, []).append(event["args"])
    return tracks


def test_exported_occupancy_tracks_match_busy_counters():
    """The Perfetto occupancy tracks must sum to exactly the simulator-side
    ``busy_ticks`` stat of each component — real accounting, not a guess."""
    from repro.obs import Telemetry, build_trace

    config = SystemConfig(
        host=HostProtocol.MESI, org=AccelOrg.XG, n_cpus=2, n_accel_cores=2,
        cpu_l1_sets=2, cpu_l1_assoc=1, shared_l2_sets=4, shared_l2_assoc=2,
        accel_l1_sets=2, accel_l1_assoc=1, seed=5,
        deadlock_threshold=400_000, accel_timeout=150_000,
        directory_occupancy=8,
    )
    system = build_system(config)
    obs = Telemetry(system.sim)
    tester = RandomTester(
        system.sim, system.sequencers, [0x1000 + 64 * i for i in range(4)],
        ops_target=300, store_fraction=0.45,
    )
    tester.run()
    obs.finalize()
    payload = build_trace(obs, label=config.label)
    tracks = _occupancy_tracks(payload)

    busy_components = {comp for _tick, comp, _t in obs.busy}
    assert system.directory.name in busy_components  # occupancy=8 did work
    for component in busy_components:
        samples = tracks[component]
        # Real tracks carry busy_ticks, never the derived transition count.
        assert all("busy_ticks" in args and "transitions" not in args
                   for args in samples)
        exported = sum(args["busy_ticks"] for args in samples)
        ctrl = next(c for c in system.controllers() if c.name == component)
        assert exported == ctrl.stats.get("busy_ticks") > 0

    # Zero-occupancy components still get the derived fallback track, and
    # the two units never mix on one track name.
    derived = {
        comp for comp, samples in tracks.items()
        if any("transitions" in args for args in samples)
    }
    assert derived, "derived fallback tracks disappeared"
    assert not (derived & busy_components)


def test_stress_correct_under_occupancy():
    config = SystemConfig(
        host=HostProtocol.HAMMER, org=AccelOrg.XG, n_cpus=2, n_accel_cores=2,
        cpu_l1_sets=2, cpu_l1_assoc=1, shared_l2_sets=4, shared_l2_assoc=2,
        accel_l1_sets=2, accel_l1_assoc=1, randomize_latencies=True, seed=11,
        deadlock_threshold=600_000, accel_timeout=250_000, mem_latency=30,
        directory_occupancy=5,
    )
    system = build_system(config)
    tester = RandomTester(
        system.sim, system.sequencers, [0x1000 + 64 * i for i in range(5)],
        ops_target=2000, store_fraction=0.45,
    )
    tester.run()
    assert tester.loads_checked > 800
    assert len(system.error_log) == 0
    check_all(system)
