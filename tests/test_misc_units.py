"""Small-unit coverage: message carriers, reports, perf plumbing."""

import pytest

from repro.coherence.coverage import collect_coverage
from repro.eval.perf import perf_configs, run_one
from repro.host.config import AccelOrg, HostProtocol
from repro.sim.message import Message
from repro.sim.stats import Stats
from repro.workloads.synthetic import PERF_WORKLOADS


def test_message_defaults_and_repr():
    msg = Message("Ping", 0x1040, sender="a", dest="b")
    assert msg.data is None and msg.ack_count == 0 and not msg.dirty
    assert msg.value is None
    text = repr(msg)
    assert "Ping" in text and "a->b" in text and "0x1040" in text


def test_message_uids_unique():
    uids = {Message("m", 0).uid for _ in range(100)}
    assert len(uids) == 100


def test_message_repr_shows_payload_flags():
    from repro.memory.datablock import DataBlock

    msg = Message("D", 0x40, sender="x", dest="y", data=DataBlock(), dirty=True,
                  ack_count=3, requestor="r")
    text = repr(msg)
    assert "+data" in text and "dirty" in text and "acks=3" in text and "req=r" in text


def test_histogram_buckets_track_distribution():
    """Pins the per-histogram report shape the golden stats digests hash:
    count/sum/mean/min/max plus an int-keyed bucket map of width 16."""
    stats = Stats("c")
    stats.inc("hits", 2)
    for value in (1, 5, 17, 40, 40):
        stats.observe("lat", value)
    assert stats.as_dict() == {
        "hits": 2,
        "lat": {
            "count": 5,
            "sum": 103,
            "mean": 20.6,
            "min": 1,
            "max": 40,
            "buckets": {0: 2, 1: 1, 2: 2},
        },
    }


def test_perf_configs_cover_six_orgs():
    configs = perf_configs(HostProtocol.MESI)
    labels = [c.label for c in configs]
    assert len(labels) == 6
    assert labels[0] == "mesi/accel-side"
    assert "mesi/xg-txn-L2" in labels


def test_run_one_returns_metrics_and_clean_errors():
    builder = PERF_WORKLOADS(scale=1)["graph_walk"]
    config = perf_configs(HostProtocol.MESI)[2]  # xg-full-L1
    row, system = run_one(config, builder)
    assert row["ticks"] > 0
    assert row["accel_mean_latency"] > 0
    assert row["xg_errors"] == 0
    assert system.stats_summary()["guarantee_violations"] == 0


def test_collect_coverage_groups_by_type():
    from repro.host.config import SystemConfig
    from repro.host.system import build_system

    system = build_system(SystemConfig(org=AccelOrg.XG, n_cpus=2))
    system.cpu_seqs[0].load(0x1000)
    system.sim.run()
    reports = collect_coverage(
        [c for c in system.sim.components if hasattr(c, "coverage")]
    )
    assert "mesi_l1" in reports and "mesi_l2" in reports
    assert reports["mesi_l1"].visited, "the load visited transitions"


def test_perf_workloads_scale_parameter():
    small = PERF_WORKLOADS(scale=1)
    large = PERF_WORKLOADS(scale=3)
    assert set(small) == set(large) == {
        "streaming", "blocked_decode", "graph_walk", "write_coalesce", "shared_pingpong",
    }


def test_full_run_determinism_end_to_end():
    builder = PERF_WORKLOADS(scale=1)["blocked_decode"]
    config = perf_configs(HostProtocol.HAMMER, seed=13)[3]

    def one():
        row, system = run_one(config, builder)
        return row["ticks"], row["host_net_messages"]

    assert one() == one()
