"""Telemetry overhead accounting: events/sec with observability off/on.

The observability layer's contract is *near-zero cost when off*: with no
``Telemetry`` hub attached every hook is one attribute load plus an
identity check. This bench measures the default, traced, fabric and
lineage modes on the full protocol stack (MESI L1/L2 + Crossing Guard +
accelerator caches, where the hooks actually sit) plus the synthetic
engine mix that ``BENCH_engine.json`` tracks across versions, and writes
the combined ``BENCH_obs.json`` payload CI archives.

Set ``BENCH_OBS_OUT`` to control where the JSON lands (default:
``BENCH_obs.json`` in the current directory; empty string disables the
write).
"""

import json
import os

from repro.eval.profiling import obs_overhead_report
from repro.eval.report import format_table


def test_obs_overhead(once):
    report = once(
        obs_overhead_report,
        scale=int(os.environ.get("BENCH_OBS_SCALE", "1")),
    )
    rows = [
        (mode, r["events"], r["final_tick"], f"{r['seconds']:.3f}",
         f"{r['events_per_sec']:,.0f}")
        for mode, r in report["xg_stress"].items()
    ]
    print()
    print(
        format_table(
            ["mode", "events", "final tick", "seconds", "events/sec"],
            rows,
            title="telemetry overhead (XG stress workload)",
        )
    )
    for name, pct in report["overhead_pct"].items():
        print(f"  {name}: {pct:+.2f}%")
    print(f"  engine mix (telemetry off): "
          f"{report['engine_events_per_sec']:,.0f} events/sec")

    # All modes must simulate the *same* run: identical event counts and
    # final ticks, only wall-clock may differ. Any drift means telemetry
    # perturbed behavior, which would invalidate every comparison made
    # with it.
    stress = report["xg_stress"]
    ticks = {r["final_tick"] for r in stress.values()}
    events = {r["events"] for r in stress.values()}
    assert len(ticks) == 1, stress
    assert len(events) == 1, stress
    assert all(r["events_per_sec"] > 0 for r in stress.values())
    assert report["engine_events_per_sec"] > 0

    # The campaign fabric (emitter + progress monitor) runs on the hot
    # path of every --live campaign; its budget is ≤2% throughput vs
    # fabric-off. BENCH_FABRIC_TOL widens the gate on noisy shared CI
    # runners without changing the contract locally.
    fabric_tol = float(os.environ.get("BENCH_FABRIC_TOL", "2.0"))
    fabric_pct = report["overhead_pct"]["fabric_vs_default"]
    assert fabric_pct <= fabric_tol, (
        f"fabric overhead {fabric_pct:+.2f}% exceeds {fabric_tol:.1f}% budget"
    )

    # Causal lineage (repro blame) books a cause record on every send,
    # fire, and stall re-queue; its budget is ≤3% throughput vs the
    # lineage-off default. BENCH_LINEAGE_TOL widens the gate on noisy
    # shared CI runners without changing the contract locally.
    lineage_tol = float(os.environ.get("BENCH_LINEAGE_TOL", "3.0"))
    lineage_pct = report["overhead_pct"]["lineage_vs_default"]
    assert lineage_pct <= lineage_tol, (
        f"lineage overhead {lineage_pct:+.2f}% exceeds "
        f"{lineage_tol:.1f}% budget"
    )

    out = os.environ.get("BENCH_OBS_OUT", "BENCH_obs.json")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
