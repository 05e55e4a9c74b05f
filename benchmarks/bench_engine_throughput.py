"""E12b — engine throughput: events/sec microbenchmark + campaign scaling.

Unlike the other benches this regenerates no paper table; it measures the
*harness itself* — the simulator kernel's raw events/sec on the synthetic
workload mix (ordered ping-pong, unordered storm, timer churn) and the
wall-clock of a small stress campaign at ``workers=1`` vs a parallel
worker pool. The ``BENCH_engine.json`` payload it writes is the
machine-comparable trajectory CI archives on every run.

Set ``BENCH_ENGINE_OUT`` to control where the JSON lands (default:
``BENCH_engine.json`` in the current directory; empty string disables
the write).
"""

import json
import os

from repro.eval.profiling import engine_benchmark_report
from repro.eval.report import format_table


def test_engine_throughput(once):
    report = once(
        engine_benchmark_report,
        scale=int(os.environ.get("BENCH_ENGINE_SCALE", "1")),
        include_campaign=True,
    )
    rows = [
        (name, w["events"], w["messages"], f"{w['seconds']:.3f}",
         f"{w['events_per_sec']:,.0f}")
        for name, w in report["workloads"].items()
    ]
    rows.append(("TOTAL", report["events"], "-", f"{report['seconds']:.3f}",
                 f"{report['events_per_sec']:,.0f}"))
    print()
    print(
        format_table(
            ["workload", "events", "messages", "seconds", "events/sec"],
            rows,
            title="engine throughput (synthetic mix)",
        )
    )
    print(
        format_table(
            ["workers", "seconds", "runs", "speedup"],
            [
                (r["workers"], f"{r['seconds']:.2f}", r["runs"],
                 f"{r['speedup_vs_serial']:.2f}x" if r["speedup_vs_serial"] else "-")
                for r in report["campaign"]["rows"]
            ],
            title="campaign wall-clock (scaling depends on host core count)",
        )
    )
    dispatch = report["dispatch"]
    print(
        format_table(
            ["controller", "count", "entries", "fires", "fires %", "stalls"],
            [
                (ctype, row["controllers"], row["table_entries"], row["fires"],
                 f"{row['fires_pct']:.1f}%", row["stalls"])
                for ctype, row in dispatch["controllers"].items()
            ],
            title=(f"dispatch breakdown ({dispatch['host']} stress, "
                   f"{dispatch['events_per_sec']:,.0f} events/sec)"),
        )
    )

    # Event/message counts are seed-deterministic: any drift here means the
    # engine's behavior changed, not just its speed.
    for name, w in report["workloads"].items():
        assert w["events"] > 0, name
        assert w["final_tick"] > 0, name
    assert report["events_per_sec"] > 0
    campaign = report["campaign"]
    assert all(r["failures"] == 0 for r in campaign["rows"]), campaign["rows"]
    assert dispatch["fires_total"] > 0
    # every fire went through a controller with a non-empty compiled table
    # or an XG/method-driven controller (entries == 0 is legal there)
    assert sum(r["fires"] for r in dispatch["controllers"].values()) == \
        dispatch["fires_total"]

    out = os.environ.get("BENCH_ENGINE_OUT", "BENCH_engine.json")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {out}")
