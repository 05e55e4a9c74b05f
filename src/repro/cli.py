"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``        — tiny coherent CPU/accelerator exchange through XG;
* ``stress``      — Section 4.1 random stress over the 12 configurations;
* ``fuzz``        — byzantine-accelerator safety campaign;
* ``chaos``       — fault-injected interconnect campaign (drop/dup/delay/corrupt);
* ``rogue``       — Byzantine-accelerator containment sweep (plans x hosts x
  variants) with the online invariant watchdog armed;
* ``trace``       — traced chaos run exported as Chrome/Perfetto JSON;
* ``report``      — telemetry-on stress: coverage heatmap + span percentiles;
* ``blame``       — lineage-on stress: per-(config x span-kind) blame
  breakdown plus the slowest transactions with their critical paths;
* ``top``         — live campaign view: stress sweep under the telemetry
  fabric with per-worker throughput/heartbeats, then the fabric summary;
* ``bench``       — engine events/sec microbenchmark + campaign wall-clock;
* ``golden``      — golden-run digests: verify against the committed file,
  or refresh with ``--update``;
* ``verify``      — exhaustive single-address interface verification;
* ``explore``     — concrete-state reachability exploration: enumerate all
  interleavings of small (host x XG-variant) cells on the real simulator,
  prove G0-G2 exhaustively, cross-check stress coverage vs reachability;
* ``perf``        — runtime comparison of the cache organizations;
* ``experiment``  — run one of the table/figure experiments (e1..e12).
"""

import argparse
import sys
from contextlib import ExitStack

from repro.eval.report import format_error_log, format_table


def _add_live_args(cmd):
    """``--live``/``--live-interval`` knobs shared by campaign commands."""
    cmd.add_argument("--live", action="store_true",
                     help="stream live campaign progress (per-worker "
                          "throughput, heartbeats, coverage growth); "
                          "degrades to periodic plain lines off a TTY")
    cmd.add_argument("--live-interval", dest="live_interval", type=float,
                     default=1.0, metavar="SECONDS",
                     help="seconds between live progress updates")
    cmd.add_argument("--forensics-all", dest="forensics_all",
                     action="store_true",
                     help="keep the bounded FlightRecorder black box for "
                          "successful jobs too (default: failures only)")


def _campaign_fabric(stack, args):
    """Fabric for a campaign command: live renderer and/or forensics-all.

    ``--live`` brings up the rendering fabric as before; ``--forensics-all``
    without ``--live`` still needs a (renderer-less) fabric so workers
    carry their flight recorders. Returns the collector or None.
    """
    from repro.obs.fabric import FabricCollector, live_fabric, use_fabric

    config = {"forensics_all": True} if getattr(args, "forensics_all", False) \
        else None
    fabric = stack.enter_context(
        live_fabric(live=getattr(args, "live", False),
                    interval=args.live_interval, config=config)
    )
    if fabric is None and config is not None:
        fabric = stack.enter_context(
            use_fabric(FabricCollector(renderer=None, config=config))
        )
    return fabric


def _single_run_fabric(stack, args, label):
    """Bring up the fabric for a single-run command when ``--live`` is set.

    fuzz/chaos run one simulation in-process rather than a campaign, so
    the fabric is framed as a one-job session: collector + in-process
    emitter + progress hook, torn down when ``stack`` unwinds. Returns
    the in-process emitter (whose flight recorder ``--forensics-all``
    snapshots), or None when neither flag asked for a fabric.
    """
    if not (getattr(args, "live", False)
            or getattr(args, "forensics_all", False)):
        return None
    from repro.obs.fabric import inproc_session

    fabric = _campaign_fabric(stack, args)
    return stack.enter_context(inproc_session(fabric, label=label))


def _grab_single_run_forensics(emitter, args):
    """Snapshot the in-process black box before the fabric tears down."""
    if emitter is None or not getattr(args, "forensics_all", False):
        return None
    return emitter.failure_forensics()["flight_recorder"]


def _print_single_run_forensics(snap):
    """``--forensics-all`` tail for fuzz/chaos: summarize the black box."""
    if snap is None:
        return
    print(f"\nforensics (kept for successful run): "
          f"{snap['frames_seen']} frames recorded, "
          f"final tick {snap.get('tick', '-')}")
    path = (snap.get("critical_path") or {}).get("path")
    if path:
        rendered = " -> ".join(f"{bucket}:{ticks}" for bucket, ticks in path)
        print(f"  oldest open span critical path: {rendered}")


def _cmd_demo(args):
    from repro.host.config import AccelOrg, HostProtocol, SystemConfig
    from repro.host.system import build_system
    from repro.xg.interface import XGVariant

    config = SystemConfig(
        host=HostProtocol[args.host.upper()],
        org=AccelOrg.XG,
        xg_variant=XGVariant[args.variant.upper()],
    )
    system = build_system(config)
    results = []
    system.cpu_seqs[0].store(0x1000, 21)
    system.sim.run()
    system.accel_seqs[0].load(
        0x1000, lambda m, d: results.append(("accel read", d.read_byte(0)))
    )
    system.sim.run()
    system.accel_seqs[0].store(0x1000, 42)
    system.sim.run()
    system.cpu_seqs[0].load(
        0x1000, lambda m, d: results.append(("cpu read", d.read_byte(0)))
    )
    system.sim.run()
    for label, value in results:
        print(f"{label}: {value}")
    print(f"config: {config.label}; ticks: {system.sim.tick}; "
          f"guarantee violations: {len(system.error_log)}")
    return 0


def _cmd_stress(args):
    import time

    from repro.eval.campaign import resolve_workers
    from repro.eval.experiments import run_stress_coverage

    workers = resolve_workers(args.workers)
    start = time.perf_counter()
    with ExitStack() as stack:
        fabric = _campaign_fabric(stack, args)
        result = run_stress_coverage(
            seeds=range(args.seeds), ops_per_run=args.ops, workers=workers
        )
    elapsed = time.perf_counter() - start
    if fabric is not None and args.live and args.dash_out:
        from repro.eval.report import write_campaign_dashboard

        write_campaign_dashboard(args.dash_out, fabric.summary())
        print(f"wrote {args.dash_out}")
    kept = result.get("forensics", [])
    if kept:
        print(f"forensics: kept {len(kept)} successful-job black box(es)")
    failures = [r for r in result["runs"] if not r["passed"]]
    print(
        format_table(
            ["controller", "visited", "possible", "coverage"],
            [
                (c["controller"], c["visited"], c["possible"], f"{c['fraction']:.1%}")
                for c in result["coverage"]
            ],
            title=(
                f"{len(result['runs'])} stress runs, {len(failures)} failures "
                f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)"
            ),
        )
    )
    for failure in failures:
        print("FAIL:", failure["config"], "seed", failure["seed"], failure["detail"])
        if failure.get("diagnosis"):
            print(failure["diagnosis"])
    return 1 if failures else 0


def _cmd_bench(args):
    import json

    from repro.eval.profiling import engine_benchmark_report

    report = engine_benchmark_report(
        scale=args.scale,
        seed=args.seed,
        include_campaign=not args.no_campaign,
        workers=args.workers,
        repeats=args.repeats,
    )
    rows = [
        (name, w["events"], w["final_tick"], f"{w['seconds']:.3f}",
         f"{w['events_per_sec']:,.0f}")
        for name, w in report["workloads"].items()
    ]
    rows.append(
        ("TOTAL", report["events"], "-", f"{report['seconds']:.3f}",
         f"{report['events_per_sec']:,.0f}")
    )
    print(
        format_table(
            ["workload", "events", "final tick", "seconds", "events/sec"],
            rows,
            title="engine throughput (synthetic mix)",
        )
    )
    if "campaign" in report:
        print()
        print(
            format_table(
                ["workers", "seconds", "runs", "speedup"],
                [
                    (r["workers"], f"{r['seconds']:.2f}", r["runs"],
                     f"{r['speedup_vs_serial']:.2f}x" if r["speedup_vs_serial"] else "-")
                    for r in report["campaign"]["rows"]
                ],
                title="campaign wall-clock",
            )
        )
    if "dispatch" in report:
        dispatch = report["dispatch"]
        print()
        print(
            format_table(
                ["controller", "count", "entries", "fires", "fires %", "stalls"],
                [
                    (ctype, row["controllers"], row["table_entries"],
                     row["fires"], f"{row['fires_pct']:.1f}%", row["stalls"])
                    for ctype, row in dispatch["controllers"].items()
                ],
                title=(f"dispatch breakdown ({dispatch['host']} stress, "
                       f"{dispatch['events_per_sec']:,.0f} events/sec)"),
            )
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")
    if args.baseline:
        from repro.eval.perf_gate import (
            compare_reports,
            format_comparison,
            load_report,
            write_comparison,
        )

        comparison = compare_reports(
            report, load_report(args.baseline), tolerance=args.tolerance
        )
        print()
        print(format_comparison(comparison))
        if args.gate_out:
            write_comparison(comparison, args.gate_out)
            print(f"wrote {args.gate_out}")
        if not comparison["passed"]:
            return 1
    if args.obs_out:
        from repro.eval.profiling import obs_overhead_report

        obs_report = obs_overhead_report(
            scale=args.scale, seed=args.seed, repeats=args.repeats
        )
        print()
        print(
            format_table(
                ["mode", "events", "seconds", "events/sec"],
                [
                    (mode, r["events"], f"{r['seconds']:.3f}",
                     f"{r['events_per_sec']:,.0f}")
                    for mode, r in obs_report["xg_stress"].items()
                ],
                title="telemetry overhead (XG stress workload)",
            )
        )
        for name, pct in obs_report["overhead_pct"].items():
            print(f"  {name}: {pct:+.2f}%")
        with open(args.obs_out, "w") as fh:
            json.dump(obs_report, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.obs_out}")
    return 0


def _cmd_golden(args):
    from repro.testing.golden import load_pinned, pinned_digests, write_pinned

    if args.update:
        payload = write_pinned(args.path, seed=args.seed, ops=args.ops)
        print(f"wrote {len(payload['digests'])} golden digests to {args.path}")
        for label, digest in sorted(payload["digests"].items()):
            print(f"  {label}: {digest['transitions_count']} transitions, "
                  f"{digest['transitions'][:16]}…")
        return 0
    pinned = load_pinned(args.path)
    fresh = pinned_digests(seed=pinned["seed"], ops=pinned["ops"])
    bad = []
    for label, digest in sorted(pinned["digests"].items()):
        ok = fresh["digests"].get(label) == digest
        print(f"  {label}: {'OK' if ok else 'CHANGED'}")
        if not ok:
            bad.append(label)
    if bad:
        print(f"\ngolden digests changed: {', '.join(bad)}\n"
              f"If deliberate, refresh with `python -m repro golden --update` "
              f"and explain the behavior change in the PR.", file=sys.stderr)
        return 1
    print("all golden digests match")
    return 0


def _cmd_fuzz(args):
    from repro.host.config import HostProtocol
    from repro.testing.fuzzer import run_fuzz_campaign
    from repro.xg.interface import XGVariant

    with ExitStack() as stack:
        emitter = _single_run_fabric(
            stack, args,
            label=f"fuzz/{args.host}/{args.variant}/{args.adversary}",
        )
        result, _system = run_fuzz_campaign(
            HostProtocol[args.host.upper()],
            XGVariant[args.variant.upper()],
            adversary=args.adversary,
            seed=args.seed,
            duration=args.duration,
            cpu_ops=args.cpu_ops,
        )
        forensic_snap = _grab_single_run_forensics(emitter, args)
    report = result.as_dict()
    for key in (
        "host_safe", "adversary_messages", "violations_total",
        "cpu_loads_checked", "final_tick",
    ):
        print(f"{key}: {report[key]}")
    for guarantee, count in sorted(report["violations"].items()):
        print(f"  {guarantee}: {count}")
    if len(_system.error_log):
        print()
        print(format_error_log(_system.error_log, limit=args.show_errors))
    _print_single_run_forensics(forensic_snap)
    return 0 if report["host_safe"] else 1


def _cmd_chaos(args):
    from repro.host.config import HostProtocol
    from repro.sim.faults import FaultWindow, single_link_plan
    from repro.testing.chaos import run_chaos_campaign
    from repro.xg.interface import XGVariant

    rates = {kind: args.rate for kind in args.faults.split(",") if kind}
    windows = []
    try:
        if args.blackhole:
            start, _, end = args.blackhole.partition(":")
            windows.append(FaultWindow(int(start), int(end), "drop", 1.0))
        single_link_plan(rates, windows=windows)  # validate kinds/rates early
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        emitter = _single_run_fabric(
            stack, args,
            label=f"chaos/{args.host}/{args.variant}/{args.adversary}",
        )
        result, system = run_chaos_campaign(
            HostProtocol[args.host.upper()],
            XGVariant[args.variant.upper()],
            faults=rates,
            windows=windows,
            adversary=args.adversary,
            seed=args.seed,
            fault_seed=args.fault_seed,
            duration=args.duration,
            cpu_ops=args.cpu_ops,
            accel_timeout=args.accel_timeout,
            probe_retries=args.probe_retries,
            disable_after=args.disable_after,
        )
        forensic_snap = _grab_single_run_forensics(emitter, args)
    report = result.as_dict()
    for key in (
        "host_safe", "final_tick", "cpu_loads_checked", "adversary_messages",
        "faults_total", "probe_retries", "duplicates_sunk",
        "retry_echoes_absorbed", "quarantine_surrogates", "accel_disabled",
        "violations_total",
    ):
        print(f"{key}: {report[key]}")
    for kind, count in sorted(report["faults_injected"].items()):
        print(f"  injected {kind}: {count}")
    for guarantee, count in sorted(report["violations"].items()):
        print(f"  {guarantee}: {count}")
    if len(system.error_log):
        print()
        print(format_error_log(system.error_log, limit=args.show_errors))
    if not report["host_safe"] and report["diagnosis"]:
        print()
        print(report["diagnosis"])
    _print_single_run_forensics(forensic_snap)
    return 0 if report["host_safe"] else 1


def _cmd_rogue(args):
    import json
    import time

    from repro.eval.campaign import resolve_workers
    from repro.eval.report import format_rogue_matrix
    from repro.host.config import HostProtocol
    from repro.testing.rogue import run_rogue_matrix
    from repro.xg.interface import XGVariant

    plans = [p.strip() for p in args.plans.split(",") if p.strip()] or None
    try:
        hosts = tuple(
            HostProtocol[h.strip().upper()]
            for h in args.hosts.split(",") if h.strip()
        )
        variants = tuple(
            XGVariant[v.strip().upper()]
            for v in args.variants.split(",") if v.strip()
        )
    except KeyError as exc:
        print(f"error: unknown host or variant {exc.args[0]!r}", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers)
    start = time.perf_counter()
    try:
        with ExitStack() as stack:
            _campaign_fabric(stack, args)
            rows = run_rogue_matrix(
                plans=plans,
                hosts=hosts,
                variants=variants,
                seeds=range(args.seeds),
                duration=args.duration,
                cpu_ops=args.cpu_ops,
                invariant_interval=args.invariant_interval,
                workers=workers,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(format_rogue_matrix(rows))
    print(f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)")
    escaped = [r for r in rows if not r.get("contained")]
    invariant = [r for r in rows if r.get("invariant_violated")]
    starved = [
        r for r in rows if r.get("contained") and not r.get("cpu_loads_checked")
    ]
    contained = len(rows) - len(escaped)
    checks = sum(r.get("watchdog_checks", 0) for r in rows)
    print(f"contained: {contained}/{len(rows)}; invariant violations: "
          f"{len(invariant)}; watchdog checks: {checks}")
    if args.forensics_all:
        kept = sum(1 for r in rows if r.get("forensics"))
        print(f"forensics: {kept}/{len(rows)} rows carry a black box "
              f"(--out writes them as JSON)")
    for row in escaped:
        print(f"\nESCAPED: {row['plan']} on {row['host']}/{row['variant']} "
              f"seed {row['seed']}: {row.get('crash_detail') or row.get('detail')}",
              file=sys.stderr)
        if row.get("diagnosis"):
            print(row["diagnosis"], file=sys.stderr)
        if row.get("invariant_detail"):
            print(f"invariant: {row['invariant_detail']}", file=sys.stderr)
    for row in starved:
        print(f"\nSTARVED: {row['plan']} on {row['host']}/{row['variant']} "
              f"seed {row['seed']}: no CPU load ever completed", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if escaped or starved else 0


def _cmd_trace(args):
    from repro.host.config import HostProtocol
    from repro.obs import build_trace, write_trace
    from repro.sim.faults import FaultWindow, single_link_plan
    from repro.testing.chaos import run_chaos_campaign
    from repro.xg.interface import XGVariant

    rates = {kind: args.rate for kind in args.faults.split(",") if kind}
    windows = []
    try:
        if args.blackhole:
            start, _, end = args.blackhole.partition(":")
            windows.append(FaultWindow(int(start), int(end), "drop", 1.0))
        single_link_plan(rates, windows=windows)  # validate kinds/rates early
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, system = run_chaos_campaign(
        HostProtocol[args.host.upper()],
        XGVariant[args.variant.upper()],
        faults=rates,
        windows=windows,
        adversary=args.adversary,
        seed=args.seed,
        duration=args.duration,
        cpu_ops=args.cpu_ops,
        telemetry=True,
        series_interval=args.series_interval,
    )
    obs = system.sim.obs
    payload = build_trace(
        obs, fault_plan=system.config.fault_plan, label=system.config.label
    )
    count = write_trace(payload, args.out)
    print(f"config: {system.config.label}; ticks: {system.sim.tick}; "
          f"host_safe: {result.host_safe}")
    print(f"spans: {result.spans_closed} closed, {result.spans_orphaned} orphaned; "
          f"transitions: {len(obs.transitions)}; faults: {len(obs.faults)}; "
          f"marks: {len(obs.marks)}")
    print(f"wrote {count} trace events to {args.out} "
          f"(load in https://ui.perfetto.dev or chrome://tracing)")
    if result.spans_orphaned:
        print(f"warning: {result.spans_orphaned} spans never closed", file=sys.stderr)
    return 0 if result.host_safe else 1


def _cmd_report(args):
    import time

    from repro.eval.campaign import resolve_workers
    from repro.eval.experiments import run_stress_coverage
    from repro.obs import render_matrix

    workers = resolve_workers(args.workers)
    reachable = None
    if args.explore_report:
        from repro.verify.explorer import load_reachable_report

        reachable = load_reachable_report(args.explore_report)
    start = time.perf_counter()
    result = run_stress_coverage(
        seeds=range(args.seeds), ops_per_run=args.ops, workers=workers,
        telemetry=True, lineage=args.lineage,
    )
    elapsed = time.perf_counter() - start
    failures = [r for r in result["runs"] if not r["passed"]]
    print(f"{len(result['runs'])} stress runs, {len(failures)} failures "
          f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)\n")
    print(render_matrix(result["matrix"], reachable=reachable))
    if args.lineage:
        from repro.obs import render_blame

        print()
        print(render_blame(result["blame"]))
    for failure in failures:
        print("FAIL:", failure["config"], "seed", failure["seed"], failure["detail"])
    return 1 if failures else 0


def _cmd_blame(args):
    import json
    import time

    from repro.eval.campaign import resolve_workers
    from repro.eval.experiments import run_stress_coverage
    from repro.obs import render_blame

    workers = resolve_workers(args.workers)
    start = time.perf_counter()
    result = run_stress_coverage(
        seeds=range(args.seeds), ops_per_run=args.ops, workers=workers,
        telemetry=True, lineage=True,
    )
    elapsed = time.perf_counter() - start
    failures = [r for r in result["runs"] if not r["passed"]]
    print(f"{len(result['runs'])} stress runs, {len(failures)} failures "
          f"({workers} worker{'s' if workers != 1 else ''}, {elapsed:.1f}s)\n")
    print(render_blame(result["blame"], top=args.top))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result["blame"].as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    for failure in failures:
        print("FAIL:", failure["config"], "seed", failure["seed"], failure["detail"])
    return 1 if failures else 0


def _cmd_top(args):
    from repro.eval.campaign import resolve_workers
    from repro.eval.experiments import run_stress_coverage
    from repro.eval.report import format_fabric_summary, write_campaign_dashboard
    from repro.obs.fabric import live_fabric

    workers = resolve_workers(args.workers)
    with live_fabric(live=True, interval=args.live_interval) as fabric:
        result = run_stress_coverage(
            seeds=range(args.seeds), ops_per_run=args.ops, workers=workers
        )
    summary = fabric.summary()
    print()
    print(format_fabric_summary(summary))
    if args.dash_out:
        write_campaign_dashboard(args.dash_out, summary)
        print(f"\nwrote {args.dash_out}")
    failures = [r for r in result["runs"] if not r["passed"]]
    for failure in failures:
        print("FAIL:", failure["config"], "seed", failure["seed"],
              failure["detail"])
    return 1 if failures or summary["jobs_lost"] else 0


def _cmd_verify(args):
    from repro.verify import VerificationError, explore

    failures = 0
    for name, allow in (("transactional-style", True), ("full-state-style", False)):
        try:
            stats = explore(allow_probe_when_absent=allow)
        except VerificationError as exc:
            failures += 1
            print(f"{name}: FAIL — {exc}", file=sys.stderr)
            continue
        print(f"{name}: {stats['states']} states, "
              f"{stats['transitions']} transitions, "
              f"{stats['quiescent_states']} quiescent — OK")
    return 1 if failures else 0


def _cmd_explore(args):
    import json
    import time

    from repro.eval.campaign import resolve_workers
    from repro.verify.explorer import (
        cross_check_coverage, explore_cell, run_cell_stress)

    hosts = ["mesi", "hammer", "mesif"] if args.host == "all" else [args.host]
    variants = (["full_state", "transactional"] if args.variant == "all"
                else [args.variant])
    workers = resolve_workers(args.workers) if args.workers else 1
    cells = []
    rows = []
    exit_code = 0
    for host in hosts:
        for variant in variants:
            start = time.perf_counter()
            progress = None
            if args.progress:
                def progress(depth, states, frontier, phases,
                             _cell=f"{host}/{variant}", _start=start):
                    rate = states / max(time.perf_counter() - _start, 1e-9)
                    split = " ".join(f"{name} {seconds:.2f}s"
                                     for name, seconds in phases.items())
                    print(f"  {_cell}: depth {depth}, {states} states, "
                          f"frontier {frontier}, {rate:.1f} states/s "
                          f"[{split}]", file=sys.stderr, flush=True)
            result = explore_cell(
                host=host, variant=variant, addresses=args.addresses,
                workers=workers, max_states=args.max_states,
                check=args.check, progress=progress,
            )
            elapsed = time.perf_counter() - start
            result["elapsed_sec"] = round(elapsed, 2)
            result["states_per_sec"] = round(
                result["states"] / max(elapsed, 1e-9), 1)
            counterexample = result["counterexample"]
            if counterexample is not None:
                status = "FAIL"
                exit_code = 1
            elif result["truncated"]:
                status = "partial"
            else:
                status = "proved"
            crosscheck = "-"
            if args.cross_check and counterexample is None and not result["truncated"]:
                problems = []
                for seed in range(args.cross_check):
                    covered = run_cell_stress(result["cell"], seed=seed,
                                              ops=args.stress_ops)
                    problems.extend(cross_check_coverage(result, covered))
                if problems:
                    crosscheck = "FAIL"
                    exit_code = 1
                    result["cross_check_failures"] = [
                        {"ctype": ctype, "transitions": pairs}
                        for ctype, pairs in problems
                    ]
                else:
                    crosscheck = f"ok ({args.cross_check} seeds)"
            rows.append([
                f"{host}/{variant}", result["states"], result["transitions"],
                result["quiescent_states"], result["depth"], status,
                crosscheck, f"{elapsed:.1f}s", f"{result['states_per_sec']:.1f}",
            ])
            cells.append(result)
            if counterexample is not None:
                print(f"counterexample in {host}/{variant}: "
                      f"{counterexample['reason']}", file=sys.stderr)
                for step in counterexample["path"]:
                    print(f"    {step}", file=sys.stderr)
    print(format_table(
        ["cell", "states", "transitions", "quiescent", "depth", "G0-G2",
         "cross-check", "time", "states/s"],
        rows,
        title=f"reachability exploration ({args.addresses} address(es), "
              f"{workers} worker(s))",
    ))
    if args.out:
        payload = {"addresses": args.addresses, "workers": workers,
                   "max_states": args.max_states, "cells": cells}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return exit_code


def _cmd_perf(args):
    from repro.eval.perf import run_perf_sweep

    results = run_perf_sweep(
        workloads=args.workloads or None, scale=args.scale, seed=args.seed
    )
    for workload, rows in results.items():
        print(
            format_table(
                ["config", "ticks", "normalized"],
                [(r["config"], r["ticks"], f"{r['ticks_norm']:.2f}x") for r in rows],
                title=f"runtime: {workload}",
            )
        )
        print()
    return 0


_EXPERIMENTS = {}


def _experiment(name):
    def register(fn):
        _EXPERIMENTS[name] = fn
        return fn

    return register


@_experiment("e1")
def _e1():
    from repro.eval.experiments import run_table1_accel_l1

    result = run_table1_accel_l1()
    return format_table(
        ["state", "event", "paper", "implemented"],
        [(r["state"], r["event"], r["paper"], r["implemented"]) for r in result["rows"]],
        title="Table 1",
    )


@_experiment("e2")
def _e2():
    from repro.eval.experiments import run_complexity_comparison

    rows = run_complexity_comparison()
    return format_table(
        ["controller", "stable", "transient", "transitions"],
        [
            (r["controller"], r["stable_states"], r["transient_states"], r["transitions"])
            for r in rows
        ],
        title="protocol complexity",
    )


@_experiment("e7")
def _e7():
    from repro.eval.overheads import run_storage_comparison

    result = run_storage_comparison()
    return format_table(
        ["accel KiB", "full-state KiB", "transactional KiB"],
        [
            (r["accel_cache_kib"], f"{r['full_state_kib']:.1f}", f"{r['transactional_kib']:.2f}")
            for r in result["analytic"]
        ],
        title="XG storage",
    )


@_experiment("e8")
def _e8():
    from repro.eval.overheads import run_puts_overhead

    rows = run_puts_overhead()
    return format_table(
        ["workload", "suppress", "PutS %"],
        [
            (r["workload"], r["suppress_puts"], f"{100 * r['puts_fraction']:.1f}%")
            for r in rows
        ],
        title="PutS overhead (Hammer host)",
    )


@_experiment("e9")
def _e9():
    from repro.eval.overheads import run_rate_limit_sweep

    rows = run_rate_limit_sweep()
    return format_table(
        ["limit", "cpu latency", "throttled"],
        [
            (r["rate_limit"], f"{r['cpu_mean_latency']:.1f}", r["adversary_requests_throttled"])
            for r in rows
        ],
        title="rate limiting",
    )


@_experiment("e10")
def _e10():
    from repro.eval.overheads import run_block_translation

    rows = run_block_translation()
    return format_table(
        ["accel block", "loads checked", "XG->host msgs"],
        [(r["accel_block"], r["loads_checked"], r["xg_to_host_msgs"]) for r in rows],
        title="block translation",
    )


@_experiment("e11")
def _e11():
    from repro.eval.overheads import run_timeout_recovery

    rows = run_timeout_recovery()
    return format_table(
        ["timeout", "G2c errors", "cpu max latency"],
        [(r["timeout"], r["g2c_errors"], r["cpu_max_latency"]) for r in rows],
        title="timeout recovery",
    )


def _cmd_experiment(args):
    runner = _EXPERIMENTS.get(args.name.lower())
    if runner is None:
        known = ", ".join(sorted(_EXPERIMENTS))
        print(f"unknown experiment {args.name!r}; choose from: {known} "
              f"(e3/e4/e5/e6/e12 run via pytest benchmarks/)", file=sys.stderr)
        return 2
    print(runner())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description="Crossing Guard reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="coherent CPU/accelerator exchange")
    demo.add_argument("--host", default="mesi", choices=["mesi", "hammer", "mesif"])
    demo.add_argument("--variant", default="full_state",
                      choices=["full_state", "transactional"])
    demo.set_defaults(fn=_cmd_demo)

    stress = sub.add_parser("stress", help="random protocol stress (Section 4.1)")
    stress.add_argument("--seeds", type=int, default=2)
    stress.add_argument("--ops", type=int, default=1500)
    stress.add_argument("--workers", type=int, default=None,
                        help="parallel campaign processes (default: cpu count; "
                             "1 = in-process, best for debugging)")
    _add_live_args(stress)
    stress.add_argument("--dash-out", dest="dash_out", default=None,
                        metavar="PATH",
                        help="with --live, write the campaign_dash.json "
                             "fabric summary + BENCH_*.json history here")
    stress.set_defaults(fn=_cmd_stress)

    bench = sub.add_parser("bench", help="engine events/sec + campaign wall-clock")
    bench.add_argument("--scale", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=int, default=3,
                       help="timing repeats per workload (best is kept)")
    bench.add_argument("--workers", type=int, default=None,
                       help="parallel worker count for the campaign half "
                            "(default: cpu count)")
    bench.add_argument("--no-campaign", action="store_true",
                       help="skip the campaign wall-clock comparison")
    bench.add_argument("--obs-out", dest="obs_out", default=None, metavar="PATH",
                       help="also measure telemetry overhead (default / traced / "
                            "fabric / lineage) and write BENCH_obs.json there")
    bench.add_argument("--out", default=None, metavar="PATH",
                       help="write the BENCH_engine.json payload here")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="gate events/sec against this committed baseline "
                            "report; exit 1 on regression")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="fractional events/sec slowdown the gate "
                            "tolerates (deterministic counts are exact)")
    bench.add_argument("--gate-out", dest="gate_out", default=None,
                       metavar="PATH", help="write the gate comparison JSON "
                       "here (CI archives it)")
    bench.set_defaults(fn=_cmd_bench)

    golden = sub.add_parser(
        "golden", help="golden-run digests: verify or refresh"
    )
    golden.add_argument("--update", action="store_true",
                        help="regenerate the committed digest file from seed runs")
    golden.add_argument("--seed", type=int, default=0,
                        help="seed per run (--update)")
    golden.add_argument("--ops", type=int, default=400,
                        help="CPU ops per run (--update)")
    golden.add_argument("--path", default="tests/golden/digests.json",
                        metavar="PATH", help="committed digest file")
    golden.set_defaults(fn=_cmd_golden)

    fuzz = sub.add_parser("fuzz", help="byzantine accelerator safety campaign")
    fuzz.add_argument("--host", default="mesi", choices=["mesi", "hammer", "mesif"])
    fuzz.add_argument("--variant", default="full_state",
                      choices=["full_state", "transactional"])
    fuzz.add_argument("--adversary", default="fuzz",
                      choices=["fuzz", "deaf", "wrong", "flood"])
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--duration", type=int, default=40_000)
    fuzz.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=1000)
    fuzz.add_argument("--show-errors", dest="show_errors", type=int, default=10,
                      help="OS error-log records to print")
    _add_live_args(fuzz)
    fuzz.set_defaults(fn=_cmd_fuzz)

    chaos = sub.add_parser(
        "chaos", help="fault-injected interconnect safety campaign"
    )
    chaos.add_argument("--host", default="mesi", choices=["mesi", "hammer", "mesif"])
    chaos.add_argument("--variant", default="full_state",
                       choices=["full_state", "transactional"])
    chaos.add_argument("--faults", default="drop,duplicate,delay,corrupt",
                       help="comma list of fault kinds on the accel link")
    chaos.add_argument("--rate", type=float, default=0.15,
                       help="per-message injection rate per fault kind")
    chaos.add_argument("--blackhole", default=None, metavar="START:END",
                       help="drop everything on the accel link during [START, END)")
    chaos.add_argument("--adversary", default="flood",
                       choices=["fuzz", "deaf", "wrong", "flood"])
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--fault-seed", dest="fault_seed", type=int, default=None,
                       help="fault plan RNG seed (defaults to --seed)")
    chaos.add_argument("--duration", type=int, default=60_000)
    chaos.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=1200)
    chaos.add_argument("--accel-timeout", dest="accel_timeout", type=int, default=2500)
    chaos.add_argument("--probe-retries", dest="probe_retries", type=int, default=2)
    chaos.add_argument("--disable-after", dest="disable_after", type=int, default=None,
                       help="quarantine the accelerator after N violations")
    chaos.add_argument("--show-errors", dest="show_errors", type=int, default=10,
                       help="OS error-log records to print")
    _add_live_args(chaos)
    chaos.set_defaults(fn=_cmd_chaos)

    rogue = sub.add_parser(
        "rogue", help="Byzantine-accelerator containment sweep"
    )
    rogue.add_argument("--plans", default="",
                       help="comma list of rogue plan names (default: all)")
    rogue.add_argument("--hosts", default="mesi,hammer,mesif",
                       help="comma list of host protocols")
    rogue.add_argument("--variants", default="full_state,transactional",
                       help="comma list of XG variants")
    rogue.add_argument("--seeds", type=int, default=1)
    rogue.add_argument("--duration", type=int, default=40_000)
    rogue.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=600)
    rogue.add_argument("--invariant-interval", dest="invariant_interval",
                       type=int, default=2000,
                       help="watchdog sampling period in ticks (0 disables)")
    rogue.add_argument("--workers", type=int, default=None,
                       help="parallel campaign processes (default: cpu count)")
    rogue.add_argument("-o", "--out", default=None, metavar="PATH",
                       help="write the full result rows as JSON")
    _add_live_args(rogue)
    rogue.set_defaults(fn=_cmd_rogue)

    trace = sub.add_parser(
        "trace", help="traced chaos run exported as Chrome/Perfetto JSON"
    )
    trace.add_argument("--host", default="mesi", choices=["mesi", "hammer", "mesif"])
    trace.add_argument("--variant", default="full_state",
                       choices=["full_state", "transactional"])
    trace.add_argument("--faults", default="drop,duplicate",
                       help="comma-separated fault kinds (empty for a clean run)")
    trace.add_argument("--rate", type=float, default=0.1,
                       help="per-message probability for each fault kind")
    trace.add_argument("--blackhole", default=None, metavar="START:END",
                       help="drop everything on the accel link in [START, END)")
    trace.add_argument("--adversary", default="flood",
                       choices=["flood", "fuzz", "protocol", "replay"])
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--duration", type=int, default=30_000)
    trace.add_argument("--cpu-ops", dest="cpu_ops", type=int, default=600)
    trace.add_argument("--series-interval", dest="series_interval", type=int,
                       default=1000, help="counter sampling period in ticks "
                       "(0 disables the time series)")
    trace.add_argument("-o", "--out", default="trace.json", metavar="PATH")
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report", help="telemetry-on stress: coverage heatmap + span percentiles"
    )
    report.add_argument("--seeds", type=int, default=2)
    report.add_argument("--ops", type=int, default=1500)
    report.add_argument("--workers", type=int, default=None,
                        help="campaign processes (default: all cores, capped)")
    report.add_argument("--lineage", action="store_true",
                        help="also record causal lineage and append the "
                             "blame breakdown (see `repro blame`)")
    report.add_argument("--explore-report", dest="explore_report", default=None,
                        metavar="PATH",
                        help="explore_report.json from `repro explore -o`: "
                             "filters the uncovered-transition lists down to "
                             "transitions proven reachable (the authoritative "
                             "coverage holes)")
    report.set_defaults(fn=_cmd_report)

    blame = sub.add_parser(
        "blame",
        help="lineage-on stress: critical-path blame for every transaction",
    )
    blame.add_argument("--seeds", type=int, default=1)
    blame.add_argument("--ops", type=int, default=800)
    blame.add_argument("--workers", type=int, default=None,
                       help="campaign processes (default: all cores, capped)")
    blame.add_argument("--top", type=int, default=5,
                       help="slowest transactions to show with critical paths")
    blame.add_argument("-o", "--out", default=None, metavar="PATH",
                       help="write the mergeable blame-matrix JSON here "
                            "(blame_report.json; CI archives it)")
    blame.set_defaults(fn=_cmd_blame)

    top = sub.add_parser(
        "top", help="live campaign view: stress sweep under the telemetry fabric"
    )
    top.add_argument("--seeds", type=int, default=2)
    top.add_argument("--ops", type=int, default=1500)
    top.add_argument("--workers", type=int, default=None,
                     help="parallel campaign processes (default: cpu count)")
    top.add_argument("--live-interval", dest="live_interval", type=float,
                     default=1.0, metavar="SECONDS",
                     help="seconds between live progress updates")
    top.add_argument("--dash-out", dest="dash_out", default=None, metavar="PATH",
                     help="write the campaign_dash.json fabric summary + "
                          "BENCH_*.json history here")
    top.set_defaults(fn=_cmd_top)

    verify = sub.add_parser("verify", help="exhaustive interface verification")
    verify.set_defaults(fn=_cmd_verify)

    explore = sub.add_parser(
        "explore",
        help="concrete-state reachability exploration of the real simulator",
    )
    explore.add_argument("--host", default="mesi",
                         choices=["mesi", "hammer", "mesif", "all"])
    explore.add_argument("--variant", default="full_state",
                         choices=["full_state", "transactional", "all"])
    explore.add_argument("--addresses", type=int, default=1, choices=[1, 2],
                         help="explored block addresses (2 adds replacement "
                              "interleavings; much larger space)")
    explore.add_argument("--workers", type=int, default=None,
                         help="shard each BFS level over N campaign "
                              "processes (default: serial; digests are "
                              "byte-identical either way)")
    explore.add_argument("--max-states", dest="max_states", type=int,
                         default=100_000,
                         help="truncate the search after N canonical states "
                              "(result marked partial, never wrong)")
    explore.add_argument("--check", default=None,
                         help="extra named per-state check from the "
                              "explorer registry (used to demo "
                              "counterexample traces)")
    explore.add_argument("--cross-check", dest="cross_check", type=int,
                         default=0, metavar="SEEDS",
                         help="after a complete proof, run N seeded stress "
                              "runs on the same cell and verify every "
                              "covered transition is reachable")
    explore.add_argument("--stress-ops", dest="stress_ops", type=int,
                         default=200,
                         help="ops per cross-check stress run")
    explore.add_argument("--progress", action="store_true",
                         help="per-level progress on stderr, with the "
                              "level's seconds per expansion phase (replay, "
                              "restore, apply+settle, canonical, checks; "
                              "summed over workers)")
    explore.add_argument("-o", "--out", default=None, metavar="PATH",
                         help="write explore_report.json (feed to "
                              "`repro report --explore-report`)")
    explore.set_defaults(fn=_cmd_explore)

    perf = sub.add_parser("perf", help="runtime by cache organization")
    perf.add_argument("--workloads", nargs="*", default=None)
    perf.add_argument("--scale", type=int, default=1)
    perf.add_argument("--seed", type=int, default=7)
    perf.set_defaults(fn=_cmd_perf)

    experiment = sub.add_parser("experiment", help="run one table/figure experiment")
    experiment.add_argument("name", help="e1, e2, e7, e8, e9, e10, e11")
    experiment.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
