"""Real-stack benchmark: run one workload, check its outputs, print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stress --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

A run sets the workload up in fresh processes to time ``setup_s``, warms
up in-process, then repeats rounds of the workload's fixed input until
``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and profiled rounds and reports the
per-layer split. Human-readable tables go to stdout first; the last
stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every operation passed its checks. See README.md.
"""

import argparse
import contextlib
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time

import calibrate

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPRO_SRC = BENCH_DIR.parent / "src"
PINS_PATH = BENCH_DIR / "pins.json"

WORKLOAD_NAMES = ("stress", "explore", "campaign", "chaos_lineage")
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPS = 7
MIN_ROUNDS = 3
#: the profiler must account for this share of traced wall time
MAX_RESIDUAL_SHARE = 0.10
#: after each round, time the calibration kernel for this share of the
#: round's time (at least once)
CALIBRATION_SHARE = 0.15


class Timer:
    """Accumulates host seconds over ``with timer():`` blocks, optionally
    with a profiler enabled inside each block."""

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.seconds = 0.0

    @property
    def profiling(self):
        return self.profiler is not None

    @contextlib.contextmanager
    def __call__(self):
        start = time.perf_counter()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            yield
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            self.seconds += time.perf_counter() - start


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_workloads():
    """Import the workloads (and with them ``repro``) from this checkout."""
    if not (REPRO_SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {REPRO_SRC}")
    sys.path.insert(0, str(REPRO_SRC))
    import workloads

    return workloads


def setup_probe(name, seed):
    """Time imports, construction and warm-up in this fresh process; print
    the host seconds and the calibration kernel's time after them."""
    start = time.perf_counter()
    workloads = _import_workloads()
    workloads.warm_up(name, seed, Timer())
    seconds = time.perf_counter() - start
    print(repr(seconds), repr(calibrate.kernel_seconds()))


def measure_setup(name, seed):
    """Median set-up time in reference seconds over :data:`SETUP_REPS`
    fresh processes, and the median in host seconds."""
    host, kernel = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up of {name} failed:\n{proc.stderr}")
        seconds, kernel_s = map(float, proc.stdout.split()[-2:])
        host.append(seconds)
        kernel.append(kernel_s)
    median_host = statistics.median(host)
    return median_host * calibrate.scale(statistics.median(kernel)), median_host


def pin_key(name, seed):
    """``pins.json`` key of a run: the seed, or ``any`` for the explorer,
    whose input does not depend on the seed."""
    return "any" if name == "explore" else str(seed)


def load_pins(name, seed):
    pins = json.loads(PINS_PATH.read_text())["pins"].get(name, {})
    return pins.get(pin_key(name, seed))


class Checker:
    """Counts operations and failures: raised, failed a check, differs
    from the seed's pin, or differs from the first round of this run."""

    def __init__(self, pins):
        self.pins = pins
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, rnd, tag):
        if self.reference is None:
            self.reference = rnd.outputs
        for label in sorted(set(rnd.outputs) | set(rnd.failures)):
            self.attempted += 1
            reason = rnd.failures.get(label)
            got = rnd.outputs.get(label)
            if reason is None and self.pins is not None and got != self.pins.get(label):
                reason = f"output {got} differs from pin {self.pins.get(label)}"
            if reason is None and got != self.reference.get(label):
                reason = f"output {got} differs from first round {self.reference.get(label)}"
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{tag} {label}: {reason}")


def _timed_round(round_fn, seed, profiler=None):
    gc.collect()  # start every round from a collected heap
    timer = Timer(profiler)
    return round_fn(seed, timer), timer


def calibrate_after(round_seconds):
    """Kernel times covering :data:`CALIBRATION_SHARE` of a round."""
    samples = [calibrate.kernel_seconds()]
    while sum(samples) < CALIBRATION_SHARE * round_seconds:
        samples.append(calibrate.kernel_seconds())
    return samples


def run_rounds(workloads, name, seed, seconds, trace, checker):
    """Repeat rounds until ``seconds`` pass; traced runs alternate an
    untraced and a profiled round. Returns the untraced rounds as
    (Round, Timer, kernel times taken right after it) and the traced
    ones as (Round, Timer)."""
    round_fn = workloads.WORKLOADS[name][0]
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(untraced) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        rnd, timer = _timed_round(round_fn, seed)
        checker.check(rnd, f"round {len(untraced)}")
        untraced.append((rnd, timer, calibrate_after(timer.seconds)))
        if trace:
            rnd, timer = _timed_round(round_fn, seed, cProfile.Profile())
            checker.check(rnd, f"traced round {len(traced)}")
            traced.append((rnd, timer))
    return untraced, traced


def throughputs(untraced):
    """Median work per host second, the same per reference second, and
    the median kernel time. Both medians are over the whole run, so a
    burst of interference in either one does not skew the ratio."""
    host = statistics.median(_ratio(rnd.work, timer.seconds) for rnd, timer, _k in untraced)
    kernel_s = statistics.median(k for _r, _t, ks in untraced for k in ks)
    return host, host / calibrate.scale(kernel_s), kernel_s


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer_metrics(workloads, untraced, traced, problems):
    """Fold the traced rounds' profiles into the per-layer metrics.

    Every number is per round. ``<layer>.self_s`` values sum to the mean
    traced wall time: the profiler's unattributed residual is booked to
    ``python``. The campaign's worker profiles add their CPU time, so
    there ``share`` is over the summed self time of all processes.
    """
    from layers import LAYERS, Folder, merge_folds

    folder = Folder(workloads.REPRO_ROOT)
    n = len(traced)
    wall = sum(timer.seconds for _rnd, timer in traced) / n
    parent = merge_folds(
        folder.fold(pstats.Stats(timer.profiler).stats) for _rnd, timer in traced)
    residual = wall - sum(parent["self"].values()) / n
    if abs(residual) > MAX_RESIDUAL_SHARE * wall:
        problems.append(
            f"profiled self time misses the traced wall time by {residual:.4f} s "
            f"of {wall:.4f} s")
    fold = merge_folds([parent] + [f for rnd, _t in traced for f in rnd.worker_folds])
    self_s = {layer: fold["self"][layer] / n for layer in LAYERS}
    self_s["python"] += residual
    total = sum(self_s.values())
    counts = traced[0][0].counts
    count = lambda key: counts.get(key, 0)  # noqa: E731

    host_rate, _ref_rate, kernel_s = throughputs(untraced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (_ratio(self_s[layer], total), "fraction")
    builds = fold["calls"]["build_system"] / n
    verify_cum = lambda key: fold["cum"][key] / n  # noqa: E731
    job_seconds = [s for rnd, _t, _k in untraced for s in rnd.job_seconds]
    workers = workloads.CAMPAIGN_WORKERS
    utils, overheads = [], []
    for rnd, timer, _k in untraced:
        if rnd.job_seconds:
            utils.append(_ratio(sum(rnd.job_seconds), workers * timer.seconds))
            overheads.append(timer.seconds - sum(rnd.job_seconds) / workers)
    metrics.update({
        "sim.events": (count("events"), "count"),
        "sim.messages": (count("messages"), "count"),
        "sim.self_us_per_event": (1e6 * _ratio(self_s["sim"], count("events")), "us"),
        "coherence.fires": (count("fires"), "count"),
        "coherence.stalls": (count("stalls"), "count"),
        "coherence.stall_ratio": (
            _ratio(count("stalls"), count("fires") + count("stalls")), "fraction"),
        "xg.self_us_per_event": (1e6 * _ratio(self_s["xg"], count("events")), "us"),
        "xg.violations": (count("violations"), "count"),
        "xg.probe_retries": (count("probe_retries"), "count"),
        "host.builds": (builds, "count"),
        "host.build_ms": (1e3 * _ratio(fold["cum"]["build_system"] / n, builds), "ms"),
        "obs.spans_closed": (count("spans_closed"), "count"),
        "obs.self_us_per_span": (
            1e6 * _ratio(self_s["obs"], count("spans_closed")), "us"),
        "verify.states": (count("states"), "count"),
        "verify.transitions": (count("transitions"), "count"),
        "verify.new_state_ratio": (
            _ratio(max(count("states") - 1, 0), count("transitions")), "fraction"),
        "verify.build_s": (fold["cum_by_caller"]["build_system"]["verify"] / n, "s"),
        "verify.replay_s": (verify_cum("harness_apply"), "s"),
        "verify.canonical_s": (verify_cum("harness_canonical"), "s"),
        "verify.check_s": (verify_cum("harness_check"), "s"),
        "eval.jobs": (count("jobs"), "count"),
        "eval.worker_util": (statistics.median(utils) if utils else 0.0, "fraction"),
        "eval.overhead_s": (statistics.median(overheads) if overheads else 0.0, "s"),
        "eval.job_ms.p50": (1e3 * _percentile(job_seconds, 0.5), "ms"),
        "eval.job_ms.p90": (1e3 * _percentile(job_seconds, 0.9), "ms"),
        "trace.overhead_s": (
            statistics.median(t.seconds for _r, t in traced)
            - statistics.median(t.seconds for _r, t, _k in untraced), "s"),
        "trace.residual_share": (_ratio(residual, wall), "fraction"),
        "calib.host_work_per_s": (host_rate, "1/s"),
        "calib.kernel_s": (kernel_s, "s"),
    })
    return metrics


def _print_table(title, rows):
    print(title)
    width = max(len(name) for name, _v, _u in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def run_workload(args):
    from layers import check_layer_map

    workloads = _import_workloads()
    name, seed = args.workload, args.seed
    problems = check_layer_map(workloads.REPRO_ROOT)
    if not args.trace:
        setup_ref_s, setup_host_s = measure_setup(name, seed)
    workloads.warm_up(name, seed, Timer())
    checker = Checker(load_pins(name, seed))
    untraced, traced = run_rounds(workloads, name, seed, args.seconds,
                                  args.trace, checker)
    unit_of_work = workloads.WORKLOADS[name][1]
    if args.trace:
        metrics = per_layer_metrics(workloads, untraced, traced, problems)
        extra_rows = []
    else:
        host_rate, ref_rate, kernel_s = throughputs(untraced)
        metrics = {
            "work_per_ref_s": (ref_rate, "1/s"),
            "setup_s": (setup_ref_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra_rows = [(f"{unit_of_work}_per_host_s", host_rate, "1/s"),
                      ("setup_host_s", setup_host_s, "s"),
                      ("kernel_s", kernel_s, "s")]

    rows = [(key.replace("work_", f"{unit_of_work}_", 1), value, unit)
            for key, (value, unit) in metrics.items()] + extra_rows
    rows.append(("failed_frac", _ratio(checker.failed, checker.attempted), "fraction"))
    pin_note = "pinned" if checker.pins is not None else "no pin for this seed"
    _print_table(
        f"{name} seed={seed} rounds={len(untraced)}+{len(traced)} traced "
        f"ops={checker.attempted} ({pin_note})", rows)
    for reason in checker.reasons[:20] + problems:
        print(f"  FAIL {reason}")
    correct = checker.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def show_pins(args):
    """Print one untimed round's outputs, in the shape ``pins.json`` holds."""
    workloads = _import_workloads()
    rnd = workloads.WORKLOADS[args.workload][0](args.seed, Timer())
    key = pin_key(args.workload, args.seed)
    print(json.dumps({args.workload: {key: rnd.outputs}}, indent=1, sort_keys=True))
    return 0 if not rnd.failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--show-pins", action="store_true",
                        help="print the outputs to pin for this workload and seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.show_pins:
        return show_pins(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
