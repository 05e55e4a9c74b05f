"""The four benchmark workloads, built only on public ``repro`` calls.

Each workload runs one *round*: a fixed set of operations (a cell, a
sim, an explorer run) derived from the seed. A round function takes the
seed and a timer, wraps every call the workload's throughput is measured
over in ``with timed():`` and returns a :class:`Round`;
``timed.profiling`` says whether this is a traced round. Every round of
one seed repeats the same inputs, so its outputs repeat exactly.

Why these four (see README.md for the full table):

* ``stress`` -- the paper's Section 4.1 random tester on the six XG
  cells; the protocol stack (sim, coherence, protocols, memory, xg).
* ``explore`` -- the exhaustive explorer; replay, settle and canonical
  hashing (verify) plus system rebuilds (host).
* ``campaign`` -- many short sims over the process-pool executor;
  per-sim construction and pool overhead (host, eval).
* ``chaos_lineage`` -- link faults, a flood adversary, spans and
  lineage; the only workload that runs obs, sim.faults and the XG
  retry paths.
"""

import cProfile
import pathlib
import pstats
import time
from dataclasses import dataclass, field

import repro
from repro import (
    AccelOrg,
    HostProtocol,
    RandomTester,
    SystemConfig,
    XGVariant,
    build_system,
)
from repro.eval.campaign import CampaignJob, run_campaign
from repro.testing.chaos import run_chaos_campaign
from repro.verify.explorer import explore_cell

from layers import Folder

REPRO_ROOT = pathlib.Path(repro.__file__).resolve().parent

HOSTS = {"mesi": HostProtocol.MESI, "hammer": HostProtocol.HAMMER,
         "mesif": HostProtocol.MESIF}
VARIANTS = {"full_state": XGVariant.FULL_STATE,
            "transactional": XGVariant.TRANSACTIONAL}
#: The six XG cells: every host protocol x every Crossing Guard variant.
CELLS = tuple((host, variant) for host in HOSTS for variant in VARIANTS)
STRESS_BLOCKS = tuple(0x1000 + 64 * i for i in range(5))
STORE_FRACTION = 0.45

STRESS_OPS = 500
EXPLORE_STATES = 100
CAMPAIGN_SIMS = 96
CAMPAIGN_OPS = 40
#: The hosts this benchmark is sized for have two CPUs; the campaign pool
#: uses both and never more.
CAMPAIGN_WORKERS = 2
CHAOS_FAULTS = {"drop": 0.1, "duplicate": 0.1, "delay": 0.1}
CHAOS_DURATION = 60_000
CHAOS_CPU_OPS = 1600


@dataclass
class Round:
    """What one round did, as plain data."""

    #: op label -> deterministic outputs (pinned, compared across rounds)
    outputs: dict = field(default_factory=dict)
    #: op label -> why the op failed; an op absent here passed its checks
    failures: dict = field(default_factory=dict)
    #: units of work behind the throughput (events, states or sims)
    work: int = 0
    #: layer counts read from public state after the round
    counts: dict = field(default_factory=dict)
    #: campaign only: host seconds each job spent inside its runner
    job_seconds: list = field(default_factory=list)
    #: campaign only: per-job profile folds from the workers
    worker_folds: list = field(default_factory=list)


def _stress_config(host, variant, seed):
    """Two CPUs, two accel cores, tiny caches, random latencies; the
    trace ring, telemetry and lineage are off."""
    return SystemConfig(
        host=HOSTS[host], org=AccelOrg.XG, xg_variant=VARIANTS[variant],
        n_cpus=2, n_accel_cores=2,
        cpu_l1_sets=2, cpu_l1_assoc=1, shared_l2_sets=4, shared_l2_assoc=2,
        accel_l1_sets=2, accel_l1_assoc=1,
        randomize_latencies=True, seed=seed,
        deadlock_threshold=400_000, accel_timeout=150_000, mem_latency=30,
        trace_depth=0,
    )


def _controller_counts(system):
    """Transitions fired and messages stalled over every table-driven
    controller (an adversary standing in for the accel cache has none)."""
    fires = stalls = 0
    for ctrl in system.controllers():
        coverage = getattr(ctrl, "coverage", None)
        if coverage is not None:
            fires += sum(coverage.values())
            stalls += ctrl.stats.get("stalls")
    return fires, stalls


def _system_counts(system):
    """Layer counts every simulated system exposes."""
    fires, stalls = _controller_counts(system)
    sim = system.sim
    return {
        # the simulator's own event counter, as its repr and the repo's
        # profiling helpers report it
        "events": sim._events_fired,
        "messages": sim.stats_for("network.host").get("messages")
        + sim.stats_for("network.accel").get("messages"),
        "fires": fires,
        "stalls": stalls,
        "violations": sum(len(log) for log in system.error_logs),
        "probe_retries": sum(xg.stats.get("probe_retries") for xg in system.xgs),
    }


def _add_counts(total, counts):
    for key, value in counts.items():
        total[key] = total.get(key, 0) + value


def _stress_cell(host, variant, seed, ops, timed):
    """Build one cell untimed, run its tester timed; (outputs, counts)."""
    system = build_system(_stress_config(host, variant, seed))
    tester = RandomTester(system.sim, system.sequencers, list(STRESS_BLOCKS),
                          ops_target=ops, store_fraction=STORE_FRACTION)
    with timed():
        tester.run()
    counts = _system_counts(system)
    outputs = {
        "events": counts["events"],
        "final_tick": system.sim.tick,
        "loads_checked": tester.loads_checked,
        "xg_errors": counts["violations"],
    }
    return outputs, counts


def stress_round(seed, timed, ops=STRESS_OPS):
    rnd = Round()
    for host, variant in CELLS:
        label = f"{host}/{variant}"
        try:
            outputs, counts = _stress_cell(host, variant, seed, ops, timed)
        except Exception as exc:  # noqa: BLE001 - a failed cell is a result
            rnd.failures[label] = f"{type(exc).__name__}: {exc}"
            continue
        rnd.outputs[label] = outputs
        if outputs["xg_errors"]:
            rnd.failures[label] = f"{outputs['xg_errors']} spurious XG errors"
        elif not outputs["loads_checked"]:
            rnd.failures[label] = "no load was checked"
        rnd.work += outputs["events"]
        _add_counts(rnd.counts, counts)
    return rnd


def explore_round(seed, timed, max_states=EXPLORE_STATES):
    """The explorer's input is the cell and the budget; the seed is unused."""
    del seed
    rnd = Round()
    label = "mesi/full_state"
    try:
        with timed():
            result = explore_cell("mesi", "full_state", addresses=1, workers=1,
                                  max_states=max_states)
    except Exception as exc:  # noqa: BLE001 - a failed explore is a result
        rnd.failures[label] = f"{type(exc).__name__}: {exc}"
        return rnd
    rnd.outputs[label] = {"digest": result["digest"], "states": result["states"],
                          "transitions": result["transitions"]}
    if not result["ok"]:
        rnd.failures[label] = f"counterexample: {result['counterexample']['reason']}"
    elif result["states"] != max_states:
        rnd.failures[label] = f"{result['states']} states, budget {max_states}"
    rnd.work = result["states"]
    rnd.counts = {"states": result["states"], "transitions": result["transitions"]}
    return rnd


def campaign_sim(host, variant, seed, ops, profile):
    """One short stress sim, construction included; runs in a pool worker.

    Returns plain data: outputs, counts, the host seconds spent here and,
    with ``profile``, this job's profile folded by layer.
    """
    profiler = cProfile.Profile() if profile else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        system = build_system(_stress_config(host, variant, seed))
        tester = RandomTester(system.sim, system.sequencers, list(STRESS_BLOCKS),
                              ops_target=ops, store_fraction=STORE_FRACTION)
        tester.run()
    finally:
        if profiler is not None:
            profiler.disable()
    seconds = time.perf_counter() - start
    counts = _system_counts(system)
    return {
        "outputs": {"events": counts["events"], "final_tick": system.sim.tick,
                    "loads_checked": tester.loads_checked,
                    "xg_errors": counts["violations"]},
        "counts": counts,
        "seconds": seconds,
        "fold": Folder(REPRO_ROOT).fold(pstats.Stats(profiler).stats)
        if profiler is not None else None,
    }


def campaign_round(seed, timed, sims=CAMPAIGN_SIMS):
    """``sims`` jobs cycling over the six cells, submitted up front; a
    traced round also profiles each job inside its worker."""
    jobs = []
    for index in range(sims):
        host, variant = CELLS[index % len(CELLS)]
        job_seed = seed * 1000 + index
        jobs.append(CampaignJob(
            runner=campaign_sim,
            args=(host, variant, job_seed, CAMPAIGN_OPS, timed.profiling),
            label=f"{host}/{variant}#{job_seed}",
        ))
    rnd = Round()
    with timed():
        outcomes = run_campaign(jobs, workers=CAMPAIGN_WORKERS)
    rnd.counts["jobs"] = len(jobs)
    for outcome in outcomes:
        if not outcome.ok:
            rnd.failures[outcome.label] = f"{outcome.error_type}: {outcome.error}"
            continue
        value = outcome.value
        rnd.outputs[outcome.label] = value["outputs"]
        if value["outputs"]["xg_errors"]:
            rnd.failures[outcome.label] = (
                f"{value['outputs']['xg_errors']} spurious XG errors")
        rnd.work += 1
        rnd.job_seconds.append(value["seconds"])
        _add_counts(rnd.counts, value["counts"])
        if value["fold"] is not None:
            rnd.worker_folds.append(value["fold"])
    return rnd


def chaos_round(seed, timed, duration=CHAOS_DURATION, cpu_ops=CHAOS_CPU_OPS):
    """One contested mesi/full_state cell under drop, duplicate and delay
    faults on the XG link, a flood adversary, spans and lineage on."""
    rnd = Round()
    label = "mesi/full_state"
    try:
        with timed():
            result, system = run_chaos_campaign(
                HostProtocol.MESI, XGVariant.FULL_STATE,
                faults=CHAOS_FAULTS, adversary="flood", seed=seed,
                duration=duration, cpu_ops=cpu_ops, accel_timeout=2000,
                probe_retries=2, contested_blocks=4,
                telemetry=True, lineage=True,
            )
    except Exception as exc:  # noqa: BLE001 - a failed campaign is a result
        rnd.failures[label] = f"{type(exc).__name__}: {exc}"
        return rnd
    counts = _system_counts(system)
    counts["spans_closed"] = result.spans_closed
    rnd.outputs[label] = {
        "host_safe": result.host_safe,
        "deadlocked": result.host_deadlocked,
        "events": counts["events"],
        "violations_total": result.violations_total,
        "faults_total": result.faults_total,
        "spans_closed": result.spans_closed,
    }
    if not result.host_safe:
        rnd.failures[label] = result.crash_detail or "host not safe"
    elif result.spans_orphaned:
        rnd.failures[label] = f"{result.spans_orphaned} orphaned spans"
    elif not result.cpu_loads_checked:
        rnd.failures[label] = "no CPU load was checked"
    rnd.work = counts["events"]
    rnd.counts = counts
    return rnd


#: name -> (round function, what one unit of ``Round.work`` is, the
#: keyword arguments that make the round a small warm-up)
WORKLOADS = {
    "stress": (stress_round, "events", {"ops": 100}),
    "explore": (explore_round, "states", {"max_states": 20}),
    "campaign": (campaign_round, "sims", {"sims": CAMPAIGN_WORKERS}),
    "chaos_lineage": (chaos_round, "events", {"duration": 4000, "cpu_ops": 100}),
}


def warm_up(name, seed, timed):
    """A small round of the workload: imports resolved, code paths warm."""
    round_fn, _unit, small = WORKLOADS[name]
    return round_fn(seed, timed, **small)
