"""The simulator: clock, event loop, deterministic RNG, deadlock watchdog.

The watchdog implements the property the paper's safety evaluation relies
on: a *deadlock* is a visible message that no controller consumes for
``deadlock_threshold`` ticks. The fuzz harness asserts this never fires on
host-side components when Crossing Guard is in place.
"""

import heapq
import random
from collections import deque

from repro.sim.event import Event, EventQueue
from repro.sim.stats import Stats


class DeadlockError(RuntimeError):
    """A component left a visible message unprocessed past the threshold.

    When raised by the watchdog the error carries the owning simulator;
    :meth:`diagnose` then turns a bare "X is stuck" into a forensic
    report — chaos campaigns attach it to their failure output so an
    injected-fault wedge is debuggable from the log alone.
    """

    def __init__(self, component, stalled_since, now, sim=None):
        self.component = component
        self.stalled_since = stalled_since
        self.now = now
        self.sim = sim
        super().__init__(
            f"deadlock: {component.name} has work pending since tick "
            f"{stalled_since} (now {now})"
        )

    def diagnose(self):
        """Multi-line forensic report: per-component pending work, queue
        depths, open TBEs, stalled messages, and the last-N message trace."""
        lines = [str(self)]
        if self.sim is None:
            lines.append("(no simulator attached; diagnosis unavailable)")
            return "\n".join(lines)
        lines.append("-- components with pending work --")
        for comp in self.sim.components:
            oldest = comp.oldest_pending_tick(self.now)
            depths = {
                port: len(buf) for port, buf in comp.in_ports.items() if len(buf)
            }
            open_tbes = len(comp.tbes) if hasattr(comp, "tbes") else 0
            stalled = comp.stalled_count() if hasattr(comp, "stalled_count") else 0
            if oldest is None and not depths and not open_tbes and not stalled:
                continue
            mark = "  <-- watchdog tripped here" if comp is self.component else ""
            lines.append(
                f"  {comp.name}: oldest_pending={oldest} queues={depths or '{}'} "
                f"open_tbes={open_tbes} stalled_msgs={stalled}{mark}"
            )
        extra = []
        for comp in self.sim.components:
            hook = getattr(comp, "diagnose_extra", None)
            if hook is None:
                continue
            for line in hook():
                extra.append(f"  {comp.name}: {line}")
        if extra:
            # Components that know more than their queues — quarantine
            # state on a Crossing Guard, the recent move log on a rogue
            # accelerator — self-describe here so a hung adversarial run
            # explains itself from the report alone.
            lines.append("-- component forensics --")
            lines.extend(extra)
        trace = list(self.sim.trace) if self.sim.trace is not None else []
        if self.sim.trace is None:
            lines.append("-- network trace disabled (trace_depth=0); "
                         "replay the seed with tracing enabled for messages --")
        lines.append(f"-- last {len(trace)} network messages (oldest first) --")
        for tick, net, mtype, addr, sender, dest, note in trace:
            mname = getattr(mtype, "name", mtype)
            addr_s = f"{addr:#x}" if isinstance(addr, int) else str(addr)
            suffix = f" [{note}]" if note else ""
            lines.append(f"  t={tick} {net}: {mname} {addr_s} {sender}->{dest}{suffix}")
        return "\n".join(lines)


#: Per-process progress hook installed by the campaign telemetry fabric:
#: ``(callback, interval_ticks)`` or None. When set, every new Simulator
#: attaches a :class:`ProgressMonitor` calling ``callback(sim, final)``.
_PROGRESS_HOOK = None


def set_progress_hook(callback, interval=5000):
    """Install (or clear, with ``callback=None``) the process progress hook.

    The fabric worker initializer sets this once per process; from then on
    every simulation built in the process reports periodic progress via a
    run-loop *monitor* — the same out-of-band mechanism as the invariant
    watchdog, so it never schedules events, never touches component stats,
    and never consumes ``sim.rng``: golden digests and campaign results
    are byte-identical with the hook installed.
    """
    global _PROGRESS_HOOK
    if callback is None:
        _PROGRESS_HOOK = None
    else:
        _PROGRESS_HOOK = (callback, max(1, int(interval)))


def progress_hook():
    """The installed ``(callback, interval)`` pair, or None."""
    return _PROGRESS_HOOK


class ProgressMonitor:
    """Out-of-band periodic progress sampling for the telemetry fabric.

    Attached via :meth:`Simulator.attach_monitor`. The callback is fenced:
    a telemetry bug must never kill a simulation, so the first exception
    disables the monitor for the rest of the run and is remembered on
    ``last_error``.
    """

    def __init__(self, callback, interval=5000):
        self.callback = callback
        self.interval = max(1, int(interval))
        self.samples = 0
        self.last_error = None
        self._next = None

    def next_due(self, tick):
        if self._next is None:
            self._next = tick + self.interval
        return self._next

    def sample(self, sim, final=False):
        self._next = sim.tick + self.interval
        if self.callback is None:
            return self._next
        self.samples += 1
        try:
            self.callback(sim, final)
        except Exception as exc:  # noqa: BLE001 - observers must not kill runs
            self.last_error = exc
            self.callback = None
        return self._next


class Simulator:
    """Owns the clock, the event queue, components, and global stats."""

    def __init__(self, seed=0, deadlock_threshold=None, trace_depth=64):
        self.tick = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self.events = EventQueue()
        self.components = []
        self.networks = []
        self._stats = {}
        self.deadlock_threshold = deadlock_threshold
        self._events_fired = 0
        self._component_index = {}
        #: optional :class:`~repro.obs.Telemetry` hub. ``None`` (the
        #: default) means every instrumentation hook in the engine and the
        #: protocol layer reduces to one attribute load + identity check.
        self.obs = None
        #: optional :class:`~repro.obs.lineage.LineageTracker`, mirrored
        #: here by :class:`~repro.obs.Telemetry` when lineage is on so the
        #: network/controller hooks pay one load + None check when off.
        self.lineage = None
        #: default for ``Telemetry(lineage=...)``; set by ``build_system``
        #: from ``SystemConfig.lineage`` so attaching telemetry later
        #: (campaigns, golden runs) picks the config's choice up.
        self.lineage_default = False
        #: out-of-band sampling monitors (e.g. the online invariant
        #: watchdog). A monitor never schedules simulator events, never
        #: touches component stats, and never consumes ``sim.rng`` — the
        #: run loop polls it between events like the deadlock check, so
        #: golden digests are byte-identical with monitors attached.
        self.monitors = []
        hook = _PROGRESS_HOOK
        if hook is not None:
            self.attach_monitor(ProgressMonitor(hook[0], hook[1]))
        #: ring of the last ``trace_depth`` network sends, for forensics.
        #: ``trace_depth=0`` disables recording entirely (``trace`` is
        #: None and the networks skip the recording call) — campaigns run
        #: that way and deterministically replay a failing seed with
        #: tracing enabled when they need the forensics.
        self.trace = deque(maxlen=trace_depth) if trace_depth > 0 else None

    def record_trace(self, net_name, msg, note=""):
        """Append one network send to the forensic trace ring (if enabled)."""
        if self.trace is not None:
            self.trace.append(
                (self.tick, net_name, msg.mtype, msg.addr, msg.sender, msg.dest, note)
            )

    # -- registration --------------------------------------------------------

    def register(self, component):
        self.components.append(component)
        # first registration wins, matching the old linear scan
        self._component_index.setdefault(component.name, component)

    def register_network(self, network):
        self.networks.append(network)

    def attach_monitor(self, monitor):
        """Register an out-of-band run-loop monitor.

        A monitor exposes ``next_due(tick) -> tick`` and
        ``sample(sim, final=False) -> next_due_tick``; the run loop calls
        ``sample`` between events once the clock passes the due tick, and
        once more (``final=True``) when the queue drains. Monitors must
        not schedule events or mutate component state — they observe.
        """
        self.monitors.append(monitor)
        return monitor

    def component(self, name):
        """Look up a registered component by name."""
        try:
            return self._component_index[name]
        except KeyError:
            raise KeyError(f"no component named {name!r}") from None

    def stats_for(self, owner):
        """A named Stats bag owned by the simulator (for networks etc.)."""
        if owner not in self._stats:
            self._stats[owner] = Stats(owner=owner)
        return self._stats[owner]

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay, callback, *args):
        """Schedule ``callback`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.events.schedule(self.tick + delay, callback, *args)

    def schedule_at(self, tick, callback, *args):
        """Schedule ``callback`` at absolute ``tick`` (>= now)."""
        if tick < self.tick:
            raise ValueError(f"cannot schedule in the past ({tick} < {self.tick})")
        return self.events.schedule(tick, callback, *args)

    # -- state images (see repro.sim.image) -------------------------------------

    def save_state(self, memo):
        """Clock, RNG and event queue; call between runs only.

        Components save their own fields; ``_events_fired``, stats and
        monitors are history or observers and stay out.
        """
        return (self.tick, self.rng.getstate(), self.events.save_state(memo))

    def restore_state(self, image, memo):
        tick, rng_state, events = image
        self.tick = tick
        self.rng.setstate(rng_state)
        self.events.restore_state(events, memo)

    # -- the event loop --------------------------------------------------------

    def run(self, max_ticks=None, max_events=None, final_check=True):
        """Drain the event queue.

        Stops when the queue empties, when the clock passes ``max_ticks``,
        or after ``max_events`` callbacks. Returns the reason:
        ``"idle"``, ``"max_ticks"``, or ``"max_events"``.

        Raises :class:`DeadlockError` if the watchdog is armed and a
        component sits on visible work too long, or — unless
        ``final_check=False`` — if the queue empties while any component
        still has pending work (nothing can ever consume it).
        """
        fired = 0
        check_interval = None
        next_check = None
        if self.deadlock_threshold is not None:
            check_interval = max(1, self.deadlock_threshold // 4)
            next_check = self.tick + check_interval
        next_monitor = None
        if self.monitors:
            next_monitor = min(m.next_due(self.tick) for m in self.monitors)
        # Drain the queue bucket-at-a-time over its internals: one heap
        # consultation per distinct tick, then a straight-line sweep over
        # that tick's FIFO of slots. Same-tick work scheduled mid-sweep
        # appends to the live bucket (len() is re-read each iteration), so
        # insertion order within a tick is preserved.
        events = self.events
        heap = events._heap
        buckets = events._buckets
        objs = events._objs
        gens = events._gens
        free = events._free
        heappop = heapq.heappop
        try:
            while True:
                # peek_tick retires stale tick entries and leading
                # tombstones, so a returned tick's bucket is guaranteed to
                # open on a live event — the clock never advances for
                # cancelled-only work.
                t = events.peek_tick()
                if t is None:
                    if final_check:
                        self._check_deadlock(final=True)
                        # flush the loop-local fired count so monitors see
                        # live totals; end-of-run state is unchanged
                        self._events_fired += fired
                        fired = 0
                        self._run_monitors(final=True)
                    return "idle"
                if max_ticks is not None and t > max_ticks:
                    # stop *before* the bucket: tick freezes at the limit and
                    # the pending work stays queued for a later run()
                    self.tick = max_ticks
                    return "max_ticks"
                if t < self.tick:
                    raise AssertionError("event queue went backwards in time")
                bucket = buckets[t]
                self.tick = t
                events._draining_tick = t
                try:
                    while True:
                        # bucket[0] is the authoritative head — a callback
                        # may advance it (peek_tick retiring tombstones
                        # mid-drain), so re-read it every iteration.
                        i = bucket[0]
                        if i >= len(bucket):
                            break
                        slot = bucket[i]
                        bucket[0] = i + 1
                        obj = objs[slot]
                        if obj is None:
                            events._cancelled -= 1
                            gens[slot] += 1
                            free.append(slot)
                            continue
                        objs[slot] = None
                        gens[slot] += 1
                        free.append(slot)
                        events._live -= 1
                        if type(obj) is Event:
                            obj._queue = None
                            if not obj.cancelled:
                                obj.callback(*obj.args)
                        else:
                            obj()
                        fired += 1
                        if max_events is not None and fired >= max_events:
                            # head index persists in bucket[0]; a later run()
                            # resumes mid-bucket exactly where we stopped
                            return "max_events"
                        if next_check is not None and t >= next_check:
                            self._check_deadlock(final=False)
                            next_check = t + check_interval
                        if next_monitor is not None and t >= next_monitor:
                            # flush the loop-local fired count so monitors
                            # sample live totals, not start-of-run state
                            self._events_fired += fired
                            fired = 0
                            next_monitor = self._run_monitors(final=False)
                finally:
                    events._draining_tick = None
                del buckets[t]
                # a callback may have compacted the heap or scheduled a
                # past tick; only pop our entry if it is still on top
                if heap and heap[0] == t:
                    heappop(heap)
        finally:
            self._events_fired += fired

    def _run_monitors(self, final):
        """Sample every attached monitor; returns the earliest next-due tick."""
        earliest = None
        for monitor in self.monitors:
            due = monitor.sample(self, final=final)
            if due is not None and (earliest is None or due < earliest):
                earliest = due
        return earliest

    def _check_deadlock(self, final):
        """Raise when a component has visible pending work that is too old.

        On ``final`` (queue empty), *any* visible pending work is a deadlock:
        nothing can ever consume it.
        """
        if self.deadlock_threshold is None and not final:
            return
        for comp in self.components:
            if comp.watchdog_exempt:
                continue
            oldest = comp.oldest_pending_tick(self.tick)
            if oldest is None:
                continue
            if final:
                raise DeadlockError(comp, oldest, self.tick, sim=self)
            if self.tick - oldest > self.deadlock_threshold:
                raise DeadlockError(comp, oldest, self.tick, sim=self)

    # -- reporting --------------------------------------------------------------

    def aggregate_stats(self):
        """Merge every component's and network's stats into one bag."""
        total = Stats(owner="aggregate")
        for comp in self.components:
            comp.stats.merge_into(total)
        for stats in self._stats.values():
            stats.merge_into(total)
        return total

    def stats_report(self):
        """Per-owner dict of stats dicts."""
        report = {comp.name: comp.stats.as_dict() for comp in self.components}
        for owner, stats in self._stats.items():
            report[owner] = stats.as_dict()
        return report

    def __repr__(self):
        return (
            f"Simulator(tick={self.tick}, components={len(self.components)}, "
            f"events_fired={self._events_fired})"
        )
