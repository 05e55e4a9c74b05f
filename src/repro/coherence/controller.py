"""Base class for coherence controllers.

Semantics mirror gem5 Ruby's generated controllers:

* input ports are drained in declared priority order — responses before
  forwards before requests, which is required for deadlock freedom;
* a message whose transition cannot run yet is *stalled-and-waited* into a
  per-address buffer and woken when that address's transaction closes;
* every executed (state, event) pair is recorded for the Section 4.1
  coverage accounting;
* an undefined (state, event) pair raises :class:`ProtocolError` — the
  "cache controller error" the paper's host must be protected from.
"""

from collections import defaultdict, deque
from types import MappingProxyType

from repro.sim.component import Component

CONSUMED = "consumed"
STALL = "stall"
RETRY = "retry"

#: shared empty row for compiled-dispatch misses (never mutated)
_NO_ROW = {}


class ProtocolError(RuntimeError):
    """A controller saw an event its protocol does not define.

    When a raw (unprotected) accelerator misbehaves, this is the host
    crash the paper warns about; with Crossing Guard in place the host
    never raises it.
    """

    def __init__(self, controller, state, event, msg, note=""):
        self.controller = controller
        self.state = state
        self.event = event
        self.msg = msg
        state_name = getattr(state, "name", state)
        event_name = getattr(event, "name", event)
        detail = f" ({note})" if note else ""
        super().__init__(
            f"{controller.name}: no transition for state={state_name} "
            f"event={event_name} on {msg}{detail}"
        )


class CoherenceController(Component):
    """A state-machine controller with stall buffers and coverage.

    Subclasses:
      * set ``PORTS`` (priority order) and ``CONTROLLER_TYPE``;
      * declare ``TRANSITIONS``, a class-level mapping from
        ``(state, event)`` to a handler *method name*, and optionally
        ``COVERAGE_EXEMPT``;
      * implement ``handle_message(port, msg) -> CONSUMED|STALL|RETRY``,
        usually by classifying the message into an event and calling
        ``self.fire(state, event, msg)``. ``fire`` runs the declared
        handler, records coverage for anything but a stall, and returns
        the handler's outcome (CONSUMED unless it says otherwise); an
        undeclared pair raises :class:`ProtocolError`.

    The table is built once per class, when the class is defined: each
    name resolves with ``getattr`` on that concrete class, so a subclass
    that overrides a handler method (``StreamingAccelL1._hit_load``)
    dispatches to its override without redeclaring the row. The result
    is the read-only ``transitions`` mapping — (state, event) to handler
    function, the coverage universe and the E2 complexity count — and
    the flattened ``{state: {event: (handler, key)}}`` dispatch table
    every instance of the class shares.
    """

    CONTROLLER_TYPE = "generic"

    #: declared transition table: (state, event) -> handler method name
    TRANSITIONS = {}

    #: declared pairs excluded from the coverage denominator (e.g. paths
    #: reachable only with a misbehaving accelerator behind XG)
    COVERAGE_EXEMPT = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        transitions = {
            key: getattr(cls, name) for key, name in cls.TRANSITIONS.items()
        }
        dispatch = {}
        for key, handler in transitions.items():
            # keep the declared key tuple so coverage accounting reuses it
            # instead of allocating a fresh tuple per fired transition
            dispatch.setdefault(key[0], {})[key[1]] = (handler, key)
        cls.transitions = MappingProxyType(transitions)
        cls._dispatch = dispatch

    #: ticks of processing time per consumed message (0 = infinitely fast,
    #: the default). When set, the controller handles one message per
    #: occupancy window, so a flooded directory develops real queueing —
    #: used by the contention experiments.
    occupancy = 0

    #: Ports whose messages the wakeup loop must NOT release after a
    #: CONSUMED outcome because protocol code retains the instance past
    #: the handler (e.g. ``mandatory`` CPU ops parked in ``tbe.origin``
    #: until the sequencer completes them). Everything else is released
    #: back to the message pool the moment its transition consumes it.
    RELEASE_EXEMPT_PORTS = ()

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.coverage = defaultdict(int)
        self.fire = self._compile_fire()
        self._stalled = defaultdict(deque)
        self._stalled_since = {}
        self._stalled_total = 0
        self._busy_until = 0
        self.protocol_errors = []
        # input buffers in declared priority order, resolved once
        # (third element: may the wakeup loop pool-release consumed
        # messages from this port?)
        self._prio_ports = tuple(
            (port, self.in_ports[port], port not in self.RELEASE_EXEMPT_PORTS)
            for port in self.PORTS
        )
        # pre-bound hot-path counters
        self._stall_sink = self.stats.sink("stalls")
        self._anomaly_sink = self.stats.sink("protocol_anomalies")
        # lineage service class: which blame bucket this controller's
        # handler compute lands in (the wakeup loop stamps it per record)
        ctype = self.CONTROLLER_TYPE
        if ctype.startswith("xg") or ctype == "crossing_guard":
            self._lineage_class = "xg_translate"
        elif ctype.startswith("accel") or ctype == "block_shim":
            self._lineage_class = "service"
        else:
            self._lineage_class = "host_service"

    # -- subclass API -----------------------------------------------------------

    def handle_message(self, port, msg):
        raise NotImplementedError

    # -- transition machinery ------------------------------------------------

    def _compile_fire(self):
        """Build the monomorphic ``fire`` closure over pre-resolved state.

        Everything the hot path needs — the class's flattened dispatch
        table, this instance's coverage dict, the simulator, and this
        controller's identity — is captured once here, so per-message work
        is two dict probes plus the handler call (no tuple allocation, no
        attribute chains).
        """
        dispatch = self._dispatch
        coverage = self.coverage
        sim = self.sim
        name = self.name
        ctype = self.CONTROLLER_TYPE
        controller = self

        def fire(state, event, msg):
            entry = dispatch.get(state, _NO_ROW).get(event)
            if entry is None:
                raise ProtocolError(controller, state, event, msg)
            handler, key = entry
            outcome = handler(controller, msg)
            if outcome is None:
                outcome = CONSUMED
            if outcome is not STALL:
                # Stalls are not transitions; only executed work counts.
                coverage[key] += 1
                obs = sim.obs
                if obs is not None:
                    obs.record_transition(sim.tick, name, ctype, state, event)
            return outcome

        return fire

    def has_transition(self, state, event):
        return (state, event) in self.transitions

    def possible_transitions(self):
        """Declared (state, event) pairs — the coverage denominator."""
        return set(self.transitions) - self.COVERAGE_EXEMPT

    # -- explorer hooks ---------------------------------------------------------

    def transition_relation(self):
        """Declared transitions as sorted (state name, event name) pairs.

        The compiled dispatch table *is* the guarded-action transition
        relation; this projects it to plain strings so the reachability
        explorer can compare it against coverage and reachability sets
        without importing per-protocol enums.
        """
        return sorted(
            (getattr(s, "name", str(s)), getattr(e, "name", str(e)))
            for s, e in self.possible_transitions()
        )

    def covered_transitions(self):
        """Executed transitions as sorted (state name, event name) pairs."""
        return sorted(
            (getattr(s, "name", str(s)), getattr(e, "name", str(e)))
            for s, e in self.coverage
        )

    def snapshot_state(self):
        """Logical protocol state of this controller as plain data.

        Captures everything that determines future behavior — resident
        cache entries, open TBEs, stalled messages, visible port contents
        — and nothing that merely records history (ticks, uids, LRU
        clocks, stats). Subclasses with extra mutable protocol state
        (e.g. a directory's owner map, the XG mirror) extend it via
        :meth:`snapshot_extra`.
        """
        from repro.coherence.snapshot import (
            snap_cache_entry, snap_message, snap_tbe)

        snap = {}
        cache = getattr(self, "cache", None)
        if cache is not None:
            snap["cache"] = {
                entry.addr: snap_cache_entry(entry)
                for entry in cache.entries()
            }
        tbes = getattr(self, "tbes", None)
        if tbes is not None:
            snap["tbes"] = {tbe.addr: snap_tbe(tbe) for tbe in tbes}
        if self._stalled:
            snap["stalled"] = {
                key: tuple((port, snap_message(msg)) for port, msg in waiting)
                for key, waiting in self._stalled.items()
            }
        ports = {
            port: tuple(snap_message(msg) for msg in buf)
            for port, buf in self.in_ports.items()
            if len(buf)
        }
        if ports:
            snap["ports"] = ports
        snap.update(self.snapshot_extra())
        return snap

    def snapshot_extra(self):
        """Per-protocol additions to :meth:`snapshot_state` (default none)."""
        return {}

    # -- stall-and-wait ---------------------------------------------------------

    def stall_key(self, msg):
        """Address key stalled messages wait on (override to customize)."""
        return msg.addr

    def wake_stalled(self, addr):
        """Re-enqueue messages stalled on ``addr`` at their ports' heads."""
        waiting = self._stalled.pop(addr, None)
        self._stalled_since.pop(addr, None)
        if not waiting:
            return
        self._stalled_total -= len(waiting)
        for port, msg in reversed(waiting):
            self.in_ports[port].push_front(self.sim.tick, msg)
        self.request_wakeup()

    def stalled_count(self):
        return self._stalled_total

    # -- main loop ---------------------------------------------------------------

    def wakeup(self):
        if self.sim.tick < self._busy_until:
            self.request_wakeup(self._busy_until)
            return
        lineage = self.sim.lineage
        while True:
            did_work = False
            for port, buf, releasable in self._prio_ports:
                # Pop BEFORE handling: a handler may wake stalled messages
                # onto this port's head, and popping afterwards would
                # remove the woken message and re-process this one.
                msg = buf.pop(self.sim.tick)
                if msg is None:
                    continue
                if lineage is not None:
                    # Installs this message as the cause context every send
                    # inside the handler inherits. wakeup() is never
                    # re-entered while a handler runs, so a flat reset (not
                    # a save/restore) is correct.
                    lid = lineage.begin(msg.uid, self.sim.tick,
                                        self._lineage_class)
                    outcome = self.handle_message(port, msg)
                    lineage.current = 0
                else:
                    lid = 0
                    outcome = self.handle_message(port, msg)
                if outcome == STALL:
                    # The message stays alive in the stall buffer; it is
                    # released on the pass that finally consumes it.
                    key = self.stall_key(msg)
                    self._stalled[key].append((port, msg))
                    self._stalled_since.setdefault(key, self.sim.tick)
                    self._stalled_total += 1
                    self._stall_sink.inc()
                    if lid:
                        lineage.stalled(lid, self.sim.tick)
                    did_work = True
                elif outcome == RETRY:
                    buf.push_front(self.sim.tick, msg)
                    if lid:
                        lineage.requeued(lid, self.sim.tick)
                    continue
                else:
                    if releasable:
                        msg.release()
                    did_work = True
                break
            if did_work and self.occupancy:
                # Busy for the occupancy window; resume afterwards.
                self._busy_until = self.sim.tick + self.occupancy
                self.note_busy(self.occupancy)
                self.request_wakeup(self._busy_until)
                return
            if not did_work:
                return

    # -- deadlock accounting -------------------------------------------------------

    def oldest_pending_tick(self, now):
        oldest = super().oldest_pending_tick(now)
        for since in self._stalled_since.values():
            if oldest is None or since < oldest:
                oldest = since
        return oldest

    # -- error reporting ------------------------------------------------------------

    def note_protocol_anomaly(self, description, msg=None):
        """Record a tolerated anomaly (xg-tolerant host modes sink these).

        The forensic log keeps a private clone: the live message carrier
        may be released to the pool (and recycled) right after handling.
        """
        snapshot = msg.clone() if msg is not None else None
        self.protocol_errors.append((self.sim.tick, description, snapshot))
        self._anomaly_sink.inc()
        obs = self.sim.obs
        if obs is not None:
            obs.record_mark(
                self.sim.tick, "anomaly", component=self.name, name=description
            )
