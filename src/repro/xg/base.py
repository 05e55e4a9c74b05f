"""Crossing Guard core: accelerator-side logic shared by both host ports.

One Crossing Guard instance fronts one accelerator. The accelerator side
(this module) enforces the Figure 1 guarantees, owns the mirror directory
(Full State variant), the probe timeout, and the one legal race — an
accelerator Put passing a host Invalidate on the ordered accel network.
The host side makes XG look like an ordinary private cache to the host
protocol and hides ack counting, forwards, and writeback races from the
accelerator. There are two host ports: ``HammerCrossingGuard`` and
``MesiCrossingGuard``, whose subclass ``MesifCrossingGuard`` swaps in
the MESIF message vocabulary and adds only the F-state policy. XG flows
are explicit methods, so none of the ports declares a transition table.

Transaction kinds (at most one open per accelerator block address):

* ``accel_get``  — accelerator Get being satisfied by the host;
* ``accel_put``  — accelerator Put already WBAck'd, host writeback
  in flight;
* ``probe``      — host-initiated invalidation forwarded to the
  accelerator, with a G2c timeout armed.
"""

from collections import deque

from repro.coherence.controller import CONSUMED, RETRY, STALL, CoherenceController
from repro.coherence.tbe import TBETable
from repro.memory.datablock import DataBlock, block_align
from repro.sim.image import copy_value, image_slots
from repro.sim.message import Message
from repro.xg.errors import Guarantee, XGErrorLog
from repro.xg.interface import (
    ACCEL_GET_REQUESTS,
    ACCEL_PUT_REQUESTS,
    ACCEL_REQUESTS,
    ACCEL_RESPONSES,
    AccelMsg,
    XGVariant,
)
from repro.xg.permissions import PagePermission, PermissionTable
from repro.xg.rate_limiter import RateLimiter


@image_slots
class MirrorEntry:
    """Full State XG's record of one block present at the accelerator.

    ``accel_state`` is 'S' or 'O' (owned = E or M granted — the interface
    does not distinguish them at the accelerator). When the host granted
    exclusivity for a read-only page, XG keeps the ownership itself:
    ``accel_state`` stays 'S' (or 'I') and the data lives in
    ``retained_data`` (Guarantee 0b, Section 2.3.1).
    """

    __slots__ = ("accel_state", "retained_data", "retained_dirty", "permission")

    def __init__(self, accel_state, permission):
        self.accel_state = accel_state
        self.retained_data = None
        self.retained_dirty = False
        self.permission = permission

    def __repr__(self):
        retained = ", retained" if self.retained_data is not None else ""
        return f"MirrorEntry({self.accel_state}{retained})"


class CrossingGuardBase(CoherenceController):
    """Shared Crossing Guard machinery; subclasses add one host protocol."""

    PORTS = ("response", "forward", "accel_response", "accel_request")
    CONTROLLER_TYPE = "crossing_guard"

    def __init__(
        self,
        sim,
        name,
        host_net,
        accel_net,
        variant=XGVariant.FULL_STATE,
        permissions=None,
        error_log=None,
        rate_limiter=None,
        accel_timeout=20000,
        probe_retries=0,
        suppress_puts=False,
        block_size=64,
        throttle_rate=None,
    ):
        self.host_net = host_net
        self.accel_net = accel_net
        self.variant = variant
        self.permissions = permissions or PermissionTable(
            default=PagePermission.READ_WRITE
        )
        self.error_log = error_log if error_log is not None else XGErrorLog()
        self.rate_limiter = rate_limiter or RateLimiter()
        self.accel_timeout = accel_timeout
        #: times a silent Invalidate is re-issued (with doubling backoff)
        #: before the G2c surrogate fires. 0 = the paper's single-shot
        #: timeout; >0 hardens against a lossy accel link.
        self.probe_retries = probe_retries
        self.suppress_puts = suppress_puts
        #: punitive ``(rate, period)`` the rate limiter is clamped to when
        #: the error log climbs to the "throttled" quarantine rung; None
        #: leaves the configured rate alone (ladder is advisory there).
        self.throttle_rate = throttle_rate
        self.block_size = block_size
        self.accel_name = None
        self.tbes = TBETable(name=name)
        # Link-fault hardening: recently consumed accel message uids, so a
        # network-duplicated request/response is sunk instead of tripping
        # G1b/G2b spuriously; plus per-address absorption budgets for the
        # extra responses our own Invalidate retries can legitimately evoke.
        self._seen_uids = set()
        self._seen_uid_ring = deque()
        self._absorb_responses = {}  # addr -> [remaining, deadline_tick]
        #: Full State mirror directory: addr -> MirrorEntry
        self.mirror = {} if variant is XGVariant.FULL_STATE else None
        self.mirror_high_water = 0
        super().__init__(sim, name)
        # pre-bound hot-path counters, keyed by message type so the
        # f"to_accel.{...}" strings are built once per type rather than
        # once per message
        self._accel_send_sinks = {}
        self._host_send_sinks = {}
        self._accel_req_sinks = {}
        self._host_msgs_sink = self.stats.sink("xg_to_host_msgs")
        self._violation_sink = self.stats.sink("guarantee_violations")

    # -- wiring ------------------------------------------------------------------

    def attach_accelerator(self, accel_name):
        self.accel_name = accel_name

    def align(self, addr):
        return block_align(addr, self.block_size)

    @property
    def is_full_state(self):
        return self.variant is XGVariant.FULL_STATE

    # -- sends -------------------------------------------------------------------

    def send_to_accel(self, mtype, addr, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=self.accel_name, **kw)
        self.accel_net.send(msg, "fromxg")
        sink = self._accel_send_sinks.get(mtype)
        if sink is None:
            sink = self.stats.sink(f"to_accel.{mtype.name}")
            self._accel_send_sinks[mtype] = sink
        sink.inc()
        return msg

    def send_to_host(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.host_net.send(msg, port)
        self._host_msgs_sink.inc()
        sink = self._host_send_sinks.get(mtype)
        if sink is None:
            sink = self.stats.sink(f"xg_to_host.{mtype.name}")
            self._host_send_sinks[mtype] = sink
        sink.inc()
        return msg

    # -- error reporting -----------------------------------------------------------

    def report(self, guarantee, addr, description):
        self._violation_sink.inc()
        self.stats.inc(f"violation.{guarantee.name}")
        obs = self.sim.obs
        if obs is not None:
            obs.record_mark(
                self.sim.tick, "violation", component=self.name,
                name=guarantee.name, addr=addr,
            )
        log = self.error_log
        before = log.quarantine_state
        error = log.report(
            self.sim.tick, guarantee, addr, description, accel=self.accel_name or ""
        )
        after = log.quarantine_state
        if after != before:
            self._escalate(after, addr)
        return error

    def _escalate(self, state, addr):
        """Climb one rung of the quarantine ladder (warn/throttle/disable)."""
        self.stats.inc(f"quarantine.{state}")
        obs = self.sim.obs
        if obs is not None:
            obs.record_mark(
                self.sim.tick, "quarantine", component=self.name,
                name=state, addr=addr,
            )
        if state == "throttled" and self.throttle_rate is not None:
            rate, period = self.throttle_rate
            self.rate_limiter.set_rate(rate, period=period)
            self.stats.inc("throttle_applied")

    # -- mirror helpers ---------------------------------------------------------------

    def mirror_entry(self, addr):
        if self.mirror is None:
            return None
        return self.mirror.get(self.align(addr))

    def mirror_set(self, addr, accel_state, permission):
        if self.mirror is None:
            return None
        addr = self.align(addr)
        entry = self.mirror.get(addr)
        if entry is None:
            entry = MirrorEntry(accel_state, permission)
            self.mirror[addr] = entry
            self.mirror_high_water = max(self.mirror_high_water, len(self.mirror))
        else:
            entry.accel_state = accel_state
            entry.permission = permission
        return entry

    def mirror_drop_accel(self, addr):
        """Accelerator no longer holds the block; keep retained data if any."""
        if self.mirror is None:
            return
        addr = self.align(addr)
        entry = self.mirror.get(addr)
        if entry is None:
            return
        if entry.retained_data is not None:
            entry.accel_state = "I"
        else:
            del self.mirror[addr]

    def mirror_remove(self, addr):
        """The host reclaimed the block entirely."""
        if self.mirror is not None:
            self.mirror.pop(self.align(addr), None)

    def snapshot_extra(self):
        """XG-specific logical state: the mirror and the quarantine rung."""
        extra = {
            "quarantine": self.error_log.quarantine_state,
            "errors": len(self.error_log),
        }
        if self.mirror is not None:
            extra["mirror"] = {
                addr: (
                    entry.accel_state,
                    None if entry.retained_data is None
                    else bytes(entry.retained_data.to_bytes()),
                    bool(entry.retained_dirty),
                    getattr(entry.permission, "name", entry.permission),
                )
                for addr, entry in self.mirror.items()
            }
        return extra

    # -- state images -------------------------------------------------------------------

    def save_state(self, memo):
        """Controller image plus the mirror, the error log, the rate
        limiter, dedupe history and retry-echo budgets."""
        image = super().save_state(memo)
        image["mirror"] = copy_value(self.mirror, memo)
        image["mirror_high_water"] = self.mirror_high_water
        image["errors"] = (tuple(self.error_log.errors),
                           self.error_log.accel_disabled)
        image["rate_limiter"] = dict(vars(self.rate_limiter))
        image["seen_uids"] = tuple(self._seen_uid_ring)
        image["absorb_responses"] = copy_value(self._absorb_responses, memo)
        return image

    def restore_state(self, image, memo):
        super().restore_state(image, memo)
        self.mirror = copy_value(image["mirror"], memo)
        self.mirror_high_water = image["mirror_high_water"]
        # the log and the limiter are shared with the system: in place
        errors, self.error_log.accel_disabled = image["errors"]
        self.error_log.errors[:] = errors
        vars(self.rate_limiter).update(image["rate_limiter"])
        self._seen_uid_ring = deque(image["seen_uids"])
        self._seen_uids = set(self._seen_uid_ring)
        self._absorb_responses = copy_value(image["absorb_responses"], memo)

    # -- duplicate suppression (unreliable accel link) -----------------------------------

    #: how many consumed accel-message uids to remember for dedupe.
    DEDUPE_RING = 256

    def _mark_seen(self, uid):
        if uid in self._seen_uids:
            return
        self._seen_uids.add(uid)
        self._seen_uid_ring.append(uid)
        while len(self._seen_uid_ring) > self.DEDUPE_RING:
            self._seen_uids.discard(self._seen_uid_ring.popleft())

    # -- main dispatch --------------------------------------------------------------------

    def handle_message(self, port, msg):
        if port in ("accel_request", "accel_response"):
            if msg.uid in self._seen_uids:
                # Exact wire duplicate (link-layer replay): the original
                # was already consumed — sink it silently rather than
                # reporting a spurious G1b/G2b against the accelerator.
                self.stats.inc(f"duplicates_sunk.{port}")
                obs = self.sim.obs
                if obs is not None:
                    obs.record_mark(
                        self.sim.tick, "duplicate_sunk",
                        component=self.name, addr=msg.addr,
                    )
                return CONSUMED
            if port == "accel_request":
                outcome = self._handle_accel_request(msg)
            else:
                outcome = self._handle_accel_response(msg)
            if outcome == CONSUMED:
                self._mark_seen(msg.uid)
            return outcome
        return self.handle_host_message(port, msg)

    def handle_host_message(self, port, msg):
        raise NotImplementedError

    # -- accelerator requests (Gets and Puts) ---------------------------------------------------

    def _reject_malformed(self, msg, channel):
        """Typed rejection of a message the interface cannot even parse.

        Rejected *before* any address arithmetic or table lookups: a
        non-integer address or a type outside :class:`AccelMsg` must not
        be able to crash the Crossing Guard (Guarantee 3).
        """
        if self.error_log.accel_disabled:
            self.stats.inc("dropped_disabled")
            return CONSUMED
        addr = self.align(msg.addr) if type(msg.addr) is int else 0
        mname = getattr(msg.mtype, "name", msg.mtype)
        self.stats.inc("malformed_rejected")
        self.report(
            Guarantee.G3_MALFORMED,
            addr,
            f"unparseable message ({mname!r}, addr={msg.addr!r}) "
            f"on {channel} channel",
        )
        return CONSUMED

    def _handle_accel_request(self, msg):
        if type(msg.addr) is not int:
            return self._reject_malformed(msg, "request")
        addr = self.align(msg.addr)
        if self.error_log.accel_disabled:
            # Quarantine re-entry rejection: the request is dropped, and
            # the explicit abort tells a well-behaved endpoint not to
            # wait on a completion that can never come.
            self.stats.inc("dropped_disabled")
            self.send_to_accel(AccelMsg.Nack, addr)
            return CONSUMED
        try:
            is_request = msg.mtype in ACCEL_REQUESTS
        except TypeError:  # unhashable garbage posing as a message type
            return self._reject_malformed(msg, "request")
        if not is_request:
            if not isinstance(msg.mtype, AccelMsg):
                return self._reject_malformed(msg, "request")
            # A known response type on the request channel.
            self.report(
                Guarantee.G2B_TRANSIENT_RESPONSE,
                addr,
                f"non-request {msg.mtype} on request channel",
            )
            return CONSUMED
        tbe = self.tbes.lookup(addr)
        if tbe is not None:
            kind = tbe.meta["kind"]
            if kind == "accel_get":
                self.report(
                    Guarantee.G1B_TRANSIENT_REQUEST,
                    addr,
                    f"{msg.mtype.name} while a request is already pending",
                )
                return CONSUMED
            if kind == "probe":
                if tbe.meta.get("race_resolved"):
                    # Only the trailing InvAck is outstanding; any new
                    # request waits for the probe to fully close.
                    return STALL
                if msg.mtype in ACCEL_PUT_REQUESTS:
                    return self._resolve_put_probe_race(msg, tbe)
                # A Get racing our Invalidate: wait for the probe to close.
                return STALL
            if kind == "accel_put":
                # The accelerator already has its WBAck; a new request is
                # legal but must wait for the host-side writeback.
                return STALL
        delay = self.rate_limiter.acquire(self.sim.tick)
        if delay:
            self.stats.inc("rate_limited")
            self.request_wakeup(self.sim.tick + delay)
            lineage = self.sim.lineage
            if lineage is not None:
                # Classify the upcoming requeue wait as limiter throttling,
                # not a protocol stall (one-shot, consumed by requeued()).
                lineage.requeue_kind = "throttle"
            return RETRY
        if msg.mtype in ACCEL_GET_REQUESTS:
            return self._accel_get(msg, addr)
        return self._accel_put(msg, addr)

    def _accel_get(self, msg, addr):
        permission = self.permissions.lookup(addr)
        if not permission.allows_read():
            self.report(
                Guarantee.G0A_READ_PERMISSION, addr, f"{msg.mtype.name} without read permission"
            )
            return CONSUMED
        if msg.mtype is AccelMsg.GetM and not permission.allows_write():
            self.report(
                Guarantee.G0B_WRITE_PERMISSION, addr, "GetM without write permission"
            )
            return CONSUMED
        mirror = self.mirror_entry(addr)
        if self.is_full_state and mirror is not None:
            if mirror.accel_state == "O" or (
                mirror.accel_state == "S" and msg.mtype is AccelMsg.GetS
            ):
                self.report(
                    Guarantee.G1A_STABLE_REQUEST,
                    addr,
                    f"{msg.mtype.name} while accelerator holds the block "
                    f"({mirror.accel_state})",
                )
                return CONSUMED
        if (
            self.is_full_state
        and mirror is not None
            and mirror.retained_data is not None
            and msg.mtype is AccelMsg.GetS
        ):
            # XG already owns the block on the accelerator's behalf
            # (read-only page): serve the retained copy locally.
            mirror.accel_state = "S"
            self.send_to_accel(
                AccelMsg.DataS, addr, data=mirror.retained_data.copy()
            )
            self.stats.inc("retained_hits")
            obs = self.sim.obs
            if obs is not None:
                # Served from XG-local state: a zero-latency span so the
                # trace still shows the request happened.
                span = obs.spans.start(
                    "accel_get", self.name, addr, self.sim.tick,
                    req=msg.mtype.name,
                )
                obs.spans.finish(span, self.sim.tick, status="retained_hit")
            return CONSUMED
        tbe = self.tbes.allocate(addr, "accel_get", now=self.sim.tick)
        tbe.meta["kind"] = "accel_get"
        tbe.meta["accel_req"] = msg.mtype
        tbe.permission = permission
        want_m = msg.mtype is AccelMsg.GetM
        gets_only = (
            not want_m
            and not permission.allows_write()
            and not self.is_full_state
        )
        self._count_accel_req(msg.mtype)
        obs = self.sim.obs
        if obs is not None:
            span = obs.spans.start(
                "accel_get", self.name, addr, self.sim.tick, req=msg.mtype.name
            )
            tbe.meta["span"] = span
            obs.spans.phase(span, "translated", self.sim.tick)
        self.host_issue_get(addr, want_m=want_m, gets_only=gets_only, tbe=tbe)
        return CONSUMED

    def _count_accel_req(self, mtype):
        sink = self._accel_req_sinks.get(mtype)
        if sink is None:
            sink = self.stats.sink(f"accel_req.{mtype.name}")
            self._accel_req_sinks[mtype] = sink
        sink.inc()

    def _accel_put(self, msg, addr):
        permission = self.permissions.lookup(addr)
        if not permission.allows_read():
            self.report(
                Guarantee.G0A_READ_PERMISSION, addr, f"{msg.mtype.name} without page access"
            )
            return CONSUMED
        if msg.mtype in (AccelMsg.PutE, AccelMsg.PutM) and not permission.allows_write():
            # Owned data coming back for a page the accelerator could never
            # legitimately own read-write.
            self.report(
                Guarantee.G0B_WRITE_PERMISSION,
                addr,
                f"{msg.mtype.name} with data on a non-writable page",
            )
            return CONSUMED
        mirror = self.mirror_entry(addr)
        if self.is_full_state:
            state = mirror.accel_state if mirror is not None else "I"
            valid = (
                (msg.mtype is AccelMsg.PutS and state == "S")
                or (msg.mtype in (AccelMsg.PutE, AccelMsg.PutM) and state == "O")
            )
            if not valid:
                self.report(
                    Guarantee.G1A_STABLE_REQUEST,
                    addr,
                    f"{msg.mtype.name} while accelerator state is {state}",
                )
                return CONSUMED
        if msg.mtype is not AccelMsg.PutS and not isinstance(msg.data, DataBlock):
            self.report(
                Guarantee.G1A_STABLE_REQUEST, addr, f"{msg.mtype.name} without data payload"
            )
            return CONSUMED
        self._count_accel_req(msg.mtype)
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.spans.start(
                "accel_put", self.name, addr, self.sim.tick, req=msg.mtype.name
            )
        # The interface promises exactly one response per request; XG is
        # trusted, so it can ack immediately and complete the writeback
        # toward the host asynchronously.
        self.send_to_accel(AccelMsg.WBAck, addr)
        if span is not None:
            obs.spans.phase(span, "wback_acked", self.sim.tick)
        retained = mirror is not None and mirror.retained_data is not None
        self.mirror_drop_accel(addr)
        if msg.mtype is AccelMsg.PutS and retained:
            # XG still owns the block toward the host; nothing to send.
            self.stats.inc("puts_absorbed_retained")
            if span is not None:
                obs.spans.finish(span, self.sim.tick, status="absorbed")
            return CONSUMED
        tbe = self.tbes.allocate(addr, "accel_put", now=self.sim.tick)
        tbe.meta["kind"] = "accel_put"
        tbe.meta["put_type"] = msg.mtype
        tbe.data = msg.data.copy() if isinstance(msg.data, DataBlock) else None
        tbe.dirty = msg.mtype is AccelMsg.PutM
        if span is not None:
            tbe.meta["span"] = span
            obs.spans.phase(span, "translated", self.sim.tick)
        self.host_issue_put(addr, msg.mtype, tbe)
        return CONSUMED

    # -- accelerator responses (to Invalidate) ------------------------------------------------------

    def _handle_accel_response(self, msg):
        if type(msg.addr) is not int:
            return self._reject_malformed(msg, "response")
        addr = self.align(msg.addr)
        try:
            is_response = msg.mtype in ACCEL_RESPONSES
        except TypeError:  # unhashable garbage posing as a message type
            return self._reject_malformed(msg, "response")
        if not is_response:
            if not isinstance(msg.mtype, AccelMsg):
                return self._reject_malformed(msg, "response")
            if self.error_log.accel_disabled:
                self.stats.inc("dropped_disabled")
                return CONSUMED
            self.report(
                Guarantee.G2B_TRANSIENT_RESPONSE,
                addr,
                f"non-response {msg.mtype} on response channel",
            )
            return CONSUMED
        tbe = self.tbes.lookup(addr)
        if tbe is None or tbe.meta.get("kind") != "probe":
            if self._absorb_retry_echo(addr):
                return CONSUMED
            if self.error_log.accel_disabled:
                # Quarantine: open transactions drain above; anything
                # unmatched from a disabled accelerator is just dropped.
                self.stats.inc("dropped_disabled")
                return CONSUMED
            self.report(
                Guarantee.G2B_TRANSIENT_RESPONSE,
                addr,
                f"{msg.mtype.name} with no pending host request",
            )
            return CONSUMED
        if tbe.meta.get("race_resolved"):
            # The accelerator's Put crossed our Invalidate; this is the
            # InvAck it sent from state B — expected, absorb it and close.
            self._close_probe(addr, tbe)
            return CONSUMED
        obs = self.sim.obs
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.phase(span, "accel_answered", self.sim.tick)
        timeout = tbe.meta.get("timeout_event")
        if timeout is not None:
            timeout.cancel()
        got_wb = msg.mtype in (AccelMsg.CleanWB, AccelMsg.DirtyWB)
        # isinstance: a Byzantine payload (wrong type entirely) is treated
        # as missing data rather than allowed to crash the copy below
        data = msg.data.copy() if (got_wb and isinstance(msg.data, DataBlock)) else None
        dirty = msg.mtype is AccelMsg.DirtyWB
        if got_wb and data is None:
            self.report(
                Guarantee.G2A_STABLE_RESPONSE, addr, f"{msg.mtype.name} without data"
            )
            got_wb = False
        needs_data = tbe.meta["needs_data"]
        if self.is_full_state:
            expected_wb = tbe.meta["mirror_owned"]
            if got_wb != expected_wb:
                self.report(
                    Guarantee.G2A_STABLE_RESPONSE,
                    addr,
                    f"{msg.mtype.name} but accelerator "
                    f"{'owns' if expected_wb else 'does not own'} the block",
                )
                if expected_wb:
                    # Paper: send a writeback of a zero block instead.
                    data = DataBlock(self.block_size)
                    dirty = True
                    got_wb = True
                else:
                    data = None
                    got_wb = False
        else:
            if needs_data and not got_wb:
                # Transient knowledge suffices: the host request requires
                # data and none came (Guarantee 2a, zero/stale data).
                self.report(
                    Guarantee.G2A_STABLE_RESPONSE,
                    addr,
                    "host probe needs data but accelerator sent InvAck",
                )
                data = DataBlock(self.block_size)
                dirty = True
                got_wb = True
        if got_wb and not self.permissions.allows_write(addr) and not dirty:
            pass  # clean writeback of a read-only block is fine
        elif got_wb and dirty and not self.permissions.allows_write(addr):
            self.report(
                Guarantee.G0B_WRITE_PERMISSION, addr, "dirty data for a non-writable page"
            )
            data = DataBlock(self.block_size)
        got_wb, data, dirty = self._apply_retained(addr, needs_data, got_wb, data, dirty)
        self.mirror_remove(addr)
        self.host_answer_probe(addr, tbe, got_wb=got_wb, data=data, dirty=dirty)
        self._close_probe(addr, tbe)
        return CONSUMED

    def _apply_retained(self, addr, needs_data, got_wb, data, dirty):
        """Serve a data-needing probe from XG's retained copy (G0b blocks).

        When XG kept ownership of a read-only block on the accelerator's
        behalf, the accelerator correctly answers the Invalidate with an
        InvAck; the data the host wants lives here.
        """
        entry = self.mirror_entry(addr)
        if (
            entry is not None
            and entry.retained_data is not None
            and needs_data
            and not got_wb
        ):
            return True, entry.retained_data.copy(), entry.retained_dirty
        return got_wb, data, dirty

    def _absorb_retry_echo(self, addr):
        """Sink one extra response our own Invalidate retries provoked.

        Each re-issued Invalidate may evoke its own answer; only one
        response closes the probe, so up to ``attempts`` trailing echoes
        are expected traffic, not a G2b violation. The budget expires so
        it can never mask a genuinely spurious response indefinitely.
        """
        budget = self._absorb_responses.get(addr)
        if budget is None:
            return False
        remaining, deadline = budget
        if self.sim.tick > deadline or remaining <= 0:
            del self._absorb_responses[addr]
            return False
        budget[0] = remaining - 1
        if budget[0] == 0:
            del self._absorb_responses[addr]
        self.stats.inc("retry_echoes_absorbed")
        return True

    def _close_probe(self, addr, tbe):
        timeout = tbe.meta.get("timeout_event")
        if timeout is not None:
            timeout.cancel()
        obs = self.sim.obs
        lineage = self.sim.lineage
        if lineage is not None:
            probe_lid = tbe.meta.get("probe_lid", 0)
            if probe_lid:
                # The answer (or the give-up timeout) was provoked by our
                # own Invalidate. A Byzantine or non-protocol endpoint
                # replies with no handler context, so bridge the causal
                # chain explicitly before the span's blame walk runs.
                lineage.adopt_cause(probe_lid)
                lineage.tip_hint = probe_lid
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.finish(
                    span, self.sim.tick, status=tbe.meta.get("span_status", "ok")
                )
        if addr in self.tbes:
            self.tbes.deallocate(addr)
        attempts = tbe.meta.get("probe_attempts", 0)
        if attempts:
            self._absorb_responses[addr] = [
                attempts,
                self.sim.tick + max(8 * self.accel_timeout, 1),
            ]
        relinquish = tbe.meta.pop("relinquish", None)
        if relinquish is not None:
            # Must happen before stalled accelerator requests wake so they
            # observe the in-flight writeback and wait for it.
            self.host_relinquish(addr, *relinquish)
        self.wake_stalled(addr)

    def host_relinquish(self, addr, data, dirty):
        """Hand ownership back to the host after an answered probe.

        Only host ports whose protocol can leave XG as a data-less owner
        (Hammer's merged-GetS case, Section 3.2.1) implement this.
        """
        raise NotImplementedError

    # -- the legal race: accelerator Put passes a host Invalidate -------------------------------------

    def _resolve_put_probe_race(self, msg, tbe):
        """Use the racing Put as the probe's data and ack the accelerator.

        The ordered accel network guarantees the Put arrived before the
        InvAck the accelerator will send from state B; mark the probe
        resolved and absorb that InvAck when it shows up.
        """
        addr = self.align(msg.addr)
        self.stats.inc("put_inv_races")
        obs = self.sim.obs
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.phase(span, "put_race", self.sim.tick)
        timeout = tbe.meta.get("timeout_event")
        if timeout is not None:
            timeout.cancel()
        self.send_to_accel(AccelMsg.WBAck, addr)
        got_wb = msg.mtype in (AccelMsg.PutE, AccelMsg.PutM)
        data = msg.data.copy() if isinstance(msg.data, DataBlock) else None
        dirty = msg.mtype is AccelMsg.PutM
        if got_wb and data is None:
            self.report(
                Guarantee.G1A_STABLE_REQUEST, addr, f"{msg.mtype.name} without data payload"
            )
            got_wb = False
        if self.is_full_state:
            expected_wb = tbe.meta.get("mirror_owned", False)
            if got_wb != expected_wb:
                # An owned-put racing an Inv of a shared block (or vice
                # versa) is a G1a violation; coerce to what the mirror says.
                self.report(
                    Guarantee.G1A_STABLE_REQUEST,
                    addr,
                    f"racing {msg.mtype.name} inconsistent with mirror state",
                )
                if expected_wb:
                    data = DataBlock(self.block_size)
                    dirty = True
                    got_wb = True
                else:
                    data = None
                    dirty = False
                    got_wb = False
        got_wb, data, dirty = self._apply_retained(
            addr, tbe.meta["needs_data"], got_wb, data, dirty
        )
        if tbe.meta["needs_data"] and not got_wb:
            # PutS raced a probe that needs data: the accelerator was only
            # a sharer — with Full State this mismatch was already
            # impossible; fabricate zeros for safety.
            data = DataBlock(self.block_size)
            dirty = True
            got_wb = True
        self.mirror_remove(addr)
        self.host_answer_probe(addr, tbe, got_wb=got_wb, data=data, dirty=dirty)
        tbe.meta["race_resolved"] = True
        # The trailing InvAck (or the Invalidate that provokes it) can be
        # lost on an unreliable link; bound the wait so this probe TBE —
        # and every request stalled behind it — cannot wedge forever.
        tbe.meta["timeout_event"] = self.sim.schedule(
            self.accel_timeout, self._probe_timeout, addr
        )
        return CONSUMED

    # -- probes toward the accelerator -------------------------------------------------------------------

    def start_probe(self, addr, needs_data, context):
        """Forward an Invalidate to the accelerator and arm the timeout.

        The caller (host subclass) has already decided the probe cannot be
        answered from XG-local knowledge.
        """
        addr = self.align(addr)
        tbe = self.tbes.allocate(addr, "probe", now=self.sim.tick)
        tbe.meta["kind"] = "probe"
        tbe.meta["needs_data"] = needs_data
        tbe.meta["context"] = context
        mirror = self.mirror_entry(addr)
        tbe.meta["mirror_owned"] = bool(mirror is not None and mirror.accel_state == "O")
        obs = self.sim.obs
        if obs is not None:
            tbe.meta["span"] = obs.spans.start(
                "probe", self.name, addr, self.sim.tick, needs_data=needs_data
            )
        if self.error_log.accel_disabled:
            # Quarantine: never probe a disabled accelerator — synthesize
            # the surrogate on the next tick so the host is not held
            # hostage for a timeout that cannot possibly be answered.
            tbe.meta["quarantined"] = True
            tbe.meta["timeout_event"] = self.sim.schedule(1, self._probe_timeout, addr)
            self.stats.inc("quarantine_surrogates")
            return tbe
        self.send_to_accel(AccelMsg.Invalidate, addr)
        lineage = self.sim.lineage
        if lineage is not None:
            tbe.meta["probe_lid"] = lineage.last_lid
        if obs is not None:
            obs.spans.phase(tbe.meta["span"], "forwarded", self.sim.tick)
        tbe.meta["timeout_event"] = self.sim.schedule(
            self.accel_timeout, self._probe_timeout, addr
        )
        self.stats.inc("probes_forwarded")
        return tbe

    def _probe_timeout(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe is None or tbe.meta.get("kind") != "probe":
            return
        if tbe.meta.get("race_resolved"):
            # The probe was already answered via the racing Put; only the
            # trailing InvAck was outstanding and the link ate it. No host
            # obligation remains — close quietly and budget one late echo
            # in case the ack is merely delayed.
            self.stats.inc("trailing_ack_timeouts")
            tbe.meta["span_status"] = "trailing_ack_lost"
            self._close_probe(addr, tbe)
            self._absorb_responses[addr] = [
                tbe.meta.get("probe_attempts", 0) + 1,
                self.sim.tick + max(8 * self.accel_timeout, 1),
            ]
            return
        attempts = tbe.meta.get("probe_attempts", 0)
        quarantined = tbe.meta.get("quarantined", False)
        if (
            not quarantined
            and not self.error_log.accel_disabled
            and attempts < self.probe_retries
        ):
            # Retry with bounded doubling backoff: the Invalidate (or its
            # answer) may simply have been lost on an unreliable link.
            tbe.meta["probe_attempts"] = attempts + 1
            self.stats.inc("probe_retries")
            obs = self.sim.obs
            if obs is not None:
                span = tbe.meta.get("span")
                if span is not None:
                    obs.spans.phase(span, f"retry_{attempts + 1}", self.sim.tick)
            lineage = self.sim.lineage
            if lineage is not None:
                # The re-issued Invalidate is a timeout product, not caused
                # by any in-flight message: tag its send site so the blame
                # walk books the backoff window as retry_backoff.
                lineage.site_hint = "retry_backoff"
            self.send_to_accel(AccelMsg.Invalidate, addr)
            if lineage is not None:
                tbe.meta["probe_lid"] = lineage.last_lid
            wait = min(self.accel_timeout * (2 ** (attempts + 1)), 8 * self.accel_timeout)
            tbe.meta["timeout_event"] = self.sim.schedule(wait, self._probe_timeout, addr)
            return
        if quarantined:
            self.report(
                Guarantee.G2C_TIMEOUT,
                addr,
                "accelerator quarantined (disabled); surrogate response",
            )
        else:
            self.report(
                Guarantee.G2C_TIMEOUT,
                addr,
                "accelerator did not answer an Invalidate in time"
                + (f" ({attempts + 1} attempts)" if attempts else ""),
            )
        needs_data = tbe.meta["needs_data"]
        owned = tbe.meta.get("mirror_owned", False)
        # Prefer the retained copy (if any) over a fabricated zero block:
        # a quarantined accelerator whose grants were suppressed still
        # gets its real data handed back to the host.
        got_wb, data, dirty_flag = self._apply_retained(addr, needs_data, False, None, False)
        if not got_wb and (needs_data or owned):
            got_wb = True
            data = DataBlock(self.block_size)
            dirty_flag = True
        self.mirror_remove(addr)
        self.host_answer_probe(addr, tbe, got_wb=got_wb, data=data, dirty=dirty_flag)
        tbe.meta["span_status"] = "timeout"
        self._close_probe(addr, tbe)
        self.request_wakeup()

    # -- host-port hooks (implemented by protocol subclasses) ---------------------------------------------

    def host_issue_get(self, addr, want_m, gets_only, tbe):
        raise NotImplementedError

    def host_issue_put(self, addr, put_type, tbe):
        raise NotImplementedError

    def host_answer_probe(self, addr, tbe, got_wb, data, dirty):
        raise NotImplementedError

    # -- completions called by subclasses --------------------------------------------------------------------

    def finish_accel_get(self, addr, grant, data, dirty):
        """Host side satisfied an accelerator Get: respond and record.

        ``grant`` is 'S', 'E', or 'M'.
        """
        addr = self.align(addr)
        tbe = self.tbes.lookup(addr)
        obs = self.sim.obs
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.phase(span, "host_granted", self.sim.tick)
        permission = tbe.permission
        if self.error_log.accel_disabled:
            # The host-side transaction completed while the accelerator
            # sat in quarantine: drain it without forwarding the grant
            # across the crossing. Full State retains the data so later
            # host probes are served the real bytes instead of surrogate
            # zeros; Transactional falls back to the zero surrogate.
            entry = self.mirror_set(addr, "I", permission)
            if entry is not None:
                entry.retained_data = data.copy()
                entry.retained_dirty = dirty or grant == "M"
            self.stats.inc("grants_suppressed_disabled")
            self.tbes.deallocate(addr)
            if obs is not None:
                span = tbe.meta.get("span")
                if span is not None:
                    obs.spans.finish(span, self.sim.tick, status="suppressed_disabled")
            self.wake_stalled(addr)
            return
        if grant in ("E", "M") and not permission.allows_write():
            # Guarantee 0b: the accelerator may never own a block it cannot
            # write. Full State retains the data and ownership itself.
            entry = self.mirror_set(addr, "S", permission)
            if entry is not None:
                entry.retained_data = data.copy()
                entry.retained_dirty = dirty
            self.send_to_accel(AccelMsg.DataS, addr, data=data.copy())
            self.stats.inc("grants_retained")
        else:
            if grant == "S":
                self.mirror_set(addr, "S", permission)
                self.send_to_accel(AccelMsg.DataS, addr, data=data.copy())
            elif grant == "E":
                self.mirror_set(addr, "O", permission)
                self.send_to_accel(AccelMsg.DataE, addr, data=data.copy())
            else:
                self.mirror_set(addr, "O", permission)
                self.send_to_accel(AccelMsg.DataM, addr, data=data.copy(), dirty=True)
            self.stats.inc(f"grants_{grant}")
        self.tbes.deallocate(addr)
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.finish(span, self.sim.tick, status="ok", grant=grant)
        self.wake_stalled(addr)

    def finish_accel_put(self, addr):
        """Host side completed (or absorbed the Nack for) a writeback."""
        addr = self.align(addr)
        tbe = self.tbes.deallocate(addr)
        obs = self.sim.obs
        if obs is not None:
            span = tbe.meta.get("span")
            if span is not None:
                obs.spans.finish(span, self.sim.tick, status="ok")
        self.wake_stalled(addr)

    def diagnose_extra(self):
        """Containment summary line for deadlock/invariant forensics."""
        log = self.error_log
        mirror = len(self.mirror) if self.mirror is not None else 0
        return [
            f"quarantine={log.quarantine_state} violations={len(log)} "
            f"limiter={self.rate_limiter!r} open_tbes={len(self.tbes)} "
            f"mirror_entries={mirror} accel={self.accel_name}"
        ]

    def context_switch_cost(self):
        """Work needed to hand this XG to a different accelerator.

        The paper (Section 2.3.2): Transactional XG "may also ease
        time-sharing of the Crossing Guard hardware between accelerators,
        because storage will not need to be sized for a specific
        accelerator." Concretely, before re-attachment the old
        accelerator's footprint must be purged:

        * Full State — every mirrored block needs an Invalidate to the
          old accelerator and (for owned blocks) a writeback to the host;
        * Transactional — only open transactions need to drain; there is
          no per-block state at all.
        """
        open_txns = len(self.tbes)
        if self.mirror is None:
            return {
                "variant": self.variant.name,
                "open_transactions_to_drain": open_txns,
                "blocks_to_invalidate": 0,
                "owned_blocks_to_write_back": 0,
                "total_flush_operations": open_txns,
            }
        owned = sum(1 for entry in self.mirror.values() if entry.accel_state == "O")
        retained = sum(
            1 for entry in self.mirror.values() if entry.retained_data is not None
        )
        blocks = len(self.mirror)
        return {
            "variant": self.variant.name,
            "open_transactions_to_drain": open_txns,
            "blocks_to_invalidate": blocks,
            "owned_blocks_to_write_back": owned + retained,
            "total_flush_operations": open_txns + blocks + owned + retained,
        }

    # -- storage accounting (experiment E7) --------------------------------------------------------------------

    def storage_report(self):
        """Approximate hardware storage this XG variant needs, in bits."""
        tag_bits = 26
        state_bits = 2
        perm_bits = 2
        tbe_bits = tag_bits + 32  # transient bookkeeping per open transaction
        report = {
            "variant": self.variant.name,
            "tbe_high_water": self.tbes.high_water,
            "tbe_bits": self.tbes.high_water * tbe_bits,
        }
        if self.mirror is not None:
            retained = sum(
                1 for entry in self.mirror.values() if entry.retained_data is not None
            )
            report["mirror_entries_high_water"] = self.mirror_high_water
            report["mirror_bits"] = self.mirror_high_water * (
                tag_bits + state_bits + perm_bits
            ) + retained * self.block_size * 8
        else:
            report["mirror_entries_high_water"] = 0
            report["mirror_bits"] = 0
        report["total_bits"] = report["tbe_bits"] + report["mirror_bits"]
        return report
