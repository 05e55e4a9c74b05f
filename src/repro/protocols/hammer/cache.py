"""Hammer-like combined L1/L2 cache controller (one per core).

Every directory broadcast probes *every* other cache, so every state —
stable or transient — must answer ``Fwd_GetS``/``Fwd_GetM``/
``Fwd_GetS_Only``. A requestor counts exactly ``n_peers`` probe responses
plus the directory's memory response; this ack-counting burden is the
complexity Crossing Guard lifts off accelerator caches.

Data-grant rules:
* ``Fwd_GetS`` at an M owner → stays owner in O, ships dirty shared data;
* ``Fwd_GetS`` at an E owner → exclusive-clean transfer (requestor gets
  E; this is how a GetS can return DataE through Crossing Guard);
* ``Fwd_GetS_Only`` suppresses the exclusive transfer (E owner downgrades
  to S) — the request type added for Transactional XG's Guarantee 0b;
* ``Fwd_GetM`` at M/O/E → ship data, invalidate.

``xg_tolerant`` enables the Section 3.2.1 host modifications: count
responses instead of strictly typed acks (tolerating zero or multiple
data responses) and sink unexpected WBNacks.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL, ProtocolError
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.protocols.hammer.messages import HammerMsg
from repro.sim.message import Message


class HCState(enum.Enum):
    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    O = enum.auto()
    IS_AD = enum.auto()  # GetS outstanding, counting responses
    IM_AD = enum.auto()  # GetM outstanding
    SM_AD = enum.auto()  # upgrade outstanding (still holds S data)
    OM_A = enum.auto()  # owner upgrading: own data authoritative
    MI_A = enum.auto()  # PutM sent (dirty), waiting WBAck
    OI_A = enum.auto()  # PutM sent from O
    EI_A = enum.auto()  # PutE sent (clean)
    II_A = enum.auto()  # lost ownership mid-writeback, waiting WBNack


class HCEvent(enum.Enum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Fwd_GetS_Only = enum.auto()
    PeerAck = enum.auto()
    PeerData = enum.auto()
    PeerDataExcl = enum.auto()
    MemData = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


_PROBE_EVENTS = {
    HammerMsg.Fwd_GetS: HCEvent.Fwd_GetS,
    HammerMsg.Fwd_GetM: HCEvent.Fwd_GetM,
    HammerMsg.Fwd_GetS_Only: HCEvent.Fwd_GetS_Only,
    HammerMsg.WBAck: HCEvent.WBAck,
    HammerMsg.WBNack: HCEvent.WBNack,
}
_RESPONSE_EVENTS = {
    HammerMsg.PeerAck: HCEvent.PeerAck,
    HammerMsg.PeerData: HCEvent.PeerData,
    HammerMsg.PeerDataExcl: HCEvent.PeerDataExcl,
    HammerMsg.MemData: HCEvent.MemData,
}
_TRANSIENT = {
    HCState.IS_AD,
    HCState.IM_AD,
    HCState.SM_AD,
    HCState.OM_A,
    HCState.MI_A,
    HCState.OI_A,
    HCState.EI_A,
    HCState.II_A,
}
_COLLECTING = {HCState.IS_AD, HCState.IM_AD, HCState.SM_AD, HCState.OM_A}


class HammerCache(CacheControllerBase):
    """Per-core MOESI cache for the Hammer-like protocol."""

    CONTROLLER_TYPE = "hammer_cache"
    PORTS = ("response", "forward", "mandatory")
    INVALID_STATE = HCState.I

    def __init__(
        self,
        sim,
        name,
        net,
        dir_name,
        n_peers,
        num_sets=64,
        assoc=4,
        block_size=64,
        xg_tolerant=False,
    ):
        self.net = net
        self.dir_name = dir_name
        self.n_peers = n_peers
        self.xg_tolerant = xg_tolerant
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers ---------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _to_dir(self, mtype, addr, port="request", **kw):
        return self._send(mtype, addr, self.dir_name, port, **kw)

    def _fill_room(self, addr):
        set_index = self.cache.set_index(self.align(addr))
        occupied = sum(
            1 for entry in self.cache.entries() if self.cache.set_index(entry.addr) == set_index
        )
        reserved = sum(
            1
            for tbe in self.tbes
            if tbe.meta.get("needs_slot") and self.cache.set_index(tbe.addr) == set_index
        )
        return self.cache.assoc - occupied - reserved

    # -- dispatch ------------------------------------------------------------------

    def handle_message(self, port, msg):
        # Monomorphic fast path: data/ack responses dominate steady-state
        # traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(
                self.block_state(msg.addr), _RESPONSE_EVENTS[msg.mtype], msg
            )
        if port == "forward":
            return self.fire(self.block_state(msg.addr), _PROBE_EVENTS[msg.mtype], msg)
        return self._handle_mandatory(msg)

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        event = HCEvent.Load if msg.mtype is CpuOp.Load else HCEvent.Store
        if state in _TRANSIENT:
            return STALL
        if state is HCState.I and self._fill_room(addr) <= 0:
            victim = self.stable_victim(addr)
            if victim is not None:
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim.state, HCEvent.Replacement, synthetic)
                if self._fill_room(addr) > 0:
                    return self.fire(state, event, msg)
            return RETRY
        return self.fire(state, event, msg)

    # -- transition table -----------------------------------------------------------

    TRANSITIONS = {
        # CPU ops
        (HCState.I, HCEvent.Load): "_i_load",
        (HCState.I, HCEvent.Store): "_i_store",
        (HCState.S, HCEvent.Load): "_hit_load",
        (HCState.E, HCEvent.Load): "_hit_load",
        (HCState.M, HCEvent.Load): "_hit_load",
        (HCState.O, HCEvent.Load): "_hit_load",
        (HCState.M, HCEvent.Store): "_m_store",
        (HCState.E, HCEvent.Store): "_e_store",
        (HCState.S, HCEvent.Store): "_s_store",
        (HCState.O, HCEvent.Store): "_o_store",
        # replacements
        (HCState.S, HCEvent.Replacement): "_s_repl",
        (HCState.E, HCEvent.Replacement): "_e_repl",
        (HCState.M, HCEvent.Replacement): "_m_repl",
        (HCState.O, HCEvent.Replacement): "_o_repl",
        # probes on stable states
        (HCState.I, HCEvent.Fwd_GetS): "_ack_probe",
        (HCState.I, HCEvent.Fwd_GetM): "_ack_probe",
        (HCState.I, HCEvent.Fwd_GetS_Only): "_ack_probe",
        (HCState.S, HCEvent.Fwd_GetS): "_shared_ack",
        (HCState.S, HCEvent.Fwd_GetS_Only): "_shared_ack",
        (HCState.S, HCEvent.Fwd_GetM): "_s_fwd_getm",
        (HCState.E, HCEvent.Fwd_GetS): "_e_fwd_gets",
        (HCState.E, HCEvent.Fwd_GetS_Only): "_e_fwd_gets_only",
        (HCState.E, HCEvent.Fwd_GetM): "_owner_fwd_getm",
        (HCState.M, HCEvent.Fwd_GetS): "_m_fwd_gets",
        (HCState.M, HCEvent.Fwd_GetS_Only): "_m_fwd_gets",
        (HCState.M, HCEvent.Fwd_GetM): "_owner_fwd_getm",
        (HCState.O, HCEvent.Fwd_GetS): "_o_fwd_gets",
        (HCState.O, HCEvent.Fwd_GetS_Only): "_o_fwd_gets",
        (HCState.O, HCEvent.Fwd_GetM): "_owner_fwd_getm",
        # probes on transients
        **{(st, ev): "_ack_probe"
           for st in (HCState.IS_AD, HCState.IM_AD, HCState.II_A)
           for ev in (HCEvent.Fwd_GetS, HCEvent.Fwd_GetS_Only, HCEvent.Fwd_GetM)},
        (HCState.SM_AD, HCEvent.Fwd_GetS): "_shared_ack",
        (HCState.SM_AD, HCEvent.Fwd_GetS_Only): "_shared_ack",
        (HCState.SM_AD, HCEvent.Fwd_GetM): "_smad_fwd_getm",
        (HCState.OM_A, HCEvent.Fwd_GetS): "_oma_fwd_gets",
        (HCState.OM_A, HCEvent.Fwd_GetS_Only): "_oma_fwd_gets",
        (HCState.OM_A, HCEvent.Fwd_GetM): "_oma_fwd_getm",
        (HCState.MI_A, HCEvent.Fwd_GetS): "_replacing_owner_gets",
        (HCState.MI_A, HCEvent.Fwd_GetS_Only): "_replacing_owner_gets",
        (HCState.MI_A, HCEvent.Fwd_GetM): "_replacing_owner_getm",
        (HCState.OI_A, HCEvent.Fwd_GetS): "_replacing_owner_gets",
        (HCState.OI_A, HCEvent.Fwd_GetS_Only): "_replacing_owner_gets",
        (HCState.OI_A, HCEvent.Fwd_GetM): "_replacing_owner_getm",
        (HCState.EI_A, HCEvent.Fwd_GetS): "_eia_fwd_gets",
        (HCState.EI_A, HCEvent.Fwd_GetS_Only): "_eia_fwd_gets_only",
        (HCState.EI_A, HCEvent.Fwd_GetM): "_replacing_owner_getm",
        # response collection
        **{(st, ev): "_collect"
           for st in _COLLECTING
           for ev in (HCEvent.PeerAck, HCEvent.PeerData, HCEvent.PeerDataExcl,
                      HCEvent.MemData)},
        # writeback completion
        (HCState.MI_A, HCEvent.WBAck): "_wb_send_data",
        (HCState.OI_A, HCEvent.WBAck): "_wb_send_data",
        (HCState.EI_A, HCEvent.WBAck): "_wb_send_data",
        (HCState.II_A, HCEvent.WBNack): "_wb_nacked",
        # unexpected Nacks (sunk only in xg_tolerant hosts, Section 3.2.1)
        (HCState.I, HCEvent.WBNack): "_sink_nack",
        (HCState.S, HCEvent.WBNack): "_sink_nack",
    }
    COVERAGE_EXEMPT = frozenset({
        # Exclusive-clean transfers only answer GetS, and an O upgrader can
        # never see peer data (it is the owner); keep the defensive rows
        # but exclude them from the coverage denominator.
        (HCState.IM_AD, HCEvent.PeerDataExcl),
        (HCState.SM_AD, HCEvent.PeerDataExcl),
        (HCState.OM_A, HCEvent.PeerDataExcl),
        (HCState.OM_A, HCEvent.PeerData),
        # unexpected Nacks, sunk only in xg_tolerant hosts
        (HCState.I, HCEvent.WBNack),
        (HCState.S, HCEvent.WBNack),
    })

    # -- CPU ops --------------------------------------------------------------------

    def _start_get(self, msg, mtype, state):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, state, now=self.sim.tick)
        tbe.origin = msg
        tbe.acks_needed = self.n_peers + 1  # peers + memory response
        tbe.meta["op"] = mtype
        if state in (HCState.IS_AD, HCState.IM_AD):
            tbe.meta["needs_slot"] = True
        self._to_dir(mtype, addr)
        self.stats.inc(f"misses_{mtype.name}")
        return tbe

    def _i_load(self, msg):
        self._start_get(msg, HammerMsg.GetS, HCState.IS_AD)
        return CONSUMED

    def _i_store(self, msg):
        self._start_get(msg, HammerMsg.GetM, HCState.IM_AD)
        return CONSUMED

    def _s_store(self, msg):
        self._start_get(msg, HammerMsg.GetM, HCState.SM_AD)
        return CONSUMED

    def _o_store(self, msg):
        tbe = self._start_get(msg, HammerMsg.GetM, HCState.OM_A)
        tbe.meta["keep_own_data"] = True
        return CONSUMED

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("load_hits")
        return CONSUMED

    def _m_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("store_hits")
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = HCState.M  # silent upgrade
        entry.dirty = True
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("store_hits")
        return CONSUMED

    # -- replacements -------------------------------------------------------------------

    def _s_repl(self, msg):
        # Hammer allows silent eviction of S blocks — the reason XG's PutS
        # traffic is pure overhead on this host (Section 2.1).
        self.cache.deallocate(msg.addr)
        self.stats.inc("silent_s_evictions")
        return CONSUMED

    def _e_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.EI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutE, msg.addr)
        return CONSUMED

    def _m_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.MI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutM, msg.addr)
        return CONSUMED

    def _o_repl(self, msg):
        self.tbes.allocate(msg.addr, HCState.OI_A, now=self.sim.tick)
        self._to_dir(HammerMsg.PutM, msg.addr)
        return CONSUMED

    # -- probes ------------------------------------------------------------------------------

    def _ack_probe(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        return CONSUMED

    def _shared_ack(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response", shared_hint=True)
        return CONSUMED

    def _s_fwd_getm(self, msg):
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _e_fwd_gets(self, msg):
        """Exclusive-clean transfer: requestor will take E, we drop to I."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerDataExcl, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _e_fwd_gets_only(self, msg):
        """GetS_Only suppresses the transfer: downgrade to S instead."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            shared_hint=True,
        )
        entry.state = HCState.S
        return CONSUMED

    def _m_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        entry.state = HCState.O
        return CONSUMED

    def _o_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _owner_fwd_getm(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _smad_fwd_getm(self, msg):
        """Upgrade lost: ack, drop our S copy, wait for data like IM_AD."""
        tbe = self.tbes.lookup(msg.addr)
        self._send(HammerMsg.PeerAck, msg.addr, msg.requestor, "response")
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry is not None:
            self.cache.deallocate(msg.addr)
        tbe.state = HCState.IM_AD
        tbe.meta["needs_slot"] = True
        return CONSUMED

    def _oma_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _oma_fwd_getm(self, msg):
        """Owner-upgrade lost ownership: ship data, fall back to IM_AD."""
        tbe = self.tbes.lookup(msg.addr)
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
        )
        self.cache.deallocate(msg.addr)
        tbe.state = HCState.IM_AD
        tbe.meta["keep_own_data"] = False
        tbe.meta["needs_slot"] = True
        return CONSUMED

    def _replacing_owner_gets(self, msg):
        """M/O replacement raced a GetS: still owner, serve dirty data."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=True,
            shared_hint=True,
        )
        return CONSUMED

    def _replacing_owner_getm(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        tbe = self.tbes.lookup(msg.addr)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
        )
        tbe.state = HCState.II_A
        return CONSUMED

    def _eia_fwd_gets(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        tbe = self.tbes.lookup(msg.addr)
        self._send(
            HammerMsg.PeerDataExcl, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        tbe.state = HCState.II_A
        return CONSUMED

    def _eia_fwd_gets_only(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            HammerMsg.PeerData,
            msg.addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            shared_hint=True,
        )
        return CONSUMED

    # -- response collection ------------------------------------------------------------------

    def _collect(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.responses_received += 1
        if msg.mtype is HammerMsg.PeerDataExcl:
            tbe.meta["excl_transfer"] = True
            tbe.data = msg.data.copy()
            tbe.dirty = False
            tbe.data_received = True
        elif msg.mtype is HammerMsg.PeerData:
            if tbe.data_received and not self.xg_tolerant and not tbe.meta.get("keep_own_data"):
                raise ProtocolError(
                    self, tbe.state, HCEvent.PeerData, msg, note="second data response"
                )
            if not tbe.meta.get("keep_own_data"):
                tbe.data = msg.data.copy()
                tbe.dirty = msg.dirty
            tbe.data_received = True
            tbe.meta["peer_data"] = True
        elif msg.mtype is HammerMsg.MemData:
            if not tbe.data_received and not tbe.meta.get("keep_own_data"):
                tbe.data = msg.data.copy()
                tbe.dirty = False
        if msg.shared_hint:
            tbe.meta["shared"] = True
        if tbe.responses_received >= tbe.acks_needed:
            self._complete_get(addr, tbe)
        return CONSUMED

    def _complete_get(self, addr, tbe):
        op = tbe.meta["op"]
        entry = self.cache.lookup(addr, touch=False)
        if op is HammerMsg.GetM:
            final = HCState.M
        elif tbe.meta.get("excl_transfer"):
            final = HCState.E
        elif op is HammerMsg.GetS_Only:
            final = HCState.S
        elif tbe.meta.get("peer_data") or tbe.meta.get("shared"):
            final = HCState.S
        else:
            final = HCState.E
        if entry is None:
            data = tbe.data if tbe.data is not None else None
            entry = self.cache.allocate(addr, final, data=data)
        else:
            entry.state = final
            if tbe.data is not None and not tbe.meta.get("keep_own_data"):
                entry.data = tbe.data
        entry.dirty = tbe.dirty or (tbe.meta.get("keep_own_data", False))
        origin = tbe.origin
        if origin.mtype is CpuOp.Store:
            entry.data.write_byte(self.offset(origin.addr), origin.value)
            entry.dirty = True
            self.stats.inc("stores_completed")
        else:
            self.stats.inc("loads_completed")
        self.respond_to_cpu(origin, entry.data)
        self.sim.stats_for("latency").observe("miss_latency", self.sim.tick - tbe.opened_at)
        unblock = {
            HCState.M: HammerMsg.UnblockM,
            HCState.E: HammerMsg.UnblockE,
            HCState.S: HammerMsg.UnblockS,
        }[final]
        self._to_dir(unblock, addr, port="response")
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- writeback completion ----------------------------------------------------------------------

    def _wb_send_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        dirty = tbe.state in (HCState.MI_A, HCState.OI_A)
        self._to_dir(
            HammerMsg.WBData, addr, port="response", data=entry.data.copy(), dirty=dirty
        )
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _wb_nacked(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED

    def _sink_nack(self, msg):
        """Sink an unexpected Nack (host modification for Transactional XG)."""
        if not self.xg_tolerant:
            raise ProtocolError(
                self, self.block_state(msg.addr), HCEvent.WBNack, msg, note="unexpected Nack"
            )
        self.note_protocol_anomaly("sank unexpected WBNack", msg)
        return CONSUMED
