"""MESIF shared inclusive L2 with embedded directory.

Like the MESI L2, a blocking directory closed by Unblocks, with three
MESIF twists:

* per-block ``f_holder``: the sharer designated to forward clean data;
  a GetS is sent to it (``Fwd_GetS_F``) and the requestor inherits F;
* the sharer list is *conservative*: S/F evict silently, so Inv fan-outs
  may hit caches that no longer hold the block (they ack anyway) and a
  forward may bounce (``FNack``), in which case the L2 serves the data;
* there is no PutS at all.
"""

import enum

from repro.coherence.controller import (
    CONSUMED,
    RETRY,
    STALL,
    CoherenceController,
    ProtocolError,
)
from repro.coherence.tbe import TBETable
from repro.memory.cache_array import CacheArray
from repro.memory.datablock import block_align
from repro.protocols.mesif.messages import MesifMsg
from repro.sim.message import Message


class FL2State(enum.Enum):
    NP = enum.auto()
    V = enum.auto()
    X = enum.auto()
    IV = enum.auto()
    BUSY = enum.auto()
    EV_ACK = enum.auto()
    EV_DATA = enum.auto()


class FL2Event(enum.Enum):
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutE = enum.auto()
    PutM = enum.auto()
    PutStale = enum.auto()
    MemData = enum.auto()
    UnblockS = enum.auto()
    UnblockF = enum.auto()
    UnblockX = enum.auto()
    CopyBack = enum.auto()
    CopyBackInv = enum.auto()
    InvAck = enum.auto()
    FNack = enum.auto()
    Replacement = enum.auto()


_GET_EVENTS = {
    MesifMsg.GetS: FL2Event.GetS,
    MesifMsg.GetM: FL2Event.GetM,
    MesifMsg.GetS_Only: FL2Event.GetS_Only,
}
_RESPONSE_EVENTS = {
    MesifMsg.UnblockS: FL2Event.UnblockS,
    MesifMsg.UnblockF: FL2Event.UnblockF,
    MesifMsg.UnblockX: FL2Event.UnblockX,
    MesifMsg.CopyBack: FL2Event.CopyBack,
    MesifMsg.CopyBackInv: FL2Event.CopyBackInv,
    MesifMsg.InvAck: FL2Event.InvAck,
    MesifMsg.FNack: FL2Event.FNack,
}


class MesifL2(CoherenceController):
    """Shared inclusive L2 / directory for the MESIF protocol."""

    CONTROLLER_TYPE = "mesif_l2"
    PORTS = ("response", "request")

    def __init__(self, sim, name, net, memory, num_sets=256, assoc=8, block_size=64,
                 xg_tolerant=False):
        self.net = net
        self.memory = memory
        self.block_size = block_size
        self.xg_tolerant = xg_tolerant
        self.cache = CacheArray(num_sets, assoc, block_size=block_size, name=name)
        self.tbes = TBETable(name=name)
        super().__init__(sim, name)

    # -- helpers ------------------------------------------------------------------

    def align(self, addr):
        return block_align(addr, self.block_size)

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _state(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe is not None:
            return tbe.state
        entry = self.cache.lookup(addr, touch=False)
        return entry.state if entry is not None else FL2State.NP

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

    def _stable_victim(self, addr):
        set_index = self.cache.set_index(self.align(addr))
        candidates = [
            entry
            for entry in self.cache.entries()
            if self.cache.set_index(entry.addr) == set_index and entry.addr not in self.tbes
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda entry: entry.last_use)

    # -- dispatch ----------------------------------------------------------------------

    def handle_message(self, port, msg):
        addr = msg.addr
        state = self._state(addr)
        # Monomorphic fast path: data/ack/unblock responses dominate
        # steady-state traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(state, _RESPONSE_EVENTS[msg.mtype], msg)
        # request port
        if state in (FL2State.IV, FL2State.BUSY, FL2State.EV_ACK, FL2State.EV_DATA):
            return STALL
        if msg.mtype in _GET_EVENTS:
            event = _GET_EVENTS[msg.mtype]
            if state is FL2State.NP and self._fill_room(addr) <= 0:
                victim = self._stable_victim(addr)
                if victim is not None:
                    synthetic = Message(
                        FL2Event.Replacement, victim.addr, sender=self.name, dest=self.name
                    )
                    self.fire(victim.state, FL2Event.Replacement, synthetic)
                if self._fill_room(addr) <= 0:
                    return RETRY
            return self.fire(self._state(addr), event, msg)
        if msg.mtype in (MesifMsg.PutE, MesifMsg.PutM):
            entry = self.cache.lookup(addr, touch=False)
            if (
                state is FL2State.X
                and entry.meta["owner"] == msg.sender
            ):
                event = FL2Event.PutM if msg.mtype is MesifMsg.PutM else FL2Event.PutE
            else:
                event = FL2Event.PutStale
            return self.fire(state, event, msg)
        raise ProtocolError(self, state, msg.mtype, msg, note="bad request type")

    # -- transition table ------------------------------------------------------------------

    TRANSITIONS = {
        (FL2State.NP, FL2Event.GetS): "_np_get",
        (FL2State.NP, FL2Event.GetM): "_np_get",
        (FL2State.NP, FL2Event.GetS_Only): "_np_get",
        (FL2State.V, FL2Event.GetS): "_v_gets",
        (FL2State.V, FL2Event.GetS_Only): "_v_gets_only",
        (FL2State.V, FL2Event.GetM): "_v_getm",
        (FL2State.X, FL2Event.GetS): "_x_gets",
        (FL2State.X, FL2Event.GetS_Only): "_x_gets",
        (FL2State.X, FL2Event.GetM): "_x_getm",
        (FL2State.X, FL2Event.PutE): "_x_put",
        (FL2State.X, FL2Event.PutM): "_x_put",
        (FL2State.NP, FL2Event.PutStale): "_put_stale",
        (FL2State.V, FL2Event.PutStale): "_put_stale",
        (FL2State.X, FL2Event.PutStale): "_put_stale",
        (FL2State.IV, FL2Event.MemData): "_iv_mem_data",
        (FL2State.BUSY, FL2Event.UnblockS): "_busy_unblock",
        (FL2State.BUSY, FL2Event.UnblockF): "_busy_unblock",
        (FL2State.BUSY, FL2Event.UnblockX): "_busy_unblock",
        (FL2State.BUSY, FL2Event.CopyBack): "_busy_copyback",
        (FL2State.BUSY, FL2Event.FNack): "_busy_fnack",
        (FL2State.EV_ACK, FL2Event.InvAck): "_ev_ack",
        (FL2State.EV_ACK, FL2Event.CopyBack): "_ev_ack_copyback",
        (FL2State.EV_DATA, FL2Event.CopyBackInv): "_ev_data",
        (FL2State.V, FL2Event.Replacement): "_v_repl",
        (FL2State.X, FL2Event.Replacement): "_x_repl",
    }
    COVERAGE_EXEMPT = frozenset({(FL2State.EV_ACK, FL2Event.CopyBack)})

    # -- gets -------------------------------------------------------------------------------

    def _np_get(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, FL2State.IV, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["needs_slot"] = True
        tbe.meta["op"] = msg.mtype
        self.sim.schedule(self.memory.latency, self._mem_data_arrived, addr)
        return CONSUMED

    def _mem_data_arrived(self, addr):
        tbe = self.tbes.lookup(addr)
        synthetic = Message(FL2Event.MemData, addr, sender="memory", dest=self.name)
        synthetic.data = self.memory.read(addr)
        self.fire(tbe.state, FL2Event.MemData, synthetic)
        self.request_wakeup()

    def _iv_mem_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, FL2State.V, data=msg.data)
        entry.meta["sharers"] = set()
        entry.meta["owner"] = None
        entry.meta["f_holder"] = None
        tbe.meta["needs_slot"] = False
        op = tbe.meta["op"]
        if op is MesifMsg.GetM:
            self._send(
                MesifMsg.DataM, addr, tbe.requestor, "response",
                data=entry.data.copy(), ack_count=0,
            )
        elif op is MesifMsg.GetS_Only:
            self._send(MesifMsg.DataS, addr, tbe.requestor, "response", data=entry.data.copy())
        else:
            self._send(MesifMsg.DataE, addr, tbe.requestor, "response", data=entry.data.copy())
        tbe.state = FL2State.BUSY
        return CONSUMED

    def _v_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        if not entry.meta["sharers"]:
            if entry.dirty:
                self._send(
                    MesifMsg.DataM, addr, msg.sender, "response",
                    data=entry.data.copy(), dirty=True, ack_count=0,
                )
                self.stats.inc("l2_dirty_grants")
            else:
                self._send(MesifMsg.DataE, addr, msg.sender, "response", data=entry.data.copy())
            return CONSUMED
        f_holder = entry.meta["f_holder"]
        if f_holder is not None and f_holder != msg.sender:
            # cache-to-cache transfer from the designated responder
            self._send(MesifMsg.Fwd_GetS_F, addr, f_holder, "forward", requestor=msg.sender)
            self.stats.inc("f_forwards")
        else:
            self._send(MesifMsg.DataF, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_gets_only(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(MesifMsg.DataS, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        to_invalidate = entry.meta["sharers"] - {msg.sender}
        for sharer in sorted(to_invalidate):
            self._send(MesifMsg.Inv, addr, sharer, "forward", requestor=msg.sender)
        self._send(
            MesifMsg.DataM, addr, msg.sender, "response",
            data=entry.data.copy(), dirty=entry.dirty, ack_count=len(to_invalidate),
        )
        return CONSUMED

    def _x_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            if not self.xg_tolerant:
                raise ProtocolError(self, FL2State.X, FL2Event.GetS, msg, note="GetS from owner")
            self.note_protocol_anomaly("GetS from current owner", msg)
            tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                MesifMsg.DataM, addr, msg.sender, "response",
                data=entry.data.copy(), dirty=True, ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        tbe.meta["need_copyback"] = True
        self._send(MesifMsg.Fwd_GetS, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    def _x_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            if not self.xg_tolerant:
                raise ProtocolError(self, FL2State.X, FL2Event.GetM, msg, note="GetM from owner")
            self.note_protocol_anomaly("GetM from current owner", msg)
            tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                MesifMsg.DataM, addr, msg.sender, "response",
                data=entry.data.copy(), dirty=True, ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, FL2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(MesifMsg.Fwd_GetM, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    # -- puts ---------------------------------------------------------------------------------------

    def _x_put(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.data = msg.data.copy()
        entry.dirty = msg.mtype is MesifMsg.PutM
        entry.meta["owner"] = None
        entry.state = FL2State.V
        self._send(MesifMsg.WBAck, msg.addr, msg.sender, "forward")
        return CONSUMED

    def _put_stale(self, msg):
        self._send(MesifMsg.WBNack, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_stale_puts")
        return CONSUMED

    # -- closure ----------------------------------------------------------------------------------------

    def _busy_unblock(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.meta["got_unblock"] = True
        tbe.meta["unblock_kind"] = msg.mtype
        self._maybe_close(msg.addr)
        return CONSUMED

    def _busy_copyback(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if not tbe.meta.get("need_copyback"):
            if not self.xg_tolerant:
                raise ProtocolError(
                    self, FL2State.BUSY, FL2Event.CopyBack, msg, note="unexpected copyback"
                )
            self.note_protocol_anomaly("copyback instead of InvAck; acking requestor", msg)
            self._send(MesifMsg.InvAck, addr, tbe.requestor, "response")
            return CONSUMED
        entry.data = msg.data.copy()
        entry.dirty = msg.dirty
        entry.meta["sharers"].add(msg.sender)
        entry.meta["owner"] = None
        tbe.meta["got_copyback"] = True
        self._maybe_close(addr)
        return CONSUMED

    def _busy_fnack(self, msg):
        """The designated responder declined (silent eviction, or a
        Crossing Guard that cannot serve F): serve the requestor from the
        inclusive copy. The decliner must REMAIN a sharer — an XG's
        accelerator may still hold the block in S even though it cannot
        forward it, so only the designation is cleared.
        """
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if entry.meta["f_holder"] == msg.sender:
            entry.meta["f_holder"] = None
        self._send(MesifMsg.DataF, addr, tbe.requestor, "response", data=entry.data.copy())
        self.stats.inc("fnack_fallbacks")
        return CONSUMED

    def _maybe_close(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe.meta.get("need_copyback") and not tbe.meta.get("got_copyback"):
            return
        if not tbe.meta.get("got_unblock"):
            return
        entry = self.cache.lookup(addr, touch=False)
        kind = tbe.meta["unblock_kind"]
        if kind is MesifMsg.UnblockX:
            entry.meta["sharers"] = set()
            entry.meta["owner"] = tbe.requestor
            entry.meta["f_holder"] = None
            entry.state = FL2State.X
            entry.dirty = False
        else:
            entry.meta["sharers"].add(tbe.requestor)
            if kind is MesifMsg.UnblockF:
                entry.meta["f_holder"] = tbe.requestor
            if entry.meta["owner"] is None:
                entry.state = FL2State.V
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- inclusive evictions ----------------------------------------------------------------------------------

    def _v_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        sharers = entry.meta["sharers"]
        if not sharers:
            if entry.dirty:
                self.memory.write(addr, entry.data)
            self.cache.deallocate(addr)
            self.stats.inc("l2_evictions")
            return CONSUMED
        tbe = self.tbes.allocate(addr, FL2State.EV_ACK, now=self.sim.tick)
        tbe.acks_needed = len(sharers)
        for sharer in sorted(sharers):
            self._send(MesifMsg.Inv, addr, sharer, "forward", requestor=self.name)
        return CONSUMED

    def _x_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, FL2State.EV_DATA, now=self.sim.tick)
        self._send(MesifMsg.Recall, addr, entry.meta["owner"], "forward")
        return CONSUMED

    def _ev_ack(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.acks_received += 1
        if tbe.acks_received < tbe.acks_needed:
            return CONSUMED
        entry = self.cache.lookup(addr, touch=False)
        if entry.dirty:
            self.memory.write(addr, entry.data)
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.stats.inc("l2_evictions")
        self.wake_stalled(addr)
        return CONSUMED

    def _ev_ack_copyback(self, msg):
        if not self.xg_tolerant:
            raise ProtocolError(
                self, FL2State.EV_ACK, FL2Event.CopyBack, msg, note="data on eviction Inv"
            )
        self.note_protocol_anomaly("copyback counted as eviction InvAck", msg)
        return self._ev_ack(msg)

    def _ev_data(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        if msg.dirty:
            self.memory.write(addr, msg.data)
        elif entry.dirty:
            self.memory.write(addr, entry.data)
        self.cache.deallocate(addr)
        self.tbes.deallocate(addr)
        self.stats.inc("l2_evictions")
        self.wake_stalled(addr)
        return CONSUMED
