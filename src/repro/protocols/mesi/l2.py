"""MESI two-level shared inclusive L2 with embedded directory.

The L2 is a *blocking* directory: each block has at most one open
transaction (TBE), closed by the requestor's Unblock; racing requests wait
in per-address stall buffers. Sharer tracking is exact (explicit PutS),
which is what lets stale Puts be detected and WBNack'd — the property the
paper leans on for Guarantee 1a tolerance.

The ``xg_tolerant`` flag enables the Section 3.2.2 host modifications for
Transactional Crossing Guard:

* a CopyBack that arrives when no copyback is expected (a buggy
  accelerator "wrote back" instead of acking an Inv) is absorbed and the
  L2 acks the requestor on the accelerator's behalf;
* a GetM/GetS from the cache the directory already considers owner is
  served gracefully instead of being a protocol error.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL, ProtocolError
from repro.coherence.tbe import TBETable
from repro.memory.cache_array import CacheArray
from repro.coherence.controller import CoherenceController
from repro.memory.datablock import block_align
from repro.protocols.mesi.messages import MesiMsg
from repro.sim.message import Message


class L2State(enum.Enum):
    NP = enum.auto()  # not present
    V = enum.auto()  # valid at L2; zero or more sharers; no exclusive owner
    X = enum.auto()  # an L1 holds the block exclusively (E or M)
    IV = enum.auto()  # fetching from memory
    BUSY = enum.auto()  # transaction open, waiting Unblock (+CopyBack)
    EV_ACK = enum.auto()  # evicting: waiting sharer InvAcks
    EV_DATA = enum.auto()  # evicting: waiting owner CopyBackInv


class L2Event(enum.Enum):
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutS = enum.auto()
    PutE = enum.auto()
    PutM = enum.auto()
    PutStale = enum.auto()
    MemData = enum.auto()
    UnblockS = enum.auto()
    UnblockX = enum.auto()
    CopyBack = enum.auto()
    CopyBackInv = enum.auto()
    InvAck = enum.auto()
    Replacement = enum.auto()


_GET_EVENTS = {
    MesiMsg.GetS: L2Event.GetS,
    MesiMsg.GetM: L2Event.GetM,
    MesiMsg.GetS_Only: L2Event.GetS_Only,
}
_PUT_TYPES = {MesiMsg.PutS, MesiMsg.PutE, MesiMsg.PutM}
_RESPONSE_EVENTS = {
    MesiMsg.UnblockS: L2Event.UnblockS,
    MesiMsg.UnblockX: L2Event.UnblockX,
    MesiMsg.CopyBack: L2Event.CopyBack,
    MesiMsg.CopyBackInv: L2Event.CopyBackInv,
    MesiMsg.InvAck: L2Event.InvAck,
}


class MesiL2(CoherenceController):
    """Shared inclusive L2 / directory for the MESI two-level protocol."""

    CONTROLLER_TYPE = "mesi_l2"
    PORTS = ("response", "request")

    def __init__(
        self,
        sim,
        name,
        net,
        memory,
        num_sets=256,
        assoc=8,
        block_size=64,
        xg_tolerant=False,
    ):
        self.net = net
        self.memory = memory
        self.block_size = block_size
        self.xg_tolerant = xg_tolerant
        self.cache = CacheArray(num_sets, assoc, block_size=block_size, name=name)
        self.tbes = TBETable(name=name)
        super().__init__(sim, name)

    # -- helpers -----------------------------------------------------------------

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
        if entry is None:
            return L2State.NP
        return entry.state

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

    # -- dispatch --------------------------------------------------------------------

    def handle_message(self, port, msg):
        addr = msg.addr
        state = self._state(addr)
        # Monomorphic fast path: data/ack/unblock responses dominate
        # steady-state traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(state, _RESPONSE_EVENTS[msg.mtype], msg)
        # request port
        if state in (L2State.IV, L2State.BUSY, L2State.EV_ACK, L2State.EV_DATA):
            return STALL
        if msg.mtype in _GET_EVENTS:
            event = _GET_EVENTS[msg.mtype]
            if state is L2State.NP and self._fill_room(addr) <= 0:
                victim = self._stable_victim(addr)
                if victim is not None:
                    synthetic = Message(
                        L2Event.Replacement, victim.addr, sender=self.name, dest=self.name
                    )
                    self.fire(victim.state, L2Event.Replacement, synthetic)
                if self._fill_room(addr) <= 0:
                    # Eviction is in flight (or impossible right now);
                    # its completion rescans this port.
                    return RETRY
            return self.fire(state, event, msg)
        if msg.mtype in _PUT_TYPES:
            event = self._classify_put(msg, state)
            return self.fire(state, event, msg)
        raise ProtocolError(self, state, msg.mtype, msg, note="bad request type")

    def _classify_put(self, msg, state):
        entry = self.cache.lookup(msg.addr, touch=False)
        if state is L2State.X and msg.mtype in (MesiMsg.PutM, MesiMsg.PutE):
            if entry.meta["owner"] == msg.sender:
                return L2Event.PutM if msg.mtype is MesiMsg.PutM else L2Event.PutE
        if state is L2State.V and msg.mtype is MesiMsg.PutS:
            if msg.sender in entry.meta["sharers"]:
                return L2Event.PutS
        return L2Event.PutStale

    # -- transition table ----------------------------------------------------------------

    TRANSITIONS = {
        (L2State.NP, L2Event.GetS): "_np_get",
        (L2State.NP, L2Event.GetM): "_np_get",
        (L2State.NP, L2Event.GetS_Only): "_np_get",
        (L2State.V, L2Event.GetS): "_v_gets",
        (L2State.V, L2Event.GetS_Only): "_v_gets_only",
        (L2State.V, L2Event.GetM): "_v_getm",
        (L2State.X, L2Event.GetS): "_x_gets",
        (L2State.X, L2Event.GetS_Only): "_x_gets",
        (L2State.X, L2Event.GetM): "_x_getm",
        (L2State.V, L2Event.PutS): "_v_puts",
        (L2State.X, L2Event.PutM): "_x_put",
        (L2State.X, L2Event.PutE): "_x_put",
        (L2State.NP, L2Event.PutStale): "_put_stale",
        (L2State.V, L2Event.PutStale): "_put_stale",
        (L2State.X, L2Event.PutStale): "_put_stale",
        (L2State.IV, L2Event.MemData): "_iv_mem_data",
        (L2State.BUSY, L2Event.UnblockS): "_busy_unblock",
        (L2State.BUSY, L2Event.UnblockX): "_busy_unblock",
        (L2State.BUSY, L2Event.CopyBack): "_busy_copyback",
        (L2State.EV_ACK, L2Event.InvAck): "_ev_ack",
        (L2State.EV_ACK, L2Event.CopyBack): "_ev_ack_copyback",
        (L2State.EV_DATA, L2Event.CopyBackInv): "_ev_data",
        (L2State.V, L2Event.Replacement): "_v_repl",
        (L2State.X, L2Event.Replacement): "_x_repl",
    }
    # Reachable only via a misbehaving accelerator behind Transactional
    # XG (Section 3.2.2 tolerance); excluded from baseline coverage.
    COVERAGE_EXEMPT = frozenset({(L2State.EV_ACK, L2Event.CopyBack)})

    # -- request handlers ----------------------------------------------------------

    def _np_get(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, L2State.IV, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["needs_slot"] = True
        tbe.meta["op"] = msg.mtype
        self.stats.inc("l2_misses")
        self.sim.schedule(self.memory.latency, self._mem_data_arrived, addr)
        return CONSUMED

    def _mem_data_arrived(self, addr):
        tbe = self.tbes.lookup(addr)
        synthetic = Message(L2Event.MemData, addr, sender="memory", dest=self.name)
        synthetic.data = self.memory.read(addr)
        self.fire(tbe.state, L2Event.MemData, synthetic)
        self.request_wakeup()

    def _iv_mem_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, L2State.V, data=msg.data)
        entry.meta["sharers"] = set()
        entry.meta["owner"] = None
        tbe.meta["needs_slot"] = False
        op = tbe.meta["op"]
        if op is MesiMsg.GetM:
            self._send(
                MesiMsg.DataM,
                addr,
                tbe.requestor,
                "response",
                data=entry.data.copy(),
                ack_count=0,
            )
        elif op is MesiMsg.GetS_Only:
            self._send(MesiMsg.DataS, addr, tbe.requestor, "response", data=entry.data.copy())
        else:  # GetS with no sharers: grant E
            self._send(MesiMsg.DataE, addr, tbe.requestor, "response", data=entry.data.copy())
        tbe.state = L2State.BUSY
        return CONSUMED

    def _v_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        if not entry.meta["sharers"]:
            if entry.dirty:
                # Dirty-migration grant: hand the dirty block over in M.
                self._send(
                    MesiMsg.DataM,
                    addr,
                    msg.sender,
                    "response",
                    data=entry.data.copy(),
                    dirty=True,
                    ack_count=0,
                )
                self.stats.inc("l2_dirty_grants")
            else:
                self._send(
                    MesiMsg.DataE, addr, msg.sender, "response", data=entry.data.copy()
                )
        else:
            self._send(MesiMsg.DataS, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_gets_only(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(MesiMsg.DataS, addr, msg.sender, "response", data=entry.data.copy())
        return CONSUMED

    def _v_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        to_invalidate = entry.meta["sharers"] - {msg.sender}
        for sharer in sorted(to_invalidate):
            self._send(MesiMsg.Inv, addr, sharer, "forward", requestor=msg.sender)
        self._send(
            MesiMsg.DataM,
            addr,
            msg.sender,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=len(to_invalidate),
        )
        self.stats.inc("l2_invalidations", len(to_invalidate))
        return CONSUMED

    def _x_gets(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            # Only a misbehaving accelerator behind Transactional XG does
            # this; a correct L1 already holds the block.
            if not self.xg_tolerant:
                raise ProtocolError(self, L2State.X, L2Event.GetS, msg, note="GetS from owner")
            self.note_protocol_anomaly("GetS from current owner", msg)
            tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                MesiMsg.DataM,
                addr,
                msg.sender,
                "response",
                data=entry.data.copy(),
                dirty=True,
                ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        tbe.meta["need_copyback"] = True
        fwd = MesiMsg.Fwd_GetS
        self._send(fwd, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    def _x_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr)
        owner = entry.meta["owner"]
        if owner == msg.sender:
            if not self.xg_tolerant:
                raise ProtocolError(self, L2State.X, L2Event.GetM, msg, note="GetM from owner")
            self.note_protocol_anomaly("GetM from current owner", msg)
            tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
            tbe.requestor = msg.sender
            tbe.meta["op"] = msg.mtype
            self._send(
                MesiMsg.DataM,
                addr,
                msg.sender,
                "response",
                data=entry.data.copy(),
                dirty=True,
                ack_count=0,
            )
            return CONSUMED
        tbe = self.tbes.allocate(addr, L2State.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        tbe.meta["op"] = msg.mtype
        self._send(MesiMsg.Fwd_GetM, addr, owner, "forward", requestor=msg.sender)
        return CONSUMED

    # -- writebacks --------------------------------------------------------------------

    def _v_puts(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.meta["sharers"].discard(msg.sender)
        self._send(MesiMsg.WBAck, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_puts_accepted")
        return CONSUMED

    def _x_put(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        entry.data = msg.data.copy()
        entry.dirty = msg.mtype is MesiMsg.PutM
        entry.meta["owner"] = None
        entry.state = L2State.V
        self._send(MesiMsg.WBAck, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_writebacks_accepted")
        return CONSUMED

    def _put_stale(self, msg):
        """A Put that raced a forward/invalidate: benign, Nack it."""
        entry = self.cache.lookup(msg.addr, touch=False)
        if entry is not None:
            entry.meta["sharers"].discard(msg.sender)
        self._send(MesiMsg.WBNack, msg.addr, msg.sender, "forward")
        self.stats.inc("l2_stale_puts")
        return CONSUMED

    # -- transaction closure ----------------------------------------------------------------

    def _busy_unblock(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.meta["got_unblock"] = True
        tbe.meta["unblock_exclusive"] = msg.mtype is MesiMsg.UnblockX
        self._maybe_close(msg.addr)
        return CONSUMED

    def _busy_copyback(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        if not tbe.meta.get("need_copyback"):
            # Buggy accelerator wrote back instead of acking an Inv
            # (Section 3.2.2): ack the requestor on its behalf.
            if not self.xg_tolerant:
                raise ProtocolError(
                    self, L2State.BUSY, L2Event.CopyBack, msg, note="unexpected copyback"
                )
            self.note_protocol_anomaly("copyback instead of InvAck; acking requestor", msg)
            self._send(MesiMsg.InvAck, addr, tbe.requestor, "response")
            return CONSUMED
        entry.data = msg.data.copy()
        entry.dirty = msg.dirty
        entry.meta["sharers"].add(msg.sender)
        entry.meta["owner"] = None
        tbe.meta["got_copyback"] = True
        self._maybe_close(addr)
        return CONSUMED

    def _maybe_close(self, addr):
        tbe = self.tbes.lookup(addr)
        if tbe.meta.get("need_copyback") and not tbe.meta.get("got_copyback"):
            return
        if not tbe.meta.get("got_unblock"):
            return
        entry = self.cache.lookup(addr, touch=False)
        if tbe.meta["unblock_exclusive"]:
            entry.meta["sharers"] = set()
            entry.meta["owner"] = tbe.requestor
            entry.state = L2State.X
            entry.dirty = False
        else:
            entry.meta["sharers"].add(tbe.requestor)
            if entry.meta["owner"] is None:
                entry.state = L2State.V
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- inclusive evictions --------------------------------------------------------------------

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
        tbe = self.tbes.allocate(addr, L2State.EV_ACK, now=self.sim.tick)
        tbe.acks_needed = len(sharers)
        for sharer in sorted(sharers):
            self._send(MesiMsg.Inv, addr, sharer, "forward", requestor=self.name)
        self.stats.inc("l2_recall_invs", len(sharers))
        return CONSUMED

    def _x_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, L2State.EV_DATA, now=self.sim.tick)
        self._send(MesiMsg.Recall, addr, entry.meta["owner"], "forward")
        self.stats.inc("l2_recalls")
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
        """Ack/Data equivalence on eviction Invs (Section 3.2.2 tolerance).

        A buggy accelerator answered an eviction Inv with data; count it
        as the ack and ignore the untrusted payload.
        """
        if not self.xg_tolerant:
            raise ProtocolError(
                self, L2State.EV_ACK, L2Event.CopyBack, msg, note="data on eviction Inv"
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
