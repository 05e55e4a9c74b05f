"""Hammer-like directory + memory controller.

Keeps no sharer list — only the current owner (exactly enough state to
detect stale Puts and Nack them, as the paper notes gem5's hammer
directory does). Every Get is broadcast to all other caches and answered
by memory as well; the directory blocks per address until the requestor's
Unblock (or the writeback's data) closes the transaction.
"""

import enum

from repro.coherence.controller import CONSUMED, STALL, CoherenceController, ProtocolError
from repro.coherence.tbe import TBETable
from repro.memory.datablock import block_align
from repro.protocols.hammer.messages import HammerMsg
from repro.sim.message import Message


class DirState(enum.Enum):
    IDLE = enum.auto()  # no transaction open for the block
    BUSY = enum.auto()  # Get broadcast out, waiting Unblock
    WB = enum.auto()  # WBAck sent, waiting WBData


class DirEvent(enum.Enum):
    GetS = enum.auto()
    GetM = enum.auto()
    GetS_Only = enum.auto()
    PutOwner = enum.auto()  # Put from the tracked owner
    PutStale = enum.auto()  # Put from anyone else
    UnblockS = enum.auto()
    UnblockE = enum.auto()
    UnblockM = enum.auto()
    WBData = enum.auto()


_GET_EVENTS = {
    HammerMsg.GetS: DirEvent.GetS,
    HammerMsg.GetM: DirEvent.GetM,
    HammerMsg.GetS_Only: DirEvent.GetS_Only,
}
_FWD_FOR_GET = {
    HammerMsg.GetS: HammerMsg.Fwd_GetS,
    HammerMsg.GetM: HammerMsg.Fwd_GetM,
    HammerMsg.GetS_Only: HammerMsg.Fwd_GetS_Only,
}
_UNBLOCK_EVENTS = {
    HammerMsg.UnblockS: DirEvent.UnblockS,
    HammerMsg.UnblockE: DirEvent.UnblockE,
    HammerMsg.UnblockM: DirEvent.UnblockM,
}


class HammerDirectory(CoherenceController):
    """Blocking, owner-tracking directory for the Hammer-like protocol."""

    CONTROLLER_TYPE = "hammer_directory"
    PORTS = ("response", "request")

    def __init__(self, sim, name, net, memory, cache_names=(), block_size=64):
        self.net = net
        self.memory = memory
        self.block_size = block_size
        self.cache_names = list(cache_names)
        self.owners = {}
        self.tbes = TBETable(name=name)
        super().__init__(sim, name)

    def add_cache(self, name):
        self.cache_names.append(name)

    # -- helpers -------------------------------------------------------------------

    def align(self, addr):
        return block_align(addr, self.block_size)

    def owner_of(self, addr):
        return self.owners.get(self.align(addr))

    def save_state(self, memo):
        """Controller image plus the owner map."""
        image = super().save_state(memo)
        image["owners"] = dict(self.owners)
        return image

    def restore_state(self, image, memo):
        super().restore_state(image, memo)
        self.owners = dict(image["owners"])

    def snapshot_extra(self):
        """The owner map is directory state the base snapshot can't see."""
        return {"owners": dict(self.owners)}

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _state(self, addr):
        tbe = self.tbes.lookup(addr)
        return tbe.state if tbe is not None else DirState.IDLE

    # -- dispatch ---------------------------------------------------------------------

    def handle_message(self, port, msg):
        addr = msg.addr
        state = self._state(addr)
        # Monomorphic fast path: unblock/writeback responses dominate
        # steady-state traffic, so resolve them on the first compare.
        if port == "response":
            event = _UNBLOCK_EVENTS.get(msg.mtype)
            if event is not None:
                return self.fire(state, event, msg)
            if msg.mtype is HammerMsg.WBData:
                return self.fire(state, DirEvent.WBData, msg)
            raise ProtocolError(self, state, msg.mtype, msg, note="bad response type")
        # request port
        if msg.mtype is HammerMsg.PutS:
            # Hammer permits silent S eviction; an explicit PutS (only
            # Crossing Guard sends one) is pure overhead — sink it.
            self.stats.inc("puts_sunk")
            return CONSUMED
        if state is not DirState.IDLE:
            return STALL
        if msg.mtype in _GET_EVENTS:
            return self.fire(state, _GET_EVENTS[msg.mtype], msg)
        if msg.mtype in (HammerMsg.PutM, HammerMsg.PutE):
            if self.owner_of(addr) == msg.sender:
                return self.fire(state, DirEvent.PutOwner, msg)
            return self.fire(state, DirEvent.PutStale, msg)
        raise ProtocolError(self, state, msg.mtype, msg, note="bad request type")

    # -- transition table -----------------------------------------------------------------

    TRANSITIONS = {
        (DirState.IDLE, DirEvent.GetS): "_get",
        (DirState.IDLE, DirEvent.GetM): "_get",
        (DirState.IDLE, DirEvent.GetS_Only): "_get",
        (DirState.IDLE, DirEvent.PutOwner): "_put_owner",
        (DirState.IDLE, DirEvent.PutStale): "_put_stale",
        (DirState.BUSY, DirEvent.UnblockS): "_unblock_shared",
        (DirState.BUSY, DirEvent.UnblockE): "_unblock_exclusive",
        (DirState.BUSY, DirEvent.UnblockM): "_unblock_exclusive",
        (DirState.WB, DirEvent.WBData): "_wb_data",
    }

    # -- handlers ------------------------------------------------------------------------

    def _get(self, msg):
        addr = msg.addr
        tbe = self.tbes.allocate(addr, DirState.BUSY, now=self.sim.tick)
        tbe.requestor = msg.sender
        fwd_type = _FWD_FOR_GET[msg.mtype]
        for cache in self.cache_names:
            if cache == msg.sender:
                continue
            self._send(fwd_type, addr, cache, "forward", requestor=msg.sender)
        self.stats.inc("broadcasts")
        self.stats.inc("probes_sent", max(0, len(self.cache_names) - 1))
        self.sim.schedule(self.memory.latency, self._mem_read_done, addr, msg.sender)
        return CONSUMED

    def _mem_read_done(self, addr, requestor):
        data = self.memory.read(addr)
        self._send(HammerMsg.MemData, addr, requestor, "response", data=data)

    def _unblock_shared(self, msg):
        # Owner unchanged: an M owner that served a GetS is now O and still
        # responsible for the dirty data.
        self.tbes.deallocate(msg.addr)
        self.wake_stalled(msg.addr)
        return CONSUMED

    def _unblock_exclusive(self, msg):
        self.owners[self.align(msg.addr)] = msg.sender
        self.tbes.deallocate(msg.addr)
        self.wake_stalled(msg.addr)
        return CONSUMED

    def _put_owner(self, msg):
        tbe = self.tbes.allocate(msg.addr, DirState.WB, now=self.sim.tick)
        tbe.requestor = msg.sender
        self._send(HammerMsg.WBAck, msg.addr, msg.sender, "forward")
        return CONSUMED

    def _put_stale(self, msg):
        """Put that lost a race (or a bogus one): Nack, no state change."""
        self._send(HammerMsg.WBNack, msg.addr, msg.sender, "forward")
        self.stats.inc("stale_puts")
        return CONSUMED

    def _wb_data(self, msg):
        addr = msg.addr
        if msg.dirty:
            self.memory.write(addr, msg.data)
        self.owners.pop(self.align(addr), None)
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)
        return CONSUMED
