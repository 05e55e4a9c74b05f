"""MESIF private L1 controller.

Differences from the MESI L1 (`repro.protocols.mesi.l1`):

* stable state **F**: a clean shared copy designated to answer
  ``Fwd_GetS_F`` probes with a cache-to-cache ``DataF`` transfer; the
  requestor inherits F (Intel behavior) and this cache drops to S;
* S and F replace **silently** — no PutS, no SI_A transient — so an
  ``Inv`` (or a stale ``Fwd_GetS_F``) can legitimately arrive in I and is
  answered with InvAck / FNack.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.protocols.mesif.messages import MesifMsg
from repro.sim.message import Message


class FL1State(enum.Enum):
    I = enum.auto()
    S = enum.auto()
    F = enum.auto()
    E = enum.auto()
    M = enum.auto()
    IS_D = enum.auto()
    IM_AD = enum.auto()
    IM_A = enum.auto()
    SM_AD = enum.auto()
    SM_A = enum.auto()
    MI_A = enum.auto()
    EI_A = enum.auto()
    II_A = enum.auto()


class FL1Event(enum.Enum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    DataS = enum.auto()
    DataF = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()
    InvAck = enum.auto()
    Inv = enum.auto()
    Fwd_GetS_F = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Recall = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


_FORWARD_EVENTS = {
    MesifMsg.Inv: FL1Event.Inv,
    MesifMsg.Fwd_GetS_F: FL1Event.Fwd_GetS_F,
    MesifMsg.Fwd_GetS: FL1Event.Fwd_GetS,
    MesifMsg.Fwd_GetM: FL1Event.Fwd_GetM,
    MesifMsg.Recall: FL1Event.Recall,
    MesifMsg.WBAck: FL1Event.WBAck,
    MesifMsg.WBNack: FL1Event.WBNack,
}
_RESPONSE_EVENTS = {
    MesifMsg.DataS: FL1Event.DataS,
    MesifMsg.DataF: FL1Event.DataF,
    MesifMsg.DataE: FL1Event.DataE,
    MesifMsg.DataM: FL1Event.DataM,
    MesifMsg.InvAck: FL1Event.InvAck,
}
_TRANSIENT = {
    FL1State.IS_D,
    FL1State.IM_AD,
    FL1State.IM_A,
    FL1State.SM_AD,
    FL1State.SM_A,
    FL1State.MI_A,
    FL1State.EI_A,
    FL1State.II_A,
}


class MesifL1(CacheControllerBase):
    """Private MESIF L1 (one per CPU core)."""

    CONTROLLER_TYPE = "mesif_l1"
    PORTS = ("response", "forward", "mandatory")
    INVALID_STATE = FL1State.I

    def __init__(self, sim, name, net, l2_name, num_sets=64, assoc=4, block_size=64):
        self.net = net
        self.l2_name = l2_name
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers ----------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _to_l2(self, mtype, addr, port="request", **kw):
        return self._send(mtype, addr, self.l2_name, port, **kw)

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

    def _close(self, addr):
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- dispatch ---------------------------------------------------------------------

    def handle_message(self, port, msg):
        # Monomorphic fast path: data/ack responses dominate steady-state
        # traffic, so resolve them on the first compare.
        if port == "response":
            return self.fire(
                self.block_state(msg.addr), _RESPONSE_EVENTS[msg.mtype], msg
            )
        if port == "forward":
            return self.fire(
                self.block_state(msg.addr), _FORWARD_EVENTS[msg.mtype], msg
            )
        return self._handle_mandatory(msg)

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        event = FL1Event.Load if msg.mtype is CpuOp.Load else FL1Event.Store
        if state in _TRANSIENT:
            return STALL
        if state is FL1State.I and self._fill_room(addr) <= 0:
            victim = self.stable_victim(addr)
            if victim is not None:
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim.state, FL1Event.Replacement, synthetic)
                if self._fill_room(addr) > 0:
                    return self.fire(state, event, msg)
            return RETRY
        return self.fire(state, event, msg)

    # -- transition table ----------------------------------------------------------------

    TRANSITIONS = {
        (FL1State.I, FL1Event.Load): "_i_load",
        (FL1State.I, FL1Event.Store): "_i_store",
        (FL1State.S, FL1Event.Load): "_hit_load",
        (FL1State.S, FL1Event.Store): "_shared_store",
        (FL1State.S, FL1Event.Replacement): "_silent_evict",
        (FL1State.S, FL1Event.Inv): "_shared_inv",
        (FL1State.F, FL1Event.Load): "_hit_load",
        (FL1State.F, FL1Event.Store): "_shared_store",
        (FL1State.F, FL1Event.Replacement): "_silent_evict",
        (FL1State.F, FL1Event.Inv): "_shared_inv",
        (FL1State.E, FL1Event.Load): "_hit_load",
        (FL1State.E, FL1Event.Store): "_e_store",
        (FL1State.M, FL1Event.Load): "_hit_load",
        (FL1State.M, FL1Event.Store): "_m_store",
        (FL1State.E, FL1Event.Replacement): "_e_repl",
        (FL1State.M, FL1Event.Replacement): "_m_repl",
        # silent-eviction consequences: stale records at the L2 mean an
        # Inv / F-forward can arrive in I or in a fill transient (the
        # paper's "ISI" scenario: invalidation before the data). The data
        # we are waiting on belongs to a LATER transaction than the Inv
        # (blocking L2), so ack-and-stay is sufficient.
        (FL1State.I, FL1Event.Inv): "_stale_inv",
        (FL1State.I, FL1Event.Fwd_GetS_F): "_fnack",
        (FL1State.S, FL1Event.Fwd_GetS_F): "_fnack",  # F moved on; defensive
        (FL1State.IS_D, FL1Event.Inv): "_stale_inv",
        (FL1State.IS_D, FL1Event.Fwd_GetS_F): "_fnack",
        (FL1State.IM_AD, FL1Event.Inv): "_stale_inv",
        (FL1State.IM_AD, FL1Event.Fwd_GetS_F): "_fnack",
        (FL1State.IM_A, FL1Event.Inv): "_stale_inv",
        (FL1State.IM_A, FL1Event.Fwd_GetS_F): "_fnack",
        # the F responder role
        (FL1State.F, FL1Event.Fwd_GetS_F): "_serve_f",
        (FL1State.SM_AD, FL1Event.Fwd_GetS_F): "_serve_f",
        # fills
        (FL1State.IS_D, FL1Event.DataS): "_fill_s",
        (FL1State.IS_D, FL1Event.DataF): "_fill_f",
        (FL1State.IS_D, FL1Event.DataE): "_fill_e",
        (FL1State.IS_D, FL1Event.DataM): "_fill_m",
        (FL1State.IM_AD, FL1Event.DataM): "_getm_data",
        (FL1State.IM_AD, FL1Event.InvAck): "_count_ack",
        (FL1State.IM_A, FL1Event.InvAck): "_ack_maybe_done",
        (FL1State.SM_AD, FL1Event.DataM): "_getm_data",
        (FL1State.SM_AD, FL1Event.InvAck): "_count_ack",
        (FL1State.SM_A, FL1Event.InvAck): "_ack_maybe_done",
        (FL1State.SM_AD, FL1Event.Inv): "_smad_inv",
        # owner forwards
        (FL1State.E, FL1Event.Fwd_GetS): "_owner_fwd_gets",
        (FL1State.M, FL1Event.Fwd_GetS): "_owner_fwd_gets",
        (FL1State.E, FL1Event.Fwd_GetM): "_owner_fwd_getm",
        (FL1State.M, FL1Event.Fwd_GetM): "_owner_fwd_getm",
        (FL1State.E, FL1Event.Recall): "_owner_recall",
        (FL1State.M, FL1Event.Recall): "_owner_recall",
        # writeback transients
        (FL1State.MI_A, FL1Event.WBAck): "_wb_done",
        (FL1State.EI_A, FL1Event.WBAck): "_wb_done",
        (FL1State.MI_A, FL1Event.Fwd_GetS): "_replacing_fwd_gets",
        (FL1State.MI_A, FL1Event.Fwd_GetM): "_replacing_fwd_getm",
        (FL1State.MI_A, FL1Event.Recall): "_replacing_recall",
        (FL1State.EI_A, FL1Event.Fwd_GetS): "_replacing_fwd_gets",
        (FL1State.EI_A, FL1Event.Fwd_GetM): "_replacing_fwd_getm",
        (FL1State.EI_A, FL1Event.Recall): "_replacing_recall",
        (FL1State.II_A, FL1Event.WBNack): "_wb_done",
        (FL1State.II_A, FL1Event.Inv): "_iia_inv",
    }
    COVERAGE_EXEMPT = frozenset({
        (FL1State.S, FL1Event.Fwd_GetS_F),
        # Only GetS_Only is answered with DataS, and only Crossing Guard
        # issues GetS_Only — a host L1 never receives it.
        (FL1State.IS_D, FL1Event.DataS),
    })

    # -- CPU ops -----------------------------------------------------------------------

    def _i_load(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, FL1State.IS_D, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        self._to_l2(MesifMsg.GetS, addr)
        return CONSUMED

    def _i_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, FL1State.IM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        tbe.acks_needed = None
        self._to_l2(MesifMsg.GetM, addr)
        return CONSUMED

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        return CONSUMED

    def _shared_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, FL1State.SM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.acks_needed = None
        self._to_l2(MesifMsg.GetM, addr)
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = FL1State.M
        entry.dirty = True
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        return CONSUMED

    def _m_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        return CONSUMED

    # -- replacements -------------------------------------------------------------------------

    def _silent_evict(self, msg):
        self.cache.deallocate(msg.addr)
        self.stats.inc("silent_sf_evictions")
        return CONSUMED

    def _e_repl(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self.tbes.allocate(msg.addr, FL1State.EI_A, now=self.sim.tick)
        self._to_l2(MesifMsg.PutE, msg.addr, data=entry.data.copy(), dirty=False)
        return CONSUMED

    def _m_repl(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self.tbes.allocate(msg.addr, FL1State.MI_A, now=self.sim.tick)
        self._to_l2(MesifMsg.PutM, msg.addr, data=entry.data.copy(), dirty=True)
        return CONSUMED

    # -- invalidations and the F role ---------------------------------------------------------------

    def _shared_inv(self, msg):
        self._send(MesifMsg.InvAck, msg.addr, msg.requestor, "response")
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _stale_inv(self, msg):
        # We dropped the block silently; the L2's sharer list is
        # conservative by design. Just ack.
        self._send(MesifMsg.InvAck, msg.addr, msg.requestor, "response")
        self.stats.inc("stale_invs_acked")
        return CONSUMED

    def _fnack(self, msg):
        self._to_l2(MesifMsg.FNack, msg.addr, port="response")
        self.stats.inc("fnacks")
        return CONSUMED

    def _serve_f(self, msg):
        """Forward clean data cache-to-cache; the requestor inherits F."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            MesifMsg.DataF, msg.addr, msg.requestor, "response", data=entry.data.copy()
        )
        if entry.state is FL1State.F:
            entry.state = FL1State.S
        self.stats.inc("f_transfers")
        return CONSUMED

    def _iia_inv(self, msg):
        self._send(MesifMsg.InvAck, msg.addr, msg.requestor, "response")
        return CONSUMED

    # -- fills ------------------------------------------------------------------------------------------

    def _fill(self, msg, state, dirty=False):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, state, data=msg.data.copy(), dirty=dirty)
        self.respond_to_cpu(tbe.origin, entry.data)
        unblock = {
            FL1State.S: MesifMsg.UnblockS,
            FL1State.F: MesifMsg.UnblockF,
            FL1State.E: MesifMsg.UnblockX,
            FL1State.M: MesifMsg.UnblockX,
        }[state]
        self._to_l2(unblock, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _fill_s(self, msg):
        return self._fill(msg, FL1State.S)

    def _fill_f(self, msg):
        return self._fill(msg, FL1State.F)

    def _fill_e(self, msg):
        return self._fill(msg, FL1State.E)

    def _fill_m(self, msg):
        return self._fill(msg, FL1State.M, dirty=True)

    def _getm_data(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.data = msg.data.copy() if msg.data is not None else tbe.data
        tbe.acks_needed = msg.ack_count
        tbe.data_received = True
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(addr, tbe)
        else:
            tbe.state = (
                FL1State.IM_A if tbe.state is FL1State.IM_AD else FL1State.SM_A
            )
        return CONSUMED

    def _count_ack(self, msg):
        self.tbes.lookup(msg.addr).acks_received += 1
        return CONSUMED

    def _ack_maybe_done(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.acks_received += 1
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(msg.addr, tbe)
        return CONSUMED

    def _complete_store(self, addr, tbe):
        entry = self.cache.lookup(addr, touch=False)
        if entry is None:
            entry = self.cache.allocate(addr, FL1State.M, data=tbe.data)
        else:
            entry.state = FL1State.M
            if tbe.data is not None:
                entry.data = tbe.data
        entry.dirty = True
        op = tbe.origin
        entry.data.write_byte(self.offset(op.addr), op.value)
        self.respond_to_cpu(op, entry.data)
        self._to_l2(MesifMsg.UnblockX, addr, port="response")
        self._close(addr)

    def _smad_inv(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        self._send(MesifMsg.InvAck, addr, msg.requestor, "response")
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        tbe.state = FL1State.IM_AD
        tbe.meta["needs_slot"] = True
        tbe.data = None
        return CONSUMED

    # -- owner forwards --------------------------------------------------------------------------------------

    def _owner_fwd_gets(self, msg):
        """Owner downgrade: data to the requestor (who takes F), dirty
        data back to the L2."""
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(MesifMsg.DataF, msg.addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            MesifMsg.CopyBack, msg.addr, port="response",
            data=entry.data.copy(), dirty=entry.dirty,
        )
        entry.state = FL1State.S
        entry.dirty = False
        return CONSUMED

    def _owner_fwd_getm(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            MesifMsg.DataM, msg.addr, msg.requestor, "response",
            data=entry.data.copy(), dirty=entry.dirty, ack_count=0,
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    def _owner_recall(self, msg):
        entry = self.cache.lookup(msg.addr, touch=False)
        self._to_l2(
            MesifMsg.CopyBackInv, msg.addr, port="response",
            data=entry.data.copy(), dirty=entry.dirty,
        )
        self.cache.deallocate(msg.addr)
        return CONSUMED

    # -- writeback transients ------------------------------------------------------------------------------------

    def _wb_done(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self._close(addr)
        return CONSUMED

    def _replacing_fwd_gets(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(MesifMsg.DataF, msg.addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            MesifMsg.CopyBack, msg.addr, port="response",
            data=entry.data.copy(), dirty=entry.dirty,
        )
        tbe.state = FL1State.II_A
        return CONSUMED

    def _replacing_fwd_getm(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        entry = self.cache.lookup(msg.addr, touch=False)
        self._send(
            MesifMsg.DataM, msg.addr, msg.requestor, "response",
            data=entry.data.copy(), dirty=entry.dirty, ack_count=0,
        )
        tbe.state = FL1State.II_A
        return CONSUMED

    def _replacing_recall(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        entry = self.cache.lookup(msg.addr, touch=False)
        self._to_l2(
            MesifMsg.CopyBackInv, msg.addr, port="response",
            data=entry.data.copy(), dirty=entry.dirty,
        )
        tbe.state = FL1State.II_A
        return CONSUMED
