"""MESI two-level private L1 controller.

This is the baseline the paper compares the accelerator interface against:
it must handle four host request kinds and seven response kinds and needs
six+ transient states with ack counters — exactly the complexity Table 1's
accelerator cache avoids.

Notable races handled here (Sorin et al. style):

* ``SM_AD`` + Inv — upgrade loses to a remote GetM: ack the winner, fall
  back to ``IM_AD`` and wait for fresh data;
* ``MI_A``/``EI_A`` + Fwd/Recall — replacement races a forward: serve the
  forward, enter ``II_A``, and absorb the directory's WBNack;
* ``II_A`` + Inv — after an owner downgraded during its own writeback it
  is a sharer again and must still ack invalidations.
"""

import enum

from repro.coherence.controller import CONSUMED, RETRY, STALL, ProtocolError
from repro.protocols.common import CacheControllerBase, CpuOp
from repro.protocols.mesi.messages import MesiMsg
from repro.sim.message import Message


class L1State(enum.Enum):
    I = enum.auto()
    S = enum.auto()
    E = enum.auto()
    M = enum.auto()
    IS_D = enum.auto()  # GetS issued, waiting data
    IM_AD = enum.auto()  # GetM issued, waiting data + acks
    IM_A = enum.auto()  # have data, waiting acks
    SM_AD = enum.auto()  # upgrade issued, waiting data/grant + acks
    SM_A = enum.auto()  # upgrade has grant, waiting acks
    MI_A = enum.auto()  # PutM issued, waiting WBAck
    EI_A = enum.auto()  # PutE issued, waiting WBAck
    SI_A = enum.auto()  # PutS issued, waiting WBAck
    II_A = enum.auto()  # block surrendered mid-writeback, waiting WBNack


class L1Event(enum.Enum):
    Load = enum.auto()
    Store = enum.auto()
    Replacement = enum.auto()
    DataS = enum.auto()
    DataE = enum.auto()
    DataM = enum.auto()
    InvAck = enum.auto()
    Inv = enum.auto()
    Fwd_GetS = enum.auto()
    Fwd_GetM = enum.auto()
    Recall = enum.auto()
    WBAck = enum.auto()
    WBNack = enum.auto()


_FORWARD_EVENTS = {
    MesiMsg.Inv: L1Event.Inv,
    MesiMsg.Fwd_GetS: L1Event.Fwd_GetS,
    MesiMsg.Fwd_GetM: L1Event.Fwd_GetM,
    MesiMsg.Recall: L1Event.Recall,
    MesiMsg.WBAck: L1Event.WBAck,
    MesiMsg.WBNack: L1Event.WBNack,
}

_RESPONSE_EVENTS = {
    MesiMsg.DataS: L1Event.DataS,
    MesiMsg.DataE: L1Event.DataE,
    MesiMsg.DataM: L1Event.DataM,
    MesiMsg.InvAck: L1Event.InvAck,
}

_TRANSIENT = {
    L1State.IS_D,
    L1State.IM_AD,
    L1State.IM_A,
    L1State.SM_AD,
    L1State.SM_A,
    L1State.MI_A,
    L1State.EI_A,
    L1State.SI_A,
    L1State.II_A,
}


class MesiL1(CacheControllerBase):
    """Private MESI L1 (one per CPU core)."""

    CONTROLLER_TYPE = "mesi_l1"
    PORTS = ("response", "forward", "mandatory")
    INVALID_STATE = L1State.I

    def __init__(self, sim, name, net, l2_name, num_sets=64, assoc=4, block_size=64):
        self.net = net
        self.l2_name = l2_name
        super().__init__(sim, name, num_sets=num_sets, assoc=assoc, block_size=block_size)

    # -- helpers --------------------------------------------------------------

    def _send(self, mtype, addr, dest, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=dest, **kw)
        self.net.send(msg, port)
        return msg

    def _to_l2(self, mtype, addr, port="request", **kw):
        return self._send(mtype, addr, self.l2_name, port, **kw)

    def _fill_room(self, addr):
        """Free ways in addr's set, net of fills already promised a slot."""
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

    def _finish_read(self, addr, tbe, entry):
        """Complete the CPU load recorded in the TBE."""
        self.respond_to_cpu(tbe.origin, entry.data)
        self.stats.inc("loads_completed")
        self.sim.stats_for("latency").observe(
            "l1_miss_latency", self.sim.tick - tbe.opened_at
        )

    def _finish_write(self, addr, tbe, entry):
        """Apply the CPU store recorded in the TBE and complete it."""
        op = tbe.origin
        entry.data.write_byte(self.offset(op.addr), op.value)
        entry.dirty = True
        self.respond_to_cpu(op, entry.data)
        self.stats.inc("stores_completed")
        self.sim.stats_for("latency").observe(
            "l1_miss_latency", self.sim.tick - tbe.opened_at
        )

    def _close(self, addr):
        self.tbes.deallocate(addr)
        self.wake_stalled(addr)

    # -- message dispatch ------------------------------------------------------

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
        if port == "mandatory":
            return self._handle_mandatory(msg)
        raise AssertionError(f"unknown port {port}")

    def _handle_mandatory(self, msg):
        addr = self.align(msg.addr)
        state = self.block_state(addr)
        event = L1Event.Load if msg.mtype is CpuOp.Load else L1Event.Store
        if state in _TRANSIENT:
            return STALL
        if state is L1State.I and self._fill_room(addr) <= 0:
            victim = self.stable_victim(addr)
            if victim is not None:
                synthetic = Message(event, victim.addr, sender=self.name, dest=self.name)
                self.fire(victim.state, L1Event.Replacement, synthetic)
            return RETRY
        return self.fire(state, event, msg)

    # -- transition table ----------------------------------------------------------

    TRANSITIONS = {
        # CPU requests on stable states
        (L1State.I, L1Event.Load): "_i_load",
        (L1State.I, L1Event.Store): "_i_store",
        (L1State.S, L1Event.Load): "_hit_load",
        (L1State.S, L1Event.Store): "_s_store",
        (L1State.E, L1Event.Load): "_hit_load",
        (L1State.E, L1Event.Store): "_e_store",
        (L1State.M, L1Event.Load): "_hit_load",
        (L1State.M, L1Event.Store): "_m_store",
        # replacements
        (L1State.S, L1Event.Replacement): "_s_repl",
        (L1State.E, L1Event.Replacement): "_e_repl",
        (L1State.M, L1Event.Replacement): "_m_repl",
        # data/ack responses
        (L1State.IS_D, L1Event.DataS): "_isd_data_s",
        (L1State.IS_D, L1Event.DataE): "_isd_data_e",
        (L1State.IS_D, L1Event.DataM): "_isd_data_m",
        (L1State.IM_AD, L1Event.DataM): "_imad_data_m",
        (L1State.IM_AD, L1Event.InvAck): "_count_ack",
        (L1State.IM_A, L1Event.InvAck): "_ima_ack",
        (L1State.SM_AD, L1Event.DataM): "_imad_data_m",
        (L1State.SM_AD, L1Event.InvAck): "_count_ack",
        (L1State.SM_A, L1Event.InvAck): "_ima_ack",
        (L1State.SM_AD, L1Event.Inv): "_smad_inv",
        # forwards on stable states
        (L1State.S, L1Event.Inv): "_s_inv",
        (L1State.E, L1Event.Fwd_GetS): "_owner_fwd_gets",
        (L1State.M, L1Event.Fwd_GetS): "_owner_fwd_gets",
        (L1State.E, L1Event.Fwd_GetM): "_owner_fwd_getm",
        (L1State.M, L1Event.Fwd_GetM): "_owner_fwd_getm",
        (L1State.E, L1Event.Recall): "_owner_recall",
        (L1State.M, L1Event.Recall): "_owner_recall",
        # writeback transients
        (L1State.MI_A, L1Event.WBAck): "_wb_done",
        (L1State.EI_A, L1Event.WBAck): "_wb_done",
        (L1State.SI_A, L1Event.WBAck): "_wb_done",
        (L1State.MI_A, L1Event.Fwd_GetS): "_replacing_fwd_gets",
        (L1State.EI_A, L1Event.Fwd_GetS): "_replacing_fwd_gets",
        (L1State.MI_A, L1Event.Fwd_GetM): "_replacing_fwd_getm",
        (L1State.EI_A, L1Event.Fwd_GetM): "_replacing_fwd_getm",
        (L1State.MI_A, L1Event.Recall): "_replacing_recall",
        (L1State.EI_A, L1Event.Recall): "_replacing_recall",
        (L1State.SI_A, L1Event.Inv): "_sia_inv",
        (L1State.II_A, L1Event.Inv): "_iia_inv",
        (L1State.II_A, L1Event.WBNack): "_wb_done",
    }

    # -- CPU request handlers ---------------------------------------------------

    def _i_load(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, L1State.IS_D, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        self._to_l2(MesiMsg.GetS, addr)
        self.stats.inc("l1_load_misses")
        return CONSUMED

    def _i_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, L1State.IM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.meta["needs_slot"] = True
        tbe.acks_needed = None
        self._to_l2(MesiMsg.GetM, addr)
        self.stats.inc("l1_store_misses")
        return CONSUMED

    def _hit_load(self, msg):
        entry = self.cache.lookup(msg.addr)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_load_hits")
        return CONSUMED

    def _s_store(self, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.allocate(addr, L1State.SM_AD, now=self.sim.tick)
        tbe.origin = msg
        tbe.acks_needed = None
        self._to_l2(MesiMsg.GetM, addr)
        self.stats.inc("l1_upgrade_misses")
        return CONSUMED

    def _e_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.state = L1State.M  # silent E->M upgrade
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        entry.dirty = True
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_store_hits")
        return CONSUMED

    def _m_store(self, msg):
        entry = self.cache.lookup(msg.addr)
        entry.data.write_byte(self.offset(msg.addr), msg.value)
        self.respond_to_cpu(msg, entry.data)
        self.stats.inc("l1_store_hits")
        return CONSUMED

    # -- replacements --------------------------------------------------------------

    def _s_repl(self, msg):
        addr = msg.addr
        self.tbes.allocate(addr, L1State.SI_A, now=self.sim.tick)
        self._to_l2(MesiMsg.PutS, addr)
        self.stats.inc("l1_puts")
        return CONSUMED

    def _e_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, L1State.EI_A, now=self.sim.tick)
        self._to_l2(MesiMsg.PutE, addr, data=entry.data.copy(), dirty=False)
        self.stats.inc("l1_pute")
        return CONSUMED

    def _m_repl(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self.tbes.allocate(addr, L1State.MI_A, now=self.sim.tick)
        self._to_l2(MesiMsg.PutM, addr, data=entry.data.copy(), dirty=True)
        self.stats.inc("l1_putm")
        return CONSUMED

    # -- fill responses ----------------------------------------------------------------

    def _isd_data_s(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, L1State.S, data=msg.data.copy())
        self._finish_read(addr, tbe, entry)
        self._to_l2(MesiMsg.UnblockS, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _isd_data_e(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, L1State.E, data=msg.data.copy())
        self._finish_read(addr, tbe, entry)
        self._to_l2(MesiMsg.UnblockX, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _isd_data_m(self, msg):
        # Dirty-migration grant: L2 hands over its dirty copy on a GetS.
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.allocate(addr, L1State.M, data=msg.data.copy(), dirty=True)
        self._finish_read(addr, tbe, entry)
        self._to_l2(MesiMsg.UnblockX, addr, port="response")
        self._close(addr)
        return CONSUMED

    def _imad_data_m(self, msg):
        """Data (or upgrade grant) for an outstanding GetM; covers IM_AD/SM_AD."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        tbe.data = msg.data.copy() if msg.data is not None else tbe.data
        tbe.acks_needed = msg.ack_count
        tbe.data_received = True
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(addr, tbe)
        else:
            tbe.state = L1State.IM_A if tbe.state is L1State.IM_AD else L1State.SM_A
        return CONSUMED

    def _count_ack(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.acks_received += 1
        return CONSUMED

    def _ima_ack(self, msg):
        tbe = self.tbes.lookup(msg.addr)
        tbe.acks_received += 1
        if tbe.acks_received >= tbe.acks_needed:
            self._complete_store(msg.addr, tbe)
        return CONSUMED

    def _complete_store(self, addr, tbe):
        entry = self.cache.lookup(addr, touch=False)
        if entry is None:
            entry = self.cache.allocate(addr, L1State.M, data=tbe.data)
        else:
            entry.state = L1State.M
            if tbe.data is not None:
                entry.data = tbe.data
        entry.dirty = True
        self._finish_write(addr, tbe, entry)
        self._to_l2(MesiMsg.UnblockX, addr, port="response")
        self._close(addr)

    def _smad_inv(self, msg):
        """Upgrade lost the race: ack the winner, restart as a plain GetM."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        self._send(MesiMsg.InvAck, addr, msg.requestor, "response")
        entry = self.cache.lookup(addr, touch=False)
        if entry is not None:
            self.cache.deallocate(addr)
        tbe.state = L1State.IM_AD
        tbe.meta["needs_slot"] = True
        tbe.data = None
        return CONSUMED

    # -- forwards on stable states -------------------------------------------------------

    def _s_inv(self, msg):
        addr = msg.addr
        self._send(MesiMsg.InvAck, addr, msg.requestor, "response")
        self.cache.deallocate(addr)
        return CONSUMED

    def _owner_fwd_gets(self, msg):
        """E/M owner downgrades to S; data to requestor, CopyBack to L2."""
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._send(MesiMsg.DataS, addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            MesiMsg.CopyBack, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        entry.state = L1State.S
        entry.dirty = False
        return CONSUMED

    def _owner_fwd_getm(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._send(
            MesiMsg.DataM,
            addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=0,
        )
        self.cache.deallocate(addr)
        return CONSUMED

    def _owner_recall(self, msg):
        addr = msg.addr
        entry = self.cache.lookup(addr, touch=False)
        self._to_l2(
            MesiMsg.CopyBackInv, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        self.cache.deallocate(addr)
        return CONSUMED

    # -- writeback transients ---------------------------------------------------------------

    def _wb_done(self, msg):
        addr = msg.addr
        if self.cache.lookup(addr, touch=False) is not None:
            self.cache.deallocate(addr)
        self._close(addr)
        return CONSUMED

    def _replacing_fwd_gets(self, msg):
        """Replacement raced a Fwd_GetS: serve it; our Put will be Nacked."""
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._send(MesiMsg.DataS, addr, msg.requestor, "response", data=entry.data.copy())
        self._to_l2(
            MesiMsg.CopyBack, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        tbe.state = L1State.II_A
        return CONSUMED

    def _replacing_fwd_getm(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._send(
            MesiMsg.DataM,
            addr,
            msg.requestor,
            "response",
            data=entry.data.copy(),
            dirty=entry.dirty,
            ack_count=0,
        )
        tbe.state = L1State.II_A
        return CONSUMED

    def _replacing_recall(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        entry = self.cache.lookup(addr, touch=False)
        self._to_l2(
            MesiMsg.CopyBackInv, addr, port="response", data=entry.data.copy(), dirty=entry.dirty
        )
        tbe.state = L1State.II_A
        return CONSUMED

    def _sia_inv(self, msg):
        addr = msg.addr
        tbe = self.tbes.lookup(addr)
        self._send(MesiMsg.InvAck, addr, msg.requestor, "response")
        tbe.state = L1State.II_A
        return CONSUMED

    def _iia_inv(self, msg):
        """Still a sharer on L2's books after a downgrade; keep acking."""
        self._send(MesiMsg.InvAck, msg.addr, msg.requestor, "response")
        return CONSUMED
