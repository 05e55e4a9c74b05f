"""Crossing Guard host port for the Hammer-like exclusive MOESI protocol.

To the Hammer host, Crossing Guard appears as one more broadcast-probed
L1/L2 cache (Section 3.2.1): it counts ``n_peers + 1`` responses for its
own Gets, answers every broadcast probe, and performs the two-phase
writeback dance. The interface has no O state, so when the host forwards
a GetS to an accelerator-owned block XG invalidates the accelerator,
forwards the writeback data to the requestor, and *relinquishes ownership*
with a Put to the directory — exactly the flow the paper describes for
the merged-GetS case.
"""

from repro.coherence.controller import CONSUMED, ProtocolError
from repro.memory.datablock import DataBlock
from repro.protocols.hammer.messages import HammerMsg
from repro.xg.base import CrossingGuardBase
from repro.xg.interface import AccelMsg


class HammerCrossingGuard(CrossingGuardBase):
    """Crossing Guard appearing to the host as a Hammer cache."""

    CONTROLLER_TYPE = "xg_hammer"

    def __init__(self, sim, name, host_net, accel_net, dir_name, n_peers, **kw):
        self.dir_name = dir_name
        self.n_peers = n_peers
        super().__init__(sim, name, host_net, accel_net, **kw)
        # compiled response-accumulator dispatch: one bound handler per
        # message type, mirroring the controllers' flattened tables
        self._collect_dispatch = {
            HammerMsg.PeerDataExcl: self._collect_peer_data_excl,
            HammerMsg.PeerData: self._collect_peer_data,
            HammerMsg.MemData: self._collect_mem_data,
            HammerMsg.PeerAck: self._collect_peer_ack,
        }

    def _to_dir(self, mtype, addr, port="request", **kw):
        return self.send_to_host(mtype, addr, self.dir_name, port, **kw)

    # -- host messages ---------------------------------------------------------------

    def handle_host_message(self, port, msg):
        addr = self.align(msg.addr)
        tbe = self.tbes.lookup(addr)
        if port == "response":
            return self._collect(msg, addr, tbe)
        return self._host_forward(msg, addr, tbe)

    # -- Get response counting -----------------------------------------------------------

    def _collect(self, msg, addr, tbe):
        if tbe is None or tbe.meta.get("kind") != "accel_get":
            raise ProtocolError(self, "xg", msg.mtype, msg, note="response with no get open")
        tbe.responses_received += 1
        handler = self._collect_dispatch.get(msg.mtype)
        if handler is None:
            raise ProtocolError(self, "xg", msg.mtype, msg, note="bad host response")
        handler(msg, tbe)
        if msg.shared_hint:
            tbe.meta["shared"] = True
        if tbe.responses_received >= self.n_peers + 1:
            self._complete_get(addr, tbe)
        return CONSUMED

    def _collect_peer_data_excl(self, msg, tbe):
        tbe.meta["excl_transfer"] = True
        tbe.data = msg.data.copy()
        tbe.dirty = False
        tbe.data_received = True

    def _collect_peer_data(self, msg, tbe):
        tbe.data = msg.data.copy()
        tbe.dirty = msg.dirty
        tbe.data_received = True
        tbe.meta["peer_data"] = True

    def _collect_mem_data(self, msg, tbe):
        if not tbe.data_received:
            tbe.data = msg.data.copy()
            tbe.dirty = False

    def _collect_peer_ack(self, msg, tbe):
        pass

    def _complete_get(self, addr, tbe):
        accel_req = tbe.meta["accel_req"]
        if accel_req is AccelMsg.GetM:
            grant = "M"
            unblock = HammerMsg.UnblockM
        elif tbe.meta.get("excl_transfer"):
            grant = "E"
            unblock = HammerMsg.UnblockE
        elif tbe.meta.get("peer_data") or tbe.meta.get("shared") or tbe.meta.get("gets_only"):
            grant = "S"
            unblock = HammerMsg.UnblockS
        else:
            grant = "E"
            unblock = HammerMsg.UnblockE
        self._to_dir(unblock, addr, port="response")
        self.finish_accel_get(addr, grant, tbe.data, dirty=tbe.dirty)

    # -- probes and writeback handshakes ---------------------------------------------------

    def _host_forward(self, msg, addr, tbe):
        mtype = msg.mtype
        if mtype is HammerMsg.WBAck:
            if tbe is None or tbe.meta.get("kind") != "accel_put":
                raise ProtocolError(self, "xg", mtype, msg, note="WBAck with no put open")
            data = tbe.data if tbe.data is not None else DataBlock(self.block_size)
            self._to_dir(
                HammerMsg.WBData, addr, port="response", data=data.copy(), dirty=tbe.dirty
            )
            self.finish_accel_put(addr)
            return CONSUMED
        if mtype is HammerMsg.WBNack:
            if tbe is None or tbe.meta.get("kind") != "accel_put":
                raise ProtocolError(self, "xg", mtype, msg, note="WBNack with no put open")
            self.finish_accel_put(addr)
            return CONSUMED
        if mtype not in (HammerMsg.Fwd_GetS, HammerMsg.Fwd_GetM, HammerMsg.Fwd_GetS_Only):
            raise ProtocolError(self, "xg", mtype, msg, note="bad forward")
        if tbe is not None:
            kind = tbe.meta.get("kind")
            if kind == "accel_get":
                # We do not hold the block yet; probes from older
                # transactions get a plain ack (host L1 transient behavior).
                self.send_to_host(HammerMsg.PeerAck, addr, msg.requestor, "response")
                return CONSUMED
            if kind == "accel_put":
                return self._put_race_probe(msg, addr, tbe)
            if tbe.meta.get("race_resolved"):
                # Previous probe answered via a racing Put; only the
                # trailing InvAck is pending — we hold nothing.
                self.send_to_host(HammerMsg.PeerAck, addr, msg.requestor, "response")
                return CONSUMED
            raise ProtocolError(self, kind, mtype, msg, note="probe during open probe")
        return self._stable_probe(msg, addr)

    def _put_race_probe(self, msg, addr, tbe):
        """Probe raced our pending writeback: serve data like MI_A.

        Once a Fwd_GetM takes the block, the writeback is stale (the
        directory will Nack it) and we are II_A: later probes get a plain
        ack, never the stale data again.
        """
        if tbe.meta.get("relinquished"):
            self.send_to_host(HammerMsg.PeerAck, addr, msg.requestor, "response")
            return CONSUMED
        data = tbe.data if tbe.data is not None else DataBlock(self.block_size)
        if msg.mtype is HammerMsg.Fwd_GetM:
            self.send_to_host(
                HammerMsg.PeerData, addr, msg.requestor, "response",
                data=data.copy(), dirty=tbe.dirty,
            )
            tbe.meta["relinquished"] = True
        else:
            self.send_to_host(
                HammerMsg.PeerData, addr, msg.requestor, "response",
                data=data.copy(), dirty=tbe.dirty, shared_hint=True,
            )
        self.stats.inc("put_forward_races")
        return CONSUMED

    def _stable_probe(self, msg, addr):
        mtype = msg.mtype
        entry = self.mirror_entry(addr)
        if self.is_full_state:
            if entry is None:
                self.send_to_host(HammerMsg.PeerAck, addr, msg.requestor, "response")
                self.stats.inc("probes_answered_locally")
                return CONSUMED
            if mtype in (HammerMsg.Fwd_GetS, HammerMsg.Fwd_GetS_Only):
                if entry.retained_data is not None:
                    # XG is the owner; serve without touching the accel.
                    self.send_to_host(
                        HammerMsg.PeerData, addr, msg.requestor, "response",
                        data=entry.retained_data.copy(), dirty=entry.retained_dirty,
                        shared_hint=True,
                    )
                    self.stats.inc("probes_answered_locally")
                    return CONSUMED
                if entry.accel_state == "S":
                    # Sharers keep their copies on a GetS.
                    self.send_to_host(
                        HammerMsg.PeerAck, addr, msg.requestor, "response", shared_hint=True
                    )
                    self.stats.inc("probes_answered_locally")
                    return CONSUMED
            if mtype is HammerMsg.Fwd_GetM and entry.accel_state == "I":
                # Only XG's retained copy exists; hand it over.
                data = entry.retained_data or DataBlock(self.block_size)
                self.send_to_host(
                    HammerMsg.PeerData, addr, msg.requestor, "response",
                    data=data.copy(), dirty=entry.retained_dirty,
                )
                self.mirror_remove(addr)
                self.stats.inc("probes_answered_locally")
                return CONSUMED
            needs_data = entry.accel_state == "O" or entry.retained_data is not None
        else:
            if not self.permissions.allows_read(addr):
                # Side-channel protection: never consult the accelerator
                # for blocks it has no permissions for.
                self.send_to_host(HammerMsg.PeerAck, addr, msg.requestor, "response")
                self.stats.inc("probes_answered_locally")
                return CONSUMED
            needs_data = False  # response counting tolerates either form
        context = {"mtype": mtype, "requestor": msg.requestor}
        self.start_probe(addr, needs_data, context)
        return CONSUMED

    # -- base hooks --------------------------------------------------------------------------

    def host_issue_get(self, addr, want_m, gets_only, tbe):
        tbe.responses_received = 0
        if want_m:
            self._to_dir(HammerMsg.GetM, addr)
        elif gets_only:
            tbe.meta["gets_only"] = True
            self._to_dir(HammerMsg.GetS_Only, addr)
        else:
            self._to_dir(HammerMsg.GetS, addr)

    def host_issue_put(self, addr, put_type, tbe):
        if put_type is AccelMsg.PutS:
            # Hammer evicts S blocks silently; the explicit PutS is pure
            # interface overhead (measured in E8) unless suppressed.
            if not self.suppress_puts:
                self._to_dir(HammerMsg.PutS, addr)
                self.stats.inc("unnecessary_puts_forwarded")
            else:
                self.stats.inc("puts_suppressed")
            self.finish_accel_put(addr)
            return
        if put_type is AccelMsg.PutE:
            self._to_dir(HammerMsg.PutE, addr)
        else:
            self._to_dir(HammerMsg.PutM, addr)

    def host_answer_probe(self, addr, tbe, got_wb, data, dirty):
        context = tbe.meta["context"]
        mtype = context["mtype"]
        requestor = context["requestor"]
        if not got_wb:
            self.send_to_host(HammerMsg.PeerAck, addr, requestor, "response")
            return
        payload = data if data is not None else DataBlock(self.block_size)
        if mtype is HammerMsg.Fwd_GetM:
            self.send_to_host(
                HammerMsg.PeerData, addr, requestor, "response",
                data=payload.copy(), dirty=dirty,
            )
            return
        # Fwd_GetS / Fwd_GetS_Only on an owned block: serve the requestor,
        # then relinquish ownership with a writeback (Section 3.2.1 —
        # the interface cannot express O to the accelerator).
        self.send_to_host(
            HammerMsg.PeerData, addr, requestor, "response",
            data=payload.copy(), dirty=dirty, shared_hint=True,
        )
        tbe.meta["relinquish"] = (payload.copy(), dirty)

    def host_relinquish(self, addr, data, dirty):
        """Write the block back after serving a GetS for an owned block."""
        tbe = self.tbes.allocate(addr, "accel_put", now=self.sim.tick)
        tbe.meta["kind"] = "accel_put"
        tbe.meta["put_type"] = AccelMsg.PutM
        tbe.data = data
        tbe.dirty = dirty
        self._to_dir(HammerMsg.PutM, addr)
        self.stats.inc("relinquish_puts")
