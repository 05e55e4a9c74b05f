"""Block-size translation between a wide-block accelerator and Crossing
Guard (paper Section 2.5).

The accelerator uses blocks N x the host's 64B. On an accelerator Get the
shim requests every component host block, merges them, and answers with a
single wide DataM; writebacks are split back into component Puts. A host
Invalidate for any component invalidates the whole accelerator block; the
probed component is answered from the wide writeback and the remaining
components are flushed back with Puts (exactly the merge/split behavior
the paper sketches).

Grant policy: components are always requested with GetM, so grants are
uniformly exclusive and the accelerator sees plain DataM — the natural
fit for the wide-block streaming/decoder accelerators that motivate
larger blocks. (Mixed shared/exclusive component grants are the case the
paper notes would force Crossing Guard to hold per-component data; this
shim sidesteps it by design.) Works with the Table 1 cache in any of its
modes since DataM is a legal response to both GetS and GetM.
"""

from repro.coherence.controller import CONSUMED, STALL, CoherenceController, ProtocolError
from repro.memory.datablock import DataBlock
from repro.sim.message import Message
from repro.xg.block_translator import BlockTranslator
from repro.xg.interface import AccelMsg


class _BigBlock:
    """Shim-side record of one wide block's residency."""

    __slots__ = ("state", "pending", "data", "probed", "origin", "put_acks")

    def __init__(self, state):
        self.state = state  # fetching | held | flushing | invalidating
        self.pending = {}  # component addr -> DataBlock (fetch collection)
        self.data = None
        self.probed = None  # component addr an XG Invalidate asked about
        self.origin = None  # accel request being served
        self.put_acks = 0  # outstanding component WBAcks


class BlockShim(CoherenceController):
    """Sits between a wide-block accelerator cache and Crossing Guard."""

    CONTROLLER_TYPE = "block_shim"
    PORTS = ("fromxg", "accel_response", "accel_request")

    def __init__(self, sim, name, accel_net, xg_name, accel_block_size=256, host_block_size=64):
        self.net = accel_net
        self.xg_name = xg_name
        self.accel_name = None
        self.translator = BlockTranslator(
            host_block_size=host_block_size, accel_block_size=accel_block_size
        )
        self.blocks = {}
        super().__init__(sim, name)

    def attach_accelerator(self, accel_name):
        self.accel_name = accel_name

    # -- sends ---------------------------------------------------------------

    def _to_xg(self, mtype, addr, port, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=self.xg_name, **kw)
        self.net.send(msg, port)
        return msg

    def _to_accel(self, mtype, addr, **kw):
        msg = Message(mtype, addr, sender=self.name, dest=self.accel_name, **kw)
        self.net.send(msg, "fromxg")
        return msg

    def stall_key(self, msg):
        return self.translator.accel_align(msg.addr)

    # -- dispatch ---------------------------------------------------------------

    def handle_message(self, port, msg):
        if port == "accel_request":
            return self._accel_request(msg)
        if port == "accel_response":
            return self._accel_response(msg)
        return self._from_xg(msg)

    # -- accelerator side -----------------------------------------------------------

    def _accel_request(self, msg):
        big = self.translator.accel_align(msg.addr)
        record = self.blocks.get(big)
        if msg.mtype in (AccelMsg.GetS, AccelMsg.GetM):
            if record is not None:
                return STALL  # wide block busy: fetch/flush/probe in flight
            record = _BigBlock("fetching")
            record.origin = msg
            self.blocks[big] = record
            for component in self.translator.host_blocks_for(big):
                self._to_xg(AccelMsg.GetM, component, "accel_request")
            self.stats.inc("wide_fetches")
            return CONSUMED
        if msg.mtype in (AccelMsg.PutE, AccelMsg.PutM):
            if record is not None and record.state == "awaiting_wb":
                return self._put_probe_race(msg, big, record)
            if record is not None and record.state == "held":
                # Normal replacement of a resident wide block.
                del self.blocks[big]
                record = None
            if record is not None:
                return STALL
            record = _BigBlock("flushing")
            record.data = msg.data.copy()
            self.blocks[big] = record
            pieces = self.translator.split(big, msg.data)
            record.put_acks = len(pieces)
            for component, piece in pieces.items():
                self._to_xg(
                    AccelMsg.PutM, component, "accel_request", data=piece, dirty=True
                )
            self._to_accel(AccelMsg.WBAck, big)
            self.stats.inc("wide_writebacks")
            return CONSUMED
        raise ProtocolError(self, "shim", msg.mtype, msg, note="unsupported accel request")

    def _put_probe_race(self, msg, big, record):
        """Accelerator's wide Put crossed our wide Invalidate."""
        self._to_accel(AccelMsg.WBAck, big)
        self._finish_invalidation(big, record, msg.data.copy(), expect_trailing_ack=True)
        self.stats.inc("wide_put_inv_races")
        return CONSUMED

    def _accel_response(self, msg):
        big = self.translator.accel_align(msg.addr)
        record = self.blocks.get(big)
        if record is None:
            self.stats.inc("unexpected_accel_responses")
            return CONSUMED
        if record.state == "flushing" and record.probed == "race_done":
            # Trailing InvAck after a Put/Invalidate race: absorb, and the
            # record closes when the sibling Puts complete.
            record.probed = None
            self._maybe_close_flush(big, record)
            return CONSUMED
        if record.state != "awaiting_wb":
            self.stats.inc("unexpected_accel_responses")
            return CONSUMED
        if msg.mtype in (AccelMsg.CleanWB, AccelMsg.DirtyWB):
            self._finish_invalidation(big, record, msg.data.copy(), expect_trailing_ack=False)
        else:  # InvAck: accelerator did not hold it after all
            self._to_xg(AccelMsg.InvAck, record.probed, "accel_response")
            del self.blocks[big]
            self.wake_stalled(big)
        return CONSUMED

    def _finish_invalidation(self, big, record, data, expect_trailing_ack):
        """Answer the probed component; flush the siblings with Puts."""
        pieces = self.translator.split(big, data)
        probed = record.probed
        siblings = [c for c in pieces if c != probed]
        self._to_xg(
            AccelMsg.DirtyWB, probed, "accel_response", data=pieces[probed], dirty=True
        )
        for component in siblings:
            self._to_xg(
                AccelMsg.PutM, component, "accel_request", data=pieces[component], dirty=True
            )
        record.state = "flushing"
        record.put_acks = len(siblings)
        record.probed = "race_done" if expect_trailing_ack else None
        self._maybe_close_flush(big, record)
        # Probes for sibling components stalled while we awaited the wide
        # writeback can now be answered: their data is in flight as Puts.
        self.wake_stalled(big)

    # -- XG side -----------------------------------------------------------------------

    def _from_xg(self, msg):
        big = self.translator.accel_align(msg.addr)
        record = self.blocks.get(big)
        if msg.mtype in (AccelMsg.DataS, AccelMsg.DataE, AccelMsg.DataM):
            record.pending[self.translator.host_align(msg.addr)] = msg.data.copy()
            if len(record.pending) == self.translator.ratio:
                merged = self.translator.merge(big, record.pending)
                self._to_accel(AccelMsg.DataM, big, data=merged, dirty=True)
                record.state = "held"
                record.pending = {}
                record.origin = None
                self.wake_stalled(big)
            return CONSUMED
        if msg.mtype is AccelMsg.WBAck:
            record.put_acks -= 1
            self._maybe_close_flush(big, record)
            return CONSUMED
        if msg.mtype is AccelMsg.Invalidate:
            if record is None:
                self._to_xg(AccelMsg.InvAck, msg.addr, "accel_response")
                return CONSUMED
            if record.state == "held":
                record.state = "awaiting_wb"
                record.probed = self.translator.host_align(msg.addr)
                self._to_accel(AccelMsg.Invalidate, big)
                return CONSUMED
            if record.state == "flushing":
                # Every component Put is already in flight; XG's put/probe
                # race machinery consumes the Put as the probe's data, and
                # this ack is the trailing response it then expects.
                self._to_xg(AccelMsg.InvAck, msg.addr, "accel_response")
                return CONSUMED
            # fetching (XG never probes a component it is still granting)
            # or awaiting_wb (the data is coming; answer afterwards):
            # hold the probe until this wide block settles.
            return STALL
        raise ProtocolError(self, "shim", msg.mtype, msg, note="unexpected XG message")

    def _maybe_close_flush(self, big, record):
        if record.put_acks <= 0 and record.probed is None and record.state == "flushing":
            del self.blocks[big]
            self.wake_stalled(big)
