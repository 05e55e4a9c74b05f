"""Unit tests for the SLICC-like controller framework."""

import enum

import pytest

from repro.coherence.controller import (
    CONSUMED,
    RETRY,
    STALL,
    CoherenceController,
    ProtocolError,
)
from repro.sim.message import Message
from repro.sim.simulator import Simulator


class St(enum.Enum):
    A = 1
    B = 2


class Ev(enum.Enum):
    Go = 1
    Block = 2
    Free = 3


class _Toy(CoherenceController):
    """Single-port controller: Block stalls an address until Free."""

    CONTROLLER_TYPE = "toy"
    PORTS = ("inbox",)

    TRANSITIONS = {
        (St.A, Ev.Go): "_go",
        (St.A, Ev.Block): "_block",
        (St.A, Ev.Free): "_free",
    }

    def __init__(self, sim, name):
        self.blocked = set()
        self.processed = []
        super().__init__(sim, name)

    def handle_message(self, port, msg):
        if msg.mtype is Ev.Go and msg.addr in self.blocked:
            return STALL
        return self.fire(St.A, msg.mtype, msg)

    def _go(self, msg):
        self.processed.append(msg.addr)
        return CONSUMED

    def _block(self, msg):
        self.blocked.add(msg.addr)
        return CONSUMED

    def _free(self, msg):
        self.blocked.discard(msg.addr)
        self.wake_stalled(msg.addr)
        return CONSUMED


def _send(ctrl, mtype, addr, tick=1):
    ctrl.deliver("inbox", tick, Message(mtype, addr, dest=ctrl.name))


def test_fire_records_coverage():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Go, 0x40)
    sim.run()
    assert ctrl.coverage[(St.A, Ev.Go)] == 1
    assert (St.A, Ev.Go) in ctrl.possible_transitions()


class _ToyWithoutGo(_Toy):
    """Same toy, declaring no (A, Go) row."""

    TRANSITIONS = {
        key: name for key, name in _Toy.TRANSITIONS.items() if key != (St.A, Ev.Go)
    }


def test_undefined_transition_raises_protocol_error():
    sim = Simulator()
    ctrl = _ToyWithoutGo(sim, "toy")
    assert not ctrl.has_transition(St.A, Ev.Go)
    _send(ctrl, Ev.Go, 0x40)
    with pytest.raises(ProtocolError):
        sim.run()


def test_stall_and_wake_preserves_order():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40, tick=1)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    _send(ctrl, Ev.Go, 0x80, tick=4)  # different address: not stalled
    sim.run(final_check=False)
    assert ctrl.processed == [0x80]
    assert ctrl.stalled_count() == 2
    _send(ctrl, Ev.Free, 0x40, tick=sim.tick + 1)
    sim.run()
    assert ctrl.processed == [0x80, 0x40, 0x40]
    assert ctrl.stalled_count() == 0


def test_stall_index_wakes_only_the_freed_address():
    """Per-address stall buckets: waking one address releases exactly its
    messages, in arrival order, and the O(1) count tracks every step."""
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40, tick=1)
    _send(ctrl, Ev.Block, 0x80, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    _send(ctrl, Ev.Go, 0x80, tick=4)
    _send(ctrl, Ev.Go, 0x40, tick=5)
    _send(ctrl, Ev.Go, 0x80, tick=6)
    sim.run(final_check=False)
    assert ctrl.processed == []
    assert ctrl.stalled_count() == 4
    _send(ctrl, Ev.Free, 0x80, tick=sim.tick + 1)
    sim.run(final_check=False)
    assert ctrl.processed == [0x80, 0x80]
    assert ctrl.stalled_count() == 2
    _send(ctrl, Ev.Free, 0x40, tick=sim.tick + 1)
    sim.run()
    assert ctrl.processed == [0x80, 0x80, 0x40, 0x40]
    assert ctrl.stalled_count() == 0
    assert ctrl.stats.get("stalls") == 4


def test_diagnose_reports_stalled_messages():
    from repro.sim.simulator import DeadlockError

    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    _send(ctrl, Ev.Go, 0x40, tick=3)
    with pytest.raises(DeadlockError) as info:
        sim.run()
    report = info.value.diagnose()
    assert "stalled_msgs=2" in report


def test_dispatch_mode_legacy_matches_compiled():
    """The per-instance ``fire`` closure reproduces what the interpreted
    table lookup it replaced produced on this stall-and-wake script."""
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    assert "fire" in ctrl.__dict__
    _send(ctrl, Ev.Block, 0x40, tick=1)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    _send(ctrl, Ev.Go, 0x80, tick=3)
    _send(ctrl, Ev.Free, 0x40, tick=4)
    sim.run()
    assert ctrl.processed == [0x80, 0x40]
    assert dict(ctrl.coverage) == {
        (St.A, Ev.Block): 1, (St.A, Ev.Go): 2, (St.A, Ev.Free): 1,
    }
    assert ctrl.stats.as_dict() == {"stalls": 1}


def test_stalled_forever_is_a_deadlock():
    """Messages left in stall buffers at idle are exactly the deadlock the
    watchdog exists to catch (a wedged accelerator transaction)."""
    from repro.sim.simulator import DeadlockError

    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    _send(ctrl, Ev.Block, 0x40)
    _send(ctrl, Ev.Go, 0x40, tick=2)
    with pytest.raises(DeadlockError):
        sim.run()
    assert ctrl.oldest_pending_tick(sim.tick) is not None


class _ToyFreeExempt(_Toy):
    COVERAGE_EXEMPT = frozenset({(St.A, Ev.Free)})


def test_coverage_exempt_excluded_from_denominator():
    sim = Simulator()
    ctrl = _ToyFreeExempt(sim, "toy")
    assert ctrl.has_transition(St.A, Ev.Free)
    assert (St.A, Ev.Free) not in ctrl.possible_transitions()
    assert (St.A, Ev.Go) in ctrl.possible_transitions()


class _WakerDuringHandle(CoherenceController):
    """Regression: a handler that wakes stalled messages onto its own port
    head must not cause the just-handled message to be processed twice."""

    CONTROLLER_TYPE = "waker"
    PORTS = ("inbox",)

    def __init__(self, sim, name):
        self.log = []
        self.armed = False
        super().__init__(sim, name)

    def handle_message(self, port, msg):
        self.log.append(msg.mtype)
        if msg.mtype == "stall_me" and not self.armed:
            self.armed = True
            return STALL
        if msg.mtype == "waker":
            self.wake_stalled(msg.addr)
        return CONSUMED


def test_wake_during_handle_no_double_processing():
    sim = Simulator()
    ctrl = _WakerDuringHandle(sim, "w")
    ctrl.deliver("inbox", 1, Message("stall_me", 0x40, dest="w"))
    ctrl.deliver("inbox", 2, Message("waker", 0x40, dest="w"))
    sim.run()
    # "waker" must be consumed exactly once even though waking pushed
    # "stall_me" to the port head mid-handle (the double-pop regression).
    assert ctrl.log == ["stall_me", "waker", "stall_me"]


class _Retrier(CoherenceController):
    """RETRY blocks its own port head; an unlock on a higher-priority
    port releases it (mirrors mandatory-queue vs response-port shape)."""

    CONTROLLER_TYPE = "retrier"
    PORTS = ("control", "inbox")

    def __init__(self, sim, name):
        self.attempts = 0
        self.ready = False
        super().__init__(sim, name)

    def handle_message(self, port, msg):
        if msg.mtype == "unlock":
            self.ready = True
            return CONSUMED
        self.attempts += 1
        return CONSUMED if self.ready else RETRY


def test_retry_leaves_message_at_head():
    sim = Simulator()
    ctrl = _Retrier(sim, "r")
    ctrl.deliver("inbox", 1, Message("work", 0x0, dest="r"))
    ctrl.deliver("control", 10, Message("unlock", 0x0, dest="r"))
    sim.run(max_ticks=5, final_check=False)
    assert not ctrl.ready and ctrl.attempts >= 1
    assert len(ctrl.in_ports["inbox"]) == 1  # "work" still at head
    sim.run()
    assert ctrl.ready
    assert len(ctrl.in_ports["inbox"]) == 0


def test_note_protocol_anomaly_counted():
    sim = Simulator()
    ctrl = _Toy(sim, "toy")
    ctrl.note_protocol_anomaly("weird", None)
    assert ctrl.stats.get("protocol_anomalies") == 1
    assert len(ctrl.protocol_errors) == 1
