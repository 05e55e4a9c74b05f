"""Exact save/restore of a settled explorer state.

The explorer expands a node by restoring the node's saved image once per
child, instead of rebuilding the system and replaying the path. These
tests hold that fork to the old replay semantics:

* on random paths through every explorer cell, ``restore_state(image)``
  plus one action must match a fresh :func:`replay_path` of the same
  choices on every observable the explorer reads;
* a walk over ``vars()`` of every component, the simulator and the
  parked list must match field by field, except for a short, commented
  allowlist of history-only fields. A mutable field added later without
  save/restore support shows up here;
* everything runs with message-pool debugging on, so an image that
  aliased a live message the system then released would read poison.
"""

import enum
import random
import types
from collections import deque
from dataclasses import replace as dc_replace

import pytest

from repro.coherence.controller import CoherenceController
from repro.memory.datablock import DataBlock
from repro.sim.component import Component, MessageBuffer
from repro.sim.event import Event
from repro.sim.message import Message, set_pool_debug
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.verify import explorer
from repro.verify.explorer import ExplorerHarness, replay_path

CELLS = [
    {"host": host, "variant": variant, "addresses": 1}
    for host in ("mesi", "hammer", "mesif")
    for variant in ("full_state", "transactional")
] + [{"host": "mesi", "variant": "full_state", "addresses": 2}]

#: Fields a restore deliberately does not bring back, by attribute name.
#: Each is history or observation only; nothing reads it to decide what
#: the simulator does next.
HISTORY_FIELDS = {
    # counters and histograms, and the pre-bound sinks and per-type sink
    # caches that feed them
    "stats", "_stall_sink", "_anomaly_sink", "_issued_sink",
    "_completed_sink", "_host_msgs_sink", "_violation_sink",
    "_accel_send_sinks", "_host_send_sinks", "_accel_req_sinks",
    # Simulator: per-owner stats bags, fired-event total, out-of-band
    # monitors
    "_stats", "_events_fired", "monitors",
    # PermissionTable: lookup counter
    "lookups",
}

#: Fields holding message uids. Uids come from one global counter, so a
#: replay draws different ones; only their number is compared. (The XG's
#: dedupe history is still saved and restored exactly.)
UID_FIELDS = {"_seen_uids", "_seen_uid_ring"}

#: uid-keyed tables: compared as the multiset of their values.
UID_KEYED = {"outstanding"}


@pytest.fixture(autouse=True)
def pool_debug(monkeypatch):
    """Build every explorer system with pool debugging (poison on release)."""
    real = explorer.cell_config
    monkeypatch.setattr(
        explorer, "cell_config",
        lambda **cell: dc_replace(real(**cell), pool_debug=True))
    yield
    set_pool_debug(False)


def _plain(value):
    """A comparable, harness-independent rendering of one field value."""
    if value is None or isinstance(value, (bool, int, str, bytes, float, enum.Enum)):
        return value
    if isinstance(value, Message):
        return ("msg",) + tuple(
            _plain(getattr(value, name))
            for name in Message.__slots__ if name not in ("uid", "gen"))
    if isinstance(value, DataBlock):
        return ("block", value.to_bytes())
    if isinstance(value, MessageBuffer):
        return ("buffer", value.name, value._seq, value._front_seq,
                [(tick, seq, _plain(msg))
                 for tick, seq, msg in value._entries[value._head:]])
    if isinstance(value, Event):
        return ("event", value.tick, _plain(value.callback), _plain(value.args),
                value.cancelled, value._queue is not None, value._slot)
    if isinstance(value, (Component, Simulator, Network)):
        return ("ref", type(value).__name__, getattr(value, "name", None))
    if isinstance(value, random.Random):
        return ("rng", value.getstate())
    if isinstance(value, types.MethodType):
        return ("method", value.__func__.__qualname__,
                _plain(value.__self__) if not isinstance(
                    value.__self__, (Component, Simulator, Network))
                else getattr(value.__self__, "name", None))
    if isinstance(value, (types.FunctionType, type)):
        return ("fn", value.__qualname__)
    if isinstance(value, dict):
        return ("dict", type(value).__name__,
                sorted(((repr(_plain(k)), _plain(v)) for k, v in value.items()),
                       key=repr))
    if isinstance(value, (list, tuple, deque)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(v) for v in value), key=repr)
    return ("obj", type(value).__name__, _fields(value))


def _fields(obj):
    fields = dict(vars(obj)) if hasattr(obj, "__dict__") else {}
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if hasattr(obj, name):
                fields[name] = getattr(obj, name)
    out = {}
    for name, value in sorted(fields.items()):
        if name in HISTORY_FIELDS:
            continue
        if name in UID_FIELDS:
            out[name] = ("uids", len(value))
        elif name in UID_KEYED:
            out[name] = sorted((_plain(v) for v in value.values()), key=repr)
        else:
            out[name] = _plain(value)
    return out


def _state(harness):
    """Every field of every component, the simulator and the parked list."""
    return {
        "components": [(comp.name, _fields(comp))
                       for comp in harness.sim.components],
        "sim": _fields(harness.sim),
        "memory": _fields(harness.system.memory),
        "parked": [(p.net.name, p.port, _plain(p.msg), p.lane)
                   for p in harness.parked],
    }


def _observables(harness):
    return {
        "canonical": harness.canonical(),
        "enabled": harness.enabled_actions(),
        "quiescent": harness.is_quiescent(),
        "problems": harness.state_problems(),
        "covered": harness.covered_pairs(),
        "projection": harness.link_projection(),
        "tick": harness.sim.tick,
    }


def _assert_restored_in_place(harness):
    """Restores refill the objects construction-time closures captured."""
    for comp in harness.sim.components:
        assert tuple(comp.in_ports.values()) == comp._port_buffers
        if isinstance(comp, CoherenceController):
            captured = dict(zip(comp.fire.__code__.co_freevars,
                                (cell.cell_contents
                                 for cell in comp.fire.__closure__)))
            assert captured["coverage"] is comp.coverage
            assert all(buf is comp.in_ports[port]
                       for port, buf, _ in comp._prio_ports)
        tbes = getattr(comp, "tbes", None)
        for tbe in tbes if tbes is not None else ():
            event = tbe.meta.get("timeout_event")
            if event is not None and event._queue is not None:
                # the TBE's handle is the one queued, so cancel() works
                assert event._queue is harness.sim.events
                assert harness.sim.events._objs[event._slot] is event


def _queued_events(harness):
    return sum(1 for obj in harness.sim.events._objs if type(obj) is Event)


def _pick_step(rng, actions, script):
    """The next step of a walk.

    A scripted walk issues its ops in order and always delivers the
    oldest parked message first: an accelerator store, then a CPU store
    to the same block, reaches an XG probe with a queued timeout. Random
    walks mostly deliver, so they finish transactions too.
    """
    delivers = [a for a in actions if a[0] == "deliver"]
    if script is not None:
        if delivers:
            return delivers[0]
        if script:
            return script.pop(0)
    if delivers and rng.random() < 0.75:
        return rng.choice(delivers)
    return rng.choice(actions)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: (
    f"{c['host']}-{c['variant']}-{c['addresses']}"))
def test_restore_then_apply_matches_fresh_replay(cell):
    rng = random.Random(repr(sorted(cell.items())))
    harness = ExplorerHarness(cell)
    events_seen = 0
    addr = explorer.ADDRESS_POOL[0]
    accel = len(harness.system.sequencers) - 1
    for walk in range(3):
        script = ([("issue", accel, "store", addr), ("issue", 0, "store", addr)]
                  if walk == 0 else None)
        harness.reset()
        path = []
        for _step in range(14):
            actions = harness.enabled_actions()
            image = harness.save_state()
            for action in rng.sample(actions, min(3, len(actions))):
                harness.restore_state(image)
                _assert_restored_in_place(harness)
                harness.apply(action)
                fresh = replay_path(cell, path + [action])
                assert _observables(harness) == _observables(fresh), (
                    f"restore diverged from replay after {path + [action]}")
                assert _state(harness) == _state(fresh), (
                    f"field mismatch after {path + [action]}")
                events_seen += _queued_events(harness)
            step = _pick_step(rng, actions, script)
            harness.restore_state(image)
            harness.apply(step)
            path.append(step)
    # some walk reached an XG probe, so timeout-event relinking was checked
    assert events_seen


def test_image_survives_repeated_restores():
    """Restoring never hands the image's own objects to the system."""
    harness = ExplorerHarness(CELLS[0])
    harness.apply(("issue", 0, "store", explorer.ADDRESS_POOL[0]))
    image = harness.save_state()
    digests = set()
    for _ in range(3):
        for action in harness.enabled_actions():
            harness.restore_state(image)
            harness.apply(action)
            digests.add(harness.digest())
        harness.restore_state(image)
        parked = [p.msg for p in harness.parked]
        saved = [msg for _net, _port, msg in image[3]]
        assert parked and not any(a is b for a in parked for b in saved)
    assert len(digests) == len(harness.enabled_actions())
