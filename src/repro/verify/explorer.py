"""Exhaustive concrete-state reachability explorer.

Where :mod:`repro.verify.model` proves the XG<->accelerator *interface*
correct on an abstract single-address automaton, this module enumerates
the state space of the **real** simulator: actual controllers, compiled
dispatch tables, TBEs, the XG mirror, pooled messages — everything.

The trick is turning a discrete-event simulator into a guarded-action
transition system:

* both networks' ``send`` is shadowed per-instance so every message is
  **parked** instead of delivered — the in-flight channel contents
  become explicit explorer state;
* a *step* is one nondeterministic choice: deliver one parked message
  (ordered lanes expose only their oldest message; the unordered host
  net exposes all), or issue a load/store on an idle sequencer;
* after each step the simulator **settles**: deterministic continuations
  (memory latency callbacks, sequencer completions, wakeups) drain until
  the only remaining events are beyond the settle horizon — probe
  timeouts are pushed past it by a huge ``accel_timeout``, so a settled
  state is uniquely determined by the choice sequence;
* states are canonically hashed from logical snapshots
  (:mod:`repro.coherence.snapshot`) minimized under **symmetry** — CPU
  core permutation and address renaming;
* every state is checked: the XG error log must stay empty (a correct
  accelerator must never trip G0-G2), quiescent states must satisfy
  :func:`repro.testing.invariants.check_all` (single writer, value
  consistency, mirror consistency), non-quiescent states must have a
  deliverable message (deadlock freedom), and parked channels are
  bounded.

A frontier node is its choice path from the reset state plus the
enabled actions read off it while it was live. Nodes are expanded by
exact **save/restore** (:mod:`repro.sim.image`): one harness per serial
run or shard job resets to its root image, replays the node's path once,
saves the state, and derives each child as *restore + one action*.
Paths keep frontier slices picklable, so the BFS fans out over the
campaign executor (:func:`repro.eval.campaign.run_campaign`) with
byte-identical visited-set digests for any worker count, and every
counterexample is rebuilt by :func:`replay_path` on a fresh simulator,
so it is a replayable trace by construction.
"""

import hashlib
from dataclasses import replace as dc_replace
from itertools import permutations
from time import perf_counter

from repro.coherence.controller import ProtocolError
from repro.coherence.snapshot import snap_message
from repro.eval.campaign import CampaignJob, run_campaign, shard_evenly
from repro.host.config import AccelOrg, HostProtocol, SystemConfig
from repro.host.system import build_system
from repro.sim.image import copy_value
from repro.sim.simulator import DeadlockError
from repro.testing.invariants import InvariantError, check_all
from repro.xg.interface import XGVariant

#: Block-aligned addresses the explorer drives (block size 64). Chosen
#: so the integers cannot collide with small protocol counters inside a
#: snapshot — address renaming must be a total bijection over every int
#: it touches.
ADDRESS_POOL = (0x40, 0x80)

#: Every store writes the same value regardless of core or address, so
#: data blocks never break core-permutation or address-renaming symmetry.
STORE_VALUE = 0x5A

#: Settle horizon in ticks: deterministic continuations (memory reads,
#: response latencies, network-free wakeups) all land well within this;
#: the XG probe timeout is configured orders of magnitude beyond it.
SETTLE_GAP = 1 << 16

#: Probe timeout for explorer cells — far past the settle horizon, so a
#: timeout can never fire mid-exploration and G2c paths stay out of the
#: transition relation (they are fault-model behavior, not interface
#: behavior).
EXPLORER_ACCEL_TIMEOUT = 1 << 30

#: Bound on simultaneously parked (in-flight) messages; a run past this
#: is an unbounded-channel violation, mirroring the abstract model's
#: ``_CHANNEL_BOUND``.
DEFAULT_CHANNEL_BOUND = 32

HOSTS = {
    "mesi": HostProtocol.MESI,
    "hammer": HostProtocol.HAMMER,
    "mesif": HostProtocol.MESIF,
}

VARIANTS = {
    "full_state": XGVariant.FULL_STATE,
    "transactional": XGVariant.TRANSACTIONAL,
}


class ExplorationError(RuntimeError):
    """The explorer itself failed (bad replay, settle runaway, shard crash)."""


#: Registry of named per-state checks: ``name -> fn(harness) -> str | None``.
#: Names (not callables) cross process boundaries with frontier shards.
CHECKS = {}


def register_check(name, fn):
    """Register a named per-state check usable via ``check=name``."""
    CHECKS[name] = fn
    return fn


def _check_accel_never_owns(harness):
    """Deliberately FALSE invariant used to exercise the counterexample
    pipeline end to end: a correct accelerator *does* reach E/M, so the
    explorer must find a replayable trace that violates this quickly."""
    for cache in harness.system.accel_caches:
        array = getattr(cache, "cache", None)
        if array is None:
            continue
        for entry in array.entries():
            if getattr(entry.state, "name", "") in ("E", "M"):
                return (f"{cache.name} holds {entry.addr:#x} in "
                        f"{entry.state.name} (demo invariant)")
    return None


register_check("demo_accel_never_owns", _check_accel_never_owns)


def cell_config(host="mesi", variant="full_state", addresses=1, n_cpus=2):
    """The small concrete config one explorer cell drives.

    Single-set single-way L1s make replacements reachable with two
    addresses; the shared L2 gets one extra way so *its* evictions stay
    out of scope (they multiply the space without touching the XG link).
    """
    return SystemConfig(
        host=HOSTS[host],
        org=AccelOrg.XG,
        xg_variant=VARIANTS[variant],
        accel_levels=1,
        n_cpus=n_cpus,
        n_accel_cores=1,
        n_accelerators=1,
        cpu_l1_sets=1,
        cpu_l1_assoc=1,
        shared_l2_sets=1,
        shared_l2_assoc=2 if addresses > 1 else 1,
        accel_l1_sets=1,
        accel_l1_assoc=1,
        accel_timeout=EXPLORER_ACCEL_TIMEOUT,
        deadlock_threshold=None,
        invariant_interval=0,
        trace_depth=0,
        seed=0,
    )


class _ParkedMessage:
    __slots__ = ("net", "port", "msg", "lane")

    def __init__(self, net, port, msg):
        self.net = net
        self.port = port
        self.msg = msg
        # FIFO lane the real network would clamp (Network.send orders
        # per (sender, dest) when ordered=True)
        self.lane = (net.name, msg.sender, msg.dest)


class ExplorerHarness:
    """One live simulator instance with explorer control installed."""

    def __init__(self, cell, channel_bound=DEFAULT_CHANNEL_BOUND):
        self.cell = dict(cell)
        self.addresses = list(ADDRESS_POOL[: self.cell.get("addresses", 1)])
        self.channel_bound = channel_bound
        self.config = cell_config(**self.cell)
        self.system = build_system(self.config)
        self.sim = self.system.sim
        self.parked = []
        for net in (self.system.host_net, self.system.accel_net):
            self._install_park(net)
        self._symmetries = self._build_symmetries()
        #: rendered texts per symmetry, keyed by (part name, repr(value));
        #: lives as long as this harness (one shard job or explore_cell)
        self._text_memo = {}
        self._settle()
        self._root_image = self.save_state()

    # -- network parking ------------------------------------------------------

    def _install_park(self, net):
        parked = self.parked
        sim = self.sim

        def park_send(msg, port, delay=0, _net=net):
            parked.append(_ParkedMessage(_net, port, msg))
            return sim.tick + 1

        # Instance attribute shadows the bound method; ``broadcast``
        # routes through ``self.send`` so fan-out parks per-copy too.
        net.send = park_send

    # -- deterministic settle -------------------------------------------------

    def _settle(self):
        sim = self.sim
        for _ in range(100_000):
            tick = sim.events.peek_tick()
            if tick is None or tick - sim.tick > SETTLE_GAP:
                return
            sim.run(max_ticks=tick, final_check=False)
        raise ExplorationError("settle did not converge within 100000 rounds")

    # -- fork by exact save/restore ------------------------------------------

    def save_state(self):
        """Image of the current settled state (see :mod:`repro.sim.image`).

        A settled state has no event inside the settle horizon, so the
        simulator (clock, RNG, far-future probe timeouts), every
        component, the memory and the parked channels are the whole
        state. One memo spans all of them, so an object referenced from
        two places stays one object.
        """
        memo = {}
        return (
            self.sim.save_state(memo),
            tuple([comp.save_state(memo) for comp in self.sim.components]),
            self.system.memory.save_state(memo),
            tuple([(parked.net, parked.port, copy_value(parked.msg, memo))
                   for parked in self.parked]),
        )

    def restore_state(self, image):
        """Put this harness back into the state ``image`` was saved from."""
        memo = {}
        sim_image, components, memory, parked = image
        # the queue first: it attaches the event copies TBEs point at
        self.sim.restore_state(sim_image, memo)
        for comp, saved in zip(self.sim.components, components):
            comp.restore_state(saved, memo)
        self.system.memory.restore_state(memory, memo)
        # in place: the park_send closures append to this list
        self.parked[:] = [_ParkedMessage(net, port, copy_value(msg, memo))
                          for net, port, msg in parked]

    def reset(self):
        """Back to the reset state this harness settled into when built."""
        self.restore_state(self._root_image)

    # -- choice enumeration ---------------------------------------------------

    def enabled_actions(self):
        """Every nondeterministic choice from the current settled state."""
        actions = []
        for index, seq in enumerate(self.system.sequencers):
            if seq.outstanding:
                continue  # one op in flight per core bounds the space
            for addr in self.addresses:
                actions.append(("issue", index, "load", addr))
                actions.append(("issue", index, "store", addr))
        seen_lanes = set()
        for index, parked in enumerate(self.parked):
            if parked.net.ordered:
                if parked.lane in seen_lanes:
                    continue  # FIFO lane: only the oldest is deliverable
                seen_lanes.add(parked.lane)
            actions.append((
                "deliver", index,
                parked.msg.sender, parked.msg.dest,
                getattr(parked.msg.mtype, "name", str(parked.msg.mtype)),
            ))
        return actions

    def apply(self, action):
        """Execute one choice, then settle. Raises on a stale replay."""
        action = tuple(action)
        kind = action[0]
        if kind == "issue":
            _, seq_index, op, addr = action
            seq = self.system.sequencers[seq_index]
            if seq.outstanding:
                raise ExplorationError(f"replay divergence: {seq.name} busy")
            if op == "load":
                seq.load(addr)
            elif op == "store":
                seq.store(addr, STORE_VALUE)
            else:
                raise ExplorationError(f"unknown op {op!r}")
        elif kind == "deliver":
            index = action[1]
            if index >= len(self.parked):
                raise ExplorationError("replay divergence: parked index gone")
            parked = self.parked.pop(index)
            msg = parked.msg
            if len(action) > 3 and (msg.sender, msg.dest) != action[2:4]:
                raise ExplorationError(
                    f"replay divergence: parked[{index}] is "
                    f"{msg.sender}->{msg.dest}, trace says "
                    f"{action[2]}->{action[3]}")
            dest = parked.net._endpoints[msg.dest]
            dest.deliver(parked.port, self.sim.tick + 1, msg)
        else:
            raise ExplorationError(f"unknown action kind {kind!r}")
        self._settle()

    # -- state predicates -----------------------------------------------------

    def is_quiescent(self):
        """No parked messages, pending work, open TBEs, or stalls."""
        if self.parked:
            return False
        for seq in self.system.sequencers:
            if seq.outstanding:
                return False
        for comp in self.sim.components:
            if comp.next_pending_tick() is not None:
                return False
            tbes = getattr(comp, "tbes", None)
            if tbes is not None and len(tbes):
                return False
            stalled = getattr(comp, "stalled_count", None)
            if stalled is not None and comp.stalled_count():
                return False
        return True

    def state_problems(self, check=None, quiescent=None):
        """All safety-check failures of the current state (empty = clean).

        ``quiescent`` is :meth:`is_quiescent` when the caller already has it.
        """
        problems = []
        for log in self.system.error_logs:
            if len(log):
                record = log.errors[0]
                problems.append(
                    f"XG guarantee violated: {record.guarantee.name} "
                    f"addr={record.addr:#x}: {record.description}")
        if len(self.parked) > self.channel_bound:
            problems.append(
                f"channel bound exceeded: {len(self.parked)} parked "
                f"messages > {self.channel_bound}")
        if quiescent is None:
            quiescent = self.is_quiescent()
        if quiescent:
            try:
                check_all(self.system)
            except InvariantError as exc:
                problems.append(f"quiescent invariant violated: {exc}")
        if check is not None:
            fn = CHECKS.get(check)
            if fn is None:
                raise ExplorationError(f"unknown check {check!r}")
            message = fn(self)
            if message:
                problems.append(f"check {check!r} failed: {message}")
        return problems

    # -- coverage / projection harvest ---------------------------------------

    def covered_pairs(self):
        """Fired transitions so far, grouped by controller type."""
        out = {}
        for comp in self.system.controllers():
            pairs = out.setdefault(comp.CONTROLLER_TYPE, set())
            pairs.update(comp.covered_transitions())
        return out

    def transition_relation(self):
        """Declared transitions, grouped by controller type."""
        out = {}
        for comp in self.system.controllers():
            pairs = out.setdefault(comp.CONTROLLER_TYPE, set())
            pairs.update(comp.transition_relation())
        return out

    def link_projection(self):
        """(accel L1 state, mirror state) letter pairs per address.

        The concrete counterpart of the abstract model's ``(accel,
        mirror)`` fields — the differential test requires every pair seen
        here to be reachable in :mod:`repro.verify.model`. Empty for
        TRANSACTIONAL cells (no mirror to project).
        """
        pairs = set()
        for xg, caches, _accel_l2 in self.system.xg_groups:
            if xg.mirror is None:
                continue
            for addr in self.addresses:
                accel = "I"
                for cache in caches:
                    array = getattr(cache, "cache", None)
                    if array is None:
                        continue
                    entry = array.lookup(addr, touch=False)
                    if entry is not None:
                        accel = getattr(entry.state, "name", str(entry.state))
                    tbes = getattr(cache, "tbes", None)
                    if tbes is not None and addr in tbes:
                        accel = "B"  # request in flight: the abstract transient
                mirror_entry = xg.mirror.get(addr)
                mirror = "I" if mirror_entry is None else mirror_entry.accel_state
                pairs.add((accel, mirror))
        return pairs

    # -- canonical hashing ----------------------------------------------------

    def _build_symmetries(self):
        """Every ``(name_map, addr_map)`` pair: CPU-core renamings (as
        exact-string maps) times address permutations, identity included."""
        seqs = [seq.name for seq in self.system.cpu_seqs]
        caches = [cache.name for cache in self.system.cpu_caches]
        symmetries = []
        for perm in permutations(range(len(seqs))):
            name_map = {}
            for source, target in enumerate(perm):
                if source == target:
                    continue
                name_map[seqs[source]] = seqs[target]
                name_map[caches[source]] = caches[target]
            for addr_perm in permutations(self.addresses):
                symmetries.append(
                    (name_map, dict(zip(self.addresses, addr_perm))))
        return symmetries

    def snapshot(self):
        """Logical full-system state as plain data (no ticks, no uids)."""
        components = {}
        for comp in self.sim.components:
            hook = getattr(comp, "snapshot_state", None)
            if hook is not None:
                state = hook()
                if state:
                    components[comp.name] = state
        ordered_lanes = {}
        unordered = []
        for parked in self.parked:
            desc = (parked.net.name, parked.port, snap_message(parked.msg))
            if parked.net.ordered:
                ordered_lanes.setdefault(parked.lane, []).append(desc)
            else:
                unordered.append(desc)
        return {
            "components": components,
            "memory": {
                addr: bytes(self.system.memory.peek(addr).to_bytes())
                for addr in self.addresses
            },
            # FIFO lanes keep their order; the unordered channel is a
            # multiset, so sort it into a canonical sequence
            "lanes": {lane: tuple(msgs) for lane, msgs in ordered_lanes.items()},
            "bag": tuple(sorted(unordered, key=repr)),
        }

    def canonical(self):
        """Canonical state text: min over core and address renamings.

        Byte for byte ``min(_canonical_text(snapshot, *symmetry))``, but
        each component (name and state) and each of ``bag``, ``lanes``
        and ``memory`` is rendered under every symmetry only the first
        time its value is seen; later states reuse the texts. Per
        symmetry, the component items are then sorted and joined.
        """
        snap = self.snapshot()
        symmetries = self._symmetries
        memo = self._text_memo

        def texts(part, value):
            memo_key = (part, repr(value))
            rendered = memo.get(memo_key)
            if rendered is None:
                rendered = memo[memo_key] = tuple([
                    _item_text(part, value, name_map, addr_map)
                    for name_map, addr_map in symmetries])
            return rendered

        components = [texts(name, state)
                      for name, state in snap["components"].items()]
        parts = [texts(part, snap[part]) for part in ("bag", "lanes", "memory")]
        best = None
        for index in range(len(symmetries)):
            items = sorted([rendered[index] for rendered in components])
            top = [rendered[index] for rendered in parts]
            top.append(f"('components', {_dict_text(items)})")
            top.sort()
            text = _dict_text(top)
            if best is None or text < best:
                best = text
        return best

    def digest(self):
        return _sha(self.canonical())


def _canonical_text(obj, name_map, addr_map):
    """Rename a snapshot under one symmetry and render it, in one pass.

    Strings go through ``name_map`` and ints through ``addr_map``. The
    text is byte for byte the ``repr`` of the nested-tuple form: a dict
    is ``('dict', (<item texts sorted>))`` with each item ``(key,
    value)``, a list or tuple is ``('tuple', (...))``, and a 1-tuple
    keeps its trailing comma. Every subtree is rendered once; sorting
    item texts is sorting items by ``repr``.
    """
    if isinstance(obj, str):
        return repr(name_map.get(obj, obj))
    if obj is None or obj is True or obj is False:
        return repr(obj)
    if isinstance(obj, int):
        return repr(addr_map.get(obj, obj))
    if isinstance(obj, dict):
        return _dict_text(sorted([
            _item_text(key, value, name_map, addr_map)
            for key, value in obj.items()]))
    if isinstance(obj, (list, tuple)):
        return _join_text("('tuple', (", [
            _canonical_text(value, name_map, addr_map) for value in obj])
    return repr(obj)


def _item_text(key, value, name_map, addr_map):
    """One dict item, ``(key, value)``, as :func:`_canonical_text` renders it."""
    return (f"({_canonical_text(key, name_map, addr_map)}, "
            f"{_canonical_text(value, name_map, addr_map)})")


def _dict_text(item_texts):
    """A dict from its already sorted item texts."""
    return _join_text("('dict', (", item_texts)


def _join_text(head, texts):
    if len(texts) == 1:
        return f"{head}{texts[0]},))"
    return f"{head}{', '.join(texts)}))"


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def state_set_digest(visited):
    """Order-independent digest of a visited-state set.

    Serial and sharded explorations of the same cell must produce the
    same digest — the acceptance property for parallel frontiers.
    """
    return _sha("\n".join(sorted(visited)))


# -- frontier expansion (runs in campaign workers) ----------------------------


def replay_path(cell, path, channel_bound=DEFAULT_CHANNEL_BOUND):
    """Rebuild the state at the end of ``path`` on a fresh simulator."""
    harness = ExplorerHarness(cell, channel_bound=channel_bound)
    for action in path:
        harness.apply(action)
    return harness


#: Wall-clock phases of node expansion, in the order ``--progress``
#: prints them. Timings travel on shard records only: never in results.
PHASES = ("replay", "restore", "apply+settle", "canonical", "checks")


def _expand_paths(cell, nodes, check=None, channel_bound=DEFAULT_CHANNEL_BOUND,
                  harness=None):
    """Campaign shard runner: expand each frontier node to its children.

    A node is ``[path, actions, quiescent]``: its choice path from reset
    plus what was read off it while it was live as a child. Every node
    of the shard is expanded on one harness (``harness``, or one built
    here). Returns plain picklable records; the parent BFS merges them in
    submission order, so sharding never changes the result.
    """
    if harness is None:
        harness = ExplorerHarness(cell, channel_bound=channel_bound)
    return [
        _expand_one(harness, tuple(tuple(a) for a in path), actions,
                    quiescent, check)
        for path, actions, quiescent in nodes
    ]


def _expand_one(harness, path, actions, quiescent, check):
    """Check and hash each child of one node.

    The node is rebuilt once: the harness is reset to its root image,
    the node's path is replayed and the result saved. Each child is then
    that image restored plus one action (the first child skips the
    restore: the harness is already in the saved state). The node itself
    was checked, hashed and harvested while it was a child (or is the
    root, done in :func:`explore_cell`). A counterexample is rebuilt by
    :func:`replay_path`.
    """
    cell = harness.cell
    phases = dict.fromkeys(PHASES, 0.0)
    record = {"path": [list(a) for a in path], "children": [],
              "violation": None, "covered": {}, "projections": set(),
              "phases": phases}

    def fail(reason, action=None, live=None):
        trace = path if action is None else path + (tuple(action),)
        if live is None:
            live = replay_path(cell, path, channel_bound=harness.channel_bound)
        record["violation"] = _violation(cell, trace, reason, check, live)

    if not quiescent and not any(a[0] == "deliver" for a in actions):
        fail("deadlock: non-quiescent state with no deliverable message")
        return _finish(record)
    start = perf_counter()
    harness.reset()
    for action in path:
        harness.apply(action)
    image = harness.save_state()
    mark = perf_counter()
    phases["replay"] += mark - start
    for index, action in enumerate(actions):
        if index:  # the first child starts from the replayed state itself
            harness.restore_state(image)
        now = perf_counter()
        phases["restore"] += now - mark
        mark = now
        try:
            harness.apply(action)
        except (ProtocolError, InvariantError, DeadlockError) as exc:
            fail(f"{type(exc).__name__}: {exc}", action)
            break
        now = perf_counter()
        phases["apply+settle"] += now - mark
        mark = now
        child_quiescent = harness.is_quiescent()
        problems = harness.state_problems(check, child_quiescent)
        if problems:
            fail(problems[0], action, replay_path(
                cell, path + (tuple(action),),
                channel_bound=harness.channel_bound))
            break
        _harvest(record["covered"], record["projections"], harness)
        child_actions = [list(a) for a in harness.enabled_actions()]
        now = perf_counter()
        phases["checks"] += now - mark
        mark = now
        digest = harness.digest()
        now = perf_counter()
        phases["canonical"] += now - mark
        mark = now
        record["children"].append({
            "action": list(action),
            "digest": digest,
            "quiescent": child_quiescent,
            "actions": child_actions,
        })
    return _finish(record)


def _violation(cell, path, reason, check, harness):
    text = harness.canonical()
    return {"cell": dict(cell), "path": [list(a) for a in path],
            "reason": reason, "check": check,
            "canonical": text, "digest": _sha(text)}


def _harvest(covered, projections, harness):
    for ctype, pairs in harness.covered_pairs().items():
        covered.setdefault(ctype, set()).update(tuple(pair) for pair in pairs)
    projections.update(harness.link_projection())


def _finish(record):
    # plain sorted lists: records cross process boundaries
    record["covered"] = {
        ctype: sorted(pairs) for ctype, pairs in record["covered"].items()
    }
    record["projections"] = sorted(record["projections"])
    return record


# -- the BFS driver -----------------------------------------------------------


def explore_cell(host="mesi", variant="full_state", addresses=1, n_cpus=2,
                 workers=1, max_states=100_000, check=None,
                 channel_bound=DEFAULT_CHANNEL_BOUND, progress=None):
    """Breadth-first reachability exploration of one (host × variant) cell.

    Returns a result dict: state/transition/quiescent counts, the
    order-independent ``digest`` of the visited set, the
    reachability-proven transition sets per controller type, the XG-link
    projections, and — if any check failed — a replayable
    ``counterexample`` (its ``path`` re-executes on the live simulator
    via :func:`replay_path`).

    ``workers > 1`` shards each BFS level over the campaign executor;
    results merge in submission order, so the visited-set digest is
    byte-identical to the serial run. A serial run expands every level
    on the root's harness; a sharded one builds one harness per shard.

    ``progress(depth, states, frontier, phases)`` is called after each
    level; ``phases`` maps each name in :data:`PHASES` to the
    ``perf_counter`` seconds that level spent in it, summed over shards.
    """
    cell = {"host": host, "variant": variant,
            "addresses": addresses, "n_cpus": n_cpus}
    root = ExplorerHarness(cell, channel_bound=channel_bound)
    root_digest = root.digest()
    root_quiescent = root.is_quiescent()
    visited = {root_digest}
    quiescent = {root_digest} if root_quiescent else set()
    # declared tables: the same for every state of the cell
    relation = root.transition_relation()
    reachable, projections = {}, set()
    _harvest(reachable, projections, root)
    counterexample = None
    transitions = 0
    truncated = False
    depth = 0
    problems = root.state_problems(check, root_quiescent)
    if problems:
        counterexample = _violation(cell, (), problems[0], check, root)
        depth = 1  # the root's level was examined
    frontier = [((), [list(a) for a in root.enabled_actions()], root_quiescent)]
    while frontier and counterexample is None:
        records = _expand_frontier(root, frontier, workers, check)
        next_frontier = []
        phases = dict.fromkeys(PHASES, 0.0)
        for record in records:
            for phase, seconds in record["phases"].items():
                phases[phase] += seconds
            for ctype, pairs in record["covered"].items():
                reachable.setdefault(ctype, set()).update(
                    tuple(pair) for pair in pairs)
            projections.update(tuple(pair) for pair in record["projections"])
            if record["violation"] is not None:
                counterexample = record["violation"]
                break
            transitions += len(record["children"])
            path = tuple(tuple(a) for a in record["path"])
            for child in record["children"]:
                digest = child["digest"]
                if digest in visited:
                    continue
                if len(visited) >= max_states:
                    truncated = True
                    continue
                visited.add(digest)
                if child["quiescent"]:
                    quiescent.add(digest)
                next_frontier.append((path + (tuple(child["action"]),),
                                      child["actions"], child["quiescent"]))
        depth += 1
        if progress is not None:
            progress(depth, len(visited), len(next_frontier), phases)
        frontier = next_frontier
    return {
        "cell": cell,
        "states": len(visited),
        "transitions": transitions,
        "quiescent_states": len(quiescent),
        "depth": depth,
        "digest": state_set_digest(visited),
        "reachable": {ctype: sorted(pairs) for ctype, pairs in reachable.items()},
        "relation": {ctype: sorted(pairs) for ctype, pairs in relation.items()},
        "projections": sorted(projections),
        "counterexample": counterexample,
        "truncated": truncated,
        "complete": counterexample is None and not truncated,
        "ok": counterexample is None,
    }


def _expand_frontier(harness, frontier, workers, check):
    cell, channel_bound = harness.cell, harness.channel_bound
    nodes = [[[list(a) for a in path], actions, quiescent]
             for path, actions, quiescent in frontier]
    if workers <= 1 or len(nodes) <= 1:
        return _expand_paths(cell, nodes, check, channel_bound, harness)
    shards = shard_evenly(nodes, workers * 4)
    jobs = [
        CampaignJob(
            runner=_expand_paths,
            args=(cell, shard, check, channel_bound),
            label=f"explore[{cell['host']}/{cell['variant']}] shard {index}",
        )
        for index, shard in enumerate(shards)
    ]
    records = []
    for outcome in run_campaign(jobs, workers=workers):
        if not outcome.ok:
            raise ExplorationError(
                f"frontier shard failed: {outcome.error_type}: "
                f"{outcome.error}\n{outcome.traceback}")
        records.extend(outcome.value)
    return records


# -- coverage cross-check -----------------------------------------------------


def run_cell_stress(cell, seed=0, ops=200):
    """Seeded random run on the *exact* explorer cell configuration.

    Drives the same addresses with at most one outstanding op per
    sequencer (the explorer's own issue discipline), randomized network
    latencies, and the explorer's huge probe timeout — so every
    transition this run covers must be reachable by the explorer. The
    cross-check below enforces exactly that.
    """
    import random

    config = dc_replace(
        cell_config(**cell),
        randomize_latencies=True,
        seed=seed,
        deadlock_threshold=1_000_000,
    )
    system = build_system(config)
    rng = random.Random(seed)
    addresses = list(ADDRESS_POOL[: dict(cell).get("addresses", 1)])
    budget = {"left": int(ops)}

    def issue(seq):
        if budget["left"] <= 0:
            return
        budget["left"] -= 1
        addr = rng.choice(addresses)
        done = lambda msg, data, _seq=seq: issue(_seq)
        if rng.random() < 0.5:
            seq.load(addr, done)
        else:
            seq.store(addr, STORE_VALUE, done)

    for seq in system.sequencers:
        issue(seq)
    system.run_until_drained()
    covered = {}
    for comp in system.controllers():
        pairs = covered.setdefault(comp.CONTROLLER_TYPE, set())
        pairs.update(tuple(pair) for pair in comp.covered_transitions())
    return {ctype: sorted(pairs) for ctype, pairs in covered.items()}


def cross_check_coverage(result, covered):
    """Transitions a stress run covered that exploration says are
    unreachable — must be empty, or one of the two models is wrong."""
    reachable = {
        ctype: {tuple(pair) for pair in pairs}
        for ctype, pairs in result["reachable"].items()
    }
    problems = []
    for ctype, pairs in covered.items():
        extra = {tuple(pair) for pair in pairs} - reachable.get(ctype, set())
        if extra:
            problems.append((ctype, sorted(extra)))
    return problems


def load_reachable_report(path, include_partial=False):
    """Union the reachable-transition sets out of an ``explore_report.json``.

    Returns ``{ctype: {(state, event), ...}}`` suitable for
    :func:`repro.obs.matrix.render_matrix`'s ``reachable`` parameter —
    the bridge that makes ``repro report``'s uncovered lists
    reachability-authoritative.

    Truncated (``max_states``-capped) cells are skipped unless
    ``include_partial`` — an incomplete reachable set would silently
    misclassify unexplored-but-reachable transitions as dead rows.
    """
    import json

    with open(path) as fh:
        payload = json.load(fh)
    cells = payload.get("cells", payload if isinstance(payload, list) else [payload])
    out = {}
    for result in cells:
        if result.get("truncated") and not include_partial:
            continue
        for ctype, pairs in result.get("reachable", {}).items():
            out.setdefault(ctype, set()).update(tuple(pair) for pair in pairs)
    return out


def authoritative_uncovered(result, covered):
    """The report's authoritative uncovered list: reachable minus covered.

    Declared-but-unreachable transitions are excluded — they are dead
    table rows for this cell, not coverage gaps.
    """
    covered_sets = {
        ctype: {tuple(pair) for pair in pairs}
        for ctype, pairs in covered.items()
    }
    out = {}
    for ctype, pairs in result["reachable"].items():
        missing = {tuple(pair) for pair in pairs} - covered_sets.get(ctype, set())
        if missing:
            out[ctype] = sorted(missing)
    return out
