"""Tick-based event queue, struct-of-arrays edition.

Events are callbacks scheduled at an absolute tick. Ties are broken by
insertion order so simulation is fully deterministic for a given seed.

The queue no longer stores ``(tick, seq, Event)`` tuples. Pending work
lives in parallel *slot columns* — ``_objs[slot]`` holds either a thin
:class:`Event` handle or (on the allocation-free :meth:`schedule_cb`
path) the bare callback, and ``_gens[slot]`` is a generation counter
that makes integer cancellation tokens safe against slot reuse. Slots
are grouped into **per-tick buckets**: ``_buckets[tick]`` is a list
whose element 0 is the drain head index and whose tail is the FIFO of
slot indices scheduled for that tick, so insertion order *is* the
tie-break order and no per-event sequence number exists at all. The
heap (``_heap``) orders only bare tick integers — one per distinct
pending tick — so heap traffic is a tiny fraction of event traffic and
every comparison is a C-level int compare.

Cancellation tombstones a slot (``_objs[slot] = None``); tombstones are
dropped when their bucket drains (:meth:`peek_tick` and the run loop do
the same bookkeeping) or when they outnumber live events, at which point
all buckets are compacted — ``Component.request_wakeup`` historically
cancelled/rescheduled constantly, so unbounded garbage was a real
hazard; today that path uses in-place absorption plus token cancel and
rarely leaves tombstones at all.
"""

import heapq

from repro.sim.image import copy_value, register_copier


class Event:
    """A thin handle on a scheduled callback.

    Events are created through :meth:`EventQueue.schedule` and can be
    cancelled before they fire. Cancelling after the event fired (or
    after it was already cancelled) is a no-op.
    """

    __slots__ = ("tick", "callback", "args", "cancelled", "_queue", "_slot")

    def __init__(self, tick, callback, args, queue=None, slot=0):
        self.tick = tick
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue
        self._slot = slot

    def cancel(self):
        """Prevent the event from firing when its tick is reached."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._cancel_slot(self._slot)

    def fire(self):
        """Invoke the callback unless cancelled."""
        if not self.cancelled:
            self.callback(*self.args)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(tick={self.tick}, {state})"


def _copy_event(event, memo):
    """Image copy of a handle: same tick, callback and args, detached."""
    dup = memo.get(id(event))
    if dup is None:
        dup = memo[id(event)] = Event(
            event.tick, event.callback, copy_value(event.args, memo))
        dup.cancelled = event.cancelled
    return dup


register_copier(Event, _copy_event)


class EventQueue:
    """A deterministic per-tick-bucketed queue of scheduled callbacks.

    The public contract is unchanged from the tuple-heap version:
    :meth:`schedule` returns an :class:`Event` handle, ties at one tick
    fire in insertion order, :meth:`pop` yields events in (tick, order)
    sequence, and ``len()`` counts live (uncancelled) events. New in
    this version is the allocation-free fast path — :meth:`schedule_cb`
    /:meth:`cancel_token` — which trades the handle for an opaque int
    token and allocates nothing the garbage collector tracks.
    """

    #: Don't bother compacting queues smaller than this.
    COMPACT_MIN = 64

    def __init__(self):
        # Min-heap of bare tick ints, one (usually) per distinct pending
        # tick. A tick whose bucket was drained and recreated in the
        # same run step can appear twice; consumers skip ticks with no
        # bucket.
        self._heap = []
        # tick -> [head_index, slot, slot, ...]; entries start at 1.
        self._buckets = {}
        # Slot columns. _objs[slot] is an Event handle, a bare callback
        # (schedule_cb path), or None for a tombstone/free slot.
        self._objs = []
        self._gens = []
        self._free = []
        self._live = 0
        self._cancelled = 0
        # Tick currently being drained by Simulator.run; compaction must
        # not rebuild that bucket out from under the drain loop.
        self._draining_tick = None

    # -- slot plumbing ----------------------------------------------------

    def _free_slot(self, slot):
        self._objs[slot] = None
        self._gens[slot] += 1
        self._free.append(slot)

    # -- scheduling -------------------------------------------------------

    def schedule(self, tick, callback, *args):
        """Schedule ``callback(*args)`` at absolute ``tick``.

        Returns the :class:`Event`, which may be cancelled.
        """
        if tick < 0:
            raise ValueError(f"cannot schedule at negative tick {tick}")
        event = Event(tick, callback, args, queue=self)
        # _alloc_slot / _bucket_for inlined: this path runs per event.
        free = self._free
        if free:
            slot = free.pop()
            self._objs[slot] = event
        else:
            slot = len(self._objs)
            self._objs.append(event)
            self._gens.append(0)
        event._slot = slot
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [1, slot]
            heapq.heappush(self._heap, tick)
        else:
            bucket.append(slot)
        self._live += 1
        return event

    def schedule_cb(self, tick, callback):
        """Allocation-free path: schedule a no-args ``callback`` at ``tick``.

        Returns an opaque int token for :meth:`cancel_token`. No Event
        handle (or any other GC-tracked object) is created; this is the
        path component wakeups ride.
        """
        if tick < 0:
            raise ValueError(f"cannot schedule at negative tick {tick}")
        # _alloc_slot / _bucket_for inlined: this is the hottest schedule
        # path in the simulator (one call per message delivery).
        free = self._free
        if free:
            slot = free.pop()
            self._objs[slot] = callback
            gen = self._gens[slot]
        else:
            slot = len(self._objs)
            self._objs.append(callback)
            self._gens.append(0)
            gen = 0
        bucket = self._buckets.get(tick)
        if bucket is None:
            self._buckets[tick] = [1, slot]
            heapq.heappush(self._heap, tick)
        else:
            bucket.append(slot)
        self._live += 1
        return (gen << 20) | slot

    def cancel_token(self, token):
        """Cancel a :meth:`schedule_cb` entry. Stale tokens are no-ops."""
        slot = token & 0xFFFFF
        if slot >= len(self._gens) or self._gens[slot] != (token >> 20):
            return False
        if self._objs[slot] is None:
            return False
        self._cancel_slot(slot)
        return True

    def _cancel_slot(self, slot):
        """Tombstone a live slot; compact if mostly garbage."""
        self._objs[slot] = None
        self._gens[slot] += 1
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled * 2 > self._live + self._cancelled
            and self._live + self._cancelled >= self.COMPACT_MIN
        ):
            self._compact()

    def _compact(self):
        """Drop all tombstones, rebuild buckets and the tick heap.

        The bucket currently being drained by the run loop is left
        untouched: the loop holds a direct reference to that list and
        appends race with rebuilding it.
        """
        buckets = self._buckets
        draining = self._draining_tick
        objs = self._objs
        dead_ticks = []
        for tick, bucket in buckets.items():
            if tick == draining:
                continue
            head = bucket[0]
            live = [slot for slot in bucket[head:] if objs[slot] is not None]
            # Tombstones ahead of the head were already accounted for.
            dropped = (len(bucket) - head) - len(live)
            if dropped:
                self._cancelled -= dropped
                for slot in bucket[head:]:
                    if objs[slot] is None:
                        self._free.append(slot)
            if live:
                bucket[:] = [1]
                bucket.extend(live)
            else:
                dead_ticks.append(tick)
        for tick in dead_ticks:
            del buckets[tick]
        # In place: the run loop holds a direct reference to this list.
        heap = self._heap
        heap[:] = buckets
        heapq.heapify(heap)

    # -- draining ---------------------------------------------------------

    def pop(self):
        """Remove and return the earliest non-cancelled event, or None.

        Entries scheduled through :meth:`schedule_cb` are materialized
        into detached :class:`Event` handles here; the batched run loop
        in :class:`~repro.sim.simulator.Simulator` bypasses ``pop`` and
        fires them without that wrapper.
        """
        heap = self._heap
        buckets = self._buckets
        objs = self._objs
        while heap:
            tick = heap[0]
            bucket = buckets.get(tick)
            if bucket is None:
                heapq.heappop(heap)
                continue
            i = bucket[0]
            n = len(bucket)
            while i < n:
                slot = bucket[i]
                i += 1
                obj = objs[slot]
                if obj is None:
                    self._cancelled -= 1
                    self._gens[slot] += 1
                    self._free.append(slot)
                    continue
                bucket[0] = i
                if i >= n and tick != self._draining_tick:
                    del buckets[tick]
                    heapq.heappop(heap)
                self._free_slot(slot)
                self._live -= 1
                if type(obj) is Event:
                    # Detach so a late cancel() can't touch a reused slot.
                    obj._queue = None
                    return obj
                return Event(tick, obj, ())
            if tick != self._draining_tick:
                del buckets[tick]
            heapq.heappop(heap)
        return None

    def peek_tick(self):
        """Tick of the earliest non-cancelled event, or None if empty.

        Peeking past tombstones retires them with the same bookkeeping
        the drain paths use (generation bump, slot freed, cancelled
        count decremented) — garbage accounting is unified across
        peek/pop/compaction.
        """
        heap = self._heap
        buckets = self._buckets
        objs = self._objs
        while heap:
            tick = heap[0]
            bucket = buckets.get(tick)
            if bucket is None:
                heapq.heappop(heap)
                continue
            i = bucket[0]
            n = len(bucket)
            while i < n:
                slot = bucket[i]
                if objs[slot] is not None:
                    bucket[0] = i
                    return tick
                i += 1
                self._cancelled -= 1
                self._gens[slot] += 1
                self._free.append(slot)
            # Exhausted bucket. Never unlink the one the run loop is
            # mid-drain on — a same-tick schedule may still land in it —
            # but its heap entry can go: schedule/schedule_cb re-push the
            # tick if the bucket is ever recreated.
            if tick != self._draining_tick:
                del buckets[tick]
            else:
                bucket[0] = i
            heapq.heappop(heap)
        return None

    # -- state images (see repro.sim.image) ---------------------------------

    def save_state(self, memo):
        """The slot columns, buckets and heap, exactly.

        Exact rather than logical, so every ``schedule_cb`` token a
        component holds (``Component._wakeup_token``) still names the same
        slot and generation after a restore. Event handles are copied
        detached; :meth:`restore_state` attaches the copies of pending
        ones. Only valid between runs (no bucket mid-drain).
        """
        return (
            tuple(self._heap),
            {tick: tuple(bucket) for tick, bucket in self._buckets.items()},
            tuple([copy_value(obj, memo) for obj in self._objs]),
            tuple(self._gens),
            tuple(self._free),
            self._live,
            self._cancelled,
        )

    def restore_state(self, image, memo):
        heap, buckets, objs, gens, free, self._live, self._cancelled = image
        # in place: Simulator.run binds these lists while it drains
        self._heap[:] = heap
        self._buckets = {tick: list(bucket) for tick, bucket in buckets.items()}
        live = []
        for slot, obj in enumerate(objs):
            if type(obj) is Event:
                obj = copy_value(obj, memo)
                obj._queue = self
                obj._slot = slot
            live.append(obj)
        self._objs[:] = live
        self._gens[:] = gens
        self._free[:] = free
        self._draining_tick = None

    def __len__(self):
        return self._live

    def __bool__(self):
        return self.peek_tick() is not None
