"""Transient Buffer Entries (TBEs, a.k.a. MSHRs).

A TBE holds everything a controller knows about one in-flight transaction:
the transient state, accumulated data, ack/response counts, and who asked.
The TBE table bounds how many transactions a controller can have open —
Crossing Guard sizes its table to bound the state a misbehaving accelerator
can pin (Section 2.3.2).
"""

from repro.sim.image import copy_value, image_slots


@image_slots
class TBE:
    """State for one open transaction on one block address."""

    __slots__ = (
        "addr",
        "state",
        "data",
        "dirty",
        "acks_needed",
        "acks_received",
        "responses_received",
        "data_received",
        "requestor",
        "origin",
        "permission",
        "opened_at",
        "meta",
    )

    def __init__(self, addr, state, opened_at=0):
        self.addr = addr
        self.state = state
        self.data = None
        self.dirty = False
        self.acks_needed = 0
        self.acks_received = 0
        self.responses_received = 0
        self.data_received = False
        self.requestor = None
        self.origin = None
        self.permission = None
        self.opened_at = opened_at
        self.meta = {}

    @property
    def all_acks_in(self):
        return self.acks_received >= self.acks_needed

    def __repr__(self):
        state = getattr(self.state, "name", self.state)
        return (
            f"TBE(addr={self.addr:#x}, state={state}, "
            f"acks={self.acks_received}/{self.acks_needed})"
        )


class TBETable:
    """Bounded map from block address to :class:`TBE`."""

    def __init__(self, capacity=None, name=""):
        self.capacity = capacity
        self.name = name
        self._entries = {}
        self.high_water = 0

    def allocate(self, addr, state, now=0):
        """Open a transaction; raises if one is already open or table full."""
        if addr in self._entries:
            raise ValueError(f"{self.name}: TBE already open for {addr:#x}")
        if self.is_full():
            raise ValueError(f"{self.name}: TBE table full ({self.capacity})")
        tbe = TBE(addr, state, opened_at=now)
        self._entries[addr] = tbe
        self.high_water = max(self.high_water, len(self._entries))
        return tbe

    def lookup(self, addr):
        """Open TBE for ``addr`` or None."""
        return self._entries.get(addr)

    def deallocate(self, addr):
        """Close the transaction (KeyError if not open)."""
        return self._entries.pop(addr)

    def is_full(self):
        return self.capacity is not None and len(self._entries) >= self.capacity

    def __contains__(self, addr):
        return addr in self._entries

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def addresses(self):
        return list(self._entries)

    def save_state(self, memo):
        """Open TBEs (copied, see repro.sim.image) and the high-water mark."""
        return (copy_value(self._entries, memo), self.high_water)

    def restore_state(self, image, memo):
        entries, self.high_water = image
        self._entries = copy_value(entries, memo)

    def __repr__(self):
        return f"TBETable({self.name!r}, open={len(self._entries)}, cap={self.capacity})"
