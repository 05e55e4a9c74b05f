"""Exact save/restore images of live simulator state.

The reachability explorer forks a settled state many times: it saves
the state once, then restores it before trying each next choice. A
state *image* is a private copy of every mutable field that can change
what the simulator does next. Each stateful class owns the
``save_state(memo)`` / ``restore_state(image, memo)`` pair for its own
fields; this module supplies the value copier they share.

:func:`copy_value` copies one value. Saving and restoring are both
copies (live -> image, image -> live), so the same rules apply both
ways:

* a :class:`~repro.sim.message.Message` becomes ``Message.clone()``: a
  fresh carrier that never came from the pool, with the same ``uid``. A
  live message the system later releases to the pool is therefore never
  the one an image holds, and a restore hands the system clones again,
  so the image survives any number of restores;
* an :class:`~repro.sim.event.Event` becomes a detached copy (its
  copier is registered in :mod:`repro.sim.event`);
  :meth:`EventQueue.restore_state` attaches the copies that are pending
  in the restored queue, so a TBE's ``timeout_event`` still cancels the
  queued timeout;
* dicts, lists, tuples, sets, deques and bytearrays are copied
  element-wise, and classes registered with :func:`image_slots` (data
  blocks, cache entries, TBEs, ...) slot by slot;
* everything else (ints, strings, enums, functions, bound methods,
  references to components and networks) is immutable or wiring, and is
  shared.

``memo`` maps ``id(original)`` to its copy for messages, events and
slotted objects, so one object referenced from two places
(a CPU op in a sequencer's outstanding table and in the L1's TBE) is
one object in the image and one object after a restore. An image refers
to the live wiring of the system it was saved from (bound methods,
component references), so it can only be restored into that system.
"""

from collections import defaultdict, deque
from operator import attrgetter

from repro.sim.message import Message


def copy_value(value, memo):
    """Copy one value for an image (or back out of one); see module doc."""
    copier = _COPIERS.get(type(value))
    if copier is None:
        return value
    return copier(value, memo)


# The copiers below inline copy_value's type probe per element: images
# are saved once per explored node and restored once per child, and a
# Python call per immutable field would be most of their cost.


def register_copier(cls, copier):
    """Copy instances of exactly ``cls`` with ``copier(value, memo)``."""
    _COPIERS[cls] = copier


def image_slots(cls):
    """Class decorator: copy instances of ``cls`` slot by slot."""
    names = cls.__slots__
    read = attrgetter(*names)
    new = cls.__new__
    copiers = _COPIERS

    def copy_slots(obj, memo):
        dup = memo.get(id(obj))
        if dup is None:
            dup = memo[id(obj)] = new(cls)
            for name, value in zip(names, read(obj)):
                copier = copiers.get(type(value))
                setattr(dup, name,
                        value if copier is None else copier(value, memo))
        return dup

    register_copier(cls, copy_slots)
    return cls


def _copy_message(msg, memo):
    dup = memo.get(id(msg))
    if dup is None:
        dup = memo[id(msg)] = msg.clone()
    return dup


def _copy_into(dup, mapping, memo):
    copiers = _COPIERS
    for key, value in mapping.items():
        copier = copiers.get(type(value))
        dup[key] = value if copier is None else copier(value, memo)
    return dup


def _copy_dict(mapping, memo):
    return _copy_into({}, mapping, memo) if mapping else {}


def _copy_defaultdict(mapping, memo):
    return _copy_into(defaultdict(mapping.default_factory), mapping, memo)


def _copy_list(items, memo):
    copiers = _COPIERS
    dup = []
    for value in items:
        copier = copiers.get(type(value))
        dup.append(value if copier is None else copier(value, memo))
    return dup


def _copy_tuple(items, memo):
    return tuple(_copy_list(items, memo))


def _copy_deque(items, memo):
    return deque(_copy_list(items, memo), items.maxlen)


def _copy_set(items, memo):
    return set(items)  # set members are hashable, hence immutable here


_COPIERS = {
    Message: _copy_message,
    dict: _copy_dict,
    defaultdict: _copy_defaultdict,
    list: _copy_list,
    tuple: _copy_tuple,
    deque: _copy_deque,
    set: _copy_set,
    bytearray: lambda raw, memo: bytearray(raw),
}
