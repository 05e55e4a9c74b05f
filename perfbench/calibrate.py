"""Machine-speed probe: a fixed pure-Python kernel timed between rounds.

The shared two-vCPU hosts this benchmark runs on slow down by up to
about 2x in phases lasting seconds to minutes, because of other tenants.
The same interference slows this kernel and the simulator, the kernel
more so: over 2 x 200 s of interleaved samples of the stress and
chaos_lineage rounds on a 2-vCPU Xeon host, the simulator's host time
went as the kernel time to the power 0.7 (:data:`SENSITIVITY`).
:func:`scale` turns host seconds into *reference seconds*, the time on
a host that runs the kernel in exactly :data:`REFERENCE_S`. A change to
``repro`` moves the round time and not the kernel, so it shows in full.

The kernel, :data:`REFERENCE_S` and :data:`SENSITIVITY` define the unit.
Changing any of them rescales every number the benchmark reports.
"""

import heapq
import random
import time

#: Kernel time that defines one reference second (about its time on an
#: uncontended 2.0 GHz Xeon vCPU).
REFERENCE_S = 0.1
#: log-log slope of simulator host time against kernel time under
#: interference (see the module docstring)
SENSITIVITY = 0.7


class _Item:
    __slots__ = ("key", "weight", "attrs")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight
        self.attrs = {}


def _kernel(steps=60_000):
    """Small-object allocation, dict traffic and a heap of timestamped
    items: the interpreter work a discrete-event simulator is made of."""
    rng = random.Random(1)
    heap, table = [], {}
    for seq in range(steps):
        item = _Item(seq, rng.random())
        heapq.heappush(heap, (rng.randint(0, 1000), seq, item))
        table[seq % 512] = item
        item.attrs["size"] = len(table)
        if len(heap) > 64:
            heapq.heappop(heap)[2].attrs.get("size", 0)
    return len(heap)


def kernel_seconds():
    """Host seconds the fixed kernel takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(kernel_s):
    """Factor from host seconds to reference seconds at this kernel time."""
    return (REFERENCE_S / kernel_s) ** SENSITIVITY
