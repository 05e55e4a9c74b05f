"""Lightweight statistics: counters, latency sketches, and stat sinks.

Every component owns a :class:`Stats` instance; the simulator can aggregate
them into one report. Values are plain Python numbers so reports serialize
trivially.

Hot paths do not call :meth:`Stats.inc` with a formatted name per event —
they pre-bind a :class:`StatSink` once (one dict access per hit, no string
formatting).

:class:`LatencySketch` is the one latency histogram: :class:`Stats` keeps
its histograms as sketches, and the campaign telemetry fabric
(:mod:`repro.obs.sketch`) ships the same type across processes. It lives
here rather than in :mod:`repro.obs` so the simulator core imports nothing
from the observability package.
"""

import json

#: bucket width (in observed units) of every :class:`Stats` histogram
STATS_BUCKET_WIDTH = 16


class LatencySketch:
    """Fixed-bucket latency digest: count/sum/min/max + bucket counts.

    A sketch's merge is a commutative, associative integer fold, and
    :meth:`canonical` serializes it with sorted keys, so two folds of the
    same contributions are byte-identical regardless of arrival order.
    ``bucket_width`` is fixed at construction and is part of a sketch's
    identity: merging mismatched widths raises, because a silent re-bin
    would break that byte-identity contract.
    """

    __slots__ = ("bucket_width", "count", "total", "min", "max", "buckets")

    def __init__(self, bucket_width=8):
        if bucket_width < 1:
            raise ValueError(f"bucket_width must be >= 1, got {bucket_width}")
        self.bucket_width = bucket_width
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value) // self.bucket_width
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Approximate ``q``-quantile (q in [0, 1]) from the buckets.

        Linear interpolation inside the bucket that crosses the target
        rank, clamped to the observed min/max so p0/p100 are exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        width = self.bucket_width
        for bucket in sorted(self.buckets):
            in_bucket = self.buckets[bucket]
            if cumulative + in_bucket >= target:
                fraction = (target - cumulative) / in_bucket
                estimate = bucket * width + fraction * width
                return min(max(estimate, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def merge(self, other):
        """Key-wise integer fold of ``other`` into self. Order-free."""
        if other.bucket_width != self.bucket_width:
            raise ValueError(
                f"sketch width mismatch: {self.bucket_width} vs "
                f"{other.bucket_width} (widths are part of a sketch's identity)"
            )
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        return self

    def as_dict(self):
        return {
            "bucket_width": self.bucket_width,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            # string keys so the dict survives JSON round-trips unchanged
            "buckets": {str(k): v for k, v in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data):
        sketch = cls(bucket_width=data["bucket_width"])
        sketch.count = data["count"]
        sketch.total = data["sum"]
        sketch.min = data["min"]
        sketch.max = data["max"]
        sketch.buckets = {int(k): v for k, v in data["buckets"].items()}
        return sketch

    def canonical(self):
        """Sorted-key JSON bytes: equal folds serialize byte-identically."""
        return json.dumps(self.as_dict(), sort_keys=True).encode()

    def __eq__(self, other):
        return (isinstance(other, LatencySketch)
                and self.canonical() == other.canonical())

    def __repr__(self):
        return (f"LatencySketch(width={self.bucket_width}, count={self.count}, "
                f"mean={self.mean:.1f})")


class _ReadOnlySketch(LatencySketch):
    """The empty sketch :meth:`Stats.histogram` returns for unknown names.

    Observing or merging into it would silently lose data (nothing
    registers it), so it refuses writes instead.
    """

    __slots__ = ()

    def observe(self, value):
        raise TypeError(
            "read-only empty histogram: Stats.histogram() of a never-observed "
            "name is not registered; use Stats.observe()"
        )

    merge = observe


#: Shared immutable empty histogram (see :meth:`Stats.histogram`).
EMPTY_HISTOGRAM = _ReadOnlySketch(STATS_BUCKET_WIDTH)


class StatSink:
    """A pre-bound counter: one dict access per hit, no name formatting.

    Hot paths (protocol controllers, XG send helpers) create one sink per
    counter at construction time and call :meth:`inc` per event, instead
    of paying ``Stats.inc``'s attribute lookups and (often) an f-string
    per call — the call overhead ROADMAP measured on protocol code.
    """

    __slots__ = ("_counters", "name")

    def __init__(self, counters, name):
        self._counters = counters
        self.name = name

    def inc(self, amount=1):
        counters = self._counters
        counters[self.name] = counters.get(self.name, 0) + amount

    def __repr__(self):
        return f"StatSink({self.name!r})"


class Stats:
    """A named bag of counters and histograms."""

    # one instance per component/network; slots keep the per-instance
    # cost flat across large campaign sweeps
    __slots__ = ("owner", "counters", "histograms")

    def __init__(self, owner=""):
        self.owner = owner
        self.counters = {}
        self.histograms = {}

    def inc(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name, default=0):
        """Read counter ``name``."""
        return self.counters.get(name, default)

    def sink(self, name):
        """A pre-bound :class:`StatSink` incrementing counter ``name``."""
        return StatSink(self.counters, name)

    def observe(self, name, value):
        """Record ``value`` in histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = LatencySketch(STATS_BUCKET_WIDTH)
            self.histograms[name] = hist
        hist.observe(value)

    def histogram(self, name):
        """Return histogram ``name``.

        An unknown name returns the shared read-only
        :data:`EMPTY_HISTOGRAM` — reading count/mean/etc. works (all
        zero/None), but observing into it raises instead of silently
        losing data in an unattached throwaway object.
        """
        return self.histograms.get(name, EMPTY_HISTOGRAM)

    def as_dict(self):
        report = dict(self.counters)
        for name, hist in self.histograms.items():
            report[name] = {
                "count": hist.count,
                "sum": hist.total,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
                # int-keyed bucket map so two runs can be compared exactly
                # (the determinism property tests diff full stats reports)
                "buckets": dict(hist.buckets),
            }
        return report

    def merge_into(self, other):
        """Accumulate this object's counters/histograms into ``other``."""
        for name, value in self.counters.items():
            other.inc(name, value)
        for name, hist in self.histograms.items():
            dest = other.histograms.get(name)
            if dest is None:
                dest = other.histograms[name] = LatencySketch(hist.bucket_width)
            dest.merge(hist)

    def __repr__(self):
        return f"Stats(owner={self.owner!r}, counters={len(self.counters)})"
