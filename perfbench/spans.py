"""Spans around the calls into specvol's modules, recorded from outside.

The solver itself is not instrumented. For the length of one operation the
benchmark replaces the module attributes and system methods that the solver
looks up at call time (``timeint.reconstruct_all``, ``Euler.flux_raw``, ...)
with wrappers that record a span: layer name, start, end and the enclosing
span. Spans are appended to flat arrays in memory and written out once, when
the run ends.
"""

import functools
import resource
import time
from array import array

import numpy as np

_MISSING = object()


class SpanLog:
    """Append-only span storage: name id, parent index, start and end in ns."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.minor_faults = []  # (span index, minor page faults inside it)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None):
        """(name_id, parent, start, end) of spans lo..hi, parents rebased to lo."""
        hi = len(self) if hi is None else hi
        name_id = np.frombuffer(self.name_id, dtype=np.int16)[lo:hi].astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy()
        parent[parent >= 0] -= lo
        start = np.frombuffer(self.start, dtype=np.int64)[lo:hi].copy()
        end = np.frombuffer(self.end, dtype=np.int64)[lo:hi].copy()
        return name_id, parent, start, end

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)


class Patcher:
    """Installs span-recording wrappers; ``restore`` puts the originals back."""

    def __init__(self, log: SpanLog):
        self.log = log
        self._saved = []

    def wrap(self, owner, attr: str, layer: str, observe=None, count_faults=False):
        """Replace ``owner.attr`` by a wrapper recording spans named ``layer``.

        ``observe(result)``, when given, sees every return value.
        ``count_faults`` also records the minor page faults inside each call.
        """
        log = self.log
        fn = getattr(owner, attr)
        name_id = log.intern(layer)
        stack, ids, parents, starts, ends = log.stack, log.name_id, log.parent, log.start, log.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if count_faults else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if count_faults:
                    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
                    log.minor_faults.append((idx, faults))
            if observe is not None:
                observe(result)
            return result

        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def layer_table(log: SpanLog, lo: int, hi: int, under: str | None = None):
    """{layer: (calls, total_ns, self_ns)} over the spans lo..hi.

    A span's self time is its duration minus the durations of its direct
    children. With ``under`` only spans nested inside a span of that name
    (the named spans included) are counted.
    """
    name_id, parent, start, end = log.arrays(lo, hi)
    if name_id.size == 0:
        return {}
    dur = end - start
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    keep = np.ones(name_id.size, dtype=bool)
    if under is not None:
        if under not in log.names:
            return {}
        root = name_id == log.names.index(under)
        keep = root
        # Parents precede their children, so a pass per nesting level suffices.
        while True:
            grown = root | (has_parent & keep[safe_parent])
            if np.array_equal(grown, keep):
                break
            keep = grown
    out = {}
    for idx, name in enumerate(log.names):
        sel = keep & (name_id == idx)
        if np.any(sel):
            out[name] = (int(np.count_nonzero(sel)), int(dur[sel].sum()), int(own[sel].sum()))
    return out
