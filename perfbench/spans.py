"""Span tracing for the traced benchmark run, recorded from outside ``src/``.

The tracer replaces the public functions and methods listed in ``SPANS``
with wrappers for the duration of the traced phase and puts the originals
back afterwards; a function imported by name into several modules
(``draw`` in ``engine``, ``asyncexec`` and ``reference``) is replaced in each
of them.  Every call becomes one span: name, start, end, parent span,
thread, and the harness phase it ran in (``bench.setup``, ``bench.solve``,
``bench.logio``).  Spans stay in memory and are written once, at the end.

Spans opened on a worker thread of ``run_async`` have the ``run_async``
span as their parent, since that call caused them.  A span's self time is
its duration minus the part of it covered by its children (the union of
their intervals, as children on two threads may overlap).
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span name, module under smartsolve, attribute path)
SPANS = (
    ("sampling.draw", "sampling", "draw"),
    ("schedule.delayed_read", "schedule", "delayed_read"),
    ("schedule.HistoryBuffer.read", "schedule", "HistoryBuffer.read"),
    ("schedule.ReplayLog.append", "schedule", "ReplayLog.append"),
    ("schedule.ReplayLog.dump", "schedule", "ReplayLog.dump"),
    ("schedule.ReplayLog.load", "schedule", "ReplayLog.load"),
    ("operators.BlockOperator.block", "operators", "BlockOperator.block"),
    ("operators.BlockOperator.__call__", "operators", "BlockOperator.__call__"),
    ("operators.aggregate", "operators", "aggregate"),
    ("engine.run", "engine", "run"),
    ("engine.init_state", "engine", "init_state"),
    ("engine.step", "engine", "step"),
    ("engine.DualTable.commit", "engine", "DualTable.commit"),
    ("blockspace.BlockVector", "blockspace", "BlockVector.__post_init__"),
    ("blockspace.norm_sq", "blockspace", "norm_sq"),
    ("diagnostics.oracle.dist_sq", "diagnostics", "PointOracle.dist_sq"),
    ("diagnostics.oracle.dist_sq", "diagnostics", "AffineOracle.dist_sq"),
    ("asyncexec.run_async", "asyncexec", "run_async"),
    ("problems.ridge", "problems", "ridge"),
    ("instances.bundle_for", "instances", "bundle_for"),
    ("stepsize.weak_bound", "stepsize", "weak_bound"),
)

# spans whose worker threads report to them as parent
THREAD_ROOTS = frozenset({"asyncexec.run_async"})
# extra counts taken at a span boundary: name -> f(call args)
COUNTS = {"engine.DualTable.commit": lambda args: len(args[1])}


class Tracer:
    def __init__(self):
        # (id, name, start_ns, end_ns, parent_id, thread_id, phase)
        self.records = []
        self.counts = Counter()
        self.phase = None
        self.thread_root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _thread(self):
        """The calling thread's open spans and its id (one int object per thread)."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.tid = threading.get_ident()
        return stack, local.tid

    def _wrap(self, name, fn):
        records, ids, clock = self.records, self._ids, time.perf_counter_ns
        count = COUNTS.get(name)
        is_root = name in THREAD_ROOTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, tid = tracer._thread()
            parent = stack[-1] if stack else tracer.thread_root
            sid = next(ids)
            stack.append(sid)
            if count is not None:
                tracer.counts[name] += count(args)
            if is_root:
                tracer.thread_root = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                if is_root:
                    tracer.thread_root = 0
                stack.pop()
                records.append((sid, name, t0, t1, parent, tid, tracer.phase))

        return traced

    @contextmanager
    def region(self, name):
        """A harness span on the calling thread; spans inside get its phase."""
        stack, tid = self._thread()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        prev, self.phase = self.phase, name
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.phase = prev
            stack.pop()
            self.records.append((sid, name, t0, t1, parent, tid, name))

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "smartsolve" or key.startswith("smartsolve.")]
        for name, modname, attr in SPANS:
            module = importlib.import_module(f"smartsolve.{modname}")
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
            else:
                fn = getattr(module, attr)
                new = self._wrap(name, fn)
                for mod in modules:
                    if mod.__dict__.get(attr) is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run untraced inside a traced phase (the output checks)."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- analysis ----------------------------------------------------------

    def summarize(self):
        """Per-name totals: count, inclusive and self time (ns), by phase."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _, _ in self.records:
            children[parent].append((t0, t1))
        stats = defaultdict(lambda: [0, 0, 0])      # (name, phase) -> [n, incl, self]
        names = {}
        for sid, name, t0, t1, parent, _, phase in self.records:
            names[sid] = name
            covered = _union_within(children.get(sid, ()), t0, t1)
            entry = stats[(name, phase)]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - covered
        return Summary(stats, names, self.records, self.counts)

    def write_csv(self, path):
        """Write the spans as gzip-compressed CSV, one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "thread", "phase"))
            out.writerows(self.records)


def _union_within(intervals, lo, hi) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Summary:
    def __init__(self, stats, names, records, counts):
        self.stats = stats
        self.names = names
        self.records = records
        self.counts = counts

    def _sum(self, name, phase, col):
        if phase is None:
            return sum(v[col] for (n, _), v in self.stats.items() if n == name)
        return self.stats.get((name, phase), (0, 0, 0))[col]

    def calls(self, name, phase=None) -> int:
        return self._sum(name, phase, 0)

    def incl_ns(self, name, phase=None) -> int:
        return self._sum(name, phase, 1)

    def self_ns(self, name, phase=None) -> int:
        return self._sum(name, phase, 2)

    def mean_us(self, name, phase=None, self_time=False) -> float:
        n = self.calls(name, phase)
        total = self.self_ns(name, phase) if self_time else self.incl_ns(name, phase)
        return total / n / 1e3 if n else 0.0

    def under(self, name, parent_name, phase):
        """Spans of ``name`` in ``phase`` whose parent is a ``parent_name`` span."""
        return [r for r in self.records
                if r[1] == name and r[6] == phase and self.names.get(r[4]) == parent_name]

    def layer_self_ns(self, phase) -> dict:
        """Self time per layer (first part of the span name) in one phase."""
        out = Counter()
        for (name, ph), v in self.stats.items():
            if ph == phase:
                out[name.split(".")[0]] += v[2]
        return out
