"""Spans and run counters recorded around bplab's public functions.

Everything here works from outside the package. bplab binds names with
`from .x import y`, so one function can sit in several module namespaces;
`Patches.replace` rebinds every bplab module attribute that holds it and
`Patches.restore` puts the originals back.

A span holds a name, start, end, parent and run id. Each thread keeps its
own stack of open spans; work the scenario pool runs on a worker thread is
parented to the span that was open where it was submitted. Spans stay in
per-thread arrays until `SpanTable` merges them once, at the end.
"""

from __future__ import annotations

import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

perf = time.perf_counter

# (module, function) pairs traced as plain spans named "<module>.<function>"
PLAIN_SPANS = (
    ("scenarios", "load_config"),
    ("scenarios", "run_scenario"),
    ("scenarios", "write_run_csv"),
    ("scenarios", "write_snapshot"),
    ("scenarios", "write_summary"),
    ("bathymetry", "build_bathymetry"),
    ("models", "build_handles"),
    ("timeloop", "run"),
    ("operators", "dense_matrix"),
    ("operators", "coercivity_report"),
    ("diagnostics", "build_records"),
    ("diagnostics", "measure_dispersion"),
    ("diagnostics", "detect_gradient_blowup"),
    ("diagnostics", "burgers_shock_time"),
    ("diagnostics", "estimate_order"),
    ("verification", "assemble_dense"),
)

WRITE_SPANS = ("scenarios.write_run_csv", "scenarios.write_snapshot", "scenarios.write_summary")

_THREAD_SHIFT = 40  # span id = thread index << 40 | per-thread counter


def _bplab_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bplab" or name.startswith("bplab."))
    ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, old, new) -> None:
        """Rebind every bplab module attribute that holds `old` to `new`."""
        hits = 0
        for mod in _bplab_modules():
            for attr, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, attr, old))
                    setattr(mod, attr, new)
                    hits += 1
        if not hits:
            raise LookupError(f"no bplab module binds {old!r}")

    def set_attr(self, obj, attr: str, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


class RunMeter:
    """Times every timeloop.run call and keeps its step and record counts.

    Installed on traced and untraced passes alike: steps_per_s needs the
    time spent inside run, and the wrapper costs one clock pair per run.
    """

    def __init__(self):
        self.calls = []  # (seconds, steps_taken, n_records); list.append is atomic

    def install(self, patches: Patches, timeloop) -> None:
        orig = timeloop.run
        calls = self.calls

        def run(*args, **kwargs):
            t0 = perf()
            traj = orig(*args, **kwargs)
            calls.append((perf() - t0, traj.steps_taken, traj.n_records))
            return traj

        patches.replace(orig, run)

    def take(self) -> list:
        out = list(self.calls)
        self.calls.clear()
        return out


class _ThreadSpans:
    """Open-span stack and closed-span columns of one thread."""

    def __init__(self, index: int):
        self.index = index
        self.base = index << _THREAD_SHIFT
        self.next = 0
        self.stack = []
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.runs = array("i")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.run_id = 0
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
            return spans

    def thread_index(self) -> int:
        return self._state().index

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """fn recorded as one span per call."""
        nid = self.name_id(name)
        state = self._state
        tracer = self

        def traced(*args, **kwargs):
            s = state()
            sid = s.base | s.next
            s.next += 1
            stack = s.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                s.ids.append(sid)
                s.names.append(nid)
                s.parents.append(parent)
                s.starts.append(t0)
                s.ends.append(t1)
                s.runs.append(tracer.run_id)

        return traced

    def adopt(self, fn):
        """fn run on another thread, under the span open here and now."""
        stack = self._state().stack
        parent = stack[-1] if stack else -1
        state = self._state

        def adopted(*args, **kwargs):
            worker_stack = state().stack
            worker_stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                worker_stack.pop()

        return adopted

    def install(self, patches: Patches, bp) -> None:
        """Wrap bplab's public functions; bp maps module names to modules."""
        for mod, fn in PLAIN_SPANS:
            orig = getattr(bp[mod], fn)
            patches.replace(orig, self.wrap(f"{mod}.{fn}", orig))

        grid_cls = bp["spectral"].Grid
        for method in ("rfft", "irfft"):
            orig = getattr(grid_cls, method)
            patches.set_attr(grid_cls, method, self.wrap(f"spectral.{method}", orig))

        make_rhs = bp["models"].make_rhs
        wrap = self.wrap

        def traced_make_rhs(*args, **kwargs):
            bundle = make_rhs(*args, **kwargs)
            bundle.fn = wrap("models.rhs", bundle.fn)
            return bundle

        patches.replace(make_rhs, self.wrap("models.make_rhs", traced_make_rhs))

        build_handle = bp["operators"].build_handle

        def traced_build_handle(*args, **kwargs):
            handle = build_handle(*args, **kwargs)
            # per-instance wrappers: pcg looks the apply up on the instance,
            # so the applies inside one pcg solve are its CG iterations
            handle.solve_weighted_arrays = wrap(
                f"operators.solve.{handle.strategy}", handle.solve_weighted_arrays
            )
            handle.apply_weighted_arrays = wrap(
                "operators.apply", handle.apply_weighted_arrays
            )
            return handle

        patches.replace(build_handle, self.wrap("operators.build_handle", traced_build_handle))

        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(fn), *args, **kwargs)

        patches.replace(ThreadPoolExecutor, TracedPool)

    def table(self, t0: float, t1: float) -> "SpanTable":
        """Spans that lie inside [t0, t1], such as one pass's measured window."""
        return SpanTable(self, t0, t1)


class SpanTable:
    """Closed spans as columns, with each span's self time."""

    def __init__(self, tracer: Tracer, t0: float, t1: float):
        threads = tracer._threads

        def column(attr, dtype):
            return np.concatenate([np.frombuffer(getattr(t, attr), dtype=dtype) for t in threads])

        start, end = column("starts", np.float64), column("ends", np.float64)
        keep = (start >= t0) & (end <= t1)
        self.names = list(tracer.names)
        self.id = column("ids", np.int64)[keep]
        self.name = column("names", np.int32)[keep]
        self.parent = column("parents", np.int64)[keep]
        self.start = start[keep]
        self.end = end[keep]
        self.run = column("runs", np.int32)[keep]
        self.thread = self.id >> _THREAD_SHIFT
        self.dur = self.end - self.start

        # row of each span's parent; a parent cut off by the window leaves a root
        order = np.argsort(self.id)
        pos = np.searchsorted(self.id, self.parent, sorter=order)
        row = order[np.minimum(pos, len(order) - 1)]
        has_parent = (self.parent >= 0) & (self.id[row] == self.parent)
        self.pidx = np.where(has_parent, row, -1)
        self.self_time = self.dur - self._covered(has_parent)

    def _covered(self, has_parent: np.ndarray) -> np.ndarray:
        """Time of each span covered by its children.

        Children on the parent's own thread run one after another, so their
        durations add up. Children on worker threads can overlap, so a parent
        that has any is charged with the union of its children's intervals.
        """
        n = len(self.id)
        kids = np.flatnonzero(has_parent)
        covered = np.bincount(self.pidx[kids], weights=self.dur[kids], minlength=n)
        cross = kids[self.thread[kids] != self.thread[self.pidx[kids]]]
        for p in np.unique(self.pidx[cross]):
            mine = kids[self.pidx[kids] == p]
            covered[p] = _union_length(self.start[mine], self.end[mine])
        return covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.id), dtype=bool)
        return self.name == self.names.index(name)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def total(self, *names: str) -> float:
        return float(sum(self.dur[self.mask(n)].sum() for n in names))

    def layer_self(self, layer: str) -> float:
        return float(self.self_time[self.prefix_mask(layer + ".")].sum())

    def children_per(self, parent_name: str, child_name: str) -> np.ndarray:
        """Number of child_name spans directly under each parent_name span."""
        child = np.flatnonzero(self.mask(child_name) & (self.pidx >= 0))
        counts = np.bincount(self.pidx[child], minlength=len(self.id))
        return counts[self.mask(parent_name)]

    def root_cover(self, thread: int, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] covered by root spans of one thread."""
        roots = (self.pidx < 0) & (self.thread == thread)
        start = np.clip(self.start[roots], t0, t1)
        end = np.clip(self.end[roots], t0, t1)
        return _union_length(start, end)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            id=self.id,
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
            run=self.run,
        )


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    total, reach = 0.0, -np.inf
    for s, e in sorted(zip(start.tolist(), end.tolist())):
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total
