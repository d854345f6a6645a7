"""The benchmark still runs on the package.

perfbench/tracer.py rebinds bplab functions by identity and wraps the
returned bundle's fn and handle's solves; a rename inside the package makes
its install raise LookupError, which this test turns into a test failure.
Its CG iteration count must stay the number of applies inside a pcg solve.
perfbench/workloads.py calls further bplab names; one short pass of each
workload shows they still resolve and still pass the benchmark's checks.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bplab
from bplab.bathymetry import build_bathymetry
from bplab.models import ModelParams
from bplab.operators import CG_MAXITER, KINDS
from bplab.spectral import Grid

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = BENCH / "tracer.py"
MODULES = (
    "bathymetry", "diagnostics", "models", "operators", "scenarios",
    "spectral", "timeloop", "verification",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_package_and_restores():
    tracer = _load_tracer()
    modules = {name: getattr(bplab, name) for name in MODULES}
    make_rhs, run = bplab.models.make_rhs, bplab.timeloop.run
    rfft = Grid.rfft

    g = Grid(1, 32, 2 * np.pi)
    bath = build_bathymetry(g, "gaussian_bump", 0.5)
    flat = build_bathymetry(g, "flat", 0.0)
    U = 0.1 * np.random.default_rng(0).standard_normal((2,) + g.shape)

    patches = tracer.Patches()
    spans = tracer.Tracer()
    try:
        tracer.RunMeter().install(patches, bplab.timeloop)
        spans.install(patches, modules)
        t0 = time.perf_counter()
        bundle = bplab.models.make_rhs(ModelParams(0.2, 0.3, "bp"), bath)
        out = bundle.fn(bundle.encode(U))
        # a linear flat bundle probes its flow inside make_rhs, before the
        # tracer wraps fn, so models.rhs keeps counting stepping calls only
        linear = bplab.models.make_rhs(ModelParams(0.0, 0.3, "mbp"), flat)
        t1 = time.perf_counter()
    finally:
        patches.restore()

    assert out.shape == (2,) + g.rshape
    table = spans.table(t0, t1)
    assert linear.blocks is not None
    assert table.count("models.make_rhs") == 2
    assert table.count("operators.build_handle") == 2
    assert table.count("models.rhs") == 1
    assert table.count("operators.solve.dense") == 1
    assert table.count("operators.solve.spectral") == 2  # one probe per state row
    assert table.count("spectral.rfft") > 0 and table.count("spectral.irfft") > 0
    assert bplab.models.make_rhs is make_rhs and bplab.timeloop.run is run
    assert Grid.rfft is rfft


def _counted_solve(handle, y):
    """Solve y on handle, counting applies through a per-instance wrap."""
    apply_w = handle.apply_weighted_arrays
    calls = []

    def counted(V):
        calls.append(1)
        return apply_w(V)

    handle.apply_weighted_arrays = counted
    handle.solve_weighted_arrays(y)
    return len(calls)


def test_tracer_counts_cg_iterations_of_a_pcg_solve():
    # perfbench's operators.cg_iters counts the operators.apply spans under
    # each operators.solve.pcg span; they must be the CG iterations
    tracer = _load_tracer()
    modules = {name: getattr(bplab, name) for name in MODULES}
    g = Grid(2, 32, 8 * np.pi, gamma=0.8)
    bath = build_bathymetry(g, "gaussian_bump", 0.5)
    y = np.random.default_rng(1).standard_normal((2,) + g.shape)
    direct = {
        kind: _counted_solve(bplab.operators.build_handle(kind, 0.05, bath), y)
        for kind in KINDS
    }

    patches = tracer.Patches()
    spans = tracer.Tracer()
    try:
        spans.install(patches, modules)
        for kind in KINDS:
            handle = bplab.operators.build_handle(kind, 0.05, bath)
            assert handle.strategy == "pcg"
            t0 = time.perf_counter()
            handle.solve_weighted_arrays(y)
            table = spans.table(t0, time.perf_counter())
            assert table.count("operators.solve.pcg") == 1
            iters = table.children_per("operators.solve.pcg", "operators.apply")
            assert iters.tolist() == [direct[kind]]
            assert 0 < direct[kind] < CG_MAXITER
    finally:
        patches.restore()


def test_tracer_records_one_span_per_d2_transform():
    # perfbench's spectral.transforms counts spectral.* spans: a d=2
    # transform is one Grid call however numpy's passes are arranged
    tracer = _load_tracer()
    modules = {name: getattr(bplab, name) for name in MODULES}
    g = Grid(2, 32, 8 * np.pi, gamma=0.8)
    a = np.random.default_rng(2).standard_normal((3, 2) + g.shape)
    spec = g.rfft(a)

    patches = tracer.Patches()
    spans = tracer.Tracer()
    try:
        spans.install(patches, modules)
        for method, arg in (("rfft", a), ("irfft", spec)):
            t0 = time.perf_counter()
            getattr(g, method)(arg)
            table = spans.table(t0, time.perf_counter())
            assert int(table.prefix_mask("spectral.").sum()) == 1
            assert table.count(f"spectral.{method}") == 1
    finally:
        patches.restore()


def _load_workloads(monkeypatch):
    """perfbench/workloads.py with perfbench/ on sys.path, as run.py has it."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,all_checks",
    [("flat-1d", False), ("bump-1d-sweep", True), ("bump-2d-pcg", True)],
)
def test_workload_short_pass_runs_on_package(monkeypatch, tmp_path, name, all_checks):
    # flat-1d's known-answer checks need the full horizons, which a short
    # pass cuts, so it only has to return and write its summaries
    w = _load_workloads(monkeypatch).WORKLOADS[name]
    result = w.run_pass(101, tmp_path, w.jobs, short=True)
    assert result.summaries and all(result.summaries.values())
    assert list(tmp_path.rglob("summary.json"))
    if all_checks:
        failed = [(check, detail) for check, ok, detail in result.checks if not ok]
        assert result.checks and not failed
