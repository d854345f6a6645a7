"""Per-layer microbenchmarks: one call into a public bplab function, timed alone.

Inputs are fixed (they do not follow --seed), so a layer's number moves
only when the code does. Grids and parameters are those of the presets
under configs/ that run each path (the workloads run scaled-down copies,
see inputs/); the d=2 n=32 cases are bump-2d-pcg's own, taken from
workloads.py.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from bplab import bathymetry, diagnostics, models, operators, scenarios, timeloop, verification
from bplab.models import ModelParams
from bplab.spectral import Grid

from common import INPUTS, OUT
from workloads import PCG_BOTTOM, PCG_RUNS, pcg_grid

perf = time.perf_counter

TWO_PI = 2.0 * np.pi
GRID_FLAT_1D = Grid(d=1, n=256, L=TWO_PI)  # dispersion
GRID_BURGERS = Grid(d=1, n=1024, L=TWO_PI)  # burgers (flat-1d runs n=512)
GRID_BUMP_1D = Grid(d=1, n=256, L=10 * TWO_PI)  # consistency, longtime
GRID_AUDIT_2D = Grid(d=2, n=16, L=TWO_PI)  # operator-audit d=2 case (bump-1d-sweep runs n=8)
GRID_PCG_2D = pcg_grid()  # bump-2d-pcg
FLAT = ("flat", 0.0)
BUMP = ("gaussian_bump", 0.5)


def per_call_us(fn, batch_s: float, batches: int) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    fn()
    n = 1
    while True:
        t0 = perf()
        for _ in range(n):
            fn()
        dt = perf() - t0
        if dt >= batch_s:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(batches - 1):
        t0 = perf()
        for _ in range(n):
            fn()
        samples.append((perf() - t0) / n)
    return statistics.median(samples) * 1e6


def _hump(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    r2 = sum((x - 0.5 * grid.L) ** 2 for x in grid.x)
    return amplitude * np.exp(-0.5 * r2 / width**2)


def _stack(grid: Grid, bath, params: ModelParams) -> np.ndarray:
    """Model-variable state at rest: a hump, a cosine, or the Burgers sine."""
    if params.model == "burgers":
        return -np.sin(TWO_PI * grid.x[0] / grid.L)[None]
    if bath.is_flat:
        scalar = 1e-3 * np.cos(TWO_PI * grid.x[0] / grid.L)
    else:
        scalar = _hump(grid, 0.3, 3.0)
    if params.model == "mbp":
        scalar = bathymetry.zeta_to_q_arr(scalar, params.eps, bath)
    return np.stack([scalar] + [np.zeros(grid.shape)] * grid.d)


RHS_CASES = {
    "linear-flat.d1n256": (GRID_FLAT_1D, FLAT, ModelParams(eps=0.0, mu=0.1, model="bp")),
    "burgers.d1n1024": (GRID_BURGERS, FLAT, ModelParams(eps=0.1, mu=0.0, model="burgers")),
    "sw.d1n256": (GRID_BUMP_1D, BUMP, ModelParams(eps=0.08, mu=0.08, model="sw")),
    "bp.d1n256": (GRID_BUMP_1D, BUMP, ModelParams(eps=0.08, mu=0.08, model="bp")),
    "mbp.d1n256": (GRID_BUMP_1D, BUMP, ModelParams(eps=0.08, mu=0.08, model="mbp")),
    "bp.d2n32": (GRID_PCG_2D, PCG_BOTTOM, PCG_RUNS["bp_linear"]),
    "mbp.d2n32": (GRID_PCG_2D, PCG_BOTTOM, PCG_RUNS["mbp"]),
}

# strategy.grid: (grid, bottom, handle kind, mu)
HANDLE_CASES = {
    "spectral.d1n256": (GRID_BUMP_1D, FLAT, "I_plus_muTb", 0.08),
    "dense.d1n256": (GRID_BUMP_1D, BUMP, "I_plus_muTb", 0.08),
    "dense.d2n16": (GRID_AUDIT_2D, BUMP, "hb_B", 0.1),
    "pcg.d2n32": (GRID_PCG_2D, PCG_BOTTOM, "hb_B", PCG_RUNS["mbp"].mu),
}
BUILD_CASES = ("dense.d1n256", "dense.d2n16", "pcg.d2n32")
SOLVE_CASES = ("spectral.d1n256", "dense.d1n256", "pcg.d2n32")


def _bath_for(grid: Grid, bottom):
    return bathymetry.build_bathymetry(grid, *bottom)


def _median_s(fn, repeats: int) -> float:
    """Median wall time of one call, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times)


def run_all(quick: bool = False) -> dict:
    """Every microbenchmark, keyed by its per-layer metric name."""
    batch_s, batches, builds = (0.002, 2, 1) if quick else (0.02, 5, 3)
    out = {}

    rng = np.random.default_rng(0)
    for key, grid in (("d1n256", GRID_FLAT_1D), ("d1n1024", GRID_BURGERS), ("d2n32", GRID_PCG_2D)):
        a = rng.standard_normal((1 + grid.d,) + grid.shape)
        spec = grid.rfft(a)
        out[f"spectral.rfft_us.{key}"] = per_call_us(lambda: grid.rfft(a), batch_s, batches)
        out[f"spectral.irfft_us.{key}"] = per_call_us(lambda: grid.irfft(spec), batch_s, batches)

    for key, (grid, bottom, params) in RHS_CASES.items():
        bath = _bath_for(grid, bottom)
        bundle = models.make_rhs(params, bath)
        W = bundle.encode(_stack(grid, bath, params))
        out[f"models.rhs_us.{key}"] = per_call_us(lambda: bundle.fn(W), batch_s, batches)

    for key in BUILD_CASES:
        grid, bottom, kind, mu = HANDLE_CASES[key]
        out[f"operators.handle_build_s.{key}"] = _median_s(
            # a fresh bottom each time: no cached operator cores
            lambda: operators.build_handle(kind, mu, _bath_for(grid, bottom)), builds
        )

    for key in SOLVE_CASES:
        grid, bottom, kind, mu = HANDLE_CASES[key]
        handle = operators.build_handle(kind, mu, _bath_for(grid, bottom))
        hump = _hump(grid, 1.0, 3.0)
        rhs = handle.apply_arrays(np.stack([hump * (j + 1) for j in range(grid.d)]))
        out[f"operators.solve_us.{key}"] = per_call_us(
            lambda: handle.solve_arrays(rhs), batch_s, batches
        )
        if key == "pcg.d2n32":
            out["operators.apply_us.d2n32"] = per_call_us(
                lambda: handle.apply_weighted_arrays(rhs), batch_s, batches
            )

    # one diagnostics record: a longtime-like mbp state over the tall bump
    params = ModelParams(eps=0.02, mu=0.02, model="mbp")
    bath = _bath_for(GRID_BUMP_1D, ("gaussian_bump", 0.8))
    state0 = models.ModelState.from_stack(GRID_BUMP_1D, _stack(GRID_BUMP_1D, bath, params))
    traj = timeloop.run(state0, params, bath, timeloop.StepperConfig(dt=0.05, t_end=0.0))
    out["diagnostics.record_us.d1n256"] = per_call_us(
        lambda: diagnostics.build_records(traj, bath, N=3), batch_s, batches
    )

    # operator-audit's d=2 dense assembly, and parsing one preset
    grid, bottom, kind, mu = HANDLE_CASES["dense.d2n16"]
    bath = _bath_for(grid, bottom)
    out["verification.assemble_dense_s.d2n16"] = _median_s(
        lambda: verification.assemble_dense(kind, mu, bath), builds
    )
    preset = INPUTS / "consistency.yaml"
    out["scenarios.load_config_us"] = per_call_us(
        lambda: scenarios.load_config(preset, out=str(OUT / "micro"), seed=0), batch_s, batches
    )
    return out
