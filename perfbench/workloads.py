"""The three workloads: their inputs, one measured pass each, and its checks.

A pass runs a workload once, from the first call into bplab to the last
artifact written, and returns what the metrics and checks need. Preset
workloads read the benchmark's own copies of the presets in inputs/, scaled
down so that a pass takes seconds; an edit under configs/ does not move the
benchmark. bump-2d-pcg drives the library directly, because no preset runs
the pcg solver in a time loop.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from bplab import bathymetry, diagnostics, models, operators, scenarios, timeloop
from bplab.models import ModelParams
from bplab.spectral import Grid

from common import INPUTS

perf = time.perf_counter


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    window: tuple  # perf_counter at the first call into bplab and after the last write
    checks: list  # (name, ok, detail)
    summaries: dict  # summary name -> summary.json without TIMING_KEYS, canonical text
    runs: list = field(default_factory=list)  # RunMeter calls: (seconds, steps, records)
    bytes_written: int = 0

    @property
    def steps(self) -> int:
        return sum(r[1] for r in self.runs)

    @property
    def records(self) -> int:
        return sum(r[2] for r in self.runs)

    @property
    def run_s(self) -> float:
        return sum(r[0] for r in self.runs)


def canonical_summary(path: Path) -> str:
    """summary.json with its wall-clock keys dropped, as canonical JSON text."""
    tree = json.loads(Path(path).read_text())
    for key in scenarios.TIMING_KEYS:
        tree.pop(key, None)
    return json.dumps(tree, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# preset workloads


def _length(val) -> float:
    """Lengths as the presets write them: a number or 'Npi'."""
    if isinstance(val, str) and val.endswith("pi"):
        return (float(val[:-2]) if val[:-2] else 1.0) * np.pi
    return float(val)


def _handles_for(model: str, values, bath) -> None:
    for v in values:
        models.build_handles(ModelParams(eps=v, mu=v, model=model), bath)


def _setup_consistency(config) -> None:
    bath = config.build_bath()
    for model in ("bp", "mbp"):
        _handles_for(model, config.sweep["eps_mu"], bath)


def _setup_longtime(config) -> None:
    values = config.sweep["eps_mu"] + config.sweep.get("contrast_eps_mu", ())
    _handles_for("mbp", values, config.build_bath())


def _setup_mollifier(config) -> None:
    models.build_handles(config.params, config.build_bath())


def _setup_operator_audit(config) -> None:
    for case in config.scenario_params["cases"]:
        grid = Grid(
            d=int(case.get("d", 1)),
            n=int(case["n"]),
            L=_length(case.get("L", 2 * np.pi)),
            gamma=float(case.get("gamma", 1.0)),
        )
        bath = bathymetry.build_bathymetry(
            grid, case.get("profile", "flat"), float(case.get("beta", 0.0))
        )
        for kind in operators.KINDS:
            operators.build_handle(kind, float(case.get("mu", config.params.mu)), bath)


# what each scenario's runs need before they step: the bottom, and the
# operator handles its dispersive runs factorize (linear flat runs need none)
SCENARIO_SETUP = {
    "dispersion": lambda config: config.build_bath(),
    "burgers": lambda config: config.build_bath(),
    "consistency": _setup_consistency,
    "longtime": _setup_longtime,
    "mollifier-study": _setup_mollifier,
    "operator-audit": _setup_operator_audit,
}

# horizons cut for the self-test; the checks that need the full horizon fail
SHORT_STEPPER = {
    "dispersion": {"t_end": 0.5},
    "burgers": {"t_end": 0.5},
    "consistency": {"t_end": 0.1},
    "mollifier-study": {"t_end": 0.05},
}


def _shorten(config):
    if config.scenario == "longtime":
        params = dict(config.scenario_params, horizon_over_eps=0.02)
        return replace(config, scenario_params=params)
    if config.scenario == "operator-audit":
        return replace(config, scenario_params=dict(config.scenario_params, trials=2))
    return replace(config, stepper=replace(config.stepper, **SHORT_STEPPER[config.scenario]))


def _load(preset: str, out: Path, seed: int):
    return scenarios.load_config(INPUTS / f"{preset}.yaml", out=str(out), seed=seed)


def preset_setup(presets):
    def setup(seed: int, out: Path) -> None:
        for preset in presets:
            config = _load(preset, out, seed)
            SCENARIO_SETUP[config.scenario](config)

    return setup


def preset_pass(presets):
    def one_pass(seed: int, out: Path, jobs: int, short: bool) -> PassResult:
        t0, c0 = perf(), time.process_time()
        results = []
        for preset in presets:
            config = _load(preset, out, seed)
            if short:
                config = _shorten(config)
            results.append(scenarios.run_scenario(config, jobs=jobs))
        t1, c1 = perf(), time.process_time()

        checks = []
        for res in results:
            for verdict, ok in res.verdicts.items():
                checks.append((f"{res.scenario}: verdict {verdict}", bool(ok), ""))
            expected = "blowup" if res.scenario == "burgers" else "completed"
            for run in res.summary["runs"]:
                if run.get("error") or "termination" in run:
                    got = run.get("termination") or run["error"]
                    checks.append(
                        (f"{res.scenario}/{run['tag']}: termination", got == expected, got)
                    )
        summaries = {
            res.scenario: canonical_summary(res.out_dir / "summary.json") for res in results
        }
        return PassResult(t1 - t0, c1 - c0, (t0, t1), checks, summaries)

    return one_pass


# ---------------------------------------------------------------------------
# bump-2d-pcg: 2048 velocity unknowns, above the dense limit, so every
# velocity solve is a preconditioned CG solve


PCG_GRID = {"d": 2, "n": 32, "L": 8 * np.pi, "gamma": 0.8}
PCG_BOTTOM = ("gaussian_bump", 0.5)
PCG_RUNS = {
    "bp_linear": ModelParams(eps=0.0, mu=0.05, model="bp"),
    "mbp": ModelParams(eps=0.05, mu=0.05, model="mbp"),
}
# 20 steps per run keep a pass to a few seconds, so a run makes many passes
PCG_STEPPER = {"dt": 0.05, "t_end": 1.0, "output_stride": 5}
PCG_SHORT_T_END = 0.2  # self-test horizon
PCG_HUMP_WIDTH = 3.0
PCG_HUMP_OFFSET = 0.25  # hump centre minus bump centre, per axis, in units of L
PCG_AMPLITUDES = (0.2, 0.4)
# the linear run conserves E_bp up to time-stepping error
MAX_EBP_DRIFT = 1e-5
# the residual operator-audit grades its apply/solve round trips against
MAX_ROUND_TRIP = 1e-9
ROUND_TRIP_TRIALS = 4


def pcg_grid() -> Grid:
    return Grid(**PCG_GRID)


def _pcg_initial(grid: Grid, bath, params: ModelParams, seed: int):
    """A gaussian hump at rest, on the bump's slope.

    The seed draws the hump's amplitude and which of the four mirror images
    about the bump's centre it takes. Each seed then costs the same number
    of CG iterations; with a centre drawn anywhere on the torus they ranged
    over 20% between seeds, which would read as noise in the wall time.
    """
    rng = np.random.default_rng(seed)
    mirror = rng.choice((-1.0, 1.0), size=grid.d)
    centre = (0.5 + PCG_HUMP_OFFSET * mirror) * grid.L
    amplitude = rng.uniform(*PCG_AMPLITUDES)
    r2 = sum(((x - c + 0.5 * grid.L) % grid.L - 0.5 * grid.L) ** 2 for x, c in zip(grid.x, centre))
    zeta = amplitude * np.exp(-0.5 * r2 / PCG_HUMP_WIDTH**2)
    if params.model == "mbp":
        zeta = bathymetry.zeta_to_q_arr(zeta, params.eps, bath)
    rows = np.stack([zeta] + [np.zeros(grid.shape)] * grid.d)
    return models.ModelState.from_stack(grid, rows)


def pcg_setup(seed: int, out: Path) -> None:
    bath = bathymetry.build_bathymetry(pcg_grid(), *PCG_BOTTOM)
    for params in PCG_RUNS.values():
        models.build_handles(params, bath)


def pcg_pass(seed: int, out: Path, jobs: int, short: bool) -> PassResult:
    t_end = PCG_SHORT_T_END if short else PCG_STEPPER["t_end"]
    stepper = timeloop.StepperConfig(**dict(PCG_STEPPER, t_end=t_end))
    out_dir = Path(out) / "bump-2d-pcg"
    t0, c0 = perf(), time.process_time()
    grid = pcg_grid()
    bath = bathymetry.build_bathymetry(grid, *PCG_BOTTOM)
    runs, done = [], {}
    for tag, params in PCG_RUNS.items():
        handles = models.build_handles(params, bath)
        traj = timeloop.run(_pcg_initial(grid, bath, params, seed), params, bath, stepper, handles)
        records = diagnostics.build_records(traj, bath, N=3)
        run_dir = out_dir / tag
        run_dir.mkdir(parents=True, exist_ok=True)
        scenarios.write_run_csv(run_dir / "diagnostics.csv", records)
        scenarios.write_snapshot(
            run_dir / "state_final", traj.states[-1], grid, traj.times[-1], params.model
        )
        e_bp = np.array([r.E_bp for r in records])
        runs.append(
            {
                "tag": tag,
                "model": params.model,
                "eps": params.eps,
                "mu": params.mu,
                "strategy": next(iter(handles.values())).strategy,
                "termination": traj.termination,
                "steps_taken": int(traj.steps_taken),
                "n_records": int(traj.n_records),
                "E_bp_rel_drift": float(np.abs(e_bp - e_bp[0]).max() / e_bp[0]),
                "final_state_sha256": hashlib.sha256(traj.states[-1].tobytes()).hexdigest(),
            }
        )
        done[tag] = (handles, traj)
    summary = {"workload": "bump-2d-pcg", "seed": seed, "grid": PCG_GRID, "runs": runs}
    scenarios.write_summary(out_dir / "summary.json", summary)
    t1, c1 = perf(), time.process_time()

    by_tag = {r["tag"]: r for r in runs}
    bp_run, mbp_run = by_tag["bp_linear"], by_tag["mbp"]
    checks = [
        ("bp_linear: termination", bp_run["termination"] == "completed", bp_run["termination"]),
        (
            "bp_linear: E_bp drift",
            bp_run["E_bp_rel_drift"] <= MAX_EBP_DRIFT,
            f"{bp_run['E_bp_rel_drift']:.3g}",
        ),
        ("mbp: termination", mbp_run["termination"] == "completed", mbp_run["termination"]),
    ]
    handle = done["mbp"][0]["hb_B"]
    resid = _round_trip(handle, np.random.default_rng(seed))
    checks.append(("mbp: solve/apply round trip", resid <= MAX_ROUND_TRIP, f"{resid:.3g}"))
    summaries = {"bump-2d-pcg": canonical_summary(out_dir / "summary.json")}
    return PassResult(t1 - t0, c1 - c0, (t0, t1), checks, summaries)


def _round_trip(handle, rng) -> float:
    """Worst max|apply(solve(r)) - r| / max|r| over random right-hand sides."""
    worst = 0.0
    for _ in range(ROUND_TRIP_TRIALS):
        r = rng.standard_normal((handle.grid.d,) + handle.grid.shape)
        back = handle.apply_arrays(handle.solve_arrays(r))
        worst = max(worst, float(np.abs(back - r).max() / np.abs(r).max()))
    return worst


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    run_pass: Callable  # (seed, out, jobs, short) -> PassResult
    setup: Callable  # (seed, out) -> None: bottoms and handles the runs need


FLAT_1D = ("dispersion", "burgers")
BUMP_1D = ("consistency", "longtime", "mollifier_study", "operator_audit")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("flat-1d", 1, preset_pass(FLAT_1D), preset_setup(FLAT_1D)),
        Workload("bump-1d-sweep", 2, preset_pass(BUMP_1D), preset_setup(BUMP_1D)),
        Workload("bump-2d-pcg", 1, pcg_pass, pcg_setup),
    )
}
