"""Experiment configurations, the six scenario drivers, and artifact writers.

A scenario is a named study over one config file: it expands the sweep
axes into runs, executes them on a bounded worker pool, grades the
outcome against thresholds shipped with the presets, and writes

    <out>/<scenario>/<tag>/diagnostics.csv     per-run energy monitors
    <out>/<scenario>/<tag>/state_*.bin/.json   raw float64 snapshots
    <out>/<scenario>/summary.json              parameters, tables, verdicts

Summaries are deterministic for a fixed config and seed; wall-clock
numbers are confined to the keys in TIMING_KEYS so reruns can be compared
byte for byte after dropping them.
"""

from __future__ import annotations

import csv
import json
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .bathymetry import (
    PROFILES,
    Bathymetry,
    build_bathymetry,
    q_to_zeta_arr,
    zeta_to_q_arr,
)
from .diagnostics import (
    build_records,
    burgers_shock_time,
    detect_gradient_blowup,
    estimate_order,
    exact_dispersion,
    measure_dispersion,
)
from .errors import BplabError, ConfigError, NonpositiveDepthError
from .models import MODELS, ModelParams, ModelState
from .operators import KINDS, build_handle, coercivity_report
from .spectral import Grid, mollify_arr
from .timeloop import StepperConfig, Trajectory, run
from .verification import assemble_dense

__all__ = [
    "SCENARIOS",
    "TIMING_KEYS",
    "ENV_OUT",
    "ExperimentConfig",
    "InitialSpec",
    "ScenarioResult",
    "load_config",
    "build_initial_state",
    "run_scenario",
]

ENV_OUT = "BPLAB_OUT"
DEFAULT_OUT = "bplab_out"

# keys of summary.json that hold wall-clock data; excluded from
# reproducibility comparisons
TIMING_KEYS = ("runtimes", "written_at")

INITIAL_SHAPES = ("gaussian", "single_mode", "burgers_sine")
SNAPSHOT_POLICIES = ("none", "final", "initial_final")
SWEEP_KEYS = ("eps", "mu", "eps_mu", "delta", "contrast_eps_mu")

DEFAULT_THRESHOLDS = {
    "dispersion": {"max_rel_err": 1e-3, "sobolev_index": 3},
    "consistency": {
        "min_order_bp_sw": 0.9,
        "min_order_bp_mbp": 1.7,
        "sobolev_index": 3,
    },
    "longtime": {"energy_bound_factor": 2.0, "sobolev_index": 3},
    "burgers": {
        "max_shock_rel_err": 0.1,
        "max_slope_dev": 0.05,
        "sobolev_index": 3,
    },
    "operator-audit": {
        "max_symmetry": 1e-10,
        "max_solve_residual": 1e-9,
        "max_dense_mismatch": 1e-12,
        "max_flat_identity_dev": 1e-12,
        "sobolev_index": 3,
    },
    "mollifier-study": {
        "probe_delta": 1e-3,
        "max_difference": 1e-3,
        "sobolev_index": 3,
    },
}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class InitialSpec:
    """Named initial shape; fields beyond `shape` apply where relevant."""

    shape: str = "single_mode"
    amplitude: float = 1e-3
    mode: tuple = (1,)
    width: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    grid: Grid
    params: ModelParams
    profile: str
    beta: float
    bath_params: dict
    initial: InitialSpec
    stepper: StepperConfig
    sweep: dict
    scenario_params: dict
    thresholds: dict
    out_dir: str
    snapshots: str
    seed: int
    raw: dict = field(repr=False, default_factory=dict)

    def build_bath(self, grid: Optional[Grid] = None) -> Bathymetry:
        return build_bathymetry(
            grid or self.grid, self.profile, self.beta, self.bath_params
        )


def _cfg_err(src: str, key: str, reason: str) -> ConfigError:
    return ConfigError(f"{src}: {key}: {reason}")


def _sub(tree: dict, key: str, src: str, required: bool = True) -> dict:
    val = tree.get(key)
    if val is None:
        if required:
            raise _cfg_err(src, key, "missing section")
        return {}
    if not isinstance(val, dict):
        raise _cfg_err(src, key, "expected a mapping")
    return val


def _length(val, src: str, key: str) -> float:
    """Domain lengths accept plain numbers or 'Npi' shorthand like '20pi'."""
    if isinstance(val, str):
        txt = val.strip().lower()
        if txt.endswith("pi"):
            head = txt[:-2].strip()
            try:
                return (float(head) if head else 1.0) * np.pi
            except ValueError:
                raise _cfg_err(src, key, f"cannot parse length {val!r}") from None
        raise _cfg_err(src, key, f"cannot parse length {val!r}")
    if isinstance(val, (int, float)):
        return float(val)
    raise _cfg_err(src, key, f"expected a number, got {type(val).__name__}")


def _number(val, src: str, key: str, conv=float):
    try:
        return conv(val)
    except (ValueError, TypeError):
        raise _cfg_err(src, key, f"expected a number, got {val!r}") from None


def _float_list(val, src: str, key: str) -> tuple:
    if not isinstance(val, (list, tuple)) or not val:
        raise _cfg_err(src, key, "expected a nonempty list of numbers")
    out = []
    for i, v in enumerate(val):
        if not isinstance(v, (int, float)):
            raise _cfg_err(src, key, f"entry {i} is not a number")
        out.append(float(v))
    return tuple(out)


def _mode_entry(val, d: int, src: str, key: str):
    if d == 1:
        if not isinstance(val, int):
            raise _cfg_err(src, key, "d=1 mode indices are integers")
        return int(val)
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise _cfg_err(src, key, "d=2 mode indices are [k1, k2] pairs")
    return (_number(val[0], src, key, int), _number(val[1], src, key, int))


_REQUIRED_SWEEPS = {
    "consistency": ("eps_mu",),
    "longtime": ("eps_mu",),
    "burgers": ("eps",),
    "mollifier-study": ("delta",),
}


def load_config(
    path, out: Optional[str] = None, seed: Optional[int] = None
) -> ExperimentConfig:
    """Parse and validate one experiment file into an ExperimentConfig.

    Every complaint carries the file and the dotted key it refers to.
    out and seed override the file (command-line flags).
    """
    src = str(path)
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{src}: unreadable: {e}") from None
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{src}: not valid YAML: {e}") from None
    if not isinstance(tree, dict):
        raise ConfigError(f"{src}: top level must be a mapping")

    scenario = tree.get("scenario")
    if scenario not in SCENARIOS:
        raise _cfg_err(
            src, "scenario", f"unknown {scenario!r}, choose from {sorted(SCENARIOS)}"
        )

    gt = _sub(tree, "grid", src)
    try:
        grid = Grid(
            d=int(gt.get("d", 1)),
            n=int(gt.get("n", 0)),
            L=_length(gt.get("L", 2 * np.pi), src, "grid.L"),
            gamma=float(gt.get("gamma", 1.0)),
        )
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, "grid", str(e)) from None

    mt = _sub(tree, "model", src)
    name = mt.get("name")
    if name not in MODELS:
        raise _cfg_err(src, "model.name", f"unknown {name!r}, choose from {MODELS}")
    try:
        params = ModelParams(
            eps=float(mt.get("eps", 0.0)),
            mu=float(mt.get("mu", 0.0)),
            model=name,
            rescaled_time=bool(mt.get("rescaled_time", False)),
        )
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, "model", str(e)) from None

    bt = _sub(tree, "bathymetry", src, required=False)
    profile = bt.get("profile", "flat")
    if profile not in PROFILES:
        raise _cfg_err(
            src, "bathymetry.profile", f"unknown {profile!r}, choose from {sorted(PROFILES)}"
        )
    beta = bt.get("beta", 0.0)
    if not isinstance(beta, (int, float)):
        raise _cfg_err(src, "bathymetry.beta", "expected a number")
    bath_params = _sub(bt, "params", src, required=False)
    try:
        build_bathymetry(grid, profile, float(beta), bath_params)
    except (BplabError, ValueError) as e:
        raise _cfg_err(src, "bathymetry", str(e)) from None

    it = _sub(tree, "initial", src, required=False)
    shape = it.get("shape", "single_mode")
    if shape not in INITIAL_SHAPES:
        raise _cfg_err(
            src, "initial.shape", f"unknown {shape!r}, choose from {INITIAL_SHAPES}"
        )
    mode = it.get("mode", 1 if grid.d == 1 else [1, 0])
    initial = InitialSpec(
        shape=shape,
        amplitude=_number(it.get("amplitude", 1e-3), src, "initial.amplitude"),
        mode=(_mode_entry(mode, grid.d, src, "initial.mode"),),
        width=_number(it.get("width", 1.0), src, "initial.width"),
    )
    if shape == "burgers_sine" and grid.d != 1:
        raise _cfg_err(src, "initial.shape", "burgers_sine requires d=1")

    st = _sub(tree, "stepper", src, required=False)
    track = st.get("track_modes", [])
    if not isinstance(track, (list, tuple)):
        raise _cfg_err(src, "stepper.track_modes", "expected a list")
    track_modes = tuple(
        _mode_entry(m, grid.d, src, "stepper.track_modes") for m in track
    )
    try:
        stepper = StepperConfig(
            dt=float(st.get("dt", 1e-3)),
            t_end=float(st.get("t_end", 1.0)),
            scheme=st.get("scheme", "rk4"),
            output_stride=int(st.get("output_stride", 1)),
            blowup_threshold=float(st.get("blowup_threshold", 1e3)),
            delta=float(st.get("delta", 0.0)),
            track_modes=track_modes,
        )
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, "stepper", str(e)) from None

    sw = _sub(tree, "sweep", src, required=False)
    sweep = {}
    for key, val in sw.items():
        if key not in SWEEP_KEYS:
            raise _cfg_err(src, f"sweep.{key}", f"unknown axis, choose from {SWEEP_KEYS}")
        sweep[key] = _float_list(val, src, f"sweep.{key}")
    for key in _REQUIRED_SWEEPS.get(scenario, ()):
        if key not in sweep:
            raise _cfg_err(src, f"sweep.{key}", f"required by scenario {scenario!r}")
    if scenario == "mollifier-study" and 0.0 not in sweep.get("delta", ()):
        raise _cfg_err(src, "sweep.delta", "must include 0.0 as the reference run")

    sp = dict(_sub(tree, "scenario_params", src, required=False))
    for key, conv in (("horizon_over_eps", float), ("trials", int)):
        if key in sp:
            sp[key] = _number(sp[key], src, f"scenario_params.{key}", conv)
    if scenario == "operator-audit":
        cases = sp.get("cases") or []
        if not isinstance(cases, list):
            raise _cfg_err(src, "scenario_params.cases", "expected a list of mappings")
        for i, case in enumerate(cases):
            _audit_case(case, params.mu, src, f"scenario_params.cases[{i}]")

    thresholds = dict(DEFAULT_THRESHOLDS[scenario])
    tt = _sub(tree, "thresholds", src, required=False)
    for key, val in tt.items():
        if key not in thresholds:
            raise _cfg_err(
                src,
                f"thresholds.{key}",
                f"unknown for scenario {scenario!r}, choose from {sorted(thresholds)}",
            )
        if not isinstance(val, (int, float)):
            raise _cfg_err(src, f"thresholds.{key}", "expected a number")
        thresholds[key] = float(val)

    ot = _sub(tree, "output", src, required=False)
    out_dir = out or ot.get("dir") or os.environ.get(ENV_OUT) or DEFAULT_OUT
    snapshots = ot.get("snapshots", "final")
    if snapshots not in SNAPSHOT_POLICIES:
        raise _cfg_err(
            src, "output.snapshots", f"unknown {snapshots!r}, choose from {SNAPSHOT_POLICIES}"
        )

    seed_val = tree.get("seed", 0) if seed is None else seed
    if not isinstance(seed_val, int) or seed_val < 0:
        raise _cfg_err(src, "seed", "expected a nonnegative integer")

    known = {
        "scenario", "grid", "model", "bathymetry", "initial", "stepper",
        "sweep", "scenario_params", "thresholds", "output", "seed",
    }
    for key in tree:
        if key not in known:
            raise _cfg_err(src, key, "unknown section")

    return ExperimentConfig(
        scenario=scenario,
        grid=grid,
        params=params,
        profile=profile,
        beta=float(beta),
        bath_params=dict(bath_params),
        initial=initial,
        stepper=stepper,
        sweep=sweep,
        scenario_params=sp,
        thresholds=thresholds,
        out_dir=str(out_dir),
        snapshots=snapshots,
        seed=int(seed_val),
        raw={k: v for k, v in tree.items() if k != "output"},
    )


# ---------------------------------------------------------------------------
# initial states


def _centered_gaussian(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    out = np.ones(grid.shape)
    for axis, xj in enumerate(grid.x):
        # nodes live in [0, L), so the offset from mid-domain needs no wrap
        r = xj - 0.5 * grid.L
        bump = np.exp(-0.5 * (r / width) ** 2)
        shp = [1] * grid.d
        shp[axis] = grid.n
        out = out * bump.reshape(shp)
    return amplitude * out


def _mode_cos(grid: Grid, amplitude: float, mode) -> np.ndarray:
    k0 = 2.0 * np.pi / grid.L
    if grid.d == 1:
        (k,) = mode if isinstance(mode, tuple) else (mode,)
        return amplitude * np.cos(k0 * k * grid.x[0])
    k1, k2 = mode
    xx = grid.x[0].reshape(grid.n, 1)
    yy = grid.x[1].reshape(1, grid.n)
    return amplitude * np.cos(k0 * (k1 * xx + k2 * yy))


def build_initial_state(
    config: ExperimentConfig,
    grid: Grid,
    params: ModelParams,
    bath: Bathymetry,
    modes=None,
) -> ModelState:
    """Construct the configured initial data in the model's own variables.

    Velocities start from rest. For the log-variable system the surface is
    converted before stepping; modes, when given, excites one cosine per
    entry instead of the single configured mode.
    """
    spec = config.initial
    if spec.shape == "burgers_sine":
        u0 = -spec.amplitude * np.sin(2.0 * np.pi * grid.x[0] / grid.L)
        return ModelState(grid, u0[None])

    if spec.shape == "gaussian":
        zeta = _centered_gaussian(grid, spec.amplitude, spec.width)
    else:
        excite = modes if modes is not None else spec.mode
        zeta = np.zeros(grid.shape)
        for m in excite:
            zeta = zeta + _mode_cos(grid, spec.amplitude, m)

    if params.model == "mbp":
        scalar = zeta_to_q_arr(zeta, params.eps, bath)
    else:
        scalar = zeta
    if params.model == "burgers":
        return ModelState(grid, scalar[None])
    return ModelState(grid, np.stack([scalar] + [np.zeros(grid.shape)] * grid.d))


# ---------------------------------------------------------------------------
# run execution


@dataclass
class RunResult:
    tag: str
    values: dict
    bath: Optional[Bathymetry] = None
    traj: Optional[Trajectory] = None
    records: list = field(default_factory=list)
    error: Optional[str] = None
    runtime_s: float = 0.0


def _tagf(v: float) -> str:
    return f"{v:g}"


def _run_many(specs, jobs: int, n_idx: float) -> list:
    """Execute (tag, values, thunk) triples on a bounded pool, in order.

    A thunk returns the RunResult fields it sets. Every trajectory then
    gets its diagnostics records (H^n_idx energies) once, here, for both
    the driver's grading and the CSV writer.
    """

    def work(spec):
        tag, values, thunk = spec
        t0 = _time.perf_counter()
        res = RunResult(tag=tag, values=values)
        try:
            res = replace(res, **thunk())
        except BplabError as e:
            res.error = f"{type(e).__name__}: {e}"
        res.runtime_s = _time.perf_counter() - t0
        return res

    if jobs <= 1 or len(specs) <= 1:
        results = [work(s) for s in specs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(work, specs))
    for res in results:
        if res.traj is not None:
            res.records = build_records(res.traj, res.bath, N=n_idx)
    return results


def _sup_state_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


# ---------------------------------------------------------------------------
# scenario drivers


def _drive_dispersion(config: ExperimentConfig, jobs: int):
    """Linear flat runs per mu; each tracked mode gets one table row."""
    mus = config.sweep.get("mu", (config.params.mu,))
    track = config.stepper.track_modes
    if not track:
        raise ConfigError("dispersion needs stepper.track_modes")
    bath = config.build_bath()

    def thunk_for(mu):
        def thunk():
            params = replace(config.params, eps=0.0, mu=mu)
            state0 = build_initial_state(config, config.grid, params, bath, modes=track)
            return dict(bath=bath, traj=run(state0, params, bath, config.stepper))

        return thunk

    specs = [(f"mu{_tagf(mu)}", {"mu": mu}, thunk_for(mu)) for mu in mus]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    k0 = 2.0 * np.pi / config.grid.L
    gamma = config.grid.gamma
    rows, failures = [], []
    worst = 0.0
    for res, mu in zip(results, mus):
        if res.error or res.traj.termination != "completed":
            failures.append(f"{res.tag}: {res.error or res.traj.termination}")
            continue
        for m in track:
            if config.grid.d == 1:
                k_tw = k0 * abs(m)
            else:
                k_tw = k0 * np.hypot(m[0], gamma * m[1])
            expected = exact_dispersion(config.params.model, k_tw, mu)
            try:
                measured = measure_dispersion(res.traj, m)
            except BplabError as e:
                failures.append(f"{res.tag} mode {m}: {type(e).__name__}: {e}")
                continue
            rel = abs(measured - expected) / expected
            worst = max(worst, rel)
            rows.append(
                {
                    "mu": mu,
                    "mode": list(m) if isinstance(m, tuple) else m,
                    "omega_measured": measured,
                    "omega_expected": expected,
                    "rel_err": rel,
                }
            )
    ok = not failures and bool(rows)
    verdicts = {
        "dispersion_rel_err": bool(ok and worst <= config.thresholds["max_rel_err"])
    }
    tables = {"dispersion": rows, "max_rel_err": worst if rows else None}
    return results, tables, verdicts, failures


def _drive_consistency(config: ExperimentConfig, jobs: int):
    """sw/bp/mbp from one physical state; model gaps graded as orders."""
    values = config.sweep["eps_mu"]
    bath = config.build_bath()

    def thunk_for(v, model):
        def thunk():
            params = ModelParams(eps=v, mu=v, model=model)
            state0 = build_initial_state(config, config.grid, params, bath)
            return dict(bath=bath, traj=run(state0, params, bath, config.stepper))

        return thunk

    specs = [
        (f"epsmu{_tagf(v)}_{model}", {"eps_mu": v, "model": model}, thunk_for(v, model))
        for v in values
        for model in ("sw", "bp", "mbp")
    ]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    by_key = {res.tag: res for res in results}
    failures = [
        f"{res.tag}: {res.error or res.traj.termination}"
        for res in results
        if res.error or res.traj.termination != "completed"
    ]
    rows, pairs_sw, pairs_mbp = [], [], []
    for v in values:
        trio = {m: by_key[f"epsmu{_tagf(v)}_{m}"] for m in ("sw", "bp", "mbp")}
        if any(r.error or r.traj.termination != "completed" for r in trio.values()):
            continue
        finals = {m: trio[m].traj.states[-1].copy() for m in trio}
        # the log-variable run reports its surface for the comparison
        finals["mbp"][0] = q_to_zeta_arr(finals["mbp"][0], v, bath)
        e_sw = _sup_state_diff(finals["bp"], finals["sw"])
        e_mbp = _sup_state_diff(finals["bp"], finals["mbp"])
        pairs_sw.append((v, e_sw))
        pairs_mbp.append((v, e_mbp))
        rows.append({"eps_mu": v, "err_bp_sw": e_sw, "err_bp_mbp": e_mbp})

    orders = {"bp_vs_sw": None, "bp_vs_mbp": None}
    try:
        orders["bp_vs_sw"] = estimate_order(pairs_sw)
        orders["bp_vs_mbp"] = estimate_order(pairs_mbp)
    except BplabError as e:
        failures.append(f"order fit: {type(e).__name__}: {e}")
    verdicts = {
        "all_runs_completed": not failures,
        "order_bp_vs_sw": bool(
            orders["bp_vs_sw"] is not None
            and orders["bp_vs_sw"] >= config.thresholds["min_order_bp_sw"]
        ),
        "order_bp_vs_mbp": bool(
            orders["bp_vs_mbp"] is not None
            and orders["bp_vs_mbp"] >= config.thresholds["min_order_bp_mbp"]
        ),
    }
    tables = {"consistency": rows, "orders": orders}
    return results, tables, verdicts, failures


def _drive_longtime(config: ExperimentConfig, jobs: int):
    """Horizons of length 1/eps; graded runs must keep E^N within bounds."""
    values = list(config.sweep["eps_mu"])
    contrast = list(config.sweep.get("contrast_eps_mu", ()))
    horizon = config.scenario_params.get("horizon_over_eps", 1.0)
    bath = config.build_bath()

    def thunk_for(v):
        def thunk():
            params = ModelParams(eps=v, mu=v, model="mbp")
            stepper = replace(config.stepper, t_end=horizon / v)
            state0 = build_initial_state(config, config.grid, params, bath)
            return dict(bath=bath, traj=run(state0, params, bath, stepper))

        return thunk

    specs = [
        (f"epsmu{_tagf(v)}", {"eps_mu": v, "contrast": v in contrast}, thunk_for(v))
        for v in values + contrast
    ]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    rows, failures = [], []
    graded_ok, bounded = True, True
    factor = config.thresholds["energy_bound_factor"]
    for res, v in zip(results, values + contrast):
        is_contrast = v in contrast
        if res.error:
            failures.append(f"{res.tag}: {res.error}")
            if not is_contrast:
                graded_ok = False
            continue
        en = np.array([r.EN for r in res.records])
        ratio = float(en.max() / en[0]) if en[0] > 0 else np.inf
        rows.append(
            {
                "eps_mu": v,
                "contrast": is_contrast,
                "termination": res.traj.termination,
                "t_end": float(res.traj.times[-1]),
                "EN_initial": float(en[0]),
                "EN_max": float(en.max()),
                "EN_ratio": ratio,
            }
        )
        if not is_contrast:
            if res.traj.termination != "completed":
                graded_ok = False
            if not ratio <= factor:
                bounded = False
    verdicts = {
        "longtime_completed": graded_ok,
        "energy_bounded": bool(graded_ok and bounded),
    }
    tables = {"longtime": rows, "horizon_over_eps": horizon}
    return results, tables, verdicts, failures


def _drive_burgers(config: ExperimentConfig, jobs: int):
    """Shock-time sweep: detection vs characteristics, then the 1/eps law."""
    eps_list = config.sweep["eps"]
    bath = config.build_bath()

    def thunk_for(eps):
        def thunk():
            params = ModelParams(eps=eps, mu=0.0, model="burgers")
            state0 = build_initial_state(config, config.grid, params, bath)
            return dict(bath=bath, traj=run(state0, params, bath, config.stepper))

        return thunk

    specs = [(f"eps{_tagf(e)}", {"eps": e}, thunk_for(e)) for e in eps_list]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    rows, failures, pairs = [], [], []
    all_match = True
    for res, eps in zip(results, eps_list):
        if res.error:
            failures.append(f"{res.tag}: {res.error}")
            all_match = False
            continue
        state0 = build_initial_state(config, config.grid, res.traj.params, bath)
        predicted = burgers_shock_time(config.grid, state0.U[0], eps)
        if res.traj.termination != "blowup":
            failures.append(f"{res.tag}: expected blowup, got {res.traj.termination}")
            all_match = False
            continue
        try:
            fit = detect_gradient_blowup(
                res.traj.times, res.traj.sup_grad_u, config.stepper.blowup_threshold
            )
        except BplabError as e:
            failures.append(f"{res.tag}: {type(e).__name__}: {e}")
            all_match = False
            continue
        rel = abs(fit.t_detect - predicted) / predicted
        pairs.append((eps, fit.t_detect))
        rows.append(
            {
                "eps": eps,
                "t_predicted": predicted,
                "t_detected": fit.t_detect,
                "t_extrapolated": fit.t_extrapolated,
                "rel_err": rel,
                "tail_slope": fit.slope,
            }
        )
        if rel > config.thresholds["max_shock_rel_err"]:
            all_match = False

    slope = None
    try:
        slope = estimate_order(pairs)
    except BplabError as e:
        failures.append(f"scaling fit: {type(e).__name__}: {e}")
    verdicts = {
        "shock_time_match": bool(all_match and rows),
        "shock_scaling": bool(
            slope is not None
            and abs(slope + 1.0) <= config.thresholds["max_slope_dev"]
        ),
    }
    tables = {"burgers": rows, "scaling_slope": slope}
    return results, tables, verdicts, failures


AUDIT_CASE_KEYS = ("d", "n", "L", "gamma", "profile", "beta", "mu", "params")


def _audit_case(case, default_mu: float, src: str, where: str):
    """Grid, bottom and mu of one operator-audit case.

    Raises ConfigError naming the offending key: a case must be a mapping
    of known keys with an n, whose grid and bottom build.
    """
    if not isinstance(case, dict):
        raise _cfg_err(src, where, "expected a mapping")
    for key in case:
        if key not in AUDIT_CASE_KEYS:
            raise _cfg_err(src, f"{where}.{key}", f"unknown, choose from {AUDIT_CASE_KEYS}")
    if "n" not in case:
        raise _cfg_err(src, f"{where}.n", "missing")
    try:
        grid = Grid(
            d=int(case.get("d", 1)),
            n=int(case["n"]),
            L=_length(case.get("L", 2 * np.pi), src, f"{where}.L"),
            gamma=float(case.get("gamma", 1.0)),
        )
        bath = build_bathymetry(
            grid, case.get("profile", "flat"), float(case.get("beta", 0.0)),
            case.get("params"),
        )
        mu = float(case.get("mu", default_mu))
        if mu < 0:
            raise ValueError("mu must be nonnegative")
    except (NonpositiveDepthError, ValueError, TypeError) as e:
        raise _cfg_err(src, where, str(e)) from None
    return grid, bath, mu


def _drive_operator_audit(config: ExperimentConfig, jobs: int):
    """Symmetry / coercivity / inversion audit of the three weighted forms.

    Cases come from scenario_params.cases; each case audits every kind on
    its own grid and bottom. No time stepping is involved.
    """
    cases = config.scenario_params.get("cases")
    if not cases:
        cases = [
            {
                "d": config.grid.d,
                "n": config.grid.n,
                "L": config.grid.L,
                "gamma": config.grid.gamma,
                "profile": config.profile,
                "beta": config.beta,
                "mu": config.params.mu,
            }
        ]
    trials = config.scenario_params.get("trials", 8)
    rng_root = np.random.default_rng(config.seed)
    seeds = rng_root.integers(0, 2**63 - 1, size=len(cases))

    def thunk_for(i, case, case_seed):
        def thunk():
            where = f"scenario_params.cases[{i}]"
            grid, bath, mu = _audit_case(case, config.params.mu, config.scenario, where)
            rng = np.random.default_rng(case_seed)
            out = []
            for kind in KINDS:
                handle = build_handle(kind, mu, bath)
                rep = coercivity_report(handle, trials=trials, rng=rng)
                solve_resid = 0.0
                dense_resid = 0.0
                M = assemble_dense(kind, mu, bath)
                for _ in range(trials):
                    r = rng.standard_normal((grid.d,) + grid.shape)
                    x = handle.solve_arrays(r)
                    back = handle.apply_arrays(x)
                    solve_resid = max(
                        solve_resid,
                        float(np.abs(back - r).max() / np.abs(r).max()),
                    )
                    mv = (M @ r.ravel()).reshape(r.shape)
                    av = handle.apply_weighted_arrays(r)
                    dense_resid = max(
                        dense_resid,
                        float(
                            np.linalg.norm((mv - av).ravel())
                            / np.linalg.norm(mv.ravel())
                        ),
                    )
                rep["solve_residual"] = solve_resid
                rep["dense_mismatch"] = dense_resid
                out.append(rep)
            return {"values": {"case": dict(case), "reports": out}}

        return thunk

    specs = [
        (f"case{i}_d{c.get('d', 1)}_n{c['n']}", dict(c), thunk_for(i, c, int(s)))
        for i, (c, s) in enumerate(zip(cases, seeds))
    ]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    rows, failures = [], []
    thr = config.thresholds
    sym_ok = coercive_ok = solve_ok = dense_ok = flat_ok = True
    saw_flat_identity = False
    for res, case in zip(results, cases):
        if res.error:
            failures.append(f"{res.tag}: {res.error}")
            sym_ok = coercive_ok = solve_ok = dense_ok = False
            continue
        for rep in res.values["reports"]:
            quotient = rep.get("min_quotient", rep["trial_min_quotient"])
            rows.append(
                {
                    "case": res.tag,
                    "kind": rep["kind"],
                    "mu": rep["mu"],
                    "beta": rep["beta"],
                    "symmetry_residual": rep["symmetry_residual"],
                    "min_quotient": quotient,
                    "solve_residual": rep["solve_residual"],
                    "dense_mismatch": rep["dense_mismatch"],
                }
            )
            if rep["symmetry_residual"] > thr["max_symmetry"]:
                sym_ok = False
            if not quotient > 0.0:
                coercive_ok = False
            if rep["solve_residual"] > thr["max_solve_residual"]:
                solve_ok = False
            if rep["dense_mismatch"] > thr["max_dense_mismatch"]:
                dense_ok = False
            # at beta = mu = 0 the X0-graded forms and their Gram are both
            # the identity, so those quotients must sit exactly at one
            if rep["beta"] == 0.0 and rep["mu"] == 0.0 and rep["kind"] != "hb_B":
                saw_flat_identity = True
                if abs(quotient - 1.0) > thr["max_flat_identity_dev"]:
                    flat_ok = False
    verdicts = {
        "symmetry": sym_ok,
        "coercivity": coercive_ok,
        "inversion": solve_ok,
        "dense_match": dense_ok,
    }
    if saw_flat_identity:
        verdicts["flat_identity"] = flat_ok
    tables = {"operator_audit": rows}
    return results, tables, verdicts, failures


def _drive_mollifier(config: ExperimentConfig, jobs: int):
    """Trajectory distance to the unmollified run as delta shrinks."""
    deltas = sorted(config.sweep["delta"], reverse=True)
    bath = config.build_bath()

    def thunk_for(delta):
        def thunk():
            params = config.params
            state0 = build_initial_state(config, config.grid, params, bath)
            U0 = state0.stack()
            if delta > 0.0:
                U0 = mollify_arr(config.grid, U0, delta, -1)
            state0 = ModelState.from_stack(config.grid, U0)
            stepper = replace(config.stepper, delta=delta)
            return dict(bath=bath, traj=run(state0, params, bath, stepper))

        return thunk

    specs = [(f"delta{_tagf(d)}", {"delta": d}, thunk_for(d)) for d in deltas]
    results = _run_many(specs, jobs, config.thresholds["sobolev_index"])

    failures = [
        f"{res.tag}: {res.error or res.traj.termination}"
        for res in results
        if res.error or res.traj.termination != "completed"
    ]
    rows = []
    diffs = {}
    if not failures:
        ref = next(r for r, d in zip(results, deltas) if d == 0.0)
        for res, d in zip(results, deltas):
            if d == 0.0:
                continue
            diffs[d] = _sup_state_diff(res.traj.states[-1], ref.traj.states[-1])
            rows.append({"delta": d, "sup_difference": diffs[d]})
    positive = sorted(diffs)  # ascending delta
    monotone = all(
        diffs[a] <= diffs[b] for a, b in zip(positive, positive[1:])
    )
    probe = config.thresholds["probe_delta"]
    probe_key = next(
        (d for d in diffs if abs(d - probe) <= 1e-12 * max(1.0, probe)), None
    )
    small_ok = (
        probe_key is not None
        and diffs[probe_key] <= config.thresholds["max_difference"]
    )
    verdicts = {
        "difference_monotone": bool(not failures and diffs and monotone),
        "small_delta_accuracy": bool(not failures and small_ok),
    }
    tables = {"mollifier": rows}
    return results, tables, verdicts, failures


SCENARIOS = {
    "dispersion": (_drive_dispersion, "measured vs predicted plane-wave frequencies"),
    "consistency": (_drive_consistency, "model gaps graded as powers of eps=mu"),
    "longtime": (_drive_longtime, "E^N boundedness over horizons of length 1/eps"),
    "burgers": (_drive_burgers, "gradient blow-up times against the 1/eps law"),
    "operator-audit": (_drive_operator_audit, "symmetry/coercivity/inversion checks"),
    "mollifier-study": (_drive_mollifier, "trajectory drift as the mollifier relaxes"),
}


# ---------------------------------------------------------------------------
# artifact writers


CSV_COLUMNS = ("t", "EN", "E_bp", "E_thm", "sup_U", "sup_gradU")


def _mode_column(m) -> str:
    if isinstance(m, tuple):
        return f"mode_k{m[0]}_{m[1]}"
    return f"mode_k{m}"


def write_run_csv(path: Path, records, track_modes=()) -> None:
    """One diagnostics row per record; header only when nothing was recorded."""
    header = list(CSV_COLUMNS) + [_mode_column(m) for m in track_modes]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in records:
            row = [
                repr(float(v))
                for v in (r.time, r.EN, r.E_bp, r.E_thm, r.sup_U, r.sup_gradU)
            ]
            if r.mode_amplitudes is not None:
                row.extend(repr(float(a)) for a in r.mode_amplitudes)
            w.writerow(row)


def write_snapshot(base: Path, U: np.ndarray, grid: Grid, time: float, model: str):
    """Flat little-endian float64 dump plus a JSON sidecar describing it."""
    arr = np.ascontiguousarray(U, dtype="<f8")
    with open(base.with_suffix(".bin"), "wb") as fh:
        fh.write(arr.tobytes(order="C"))
    sidecar = {
        "dtype": "<f8",
        "order": "C",
        "shape": list(arr.shape),
        "components": int(arr.shape[0]),
        "grid": {"d": grid.d, "n": grid.n, "L": grid.L, "gamma": grid.gamma},
        "time": float(time),
        "model": model,
    }
    with open(base.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_summary(path: Path, summary: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True))
        fh.write("\n")


@dataclass
class ScenarioResult:
    scenario: str
    verdicts: dict
    summary: dict
    out_dir: Path

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def run_scenario(config: ExperimentConfig, jobs: int = 1) -> ScenarioResult:
    """Expand, execute, grade, and write one scenario end to end.

    Individual run failures are recorded in the summary and fail the
    verdicts they feed; they never abort the remaining runs.
    """
    driver, _ = SCENARIOS[config.scenario]
    t0 = _time.perf_counter()
    results, tables, verdicts, failures = driver(config, max(1, jobs))
    total_s = _time.perf_counter() - t0

    out_dir = Path(config.out_dir) / config.scenario
    out_dir.mkdir(parents=True, exist_ok=True)

    runs_meta = []
    for res in results:
        run_dir = out_dir / res.tag
        run_dir.mkdir(parents=True, exist_ok=True)
        track = res.traj.config.track_modes if res.traj is not None else ()
        write_run_csv(run_dir / "diagnostics.csv", res.records, track)
        if res.traj is not None and config.snapshots != "none":
            if config.snapshots == "initial_final":
                write_snapshot(
                    run_dir / "state_initial", res.traj.states[0],
                    res.traj.grid, res.traj.times[0], res.traj.params.model,
                )
            write_snapshot(
                run_dir / "state_final", res.traj.states[-1],
                res.traj.grid, res.traj.times[-1], res.traj.params.model,
            )
        meta = {"tag": res.tag, "error": res.error}
        if res.traj is not None:
            meta.update(
                termination=res.traj.termination,
                termination_time=float(res.traj.termination_time),
                steps_taken=int(res.traj.steps_taken),
                n_records=int(res.traj.n_records),
            )
        if "case" not in res.values:
            meta["values"] = {
                k: v for k, v in res.values.items() if not isinstance(v, (dict, list))
            }
        runs_meta.append(meta)

    summary = {
        "scenario": config.scenario,
        "seed": config.seed,
        "parameters": config.raw,
        "thresholds": config.thresholds,
        "runs": runs_meta,
        "tables": tables,
        "verdicts": verdicts,
        "failures": failures,
        "runtimes": {
            "total_s": total_s,
            "per_run_s": {res.tag: res.runtime_s for res in results},
        },
        "written_at": datetime.now(timezone.utc).isoformat(),
    }
    write_summary(out_dir / "summary.json", summary)
    return ScenarioResult(
        scenario=config.scenario,
        verdicts=verdicts,
        summary=summary,
        out_dir=out_dir,
    )
