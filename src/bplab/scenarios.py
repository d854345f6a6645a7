"""Experiment configurations, the six scenarios, their runner, and artifact writers.

A scenario is a named study over one config file. Its SCENARIOS entry
declares what it reads from that file (its sweep axes, scenario_params
keys, thresholds with their defaults, and the model it fixes), its runs
as data (RunSpec: tag, swept values, model parameters, stepper), and the
grading of their results; load_config refuses any key it does not read.
run_scenario is the one place runs execute: a sweep's compatible runs
step together as one batch (batch_runs), batches go to a bounded worker
pool, and it writes

    <out>/<scenario>/<tag>/diagnostics.csv     per-run energy monitors
    <out>/<scenario>/<tag>/state_*.bin/.json   raw float64 snapshots
    <out>/<scenario>/summary.json              parameters, tables, verdicts

Summaries are deterministic for a fixed config and seed; wall-clock
numbers are confined to the keys in TIMING_KEYS so reruns can be compared
byte for byte after dropping them.
"""

from __future__ import annotations

import json
import math
import os
import re
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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
from .errors import BplabError, ConfigError
from .models import MODELS, ModelParams, ModelState
from .operators import KINDS, build_handle, coercivity_report
from .spectral import Grid, mollify_arr
from .timeloop import StepperConfig, Trajectory, _check_modes, batch_key, run
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
    "batch_runs",
    "run_scenario",
]

ENV_OUT = "BPLAB_OUT"
DEFAULT_OUT = "bplab_out"

# keys of summary.json that hold wall-clock data; excluded from
# reproducibility comparisons
TIMING_KEYS = ("runtimes", "written_at")

INITIAL_SHAPES = ("gaussian", "single_mode", "burgers_sine")
# snapshot policy -> the (file stem, record index) pairs each run writes
SNAPSHOT_POLICIES = {
    "none": (),
    "final": (("state_final", -1),),
    "initial_final": (("state_initial", 0), ("state_final", -1)),
}
SECTIONS = ("scenario", "grid", "model", "bathymetry", "initial", "stepper", "sweep",
            "scenario_params", "thresholds", "output", "seed")
# the keys of a grid and of a bottom mapping, read by _grid_and_bottom
GRID_KEYS = ("d", "n", "L", "gamma")
BOTTOM_KEYS = ("profile", "beta", "params")
# every scenario's thresholds hold sobolev_index, the N of the E^N energies it records
SHARED_THRESHOLDS = {"sobolev_index": 3}


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

    def build_bath(self) -> Bathymetry:
        return build_bathymetry(self.grid, self.profile, self.beta, self.bath_params)


def _cfg_err(src: str, key: str, reason: str) -> ConfigError:
    return ConfigError(f"{src}: {key}: {reason}")


def _sub(
    tree: dict, key: str, src: str, required: bool = True, where: str = "", keys=None,
    reader: str = "load_config",
) -> dict:
    """The mapping tree[key] ({} if absent and not required); keys, when
    given, are the only ones reader reads from it, and it may hold no other."""
    val = tree.get(key)
    if val is None:
        if required:
            raise _cfg_err(src, where + key, "missing section")
        return {}
    if not isinstance(val, dict):
        raise _cfg_err(src, where + key, "expected a mapping")
    if keys is not None:
        _only_read(val, keys, src, f"{where}{key}.", reader)
    return val


def _length(val, src: str, key: str) -> float:
    """Domain lengths accept plain numbers or 'Npi' shorthand like '20pi'."""
    if not isinstance(val, str):
        return _number(val, src, key)
    txt = val.strip().lower()
    try:
        if txt.endswith("pi"):
            return float(txt[:-2] or 1.0) * np.pi
    except ValueError:
        pass
    raise _cfg_err(src, key, f"cannot parse length {val!r}")


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """yaml's safe loader, parsing on libyaml where pyyaml has it.

    A plain 1e3 or 1.0e3 is a float, as in YAML 1.2 (1.1 reads text).
    """


# tried after YAML 1.1's int resolver, so 256 stays an int
_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _number(val, src: str, key: str, conv=float):
    """A finite YAML number as conv, the one reader of config numbers.

    Booleans, strings (quoted numbers too) and, for conv=int, fractions are refused.
    """
    try:
        if not isinstance(val, bool) and math.isfinite(val) and (conv is float or int(val) == val):
            return conv(val)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        pass
    kind = "an integer" if conv is int else "a finite number"
    raise _cfg_err(src, key, f"expected {kind}, got {val!r}")


def _nonnegative(val, src: str, key: str, conv=float, positive: bool = False):
    """_number, refusing a negative value, and zero too where positive."""
    x = _number(val, src, key, conv)
    if x < 0 or (positive and x == 0):
        rule = "positive" if positive else "nonnegative"
        raise _cfg_err(src, key, f"must be {rule}, got {x!r}")
    return x


_positive = partial(_nonnegative, positive=True)


def _only_read(section: dict, known, src: str, where: str, reader: str) -> None:
    """Refuse a key of section that reader does not read; where prefixes its name."""
    for key in section:
        if key not in known:
            raise _cfg_err(src, where + key, f"not read by {reader}, choose from {sorted(known)}")


def _mode_entry(val, d: int, src: str, key: str):
    if d == 1:
        return _number(val, src, key, int)
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        raise _cfg_err(src, key, "d=2 mode indices are [k1, k2] pairs")
    return (_number(val[0], src, key, int), _number(val[1], src, key, int))


def _grid_and_bottom(
    gt: dict, bt: dict, src: str, grid_key: str, bath_key: str, profile_key: str
):
    """(grid, bath, profile, beta, params) from a grid and a bottom mapping.

    The top-level sections and each audit case share these checks; errors
    name grid_key (or its .L), profile_key, or bath_key (or .beta, .params).
    """
    sizes = {
        key: _number(gt.get(key, default), src, f"{grid_key}.{key}", conv)
        for key, default, conv in (("d", 1, int), ("n", 0, int), ("gamma", 1.0, float))
    }
    try:
        grid = Grid(L=_length(gt.get("L", 2 * np.pi), src, f"{grid_key}.L"), **sizes)
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, grid_key, str(e)) from None
    profile = bt.get("profile", "flat")
    if profile not in PROFILES:
        raise _cfg_err(src, profile_key, f"unknown {profile!r}, choose from {sorted(PROFILES)}")
    beta = _number(bt.get("beta", 0.0), src, f"{bath_key}.beta")
    keys = PROFILES[profile].keys
    pt = _sub(bt, "params", src, required=False, where=f"{bath_key}.", keys=keys,
              reader=f"profile {profile!r}")
    params = {k: _number(v, src, f"{bath_key}.params.{k}", keys[k]) for k, v in pt.items()}
    try:
        bath = build_bathymetry(grid, profile, beta, params)
    except (BplabError, ValueError, TypeError) as e:
        raise _cfg_err(src, bath_key, str(e)) from None
    return grid, bath, profile, beta, params


def load_config(
    path, out: Optional[str] = None, seed: Optional[int] = None
) -> ExperimentConfig:
    """Parse and validate one experiment file into an ExperimentConfig.

    The scenario's SCENARIOS entry is its contract: a sweep axis,
    scenario_params key or threshold it does not read is refused, as is a
    model.name other than the one it fixes. So is a key of any other
    section that load_config does not read. Every complaint carries the
    file and the dotted key it refers to. out and seed override the file
    (command-line flags).
    """
    src = str(path)
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"{src}: unreadable: {e}") from None
    try:
        tree = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as e:
        raise ConfigError(f"{src}: not valid YAML: {e}") from None
    if not isinstance(tree, dict):
        raise ConfigError(f"{src}: top level must be a mapping")

    scenario = tree.get("scenario")
    if scenario not in SCENARIOS:
        raise _cfg_err(src, "scenario", f"unknown {scenario!r}, choose from {sorted(SCENARIOS)}")
    contract = SCENARIOS[scenario]
    reader = f"scenario {scenario!r}"

    grid, _, profile, beta, bath_params = _grid_and_bottom(
        _sub(tree, "grid", src, keys=GRID_KEYS),
        _sub(tree, "bathymetry", src, required=False, keys=BOTTOM_KEYS),
        src, "grid", "bathymetry", "bathymetry.profile",
    )

    mt = _sub(tree, "model", src, keys=("name", "eps", "mu"))
    name = mt.get("name")
    if name not in MODELS:
        raise _cfg_err(src, "model.name", f"unknown {name!r}, choose from {MODELS}")
    if contract.model not in (None, name):
        reason = f"scenario {scenario!r} runs {contract.model!r}, got {name!r}"
        raise _cfg_err(src, "model.name", reason)
    try:
        params = ModelParams(
            eps=_number(mt.get("eps", 0.0), src, "model.eps"),
            mu=_number(mt.get("mu", 0.0), src, "model.mu"),
            model=name,
        )
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, "model", str(e)) from None

    it = _sub(tree, "initial", src, required=False, keys=("shape", "amplitude", "mode", "width"))
    shape = it.get("shape", "single_mode")
    if shape not in INITIAL_SHAPES:
        raise _cfg_err(src, "initial.shape", f"unknown {shape!r}, choose from {INITIAL_SHAPES}")
    mode = _mode_entry(it.get("mode", 1 if grid.d == 1 else [1, 0]), grid.d, src, "initial.mode")
    if np.abs(mode).max() > grid.n / 2:
        reason = f"{mode} has a component with |k| > n/2 = {grid.n // 2}"
        raise _cfg_err(src, "initial.mode", reason)
    initial = InitialSpec(
        shape=shape,
        amplitude=_number(it.get("amplitude", 1e-3), src, "initial.amplitude"),
        mode=(mode,),
        width=_positive(it.get("width", 1.0), src, "initial.width"),
    )
    if shape == "burgers_sine" and grid.d != 1:
        raise _cfg_err(src, "initial.shape", "burgers_sine requires d=1")

    defaults = {"dt": 1e-3, "t_end": 1.0, "output_stride": 1, "blowup_threshold": 1e3, "delta": 0.0}
    st = _sub(tree, "stepper", src, required=False, keys=(*defaults, "track_modes", "scheme"))
    # the presets name their scheme; RK4 is the one the stepper runs
    if st.get("scheme", "rk4") != "rk4":
        raise _cfg_err(src, "stepper.scheme", f"only rk4 is run, got {st['scheme']!r}")
    track = st.get("track_modes", [])
    if not isinstance(track, (list, tuple)):
        raise _cfg_err(src, "stepper.track_modes", "expected a list")
    track_modes = tuple(_mode_entry(m, grid.d, src, "stepper.track_modes") for m in track)
    try:
        _check_modes(grid, track_modes)
    except ValueError as e:
        raise _cfg_err(src, "stepper.track_modes", str(e)) from None
    numbers = {  # each read as its default's type
        key: _number(st.get(key, default), src, f"stepper.{key}", type(default))
        for key, default in defaults.items()
    }
    try:
        stepper = StepperConfig(track_modes=track_modes, **numbers)
    except (ValueError, TypeError) as e:
        raise _cfg_err(src, "stepper", str(e)) from None

    sw = _sub(tree, "sweep", src, required=False, keys=contract.sweep, reader=reader)
    sweep = {}
    for key, val in sw.items():
        if not isinstance(val, list) or not val:
            raise _cfg_err(src, f"sweep.{key}", "expected a nonempty list of numbers")
        read = _positive if contract.sweep[key].positive else _nonnegative
        sweep[key] = tuple(read(v, src, f"sweep.{key}[{i}]") for i, v in enumerate(val))
    # a value's tag names its run and directory; contrast runs share eps_mu's
    tags = set()
    for key, vals in sweep.items():
        axis = "eps_mu" if key == "contrast_eps_mu" else key
        for v in vals:
            if (axis, _tagf(v)) in tags:
                reason = f"{v!r} repeats a run tag of sweep.{axis}"
                raise _cfg_err(src, f"sweep.{key}", reason)
            tags.add((axis, _tagf(v)))
    for key, axis in contract.sweep.items():
        if axis.required and key not in sweep:
            raise _cfg_err(src, f"sweep.{key}", f"required by scenario {scenario!r}")

    sp = _sub(tree, "scenario_params", src, required=False, keys=contract.params, reader=reader)
    sp = {k: contract.params[k](v, src, f"scenario_params.{k}") for k, v in sp.items()}

    thresholds = {**contract.thresholds, **SHARED_THRESHOLDS}
    tt = _sub(tree, "thresholds", src, required=False, keys=thresholds, reader=reader)
    thresholds.update((key, _number(val, src, f"thresholds.{key}")) for key, val in tt.items())

    ot = _sub(tree, "output", src, required=False, keys=("dir", "snapshots"))
    out_dir = out or ot.get("dir") or os.environ.get(ENV_OUT) or DEFAULT_OUT
    snapshots = ot.get("snapshots", "final")
    if snapshots not in SNAPSHOT_POLICIES:
        reason = f"unknown {snapshots!r}, choose from {tuple(SNAPSHOT_POLICIES)}"
        raise _cfg_err(src, "output.snapshots", reason)

    seed_val = _nonnegative(tree.get("seed", 0) if seed is None else seed, src, "seed", int)
    _only_read(tree, SECTIONS, src, "", reader)

    config = ExperimentConfig(
        scenario=scenario,
        grid=grid,
        params=params,
        profile=profile,
        beta=beta,
        bath_params=bath_params,
        initial=initial,
        stepper=stepper,
        sweep=sweep,
        scenario_params=sp,
        thresholds=thresholds,
        out_dir=str(out_dir),
        snapshots=snapshots,
        seed=seed_val,
        raw={k: v for k, v in tree.items() if k != "output"},
    )
    if contract.check is not None:
        contract.check(config, src)
    return config


# ---------------------------------------------------------------------------
# initial states


def _centered_gaussian(grid: Grid, amplitude: float, width: float) -> np.ndarray:
    out = np.ones(grid.shape)
    for xj in grid.x:  # in d=2, the meshgrid of one coordinate
        # nodes live in [0, L), so the offset from mid-domain needs no wrap
        out = out * np.exp(-0.5 * ((xj - 0.5 * grid.L) / width) ** 2)
    return amplitude * out


def _mode_cos(grid: Grid, amplitude: float, mode) -> np.ndarray:
    k0 = 2.0 * np.pi / grid.L
    if grid.d == 1:
        (k,) = mode if isinstance(mode, tuple) else (mode,)
        return amplitude * np.cos(k0 * k * grid.x[0])
    k1, k2 = mode
    return amplitude * np.cos(k0 * (k1 * grid.x[0] + k2 * grid.x[1]))


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
# runs and their execution


@dataclass(frozen=True)
class RunSpec:
    """One run of a sweep, as plain data.

    A time-stepping run starts from the configured initial state, exciting
    modes (if given) in place of initial.mode and, if smooth_start, mollified
    by its stepper's delta. An audit run holds (case index, case, seed).
    """

    tag: str
    values: dict
    params: Optional[ModelParams] = None
    stepper: Optional[StepperConfig] = None
    modes: Optional[tuple] = None
    smooth_start: bool = False
    audit: Optional[tuple] = None


@dataclass
class RunResult:
    """What one RunSpec produced: a trajectory and its records, audit reports, or an error."""

    tag: str
    values: dict
    traj: Optional[Trajectory] = None
    records: list = field(default_factory=list)
    reports: Optional[list] = None
    error: Optional[str] = None
    runtime_s: float = 0.0
    batch: int = 0


def _tagf(v: float) -> str:
    return f"{v:g}"


def _audit_reports(config: ExperimentConfig, i: int, case: dict, seed: int) -> list:
    """One report per operator kind: coercivity, solve and dense residuals."""
    where = f"scenario_params.cases[{i}]"
    grid, bath, mu = _audit_case(case, config.params.mu, config.scenario, where)
    trials = config.scenario_params.get("trials", 8)
    rng = np.random.default_rng(seed)
    out = []
    for kind in KINDS:
        handle = build_handle(kind, mu, bath)
        rep = coercivity_report(handle, trials=trials, rng=rng)
        solve_resid = 0.0
        dense_resid = 0.0
        M = assemble_dense(kind, mu, bath)
        # one draw and one apply of each form for all trials; solves and
        # dense products stay one per trial, as a batched matrix product
        # would round differently
        rs = rng.standard_normal((trials, grid.d) + grid.shape)
        backs = handle.apply_arrays(np.stack([handle.solve_arrays(r) for r in rs]))
        avs = handle.apply_weighted_arrays(rs)
        for r, back, av in zip(rs, backs, avs):
            solve_resid = max(solve_resid, float(np.abs(back - r).max() / np.abs(r).max()))
            mv = (M @ r.ravel()).reshape(r.shape)
            dense_resid = max(dense_resid, float(np.linalg.norm(mv - av) / np.linalg.norm(mv)))
        rep["solve_residual"] = solve_resid
        rep["dense_mismatch"] = dense_resid
        out.append(rep)
    return out


def batch_runs(specs: list) -> list:
    """Spec indices grouped into batches, in order of each batch's first spec.

    Time-stepping specs with equal timeloop.batch_key share a batch (the
    grid and bottom are the scenario's); an audit spec is a batch of its own.
    """
    batches, by_key = [], {}
    for i, spec in enumerate(specs):
        key = None if spec.audit is not None else batch_key(spec.params, spec.stepper)
        if key is not None and key in by_key:
            by_key[key].append(i)
        else:
            batches.append([i])
            if key is not None:
                by_key[key] = batches[-1]
    return batches


def _run_many(config: ExperimentConfig, bath, specs: list, jobs: int) -> list:
    """Execute RunSpecs batch by batch on a bounded pool; results come back in spec order.

    A batch of time-stepping specs (batch_runs) steps through one run call.
    Each member builds its start state inside its own error capture, so an
    inadmissible start ends that run, never the sweep; an error the batched
    call raises ends each of its members. Every member's runtime is its
    batch's seconds. Every trajectory then gets its diagnostics records
    (H^N energies, N the sobolev_index threshold) once, here, for both the
    grading and the CSV writer.
    """
    grid = config.grid

    def start(spec):
        state0 = build_initial_state(config, grid, spec.params, bath, modes=spec.modes)
        if spec.smooth_start and spec.stepper.delta > 0.0:
            state0 = ModelState(grid, mollify_arr(grid, state0.U, spec.stepper.delta, -1))
        return state0

    def work(b):
        t0 = _time.perf_counter()
        batch = [specs[i] for i in batches[b]]
        out = [RunResult(tag=sp.tag, values=sp.values, batch=b) for sp in batch]
        stepping = []  # (result, spec, start state)
        for res, spec in zip(out, batch):
            try:
                if spec.audit is not None:
                    res.reports = _audit_reports(config, *spec.audit)
                else:
                    stepping.append((res, spec, start(spec)))
            except BplabError as e:
                res.error = f"{type(e).__name__}: {e}"
        if stepping:
            owners, members, states = zip(*stepping)
            try:
                trajs = run(
                    states, [m.params for m in members], bath, [m.stepper for m in members]
                )
            except BplabError as e:
                for res in owners:
                    res.error = f"{type(e).__name__}: {e}"
            else:
                for res, traj in zip(owners, trajs):
                    res.traj = traj
        elapsed = _time.perf_counter() - t0
        for res in out:
            res.runtime_s = elapsed
        return out

    batches = batch_runs(specs)
    order = range(len(batches))
    if jobs <= 1 or len(batches) <= 1:
        done = [work(b) for b in order]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(work, order))
    results = [None] * len(specs)
    for indices, out in zip(batches, done):
        for i, res in zip(indices, out):
            results[i] = res
    for res in results:
        if res.traj is not None:
            res.records = build_records(res.traj, bath, N=config.thresholds["sobolev_index"])
    return results


def _sup_state_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _failure(res: RunResult) -> Optional[str]:
    """'tag: reason' for a run that raised or did not complete, else None."""
    if res.error or res.traj.termination != "completed":
        return f"{res.tag}: {res.error or res.traj.termination}"
    return None


# ---------------------------------------------------------------------------
# scenarios: each declares its runs and grades their results


def _dispersion_runs(config: ExperimentConfig) -> list:
    """Linear flat runs per mu, each exciting every tracked mode."""
    return [
        RunSpec(
            f"mu{_tagf(mu)}", {"mu": mu}, replace(config.params, eps=0.0, mu=mu),
            config.stepper, modes=config.stepper.track_modes,
        )
        for mu in config.sweep.get("mu", (config.params.mu,))
    ]


def _check_dispersion(config: ExperimentConfig, src: str) -> None:
    """Its runs are linear (eps = 0), and it grades the tracked modes."""
    if config.params.eps != 0.0:
        raise _cfg_err(src, "model.eps", "scenario 'dispersion' runs at eps = 0")
    if not config.stepper.track_modes:
        raise _cfg_err(src, "stepper.track_modes", "required by scenario 'dispersion'")


def _grade_dispersion(config: ExperimentConfig, bath, results: list):
    """Each tracked mode of each completed run gets one table row."""
    k0 = 2.0 * np.pi / config.grid.L
    gamma = config.grid.gamma
    rows, failures = [], []
    worst = 0.0
    for res in results:
        if msg := _failure(res):
            failures.append(msg)
            continue
        mu = res.values["mu"]
        for m in config.stepper.track_modes:
            k_tw = k0 * (abs(m) if config.grid.d == 1 else np.hypot(m[0], gamma * m[1]))
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
    ok = not failures and bool(rows) and worst <= config.thresholds["max_rel_err"]
    verdicts = {"dispersion_rel_err": bool(ok)}
    return {"dispersion": rows, "max_rel_err": worst if rows else None}, verdicts, failures


def _consistency_runs(config: ExperimentConfig) -> list:
    """sw, bp and mbp from one physical state per eps = mu."""
    return [
        RunSpec(
            f"epsmu{_tagf(v)}_{model}", {"eps_mu": v, "model": model},
            ModelParams(eps=v, mu=v, model=model), config.stepper,
        )
        for v in config.sweep["eps_mu"]
        for model in ("sw", "bp", "mbp")
    ]


def _grade_consistency(config: ExperimentConfig, bath, results: list):
    """Model gaps at the final time, graded as orders in eps = mu."""
    by_key = {res.tag: res for res in results}
    failures = [f for f in map(_failure, results) if f]
    rows, pairs_sw, pairs_mbp = [], [], []
    for v in config.sweep["eps_mu"]:
        trio = {m: by_key[f"epsmu{_tagf(v)}_{m}"] for m in ("sw", "bp", "mbp")}
        if any(map(_failure, trio.values())):
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
    return {"consistency": rows, "orders": orders}, verdicts, failures


def _longtime_runs(config: ExperimentConfig) -> list:
    """mbp over horizons of length horizon_over_eps / eps; contrast runs last."""
    contrast = config.sweep.get("contrast_eps_mu", ())
    horizon = config.scenario_params.get("horizon_over_eps", 1.0)
    return [
        RunSpec(
            f"epsmu{_tagf(v)}", {"eps_mu": v, "contrast": v in contrast},
            ModelParams(eps=v, mu=v, model="mbp"), replace(config.stepper, t_end=horizon / v),
        )
        for v in config.sweep["eps_mu"] + contrast
    ]


def _grade_longtime(config: ExperimentConfig, bath, results: list):
    """Graded (non-contrast) runs must complete and keep E^N within bounds."""
    rows, failures = [], []
    graded_ok, bounded = True, True
    factor = config.thresholds["energy_bound_factor"]
    for res in results:
        is_contrast = res.values["contrast"]
        if (msg := _failure(res)) and not is_contrast:
            failures.append(msg)  # a graded run that raised or ended early
            graded_ok = False
        if res.error:
            if is_contrast:
                failures.append(msg)
            continue
        en = np.array([r.EN for r in res.records])
        ratio = float(en.max() / en[0]) if en[0] > 0 else np.inf
        rows.append(
            {
                "eps_mu": res.values["eps_mu"],
                "contrast": is_contrast,
                "termination": res.traj.termination,
                "t_end": float(res.traj.times[-1]),
                "EN_initial": float(en[0]),
                "EN_max": float(en.max()),
                "EN_ratio": ratio,
            }
        )
        if not is_contrast and not ratio <= factor:
            bounded = False
    verdicts = {
        "longtime_completed": graded_ok,
        "energy_bounded": bool(graded_ok and bounded),
    }
    horizon = config.scenario_params.get("horizon_over_eps", 1.0)
    return {"longtime": rows, "horizon_over_eps": horizon}, verdicts, failures


def _burgers_runs(config: ExperimentConfig) -> list:
    """One Burgers run per eps, each stepped until its gradient blows up."""
    return [
        RunSpec(
            f"eps{_tagf(e)}", {"eps": e}, ModelParams(eps=e, mu=0.0, model="burgers"),
            config.stepper,
        )
        for e in config.sweep["eps"]
    ]


def _grade_burgers(config: ExperimentConfig, bath, results: list):
    """Detected shock times vs characteristics, then the 1/eps law."""
    rows, failures, pairs = [], [], []
    all_match = True
    for res in results:
        eps = res.values["eps"]
        if res.error:
            failures.append(f"{res.tag}: {res.error}")
            all_match = False
            continue
        state0 = build_initial_state(config, config.grid, res.traj.params, bath)
        try:
            predicted = burgers_shock_time(config.grid, state0.U[0], eps)
        except BplabError as e:
            failures.append(f"{res.tag}: {type(e).__name__}: {e}")
            all_match = False
            continue
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
    return {"burgers": rows, "scaling_slope": slope}, verdicts, failures


AUDIT_CASE_KEYS = (*GRID_KEYS, *BOTTOM_KEYS, "mu")


def _audit_case(case, default_mu: float, src: str, where: str):
    """Grid, bottom and mu of one operator-audit case.

    Raises ConfigError naming the offending key: a case must be a mapping
    of known keys with an n, whose grid and bottom build.
    """
    if not isinstance(case, dict):
        raise _cfg_err(src, where, "expected a mapping")
    _only_read(case, AUDIT_CASE_KEYS, src, f"{where}.", "an audit case")
    if "n" not in case:
        raise _cfg_err(src, f"{where}.n", "missing")
    grid, bath = _grid_and_bottom(case, case, src, where, where, where)[:2]
    mu = _number(case.get("mu", default_mu), src, f"{where}.mu")
    if mu < 0:
        raise _cfg_err(src, where, "mu must be nonnegative")
    return grid, bath, mu


def _case_list(val, src: str, key: str) -> list:
    """Audit cases as written, each checked by _audit_case."""
    if not isinstance(val, list):
        raise _cfg_err(src, key, "expected a list of mappings")
    for i, case in enumerate(val):
        # a case without mu takes model.mu, which ModelParams checks
        _audit_case(case, 0.0, src, f"{key}[{i}]")
    return val


def _audit_cases(config: ExperimentConfig) -> list:
    """scenario_params.cases, or one case made of the config's own grid and bottom."""
    cases = config.scenario_params.get("cases")
    if cases:
        return cases
    g = config.grid
    bottom = {"profile": config.profile, "beta": config.beta, "params": dict(config.bath_params)}
    return [{"d": g.d, "n": g.n, "L": g.L, "gamma": g.gamma, "mu": config.params.mu, **bottom}]


def _audit_runs(config: ExperimentConfig) -> list:
    """One run per audit case, on the case's own grid and bottom.

    No time stepping is involved; each case draws its trials from its own
    seed, split off config.seed.
    """
    cases = _audit_cases(config)
    seeds = np.random.default_rng(config.seed).integers(0, 2**63 - 1, size=len(cases))
    return [
        RunSpec(f"case{i}_d{c.get('d', 1)}_n{c['n']}", dict(c), audit=(i, c, int(s)))
        for i, (c, s) in enumerate(zip(cases, seeds))
    ]


def _grade_operator_audit(config: ExperimentConfig, bath, results: list):
    """Symmetry / coercivity / inversion verdicts over every case and kind."""
    rows, failures = [], []
    thr = config.thresholds
    sym_ok = coercive_ok = solve_ok = dense_ok = flat_ok = True
    saw_flat_identity = False
    for res in results:
        if res.error:
            failures.append(f"{res.tag}: {res.error}")
            sym_ok = coercive_ok = solve_ok = dense_ok = False
            continue
        for rep in res.reports:
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
    return {"operator_audit": rows}, verdicts, failures


def _mollifier_runs(config: ExperimentConfig) -> list:
    """One run per delta, largest first, each started from its own smoothing."""
    return [
        RunSpec(
            f"delta{_tagf(d)}", {"delta": d}, config.params,
            replace(config.stepper, delta=d), smooth_start=True,
        )
        for d in sorted(config.sweep["delta"], reverse=True)
    ]


def _check_mollifier(config: ExperimentConfig, src: str) -> None:
    if 0.0 not in config.sweep["delta"]:
        raise _cfg_err(src, "sweep.delta", "must include 0.0 as the reference run")


def _grade_mollifier(config: ExperimentConfig, bath, results: list):
    """Trajectory distance to the unmollified run as delta shrinks."""
    failures = [f for f in map(_failure, results) if f]
    rows = []
    diffs = {}
    if not failures:
        ref = next(r for r in results if r.values["delta"] == 0.0)
        for res in results:
            d = res.values["delta"]
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
    return {"mollifier": rows}, verdicts, failures


class Axis(NamedTuple):
    """A sweep axis a scenario reads; positive where its runs divide by the value."""

    required: bool = False
    positive: bool = False


class Scenario(NamedTuple):
    """A scenario's runs, its grading and its config contract.

    The contract is everything the scenario reads beyond the shared sections:
    load_config refuses any other sweep axis, scenario_params key or
    threshold, and a model.name other than the model it fixes.
    """

    runs: Callable  # config -> list of RunSpec
    grade: Callable  # (config, bath, results) -> (tables, verdicts, failures)
    about: str
    thresholds: dict  # key -> default, besides SHARED_THRESHOLDS
    sweep: dict = {}  # axis -> Axis
    params: dict = {}  # scenario_params key -> reader(val, src, key)
    model: Optional[str] = None  # the one model it runs, if it fixes one
    check: Optional[Callable] = None  # (config, src): what the keys alone cannot say


SCENARIOS = {
    "dispersion": Scenario(
        _dispersion_runs, _grade_dispersion, "measured vs predicted plane-wave frequencies",
        {"max_rel_err": 1e-3}, sweep={"mu": Axis()}, check=_check_dispersion,
    ),
    "consistency": Scenario(
        _consistency_runs, _grade_consistency, "model gaps graded as powers of eps=mu",
        {"min_order_bp_sw": 0.9, "min_order_bp_mbp": 1.7}, sweep={"eps_mu": Axis(required=True)},
    ),
    "longtime": Scenario(
        _longtime_runs, _grade_longtime, "E^N boundedness over horizons of length 1/eps",
        {"energy_bound_factor": 2.0},
        sweep={
            "eps_mu": Axis(required=True, positive=True), "contrast_eps_mu": Axis(positive=True)
        },
        params={"horizon_over_eps": _positive}, model="mbp",
    ),
    "burgers": Scenario(
        _burgers_runs, _grade_burgers, "gradient blow-up times against the 1/eps law",
        {"max_shock_rel_err": 0.1, "max_slope_dev": 0.05},
        sweep={"eps": Axis(required=True, positive=True)}, model="burgers",
    ),
    "operator-audit": Scenario(
        _audit_runs, _grade_operator_audit, "symmetry/coercivity/inversion checks",
        {"max_symmetry": 1e-10, "max_solve_residual": 1e-9, "max_dense_mismatch": 1e-12,
         "max_flat_identity_dev": 1e-12},
        params={"trials": partial(_positive, conv=int), "cases": _case_list},
    ),
    "mollifier-study": Scenario(
        _mollifier_runs, _grade_mollifier, "trajectory drift as the mollifier relaxes",
        {"probe_delta": 1e-3, "max_difference": 1e-3},
        sweep={"delta": Axis(required=True)}, check=_check_mollifier,
    ),
}


# ---------------------------------------------------------------------------
# artifact writers


CSV_COLUMNS = ("t", "EN", "E_bp", "E_thm", "sup_U", "sup_gradU")


def _mode_column(m) -> str:
    if isinstance(m, (tuple, list)):
        return f"mode_k{m[0]}_{m[1]}"
    return f"mode_k{m}"


def write_run_csv(path: Path, records, track_modes=()) -> None:
    """One diagnostics row per record; header only when nothing was recorded.

    Each value is written as repr(float(v)), one row at a time. No column
    name and no float's repr holds a comma, quote or line break, so these
    are the bytes csv.writer writes for the same rows.
    """
    header = list(CSV_COLUMNS) + [_mode_column(m) for m in track_modes]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for r in records:
            row = [r.time, r.EN, r.E_bp, r.E_thm, r.sup_U, r.sup_gradU]
            if r.mode_amplitudes is not None:
                row.extend(r.mode_amplitudes)
            fh.write(",".join(map(repr, map(float, row))) + "\n")


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

    This is the one place runs execute: the scenario declares its RunSpecs,
    _run_many runs them over the configured bottom (built once, unless
    every run is an audit case with its own), and the scenario grades the
    results. Individual run failures are recorded in the summary and fail
    the verdicts they feed; they never abort the remaining runs.
    """
    scenario = SCENARIOS[config.scenario]
    t0 = _time.perf_counter()
    specs = scenario.runs(config)
    bath = config.build_bath() if any(s.audit is None for s in specs) else None
    results = _run_many(config, bath, specs, max(1, jobs))
    tables, verdicts, failures = scenario.grade(config, bath, results)
    total_s = _time.perf_counter() - t0

    out_dir = Path(config.out_dir) / config.scenario
    out_dir.mkdir(parents=True, exist_ok=True)

    runs_meta = []
    for res in results:
        run_dir = out_dir / res.tag
        run_dir.mkdir(parents=True, exist_ok=True)
        traj = res.traj
        track = traj.config.track_modes if traj is not None else ()
        write_run_csv(run_dir / "diagnostics.csv", res.records, track)
        meta = {"tag": res.tag, "error": res.error, "batch": res.batch}
        if traj is not None:
            for name, i in SNAPSHOT_POLICIES[config.snapshots]:
                write_snapshot(
                    run_dir / name, traj.states[i], traj.grid, traj.times[i], traj.params.model
                )
            meta.update(
                termination=traj.termination,
                termination_time=float(traj.termination_time),
                steps_taken=int(traj.steps_taken),
                n_records=int(traj.n_records),
            )
        if res.reports is None:
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
    return ScenarioResult(config.scenario, verdicts, summary, out_dir)
