"""Fixed-step time integration with recording and failure detection.

run() advances a model state with classical RK4 (or midpoint RK2) at a
uniform step, records W^{1,inf}-type monitors and tracked mode amplitudes
every output_stride steps, and stops early when the run leaves the valid
regime. Termination is one of

    completed       reached t_end
    blowup          a recorded sup passed blowup_threshold, or NaN/Inf
    dry             the free surface touched the bottom mid-step
    solver_failure  the velocity solve stopped converging

The requested dt is advisory: the actual step is t_end/n_steps with
n_steps = round(t_end/dt), so runs always land on t_end exactly and the
record times are exact multiples of the step.

Every run steps on the rfft coefficients W = rfft(U) of its state and
decodes them only at records. Linear flat-bottom runs carry constant
per-mode blocks L_k, on which one step of the scheme is exactly
W <- R(dt L_k) W with R its stability polynomial. Those runs advance from
one record to the next by the cached power R(dt L)^n, n the output stride
or the final remainder: the same scheme and the same records, without the
stage evaluations in between.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bathymetry import Bathymetry
from .errors import CFLWarning, DryStateError, SolverDivergenceError
from .models import (
    ModelParams,
    ModelState,
    apply_mode_blocks,
    make_rhs,
    max_linear_frequency,
    state_rows,
)
from .spectral import Grid

__all__ = [
    "SCHEMES",
    "CFL_LIMITS",
    "TERMINATIONS",
    "StepperConfig",
    "Trajectory",
    "step",
    "run",
]

SCHEMES = ("rk4", "rk2")
TERMINATIONS = ("completed", "blowup", "dry", "solver_failure")

# stable |dt * i*omega| along the imaginary axis (rk2 has no true interval;
# its practical bound for these weakly damped spectra is kept conservative)
CFL_LIMITS = {"rk4": 2.8, "rk2": 1.0}


@dataclass(frozen=True)
class StepperConfig:
    """Step size, scheme, horizon and recording policy for one run."""

    dt: float
    t_end: float
    scheme: str = "rk4"
    output_stride: int = 1
    blowup_threshold: float = 1e3
    delta: float = 0.0
    track_modes: tuple = ()

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass
class Trajectory:
    """Recorded run: monitors, tracked modes, and full states at strides."""

    grid: Grid
    params: ModelParams
    config: StepperConfig
    dt: float
    times: np.ndarray
    sup_u: np.ndarray
    sup_grad_u: np.ndarray
    mode_history: Optional[np.ndarray]
    states: list
    termination: str
    termination_time: float
    steps_taken: int

    @property
    def n_records(self) -> int:
        return len(self.times)

    def state_at(self, i: int) -> ModelState:
        return ModelState.from_stack(self.grid, self.states[i], float(self.times[i]))

    @property
    def final_state(self) -> ModelState:
        return self.state_at(self.n_records - 1)


def _rk4_step(fn, W, dt):
    k1 = fn(W)
    k2 = fn(W + 0.5 * dt * k1)
    k3 = fn(W + 0.5 * dt * k2)
    k4 = fn(W + dt * k3)
    return W + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk2_step(fn, W, dt):
    k1 = fn(W)
    k2 = fn(W + 0.5 * dt * k1)
    return W + dt * k2


_STEPPERS = {"rk4": _rk4_step, "rk2": _rk2_step}


def step(state: ModelState, rhs, config: StepperConfig) -> ModelState:
    """One scheme step of size config.dt under an assembled flow bundle.

    A vanishing right-hand side leaves the state unchanged and only moves
    the clock forward by dt.
    """
    U = state.stack()
    if U.shape[0] != state_rows(rhs.params.model, state.grid):
        raise ValueError("state row count does not match the bundle's model")
    advance = _STEPPERS[config.scheme]
    W = advance(rhs.fn, rhs.encode(U), config.dt)
    return ModelState.from_stack(state.grid, rhs.decode(W), state.time + config.dt)


def _propagator(blocks: np.ndarray, scheme: str, dt: float):
    """W -> R(dt L)^n W for per-mode blocks L, powers cached by n.

    One scheme step applied to the identity blocks yields R(dt L) itself:
    1 + z + z^2/2 + z^3/6 + z^4/24 for rk4, 1 + z + z^2/2 for rk2.
    """
    eye = np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape)
    one_step = _STEPPERS[scheme](lambda X: blocks @ X, eye, dt)
    powers = {}

    def propagate(W: np.ndarray, n: int) -> np.ndarray:
        if n not in powers:
            powers[n] = np.linalg.matrix_power(one_step, n)
        return apply_mode_blocks(powers[n], W)

    return propagate


def _sup_grad(grid: Grid, spec: np.ndarray) -> float:
    """Largest twisted first derivative over every state row; NaN if any is."""
    return float(np.abs(grid.irfft(grid.ik_stack[:, None] * spec)).max())


def _check_modes(grid: Grid, track) -> list:
    """rfft indices of tracked modes, given as signed wavenumbers.

    d=1 modes are 0 <= k <= n/2; d=2 pairs (k1, k2) take -n/2 <= k1 < n/2,
    whose negative values index the rfft rows from the end, and 0 <= k2 <= n/2.
    """
    idx = []
    half = grid.n // 2
    for item in track:
        if grid.d == 1:
            k = int(item)
            if not 0 <= k <= half:
                raise ValueError(f"mode {k} outside rfft layout")
            idx.append((k,))
        else:
            k1, k2 = (int(item[0]), int(item[1]))
            if not (-half <= k1 < half and 0 <= k2 <= half):
                raise ValueError(
                    f"mode {(k1, k2)} outside -n/2 <= k1 < n/2, 0 <= k2 <= n/2"
                )
            idx.append((k1, k2))
    return idx


def run(
    state0: ModelState,
    params: ModelParams,
    bath: Bathymetry,
    config: StepperConfig,
    handles: Optional[dict] = None,
) -> Trajectory:
    """Advance state0 under params over bath; never raises on model failure.

    Physical failures (drying, blow-up, solver stall) terminate the run and
    are reported in Trajectory.termination; genuine usage errors still
    raise.
    """
    g = bath.grid
    U0 = state0.stack()
    if U0.shape[0] != state_rows(params.model, g):
        raise ValueError("state rows do not match the model")
    bundle = make_rhs(params, bath, config.delta, handles)
    mode_idx = _check_modes(g, config.track_modes)

    if config.t_end == 0.0:
        n_steps = 0
        dt = config.dt
    else:
        n_steps = max(1, int(round(config.t_end / config.dt)))
        dt = config.t_end / n_steps

    freq = max_linear_frequency(params, g, state0)
    limit = CFL_LIMITS[config.scheme]
    if n_steps > 0 and freq * dt > limit:
        warnings.warn(
            f"dt={dt:.3e} resolves the fastest mode poorly"
            f" (dt*omega_max={freq * dt:.2f} > {limit} for {config.scheme})",
            CFLWarning,
            stacklevel=2,
        )

    advance = _STEPPERS[config.scheme]
    W = bundle.encode(U0)

    times: list[float] = []
    sup_u: list[float] = []
    sup_grad_u: list[float] = []
    modes: list[np.ndarray] = []
    states: list[np.ndarray] = []

    termination, termination_time = "completed", config.t_end

    def record(s: int) -> bool:
        """Append a record at step s; True if the state is out of bounds."""
        t = s * dt
        U = bundle.decode(W)
        su = float(np.abs(U).max()) if U.size else 0.0
        sg = _sup_grad(g, W)
        times.append(t)
        sup_u.append(su)
        sup_grad_u.append(sg)
        states.append(np.array(U, copy=True))
        if mode_idx:
            modes.append(np.array([W[0][ix] for ix in mode_idx]))
        bad = not np.isfinite(su) or not np.isfinite(sg)
        return bad or max(su, sg) > config.blowup_threshold

    if record(0):
        termination, termination_time, n_steps = "blowup", 0.0, 0

    propagate = None
    if bundle.blocks is not None:
        propagate = _propagator(bundle.blocks, config.scheme, dt)

    # records fall every output_stride steps and on the last step
    stride = config.output_stride
    s = 0  # steps completed
    for end in range(stride, n_steps + stride, stride):
        end = min(end, n_steps)
        try:
            if propagate is not None:
                W = propagate(W, end - s)
                s = end
            else:
                while s < end:
                    W = advance(bundle.fn, W, dt)
                    s += 1
        except DryStateError:
            termination, termination_time = "dry", (s + 1) * dt
            break
        except SolverDivergenceError:
            termination, termination_time = "solver_failure", (s + 1) * dt
            break
        if record(s):
            termination, termination_time = "blowup", s * dt
            break

    return Trajectory(
        grid=g,
        params=params,
        config=config,
        dt=dt,
        times=np.array(times),
        sup_u=np.array(sup_u),
        sup_grad_u=np.array(sup_grad_u),
        mode_history=np.array(modes) if modes else None,
        states=states,
        termination=termination,
        termination_time=termination_time,
        steps_taken=s,
    )
