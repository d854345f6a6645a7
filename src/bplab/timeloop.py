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

run also advances a batch: members that share the model, the bottom and
the stepping policy step as one stack (K, rows, *rshape) through one flow,
each with its own start, eps, mu, delta, dt and t_end. A member leaves the
stack at its own termination: blowup at a record, dry or solver_failure
in a step (which the others then retake without it), completed at its own
last step. Its records, steps and termination are those of its run alone.
A single run is a batch of one.

Each member's CG velocity solves warm-start from its own last solves,
kept in the flow's history (models.RHSBundle). A retaken step restarts
every remaining member from the history it held when that step began, so
its solves, too, are those of its run alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
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
    "Batch",
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
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        if not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and nonnegative")


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


def _propagator(blocks: np.ndarray, scheme: str, dt: np.ndarray):
    """(W, n, members) -> R(dt L)^n W for the members' per-mode blocks L.

    blocks is (K, *rshape, m, m) and dt one step per member. One scheme
    step applied to the identity blocks yields R(dt L) itself:
    1 + z + z^2/2 + z^3/6 + z^4/24 for rk4, 1 + z + z^2/2 for rk2. Powers
    are taken over the members' stack at once and cached by (n, members).
    """
    eye = np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape)
    dt = dt.reshape((-1,) + (1,) * (blocks.ndim - 1))
    one_step = _STEPPERS[scheme](lambda X: blocks @ X, eye, dt)
    powers = {}

    def propagate(W: np.ndarray, n: int, members: tuple) -> np.ndarray:
        key = (n, members)
        if key not in powers:
            powers[key] = np.linalg.matrix_power(one_step[list(members)], n)
        return apply_mode_blocks(powers[key], W)

    return propagate


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


class Batch(tuple):
    """One Trajectory per member of a batched run, in member order.

    steps_taken and n_records are the sums over the members.
    """

    @property
    def steps_taken(self) -> int:
        return sum(t.steps_taken for t in self)

    @property
    def n_records(self) -> int:
        return sum(t.n_records for t in self)


@dataclass
class _Member:
    """One member's schedule and what has been recorded of it so far."""

    params: ModelParams
    config: StepperConfig
    n_steps: int
    dt: float
    times: list = field(default_factory=list)
    sup_u: list = field(default_factory=list)
    sup_grad_u: list = field(default_factory=list)
    modes: list = field(default_factory=list)
    states: list = field(default_factory=list)
    termination: str = "completed"
    termination_time: Optional[float] = None
    steps_taken: int = 0

    def end(self, termination: str, time: float, steps: int) -> None:
        self.termination, self.termination_time, self.steps_taken = termination, time, steps


# the shared parts of a batch's stepper configs
_SHARED = ("scheme", "output_stride", "blowup_threshold", "track_modes")


def run(state0, params, bath: Bathymetry, config, handles=None):
    """Advance state0 under params over bath; never raises on model failure.

    Physical failures (drying, blow-up, solver stall) terminate the run and
    are reported in Trajectory.termination; genuine usage errors still
    raise.

    A batch passes sequences instead: one start state, ModelParams,
    StepperConfig and handles dict (or None) per member, and gets a Batch
    of one Trajectory per member. The members share the model, bottom,
    rescaled_time, whether eps is zero, and their configs' scheme, stride,
    blow-up threshold and tracked modes; eps, mu, delta, dt and t_end are
    their own. A single run is a batch of one.
    """
    if isinstance(state0, ModelState):
        return _run_batch([state0], [params], bath, [config], [handles])[0]
    handles = [None] * len(state0) if handles is None else handles
    return Batch(_run_batch(list(state0), list(params), bath, list(config), list(handles)))


def _run_batch(states: list, params: list, bath: Bathymetry, configs: list, handles: list):
    """Step the members as one stack; each leaves it at its own termination.

    All active members have taken the same number of steps. A member leaves
    at a record that passes its blow-up threshold, at a step whose stage
    finds it dry or its solve stalled (the batch then retakes that step
    without it), or at its own last step. Each member's arithmetic is that
    of its run alone, so its records, steps and termination are too.
    """
    g = bath.grid
    K = len(states)
    if not K or not len(params) == len(configs) == len(handles) == K:
        raise ValueError("a batch needs one params, config and handles entry per state")
    first = configs[0]
    if any(getattr(c, f) != getattr(first, f) for c in configs for f in _SHARED):
        raise ValueError(f"batch members must share their configs' {_SHARED}")
    for state, p in zip(states, params):
        if state.stack().shape[0] != state_rows(p.model, g):
            raise ValueError("state rows do not match the model")
    bundle = make_rhs(params, bath, [c.delta for c in configs], handles)
    mode_idx = _check_modes(g, first.track_modes)

    members = []
    limit = CFL_LIMITS[first.scheme]
    for state, p, c in zip(states, params, configs):
        if c.t_end == 0.0:
            n_steps, dt = 0, c.dt
        else:
            n_steps = max(1, int(round(c.t_end / c.dt)))
            dt = c.t_end / n_steps
        freq = max_linear_frequency(p, g, state)
        if n_steps > 0 and freq * dt > limit:
            warnings.warn(
                f"dt={dt:.3e} resolves the fastest mode poorly"
                f" (dt*omega_max={freq * dt:.2f} > {limit} for {c.scheme})",
                CFLWarning,
                stacklevel=3,
            )
        members.append(_Member(p, c, n_steps, dt))

    advance = _STEPPERS[first.scheme]
    stride = first.output_stride
    threshold = first.blowup_threshold
    W = bundle.encode(np.stack([state.stack() for state in states]))
    ids = np.arange(K)  # the active members, in stack order
    dts = np.array([m.dt for m in members])
    last = np.array([m.n_steps for m in members])
    propagate = None
    if bundle.blocks is not None:
        propagate = _propagator(bundle.blocks, first.scheme, dts)
    history = bundle.history  # each member's last CG solves, which warm-start its next
    if history is not None:
        history.update(dict.fromkeys(range(K), ()))

    def drop(pos) -> None:
        nonlocal W, ids
        if len(pos):
            keep = np.setdiff1d(np.arange(len(ids)), pos)
            W, ids = W[keep], ids[keep]

    def record(pos: np.ndarray, steps: np.ndarray) -> None:
        """Record the active members at pos, each at its own step count;
        a member out of bounds, or at its last step, leaves the batch."""
        Wr = W if len(pos) == len(ids) else W[pos]
        rows = Wr.shape[1]
        # the state and every twisted first derivative of every row, one irfft
        dW = (g.ik_stack[:, None] * Wr[:, None]).reshape((len(pos), -1) + g.rshape)
        nod = g.irfft(np.concatenate([Wr, dW], axis=1))
        U = nod[:, :rows]
        su = np.abs(U).reshape(len(pos), -1).max(axis=1)
        sg = np.abs(nod[:, rows:]).reshape(len(pos), -1).max(axis=1)
        gone = []
        for j, (p, s) in enumerate(zip(pos, steps.tolist())):
            m = members[ids[p]]
            m.times.append(s * m.dt)
            m.sup_u.append(float(su[j]))
            m.sup_grad_u.append(float(sg[j]))
            m.states.append(np.array(U[j], copy=True))
            if mode_idx:
                m.modes.append(np.array([Wr[j][0][ix] for ix in mode_idx]))
            if not (np.isfinite(su[j]) and np.isfinite(sg[j])) or max(su[j], sg[j]) > threshold:
                m.end("blowup", s * m.dt, s)
            elif s == m.n_steps:
                m.end("completed", m.config.t_end, s)
            else:
                continue
            gone.append(p)
        drop(gone)

    s = 0  # steps completed by every active member
    record(np.arange(K), np.zeros(K, dtype=int))

    # records fall every output_stride steps and on each member's last step
    while ids.size:
        target = np.minimum((s // stride + 1) * stride, last[ids])
        if propagate is not None:
            for n in np.unique(target - s):
                pos = np.flatnonzero(target - s == n)
                part = W if len(pos) == len(ids) else W[pos]
                W[pos] = propagate(part, int(n), tuple(ids[pos].tolist()))
            reached = target
            s = int(target.max())  # where every member that stays active is
        else:
            active = tuple(ids.tolist())
            fn = partial(bundle.fn, members=active)
            dt = dts[ids].reshape((-1,) + (1,) * (W.ndim - 1))
            stop = int(target.min())
            try:
                while s < stop:
                    if history is not None:
                        saved = dict(history)
                    W = advance(fn, W, dt)
                    s += 1
            except (DryStateError, SolverDivergenceError) as e:
                name = "dry" if isinstance(e, DryStateError) else "solver_failure"
                gone = getattr(e, "members", active)
                for k in gone:
                    members[k].end(name, (s + 1) * members[k].dt, s)
                drop(np.flatnonzero(np.isin(ids, gone)))
                if history is not None:
                    history.update(saved)  # as the step began, as in each run alone
                continue  # the others retake step s + 1
            reached = np.full(len(ids), s)
        due = np.flatnonzero(reached == target)
        record(due, reached[due])

    return [
        Trajectory(
            grid=g,
            params=m.params,
            config=m.config,
            dt=m.dt,
            times=np.array(m.times),
            sup_u=np.array(m.sup_u),
            sup_grad_u=np.array(m.sup_grad_u),
            mode_history=np.array(m.modes) if m.modes else None,
            states=m.states,
            termination=m.termination,
            termination_time=m.termination_time,
            steps_taken=m.steps_taken,
        )
        for m in members
    ]
