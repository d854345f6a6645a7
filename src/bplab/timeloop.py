"""Fixed-step time integration with recording and failure detection.

run() advances a model state with classical RK4 at a uniform step,
records W^{1,inf}-type monitors and tracked mode amplitudes every
output_stride steps, and stops early when the run leaves the valid regime.
Termination is one of

    completed       reached t_end
    blowup          a recorded sup passed blowup_threshold or was NaN/Inf,
                    or a step overflowed or made a NaN
    dry             the free surface touched the bottom mid-step
    solver_failure  the velocity solve stopped converging

The requested dt is advisory: the actual step is t_end/n_steps with
n_steps = round(t_end/dt), so runs always land on t_end exactly and the
record times are exact multiples of the step.

Every run steps on the rfft coefficients W = rfft(U) of its state and
decodes them only at records. Linear flat-bottom runs carry constant
per-mode blocks L_k, on which one RK4 step is exactly W <- R(dt L_k) W
with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 its stability polynomial. Those
runs advance from one record to the next by the cached power R(dt L)^n, n
the output stride or the final remainder: the same scheme and the same
records, without the stage evaluations in between. The stepper applies
each power itself, as one complex product per block entry
(apply_mode_blocks), and never calls such a run's flow. Members whose next
records fall on the same step advance by one block product, so a stack
whose horizons end together advances at once. A member whose power is not
finite (a step past RK4's stability limit and a long stride) takes that
stride's steps one at a time, as below. Every other run takes the
four stages of one RK4 step (_rk4), which binds each member's dt, dt/2
and dt/6 once per set of active members and sums the stages in place, in
the textbook expression's order, so its steps are that expression's bit
for bit. Its steps between two records run under
numpy's overflow and invalid-value errors, so a state that overflows or
turns NaN ends as blowup at that step, with its last finite state as its
last record, instead of stepping on to the next record.

A record decodes the stack [W; ik W] of its members with one inverse
transform, takes every member's sup norms and blow-up test at once, and
copies the decoded states once: each member keeps its own row of that
copy.

run also advances a batch: members over one bottom with equal batch_key
(the model, whether eps is zero, and the recording policy) step as one
stack (K, rows, *rshape) through one flow, each with its own start, eps,
mu, delta, dt and t_end. A member leaves the stack at its own termination:
blowup at a record, or blowup, dry or solver_failure in a step (which the
others then retake without it), completed at its own last step. A step
that overflows is retaken by each member alone to find the member that
failed. Its records, steps and termination are those of its run alone. A
single run is a batch of one.

Each member's CG velocity solves warm-start from its own last solves,
kept in the flow's history (models.RHSBundle) as solutions with the
images W x that CG returns with them, so a warm start makes no apply
beyond its CG iterations. A retaken step restarts every remaining
member from the history it held when that step began, so its solves, too,
are those of its run alone.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .bathymetry import Bathymetry
from .errors import CFLWarning, DryStateError, SolverDivergenceError
from .models import ModelParams, ModelState, make_rhs, max_linear_frequency, state_rows
from .spectral import Grid

__all__ = [
    "CFL_LIMIT",
    "TERMINATIONS",
    "StepperConfig",
    "Trajectory",
    "Batch",
    "batch_key",
    "run",
]

TERMINATIONS = ("completed", "blowup", "dry", "solver_failure")

# stable |dt * i*omega| of RK4 along the imaginary axis, just inside 2*sqrt(2)
CFL_LIMIT = 2.8


def _is_integer(x) -> bool:
    # bool is an Integral, but True is neither a stride nor a mode
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class StepperConfig:
    """Step size, horizon and recording policy for one run."""

    dt: float
    t_end: float
    output_stride: int = 1
    blowup_threshold: float = 1e3
    delta: float = 0.0
    track_modes: tuple = ()

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("t_end must be finite and nonnegative")
        if not _is_integer(self.output_stride):
            raise ValueError(f"output_stride must be an integer, not {self.output_stride!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        for mode in self.track_modes:
            if not all(map(_is_integer, mode if isinstance(mode, (tuple, list)) else (mode,))):
                raise ValueError(f"track_modes entries must be integers or pairs, not {mode!r}")
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


def _rk4(dt):
    """step(fn, W) -> one classical RK4 step of dW/dt = fn(W) at step dt.

    dt is a number or a per-member column; dt/2 and dt/6 are bound here,
    once per set of members. The step takes the textbook expression's
    operations in its own order, so its result is that expression's bit
    for bit, but it accumulates in place into arrays it has just made:
    never into W, a stage input fn has seen, or anything fn returned.
    """
    half, sixth = 0.5 * dt, dt / 6.0

    def stage(W, c, k):
        Y = c * k
        Y += W
        return Y

    def step(fn, W):
        k1 = fn(W)
        k2 = fn(stage(W, half, k1))
        k3 = fn(stage(W, half, k2))
        k4 = fn(stage(W, dt, k3))
        S = 2.0 * k2
        S += k1
        S += 2.0 * k3
        S += k4
        S *= sixth
        S += W
        return S

    return step


def _mode_major(blocks: np.ndarray) -> np.ndarray:
    """Per-mode blocks (K, *rshape, m, m) laid out as apply_mode_blocks takes
    them: one C-contiguous array (K, i, j, *rshape)."""
    return np.ascontiguousarray(np.moveaxis(blocks, (-2, -1), (1, 2)))


def apply_mode_blocks(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-member, per-mode block product over a leading member axis k:
    out[k, i] = sum_j L[k, ..., i, j] * W[k, j] on every mode, for
    P = _mode_major(L).

    On finite input this is np.einsum("k...ij,kj...->ki...", L, W), bit for
    bit, for blocks whose entries each have one nonzero part, as probed
    blocks and their RK4 powers do (models._probe_mode_blocks): each term's
    parts are then rounded once, as einsum rounds them. The terms are summed
    in j's order, and adding 0.0 turns a zero sum's -0.0 into einsum's +0.0.
    """
    T = P * W[:, None]
    out = T[:, :, 0] + T[:, :, 1]
    for j in range(2, T.shape[2]):
        out += T[:, :, j]
    out += 0.0
    return out


def _propagator(blocks: np.ndarray, dt: np.ndarray):
    """(W, n, members) -> (R(dt L)^n W, lost) for the members' per-mode blocks L.

    blocks is (K, *rshape, m, m) and dt one step per member. One RK4 step
    applied to the identity blocks yields R(dt L) itself. Powers are taken
    over the members' stack at once and cached by (n, members), laid out as
    apply_mode_blocks takes them, and each member's power is checked for
    finiteness once, when it is cached. A member whose power is not finite
    (dt past RK4's stability limit, n large) takes its n RK4 steps one at a
    time instead, stage by stage under numpy's overflow and invalid-value
    errors, as every other run steps: lost maps each such member whose step
    overflows to the steps it completed, and its row of the result holds its
    last finite state. This and that fallback are the only code that applies
    blocks; a linear flat run never calls its bundle's flow.
    """
    eye = np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape)
    one_step = _rk4(dt.reshape((-1,) + (1,) * (blocks.ndim - 1)))(lambda X: blocks @ X, eye)
    powers = {}

    def stepwise(X: np.ndarray, n: int, k: int) -> tuple:
        """Up to n RK4 steps of member k alone: (last finite state, steps taken)."""
        fn = partial(apply_mode_blocks, _mode_major(blocks[[k]]))
        step = _rk4(dt[k])
        with np.errstate(over="raise", invalid="raise"):
            for done in range(n):
                try:
                    X = step(fn, X)
                except FloatingPointError:
                    return X, done
        return X, n

    def propagate(W: np.ndarray, n: int, members: tuple) -> tuple:
        # (laid-out power of the members whose power is finite, their
        # positions, the positions of the others), once per (n, members)
        entry = powers.get((n, members))
        if entry is None:
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                P = np.linalg.matrix_power(one_step[list(members)], n)
            fine = np.isfinite(P).reshape(len(members), -1).all(axis=1)
            ok = slice(None) if fine.all() else np.flatnonzero(fine)
            entry = powers[n, members] = (_mode_major(P[ok]), ok, np.flatnonzero(~fine))
        power, ok, bad = entry
        if not len(bad):
            return apply_mode_blocks(power, W), {}
        out = np.empty_like(W)
        if ok.size:
            out[ok] = apply_mode_blocks(power, W[ok])
        lost = {}
        for j in bad.tolist():
            X, done = stepwise(W[j : j + 1], n, members[j])
            out[j] = X[0]
            if done < n:
                lost[members[j]] = done
        return out, lost

    return propagate


def _check_modes(grid: Grid, track) -> list:
    """rfft indices of tracked modes, given as signed wavenumbers.

    A d=1 mode is one integer 0 <= k <= n/2; a d=2 mode is a pair (k1, k2)
    with -n/2 <= k1 < n/2, whose negative values index the rfft rows from
    the end, and 0 <= k2 <= n/2. Any other shape raises a ValueError.
    """
    idx = []
    half = grid.n // 2
    span = "0 <= k <= n/2" if grid.d == 1 else "-n/2 <= k1 < n/2, 0 <= k2 <= n/2"
    for item in track:
        parts = item if grid.d == 2 and isinstance(item, (tuple, list)) else (item,)
        if len(parts) != grid.d or not all(map(_is_integer, parts)):
            shape = "one integer" if grid.d == 1 else "a pair of integers"
            raise ValueError(f"mode {item!r} is not {shape}, as a d={grid.d} mode must be")
        *ks, last = map(int, parts)
        if not (all(-half <= k < half for k in ks) and 0 <= last <= half):
            raise ValueError(f"mode {item!r} outside {span}")
        idx.append((*ks, last))
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


def batch_key(params: ModelParams, config: StepperConfig) -> tuple:
    """What the members of one batch share: equal keys may step together.

    The model and whether eps is zero fix the flow; the stride, blow-up
    threshold and tracked modes fix the records. eps, mu, delta, dt, t_end
    and the start state are each member's own.
    """
    return (
        params.model, params.eps == 0.0,
        config.output_stride, config.blowup_threshold, config.track_modes,
    )


def run(state0, params, bath: Bathymetry, config, handles=None):
    """Advance state0 under params over bath; never raises on model failure.

    Physical failures (drying, blow-up, solver stall) terminate the run and
    are reported in Trajectory.termination; genuine usage errors still
    raise.

    A batch passes sequences instead: one start state, ModelParams,
    StepperConfig and handles dict (or None) per member, and gets a Batch
    of one Trajectory per member. The members share the bottom and their
    batch_key; eps, mu, delta, dt and t_end are their own. A single run is
    a batch of one.
    """
    if isinstance(state0, ModelState):
        return _run_batch([state0], [params], bath, [config], [handles])[0]
    handles = [None] * len(state0) if handles is None else handles
    return Batch(_run_batch(list(state0), list(params), bath, list(config), list(handles)))


def _run_batch(states: list, params: list, bath: Bathymetry, configs: list, handles: list):
    """Step the members as one stack; each leaves it at its own termination.

    All active members have taken the same number of steps. A member leaves
    at a record that passes its blow-up threshold, at a step that overflows
    it, finds it dry or stalls its solve (the batch then retakes that step
    without it), or at its own last step. Each member's arithmetic is that
    of its run alone, so its records, steps and termination are too.
    """
    g = bath.grid
    K = len(states)
    if not K or not len(params) == len(configs) == len(handles) == K:
        raise ValueError("a batch needs one params, config and handles entry per state")
    first = configs[0]
    key = batch_key(params[0], first)
    if any(batch_key(p, c) != key for p, c in zip(params, configs)):
        raise ValueError("batch members must share their batch_key")
    for state, p in zip(states, params):
        if state.stack().shape[0] != state_rows(p.model, g):
            raise ValueError("state rows do not match the model")
    bundle = make_rhs(params, bath, [c.delta for c in configs], handles)
    mode_idx = _check_modes(g, first.track_modes)

    members = []
    for state, p, c in zip(states, params, configs):
        if c.t_end == 0.0:
            n_steps, dt = 0, c.dt
        else:
            n_steps = max(1, int(round(c.t_end / c.dt)))
            dt = c.t_end / n_steps
        freq = max_linear_frequency(p, g, state)
        if n_steps > 0 and freq * dt > CFL_LIMIT:
            warnings.warn(
                f"dt={dt:.3e} resolves the fastest mode poorly"
                f" (dt*omega_max={freq * dt:.2f} > {CFL_LIMIT})",
                CFLWarning,
                stacklevel=3,
            )
        members.append(_Member(p, c, n_steps, dt))

    stride = first.output_stride
    limit = min(first.blowup_threshold, np.finfo(float).max)  # finite, or a blowup
    W = bundle.encode(np.stack([state.stack() for state in states]))
    ids = np.arange(K)  # the active members, in stack order
    dts = np.array([m.dt for m in members])
    last = np.array([m.n_steps for m in members])
    propagate = None
    steps = {}  # active members -> their RK4 step, dt bound per member
    if bundle.blocks is not None:
        propagate = _propagator(bundle.blocks, dts)
    history = bundle.history  # each member's last CG solves, which warm-start its next
    if history is not None:
        history.update(dict.fromkeys(range(K), ()))
    # the tracked modes of row 0, gathered from a member stack by one index
    modes_at = None
    if mode_idx:
        modes_at = (slice(None), 0) + tuple(np.array(k) for k in zip(*mode_idx))

    def drop(pos) -> None:
        nonlocal W, ids
        if len(pos):
            keep = np.setdiff1d(np.arange(len(ids)), pos)
            W, ids = W[keep], ids[keep]

    def record(pos: np.ndarray, at: np.ndarray) -> list:
        """Record the active members at pos, each at its own step count; return
        the positions of those that leave: out of bounds, or at their last step."""
        P = len(pos)
        Wr = W if P == len(ids) else W[pos]
        # the state and every twisted first derivative of every row, one irfft
        S = np.empty((1 + g.d,) + Wr.shape, W.dtype)
        S[0] = Wr
        np.multiply(g.ik_stack[:, None, None], Wr, out=S[1:])
        nod = g.irfft(S)
        sup = np.maximum.reduce(np.abs(nod).reshape(1 + g.d, P, -1), axis=2)
        su, sg = sup[0], np.maximum.reduce(sup[1:])
        ok = np.maximum(su, sg) <= limit  # False at NaN or inf
        U = nod[0].copy()  # each member keeps its own row
        modes = Wr[modes_at] if modes_at else None
        gone = []
        for j, (p, s, a, b, fine) in enumerate(
            zip(pos.tolist(), at.tolist(), su.tolist(), sg.tolist(), ok.tolist())
        ):
            m = members[ids[p]]
            m.times.append(s * m.dt)
            m.sup_u.append(a)
            m.sup_grad_u.append(b)
            m.states.append(U[j])
            if modes is not None:
                m.modes.append(modes[j])
            if not fine:
                m.end("blowup", s * m.dt, s)
            elif s == m.n_steps:
                m.end("completed", m.config.t_end, s)
            else:
                continue
            gone.append(p)
        return gone

    def fails_alone(active: tuple, saved: Optional[dict]) -> dict:
        """member -> its termination, for the members whose next step fails
        when each takes it alone, from the history the step began with."""
        failed = {}
        for j, k in enumerate(active):
            step = _rk4(dts[[k]].reshape((-1,) + (1,) * (W.ndim - 1)))
            try:
                with np.errstate(over="raise", invalid="raise"):
                    step(partial(bundle.fn, members=(k,)), W[j : j + 1])
            except FloatingPointError:
                failed[k] = "blowup"
            except DryStateError:
                failed[k] = "dry"
            except SolverDivergenceError:
                failed[k] = "solver_failure"
            if history is not None:
                history.update(saved)
        return failed

    def leave(failed: dict, s: int) -> None:
        """End the failed members in step s + 1. A blowup keeps its last finite
        state, the one at step s, as its last record."""
        pos = np.flatnonzero(np.isin(ids, list(failed)))
        names = [failed[k] for k in ids[pos].tolist()]
        blown = [p for p, name in zip(pos.tolist(), names) if name == "blowup"]
        ended = ()
        if blown and s % stride:  # step s was not recorded yet
            ended = record(np.array(blown), np.full(len(blown), s))
        for p, name in zip(pos.tolist(), names):
            if p not in ended:
                m = members[ids[p]]
                m.end(name, (s + 1) * m.dt, s)
        drop(pos)

    s = 0  # steps completed by every active member
    drop(record(np.arange(K), np.zeros(K, dtype=int)))

    # records fall every output_stride steps and on each member's last step
    while ids.size:
        target = np.minimum((s // stride + 1) * stride, last[ids])
        active = tuple(ids.tolist())
        overflowed = {}  # member -> its last finite step, where its stepwise stride overflowed
        if propagate is not None:
            left = (target - s).tolist()
            for n in sorted(set(left)):  # the members whose next records fall together
                pos = [j for j, v in enumerate(left) if v == n]
                if len(pos) == len(ids):
                    W, lost = propagate(W, n, active)
                else:
                    W[pos], lost = propagate(W[pos], n, tuple(active[j] for j in pos))
                overflowed.update((k, s + done) for k, done in lost.items())
            reached = target
            if overflowed:  # they leave below, each at its own step
                reached = np.where(np.isin(ids, list(overflowed)), -1, target)
            s = int(target.max())  # where every member that stays active is
        else:
            fn = partial(bundle.fn, members=active)
            step = steps.get(active)
            if step is None:
                step = steps[active] = _rk4(dts[ids].reshape((-1,) + (1,) * (W.ndim - 1)))
            stop = int(target.min())
            saved = None
            try:
                # an overflow or NaN ends the run at its step, not at the next record
                with np.errstate(over="raise", invalid="raise"):
                    while s < stop:
                        if history is not None:
                            saved = dict(history)
                        W = step(fn, W)
                        s += 1
            except (DryStateError, SolverDivergenceError, FloatingPointError) as e:
                if history is not None:
                    history.update(saved)  # as the step began, as in each run alone
                if isinstance(e, FloatingPointError):
                    failed = fails_alone(active, saved)
                    if not failed:
                        raise  # the stack's step fails where no member's own does
                else:
                    name = "dry" if isinstance(e, DryStateError) else "solver_failure"
                    failed = dict.fromkeys(getattr(e, "members", active), name)
                leave(failed, s)
                continue  # the others retake step s + 1
            reached = np.full(len(ids), s)
        due = np.flatnonzero(reached == target)
        if due.size:
            drop(record(due, reached[due]))
        for k, at in overflowed.items():
            leave({k: "blowup"}, at)

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
