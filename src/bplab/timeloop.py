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
whose horizons end together advances at once. A member whose stride
result is not finite (a step past RK4's stability limit, a power or a
state that overflows) fails that stride, as below. Every other run takes
the four stages of one RK4 step (_rk4), which binds each member's dt,
dt/2 and dt/6 once per set of active members and sums the stages in
place, in the textbook expression's order, so its steps are that
expression's bit for bit. Its steps run under numpy's overflow and
invalid-value errors, so a state that overflows or turns NaN ends as
blowup at that step, with its last finite state as its last record,
instead of stepping on to the next record.

A record decodes the stack [W; ik W] of its members with one inverse
transform, takes every member's sup norms and blow-up test at once, and
copies the decoded states once: each member keeps its own row of that
copy.

run also advances a batch: members over one bottom with equal batch_key
(the model, whether eps is zero, and the recording policy) step as one
stack (K, rows, *rshape) through one flow, each with its own start,
ModelParams (eps, mu and the mollifier's delta), dt and t_end. A member
leaves the stack at its own termination: blowup at a record, or blowup,
dry or solver_failure in a step, completed at its own last step. One rule
finds who failed: when the stack's step or stride fails, each member
concerned retakes it alone and keeps its result, and those whose own step
fails leave at it. Its records, steps and termination are those of its
run alone. A single run is a batch of one.

Each member's CG velocity solves warm-start from its own last solves,
kept in the flow's history (models.RHSBundle) as solutions (corrections
to the hydrostatic velocity, see models) with the images W x that CG
returns with them, so a warm start makes no apply beyond its CG
iterations. A retaken step starts each member from the history it held
when that step began, so its solves, too, are those of its run alone.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
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
    """Step size, horizon and recording policy for one run; the equations
    stepped, the mollifier's delta among them, are its ModelParams'."""

    dt: float
    t_end: float
    output_stride: int = 1
    blowup_threshold: float = 1e3
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


# the termination a failure of a step names
_FAILURES = {
    FloatingPointError: "blowup",
    DryStateError: "dry",
    SolverDivergenceError: "solver_failure",
}


def _termination(e: Exception) -> str:
    return next(name for kind, name in _FAILURES.items() if isinstance(e, kind))


def _alone(fn, W: np.ndarray, dt, n: int) -> tuple:
    """Up to n RK4 steps of one member W (1, rows, *rshape) under numpy's
    overflow and invalid-value errors: (last good state, steps completed,
    the termination of the step that failed, or None)."""
    step = _rk4(dt)
    with np.errstate(over="raise", invalid="raise"):
        for done in range(n):
            try:
                W = step(fn, W)
            except tuple(_FAILURES) as e:
                return W, done, _termination(e)
    return W, n, None


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
    """(W, n, members) -> R(dt L)^n W for the members' per-mode blocks L.

    blocks is (K, *rshape, m, m) and dt one step per member. One RK4 step
    applied to the identity blocks yields R(dt L) itself. Powers are taken
    over the members' stack at once and cached by (n, members), laid out as
    apply_mode_blocks takes them. A power past RK4's stability limit, or its
    product with a state, need not be finite: the stepper checks each
    member's result (_run_batch). A linear flat run never calls its
    bundle's flow.
    """
    eye = np.broadcast_to(np.eye(blocks.shape[-1]), blocks.shape)
    one_step = _rk4(dt.reshape((-1,) + (1,) * (blocks.ndim - 1)))(lambda X: blocks @ X, eye)
    powers = {}

    def propagate(W: np.ndarray, n: int, members: tuple) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # the stepper checks the result
            P = powers.get((n, members))
            if P is None:
                P = powers[n, members] = _mode_major(
                    np.linalg.matrix_power(one_step[list(members)], n)
                )
            return apply_mode_blocks(P, W)

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


def batch_key(params: ModelParams, config: StepperConfig) -> tuple:
    """What the members of one batch share: equal keys may step together.

    The model and whether eps is zero fix the flow; the stride, blow-up
    threshold and tracked modes fix the records. The rest of the params
    (eps, mu, delta), dt, t_end and the start state are each member's own.
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
    batch_key; the rest of their params (eps, mu, delta), dt and t_end are
    their own. A single run is a batch of one.
    """
    if isinstance(state0, ModelState):
        return _run_batch([state0], [params], bath, [config], [handles])[0]
    handles = [None] * len(state0) if handles is None else handles
    return Batch(_run_batch(list(state0), list(params), bath, list(config), list(handles)))


def _run_batch(states: list, params: list, bath: Bathymetry, configs: list, handles: list):
    """Step the members as one stack; each leaves it at its own termination.

    All active members have taken the same number of steps. A member leaves
    at a record that passes its blow-up threshold, at its own last step, or
    where its own step fails. The stack's unit of work fails in two ways: a
    stage-loop step raises one of _FAILURES, or a linear flat stride's
    product has a non-finite row. Each member concerned then retakes that
    unit alone (retake), from its state and the CG history the unit began
    with, and keeps its result; a member whose own step fails leaves at it
    (leave). Each member's arithmetic is that of its run alone, so its
    records, steps and termination are too.
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
        if state.grid != g:
            raise ValueError(f"a start state on {state.grid} does not lie on the bottom's {g}")
        if state.stack().shape[0] != state_rows(p.model, g):
            raise ValueError("state rows do not match the model")
    bundle = make_rhs(params, bath, handles=handles)
    mode_idx = _check_modes(g, first.track_modes)

    trajs, last = [], []  # each member's record, filled as it runs, and its step count
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
        trajs.append(Trajectory(g, p, c, dt, [], [], [], [], [], "completed", None, 0))
        last.append(n_steps)

    stride = first.output_stride
    limit = min(first.blowup_threshold, np.finfo(float).max)  # finite, or a blowup
    W = bundle.encode(np.stack([state.stack() for state in states]))
    ids = np.arange(K)  # the active members, in stack order
    dts = np.array([t.dt for t in trajs])
    last = np.array(last)
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

    def end(t: Trajectory, termination: str, time: float, steps: int) -> None:
        t.termination, t.termination_time, t.steps_taken = termination, time, steps

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
            k = ids[p]
            t = trajs[k]
            t.times.append(s * t.dt)
            t.sup_u.append(a)
            t.sup_grad_u.append(b)
            t.states.append(U[j])
            if modes is not None:
                t.mode_history.append(modes[j])
            if not fine:
                end(t, "blowup", s * t.dt, s)
            elif s == last[k]:
                end(t, "completed", t.config.t_end, s)
            else:
                continue
            gone.append(p)
        return gone

    def retake(W0: np.ndarray, members: tuple, n: int, lost: dict) -> np.ndarray:
        """The members' results of a unit of n steps from step s that failed
        in the stack, each member taking it alone, through its own blocks or
        flow, from its row of W0. One whose own step fails keeps its last
        good state, and lost maps it to (that state's step, the failed
        step's termination)."""
        out = np.empty_like(W0)
        for j, k in enumerate(members):
            if propagate is not None:
                fn = partial(apply_mode_blocks, _mode_major(bundle.blocks[[k]]))
            else:
                fn = partial(bundle.fn, members=(k,))
            X, done, failure = _alone(fn, W0[j : j + 1], dts[k], n)
            out[j] = X[0]
            if failure is not None:
                lost[k] = (s + done, failure)
        return out

    def leave(k: int, at: int, termination: str) -> None:
        """End member k in step at + 1. A blowup keeps its last finite state,
        the one at step at, as its last record."""
        pos = np.flatnonzero(ids == k)
        # a blowup records its last finite state unless step at was a record
        # step; that record ends it there if the state passes its threshold
        ended = termination == "blowup" and at % stride and record(pos, np.array([at]))
        if not ended:
            t = trajs[k]
            end(t, termination, (at + 1) * t.dt, at)
        drop(pos)

    s = 0  # steps completed by every active member
    drop(record(np.arange(K), np.zeros(K, dtype=int)))

    # records fall every output_stride steps and on each member's last step
    while ids.size:
        target = np.minimum((s // stride + 1) * stride, last[ids])
        active = tuple(ids.tolist())
        lost = {}  # member -> (its last good step, the termination of the step after it)
        if propagate is not None:
            left = (target - s).tolist()
            for n in sorted(set(left)):  # the members whose next records fall together
                pos = [j for j, v in enumerate(left) if v == n]
                members = tuple(active[j] for j in pos)
                before = W if len(pos) == len(ids) else W[pos]
                out = propagate(before, n, members)
                if not np.isfinite(out).all():  # a power or a state past overflow
                    bad = np.flatnonzero(~np.isfinite(out).reshape(len(pos), -1).all(axis=1))
                    out[bad] = retake(before[bad], tuple(members[j] for j in bad.tolist()), n, lost)
                if len(pos) == len(ids):
                    W = out
                else:
                    W[pos] = out
            s = int(target.max())  # where every member that stays active is
            reached = target
        else:
            fn = partial(bundle.fn, members=active)
            step = steps.get(active)
            if step is None:
                step = steps[active] = _rk4(dts[ids].reshape((-1,) + (1,) * (W.ndim - 1)))
            stop = int(target.min())
            # an overflow or NaN ends the run at its step, not at the next record
            with np.errstate(over="raise", invalid="raise"):
                while s < stop and not lost:
                    if history is not None:
                        saved = dict(history)
                    try:
                        W = step(fn, W)
                    except tuple(_FAILURES):
                        if history is not None:
                            history.update(saved)  # as the step began, as in each run alone
                        W = retake(W, active, 1, lost)
                        if not lost:
                            raise  # the stack's step fails where no member's own does
                    s += 1
            reached = np.full(len(ids), s)
        if lost:  # they leave below, each at its own step
            reached = np.where(np.isin(ids, list(lost)), -1, reached)
        due = np.flatnonzero(reached == target)
        if due.size:
            drop(record(due, reached[due]))
        for k, (at, termination) in lost.items():
            leave(k, at, termination)

    for t in trajs:
        t.times, t.sup_u, t.sup_grad_u = map(np.array, (t.times, t.sup_u, t.sup_grad_u))
        t.mode_history = np.array(t.mode_history) if t.mode_history else None
    return trajs
