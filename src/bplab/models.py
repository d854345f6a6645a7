"""Right-hand sides of the four evolution systems, as first-order flows.

State is a stacked array U of shape (m, *grid.shape): row 0 is the primary
scalar (surface zeta, log-depth q, or the Burgers profile u), rows 1..d the
velocity; ModelState holds one with its grid. The systems, over
depth h_b = 1 - beta*b and h = h_b + eps*zeta:

    sw       d_t zeta = -div(h V)
             d_t V    = -grad zeta - eps (V.grad)V
    bp       same mass equation;
             h_b(I + mu*Tb) d_t V = -h_b [grad zeta + eps (V.grad)V]
    mbp      evolves q = log(1 + eps*zeta/h_b)/eps instead of zeta:
             d_t q = -eps V.grad q - (1/h_b) div(h_b V)
             h_b*B d_t V = -eps h_b (V.grad)V - h_b*A grad zeta
    burgers  d_t u = -eps u u_x = -(eps/2) (u^2)_x    (d = 1 only)

A smoothing parameter delta > 0 wraps each equation: the scalar flow is
multiplied by (1 - delta*Lap_g)^{-2}, and the velocity solve is sandwiched
as (1 - delta*Lap_g)^{-1} Solve (1 - delta*Lap_g)^{-1} applied to the
weighted residual. delta = 0 is the plain system.

make_rhs returns a bundle whose flow takes and returns rfft coefficients
W = rfft(U). Every system steps on them and goes to nodes only for its
pointwise products, through one stacked inverse transform of the factors
it needs; the change of basis is linear, so it commutes with Runge-Kutta
stages exactly. A linear flat-bottom flow (eps = 0, b = 0) is a constant
(1+d)x(1+d) block per mode, which the bundle carries so the stepper can
apply whole steps as one matrix per mode. make_rhs reads those blocks off
the same flow it builds for every other case, by probing it with one
constant spectrum per state row, so each system is written once.

Every flow is built for a batch: members that share the model, the bottom
and whether eps is zero, with their own eps, mu and delta as (K, 1, ...)
coefficient columns. fn then acts on a member stack
(K, rows, *rshape): transforms and pointwise products run on the whole
stack, each member's velocity solve goes through its own handle, and a
linear flat batch carries blocks (K, *rshape, 1+d, 1+d). A member's
arithmetic is the same in a batch as alone. A single ModelParams gives a
batch of one whose fn takes one state, (rows, *rshape).

At the presets' sizes (n <= 256, a few members) one evaluation costs its
numpy calls more than its arithmetic, so the flows make as few as they
can without changing a floating-point operation: stacked factors come from
one table, stacked products from one multiply-sum, and unit coefficients
are skipped rather than multiplied. Each transform's input is one new
stack that the products write into with out= (no concatenates), d = 1
skips sums over its one velocity component, eps times the 2/3 mask and
eps times h_b are bound once per member set, a dense member's solve writes
its matmul straight into the next transform's input, and the last
transform's output is negated in place and returned. Every call returns a
new array, which the stepper may accumulate into.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bathymetry import Bathymetry, q_to_zeta_arr
from .diagnostics import exact_dispersion
from .errors import DryStateError, RegimeWarning, SolverDivergenceError
from .operators import CG_HISTORY, OperatorHandle, build_handle, get_weighted_ops
from .spectral import Grid, trunc_arr

__all__ = [
    "MODELS",
    "ModelParams",
    "ModelState",
    "RHSBundle",
    "build_handles",
    "make_rhs",
    "max_linear_frequency",
]

MODELS = ("sw", "bp", "mbp", "burgers")

# nondispersive velocity solves: which operator each dispersive model inverts
_HANDLE_KIND = {"bp": "I_plus_muTb", "mbp": "hb_B"}


@dataclass(frozen=True)
class ModelParams:
    """Regime parameters shared by all systems: eps scales nonlinearity, mu dispersion."""

    eps: float
    mu: float
    model: str

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (0 <= self.eps < np.inf and 0 <= self.mu < np.inf):
            raise ValueError("eps and mu must be finite and nonnegative")
        if self.model in ("bp", "mbp") and self.eps > 10.0 * self.mu:
            warnings.warn(
                f"eps={self.eps} far exceeds mu={self.mu}; the dispersive"
                " model is outside its intended regime",
                RegimeWarning,
                stacklevel=2,
            )


@dataclass(frozen=True, eq=False)
class ModelState:
    """The stacked state U at one instant.

    U is (1 + d, *grid.shape) for the water models (primary scalar, then
    the velocity) and (1, *grid.shape) for burgers. It is copied on
    construction and read-only.
    """

    grid: Grid
    U: np.ndarray

    def __post_init__(self):
        U = np.array(self.U, dtype=float, copy=True)
        if U.shape[1:] != self.grid.shape or U.shape[0] not in (1, 1 + self.grid.d):
            raise ValueError(
                f"state shape {U.shape} is not 1 or {1 + self.grid.d} rows"
                f" over grid {self.grid.shape}"
            )
        U.setflags(write=False)
        object.__setattr__(self, "U", U)

    def stack(self) -> np.ndarray:
        return self.U

    @classmethod
    def from_stack(cls, grid: Grid, U: np.ndarray) -> "ModelState":
        return cls(grid, U)


def state_rows(model: str, grid: Grid) -> int:
    """Number of stacked rows a model's state carries."""
    return 1 if model == "burgers" else 1 + grid.d


@dataclass
class RHSBundle:
    """A flow dW/dt = fn(W) on rfft coefficients W = encode(U) = rfft(U).

    Every flow steps on the coefficients and goes to nodes only for its
    pointwise products; decode is the inverse transform. blocks, set only
    for linear flat-bottom flows, holds the per-mode generators L_k, shape
    (*grid.rshape, 1+d, 1+d), probed from fn, which is the model's flow for
    every bundle; the stepper applies the blocks' RK4 powers itself.

    A batch bundle (make_rhs given a sequence of ModelParams) carries one
    member per params entry: params is that tuple, blocks gains a leading
    member axis, and fn(W, members=None) acts on a stack (K, rows, *rshape)
    of the listed members (all of them when None), in the listed order.

    history, set only for flows whose velocity solves run CG, maps a member
    id to that member's last CG_HISTORY solves, (x, W x) pairs oldest first.
    Each image is the one CG holds when it stops, y - r: W x to rounding
    plus what it inherits from the images its start combined, which the
    warm start keeps to a fifth of CG_TOL (operators._warm_start). So a
    warm start takes its residual from the images without an apply and
    still ends within CG_TOL of the true residual. A member with an entry
    warm-starts each CG solve from it and adds the solve; a member without
    one (every member, as make_rhs returns it) solves from zero.
    timeloop.run enters its members.
    """

    fn: Callable[..., np.ndarray]
    grid: Grid
    params: object
    blocks: Optional[np.ndarray] = None
    history: Optional[dict] = None

    def encode(self, U: np.ndarray) -> np.ndarray:
        return self.grid.rfft(U)

    def decode(self, W: np.ndarray) -> np.ndarray:
        return self.grid.irfft(W)


def build_handles(params: ModelParams, bath: Bathymetry) -> dict:
    """Factorized operator handles the model's velocity equation needs."""
    kind = _HANDLE_KIND.get(params.model)
    if kind is None:
        return {}
    return {kind: build_handle(kind, params.mu, bath)}


def _member_handles(kind: str, params: list, bath: Bathymetry, handles: list) -> list:
    """One handle per member: its own prebuilt one, checked, or one built per mu."""
    built = {}
    out = []
    for p, given in zip(params, handles):
        handle = (given or {}).get(kind)
        if not handle:
            if p.mu not in built:
                built[p.mu] = build_handle(kind, p.mu, bath)
            handle = built[p.mu]
        elif handle.kind != kind or handle.grid != bath.grid or handle.mu != p.mu:
            raise ValueError("supplied handle does not match model/grid/mu")
        out.append(handle)
    return out


def _probe_mode_blocks(fn, grid: Grid, members: int) -> np.ndarray:
    """Per-member, per-mode blocks L_k of a linear flow that acts mode by mode.

    Column j of every L_k is the flow of the spectrum holding 1 in row j of
    every coefficient, so 1 + d evaluations give all blocks (the probing of
    structured Jacobians: Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    A probe spans every mode at once, so it runs in extended precision: in
    double, the roundoff of a dispersive flow's large high-mode terms reaches
    the small low-mode entries. For mbp at n = 256, mu = 0.5, L = 2 pi, a
    double probe misses the blocks of the flow run one mode at a time by
    2.5e-11 of |L_1| and 2.8e-13 of |L_5|, and this one by at most 1e-14.

    Every linear flat flow is exactly i times a real block that couples only
    the scalar row to the velocity rows, so the probe's real parts are its
    roundoff (below 1e-16 of entries up to 31). The blocks keep only their
    imaginary parts, with +0.0 real parts: each entry of a block, and of each
    RK4 power of one, then has one nonzero part, and a single complex product
    rounds it once. A real part above 1e-12 of a member's largest entry is a
    real term of the flow, such as damping, and raises a ValueError.
    """
    ones = np.ones((members,) + grid.rshape, np.clongdouble)
    probes = np.moveaxis(np.multiply.outer(np.eye(1 + grid.d), ones), -grid.d - 1, 1)
    blocks = np.moveaxis(np.stack([fn(e) for e in probes], axis=-1), 1, -2)
    size = np.abs(blocks).reshape(members, -1).max(axis=1)
    real = np.abs(blocks.real).reshape(members, -1).max(axis=1)
    if np.any(real > 1e-12 * size):
        raise ValueError(
            f"linear flat flow has real parts up to {float(real.max()):.3g} beside entries"
            f" up to {float(size.max()):.3g}; its blocks must be i times a real matrix"
        )
    out = np.zeros(blocks.shape, complex)
    out.imag = blocks.imag
    return out


@dataclass
class _Coefs:
    """Per-member coefficients of a batch flow, for one set of active members.

    Arrays carry the members on their leading axis as (K, 1, ...) columns;
    m1 and m2 are a plain 1.0 when no member smooths. eps_mask and eps_hb
    are eps times the 2/3 mask and times h_b, bound once: the mask is 0 or
    1, and eps * h_b * x already evaluates as (eps * h_b) * x, so the flows
    get the bits of the products written out. smooth indexes the members
    with delta > 0, which get the mollifier sandwich around their solve, or
    is None when no member smooths.
    history is the flow's RHSBundle.history, shared by every set of members.
    """

    ids: tuple
    eps: np.ndarray
    eps_mask: np.ndarray
    eps_hb: np.ndarray
    mu: np.ndarray
    m1: object
    m2: object
    smooth: object
    handles: list
    history: Optional[dict]


def _member_coefs(params: list, bath: Bathymetry, deltas: list, handles: list, history):
    """members -> _Coefs of those members (all when None), built once per set."""
    grid = bath.grid
    K = len(params)
    col = (-1,) + (1,) * (1 + grid.d)  # broadcasts over (K, rows, *shape or *rshape)
    eps = np.array([p.eps for p in params]).reshape(col)
    mu = np.array([p.mu for p in params]).reshape(col)
    delta = np.array(deltas, dtype=float)
    m1 = m2 = 1.0  # plain ones when no member smooths; a member at delta = 0 gets ones
    if np.any(delta):
        m1, m2 = grid.mollifier(delta.reshape(col), -1), grid.mollifier(delta.reshape(col), -2)
    views = {}

    def take(members=None):
        view = views.get(members)
        if view is None:
            idx = list(range(K)) if members is None else list(members)
            pick = (lambda a: a[idx] if np.ndim(a) else a)
            on = delta[idx] > 0
            smooth = np.flatnonzero(on) if on.any() else None
            e = eps[idx]
            view = views[members] = _Coefs(
                tuple(idx), e, e * grid.dealias_mask, e * bath.hb, mu[idx], pick(m1), pick(m2),
                smooth, [handles[i] for i in idx], history,
            )
        return view

    return take


def _sandwich(g: Grid, y: np.ndarray, c: _Coefs) -> np.ndarray:
    """(1 - delta*Lap_g)^-1 applied to the members that smooth, the rest untouched."""
    if c.smooth is None:
        return y
    y = y.copy()
    y[c.smooth] = g.irfft(c.m1[c.smooth] * g.rfft(y[c.smooth]))
    return y


def _negated(c: _Coefs, R: np.ndarray, m_vel) -> np.ndarray:
    """R's rows [scalar; vel] turned in place into [-m2 * scalar; -m_vel * vel],
    each water flow's last step; a plain negation when no member smooths,
    since both scales are then 1."""
    if c.smooth is None:
        return np.negative(R, out=R)
    np.multiply(-c.m2, R[:, :1], out=R[:, :1])
    np.multiply(-m_vel, R[:, 1:], out=R[:, 1:])
    return R


def _solve_each(y: np.ndarray, c: _Coefs, out: np.ndarray) -> np.ndarray:
    """Each member's weighted velocity solve through its own handle, into out.

    A member without an entry in c.history solves straight into its rows of
    out, which must be C-contiguous, as a row slice of a new stack's are; a
    dense handle writes its product there. A member with an entry
    warm-starts from its past solves and adds this one as the pair (x, W x)
    the solve returns, keeping the last CG_HISTORY. The image is CG's own
    y - r (see RHSBundle.history), so the next warm start needs no apply. A
    stalled solve names its member on the SolverDivergenceError.
    """
    for i, (member, handle, rhs) in enumerate(zip(c.ids, c.handles, y)):
        prior = None if c.history is None else c.history.get(member)
        try:
            if prior is None:
                handle.solve_weighted_arrays(rhs, out=out[i])
                continue
            x, image = handle.solve_weighted_arrays(rhs, prior)
        except SolverDivergenceError as e:
            e.members = (member,)
            raise
        c.history[member] = (prior + ((x, image),))[-CG_HISTORY:]
        out[i] = x
    return out


@functools.lru_cache(maxsize=64)
def _factor_table(g: Grid, scalar: bool, gradq: bool, jac: bool):
    """(rows, symbols) of _nodal_factors: spectral factor r is W[:, rows[r]] *
    symbols[r], with 1 for the plain scalar, the 2/3 mask for T U and the
    band-limited derivative multipliers mik for T grad U[:, 0] and J."""
    d = g.d
    rows = [0] * scalar + list(range(1 + d)) + [0] * (d * gradq)
    symbols = [np.ones(g.rshape)] * scalar + [g.dealias_mask] * (1 + d) + list(g.mik) * gradq
    if jac:
        rows += [1 + i for i in range(d) for _ in range(d)]
        symbols += list(g.mik) * d
    table = np.array(symbols, dtype=complex)
    table.setflags(write=False)
    return np.array(rows), table


def _nodal_factors(g: Grid, W: np.ndarray, scalar: bool, gradq: bool, jac: bool):
    """Nodal factors of a spectral stack W = rfft(U), (K, rows, *rshape), from
    one stacked irfft.

    Returns (s, Ut, F), each with the member axis first: the nodal scalar
    U[:, :1], the band-limited state T U, and the stacked gradient rows
    F[:, r, j] = T d_j of row r: T grad U[:, 0] first when gradq, then the
    projected Jacobian J[:, i, j] = T d_j V_i of the velocity rows when jac.
    A factor not asked for is None. The spectral factors come from one
    (row, multiplier) table per grid and factor set (_factor_table) as one
    gather and one multiply, in place of slicing, multiplying and reshaping
    each factor; the plain scalar's multiplier is 1, so its coefficients
    pass through unchanged.
    """
    d = g.d
    rows, symbols = _factor_table(g, scalar, gradq, jac)
    nod = g.irfft(symbols * W[:, rows])
    i = int(scalar)
    F = None
    if gradq or jac:
        F = nod[:, i + 1 + d :].reshape((W.shape[0], -1, d) + g.shape)
    return (nod[:, :1] if scalar else None), nod[:, i : i + 1 + d], F


def _v_dot_grad(g: Grid, Vt: np.ndarray, F: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j Vt[:, j] F[:, r, j] for every gradient row r of a member stack,
    into out: V.grad q for the row T grad q, (V.grad)V for the rows of J,
    both at once for [T grad q; J]. In d = 1 the sum has one term, so it is
    that product; in d = 2 it is one addition, as numpy's sum over two
    terms makes it.
    """
    if g.d == 1:
        return np.multiply(Vt, F[:, :, 0], out=out)
    prod = Vt[:, None] * F
    return np.add(prod[:, :, 0], prod[:, :, 1], out=out)


def _div(g: Grid, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The band-limited divergence sum_j mik_j spec[:, j] of a member stack
    of vector spectra, into out, (K, 1, *rshape); in d = 1 the sum has one
    term, so it is that product, and in d = 2 it is one addition."""
    if g.d == 1:
        return np.multiply(g.mik, spec, out=out)
    prod = g.mik * spec
    return np.add(prod[:, :1], prod[:, 1:], out=out)


def make_rhs(
    params,
    bath: Bathymetry,
    delta=0.0,
    handles=None,
) -> RHSBundle:
    """Build the flow for params.model over the given bathymetry.

    handles may carry prebuilt operator factorizations (from
    build_handles); missing ones are built here.

    params may also be a sequence of ModelParams, the members of a batch;
    delta is then one value per member (or one for all) and handles one
    dict or None per member. The members share the model and whether eps
    is zero; eps, mu and delta are theirs. The bundle's fn acts on the
    member stack: transforms and pointwise products run on the whole stack,
    each member's velocity solve goes through its own handle, and members
    with equal mu share a handle built here.
    """
    if isinstance(params, ModelParams):
        bundle = _batch_rhs([params], bath, [delta], [handles])
        fn = bundle.fn
        blocks = None if bundle.blocks is None else bundle.blocks[0]
        return RHSBundle(lambda W: fn(W[None])[0], bundle.grid, params, blocks, bundle.history)
    K = len(params)
    deltas = [delta] * K if np.ndim(delta) == 0 else list(delta)
    handles = [None] * K if handles is None else list(handles)
    if not K or len(deltas) != K or len(handles) != K:
        raise ValueError("a batch needs one delta and one handles entry per member")
    return _batch_rhs(list(params), bath, deltas, handles)


def _batch_rhs(params: list, bath: Bathymetry, deltas: list, handles: list) -> RHSBundle:
    """make_rhs for a list of members; fn(W, members=None) acts on their stack."""
    K = len(params)
    if any(dl < 0 for dl in deltas):
        raise ValueError("delta must be nonnegative")
    p0 = params[0]
    nonlinear = p0.eps != 0.0
    for p in params:
        if (p.model, p.eps != 0.0) != (p0.model, nonlinear):
            raise ValueError("batch members must share model and eps == 0")
    g = bath.grid
    model = p0.model

    if model == "burgers" and g.d != 1:
        raise ValueError("burgers runs on d = 1 grids only")

    d = g.d
    mask = g.dealias_mask

    kind = _HANDLE_KIND.get(model)
    solvers = _member_handles(kind, params, bath, handles) if kind else [None] * K
    # the members share the bottom, so all of their handles solve by CG or none
    history = {} if kind and solvers[0].strategy == "pcg" else None
    take = _member_coefs(params, bath, deltas, solvers, history)

    if model == "burgers":
        # stepped in flux form -eps/2 d_x T((Tu)^2). Under the 2/3 rule
        # neither (Tu)^2 nor Tu * d_x(Tu) aliases onto the kept band, so
        # d_x T((Tu)^2) / 2 = T(Tu * d_x(Tu)) there: the advective flow, to
        # rounding. One inverse transform gives Tu, one forward transform
        # its square; d_x, -eps/2 and the mollifier fold into one coefficient.
        # In d = 1 the kept band is a prefix of the rfft layout, and irfft
        # zero-pads a shorter spectrum, so Tu is the transform of that prefix
        kept = int(mask.sum())
        coefs = {}

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            coef = coefs.get(members)
            if coef is None:
                c = take(members)
                coef = coefs[members] = -0.5 * c.eps * g.mik * c.m2
            X = g.irfft(W[..., :kept])
            X *= X
            P = g.rfft(X)
            return np.multiply(coef, P, out=P)

        return RHSBundle(fn, g, tuple(params))

    hbt = trunc_arr(g, bath.hb)
    if model == "mbp":
        # primary variable is q, surface recovered pointwise; h_b A grad zeta
        # is the weighted hb_A apply over a mu column, the phi part of the
        # operators' one chain
        ops = get_weighted_ops(bath)

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            c = take(members)
            q, Ut, F = _nodal_factors(g, W, True, nonlinear, nonlinear)
            Vt = Ut[:, 1:]
            K = W.shape[0]
            # [h_b V; zeta; V.grad q; (V.grad)V]
            S = np.empty((K, 1 + d + (1 + d) * nonlinear) + g.shape, Ut.dtype)
            np.multiply(hbt, Vt, out=S[:, :d])
            S[:, d : d + 1] = q_to_zeta_arr(q, c.eps if nonlinear else 0.0, bath)
            if nonlinear:
                _v_dot_grad(g, Vt, F, S[:, d + 1 :])
            P = g.rfft(S)
            # [T div(h_b V); grad zeta; T (V.grad)V]
            back = np.empty((K, 1 + d + d * nonlinear) + g.rshape, P.dtype)
            _div(g, P[:, :d], back[:, :1])
            np.multiply(g.ik_stack, P[:, d : d + 1], out=back[:, 1 : 1 + d])
            if nonlinear:
                np.multiply(mask, P[:, d + 2 :], out=back[:, 1 + d :])
            nod = g.irfft(back)
            w = ops.weighted("hb_A", nod[:, 1 : 1 + d], c.mu)
            if nonlinear:
                w += c.eps_hb * nod[:, 1 + d :]
            E = np.empty((K, 1 + d) + g.shape, nod.dtype)  # [div(h_b V) / h_b; solved V]
            np.multiply(bath.inv_hb, nod[:, :1], out=E[:, :1])
            _solve_each(_sandwich(g, w, c), c, E[:, 1:])
            R = g.rfft(E)
            if nonlinear:
                R[:, :1] += c.eps_mask * P[:, d + 1 : d + 2]
            return _negated(c, R, c.m1)

    else:
        hb = bath.hb
        hmin_static = bath.h_min

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            c = take(members)
            zeta, Ut, J = _nodal_factors(g, W, nonlinear, False, nonlinear)
            if nonlinear:
                _check_wet(hb, hmin_static, c, zeta)
            Vt = Ut[:, 1:]
            K = W.shape[0]
            S = np.empty((K, d + d * nonlinear) + g.shape, Ut.dtype)  # [h V; (V.grad)V]
            np.multiply(hbt + c.eps * Ut[:, :1], Vt, out=S[:, :d])
            if nonlinear:
                _v_dot_grad(g, Vt, J, S[:, d:])
            P = g.rfft(S)
            R = np.empty((K, 1 + d) + g.rshape, P.dtype)  # [div(h V); w]
            _div(g, P[:, :d], R[:, :1])
            w = np.multiply(g.ik_stack, W[:, :1], out=R[:, 1:])
            if nonlinear:
                w += c.eps_mask * P[:, d:]
            if model == "sw":
                return _negated(c, R, c.m2)
            y = hb * g.irfft(w)  # the I_plus_muTb equation in its weighted form
            R[:, 1:] = g.rfft(_solve_each(_sandwich(g, y, c), c, np.empty_like(y)))
            return _negated(c, R, c.m1)

    # eps = 0 over a flat bottom: the flow is linear and acts mode by mode
    blocks = None if nonlinear or not bath.is_flat else _probe_mode_blocks(fn, g, K)
    return RHSBundle(fn, g, tuple(params), blocks, history)


def _check_wet(hb: np.ndarray, hmin_static: float, c: _Coefs, zeta: np.ndarray) -> None:
    """Raise DryStateError, naming the members, if a free surface reached the bottom."""
    # eps > 0 and rounding are monotone, so min(eps*zeta) is eps*min(zeta)
    # exactly: one reduction clears the whole stack in the common case
    if hmin_static + (c.eps * zeta).min() > 0.0:
        return
    K = len(c.ids)
    low = hmin_static + c.eps.reshape(K) * zeta.reshape(K, -1).min(axis=1)
    dry = [
        member
        for i, member in enumerate(c.ids)
        if low[i] <= 0.0 and (hb + c.eps[i] * zeta[i]).min() <= 0.0
    ]
    if dry:
        err = DryStateError("free surface reached the bottom")
        err.members = tuple(dry)
        raise err


# ---------------------------------------------------------------------------
# stability bookkeeping


def max_linear_frequency(
    params: ModelParams, grid: Grid, state: Optional[ModelState] = None
) -> float:
    """Largest temporal frequency of the linearized system on this grid.

    Used for step-size sanity checks. Passing the state adds the advective
    estimate eps*sup|V|*k_max on top of the dispersive branch.
    """
    kmax = float(np.sqrt(grid.k2deriv.max()))
    lin = 0.0
    if params.model != "burgers":
        lin = exact_dispersion(params.model, kmax, params.mu)
    adv = 0.0
    if state is not None and params.eps > 0:
        rows = state.stack()
        sup = float(np.abs(rows[1:] if rows.shape[0] > 1 else rows[:1]).max())
        adv = params.eps * sup * kmax
    return lin + adv
