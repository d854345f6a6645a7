"""Right-hand sides of the four evolution systems, as first-order flows.

State is a stacked array U of shape (m, *grid.shape): row 0 is the primary
scalar (surface zeta, log-depth q, or the Burgers profile u), rows 1..d the
velocity; ModelState holds one with its grid and time. The systems, over
depth h_b = 1 - beta*b and h = h_b + eps*zeta:

    sw       d_t zeta = -div(h V)
             d_t V    = -grad zeta - eps (V.grad)V
    bp       same mass equation;
             h_b(I + mu*Tb) d_t V = -h_b [grad zeta + eps (V.grad)V]
    mbp      evolves q = log(1 + eps*zeta/h_b)/eps instead of zeta:
             d_t q = -eps V.grad q - (1/h_b) div(h_b V)
             h_b*B d_t V = -eps h_b (V.grad)V - h_b*A grad zeta
    burgers  d_t u = -eps u u_x                       (d = 1 only)

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

Every flow is built for a batch: members that share the model, the bottom,
rescaled_time and whether eps is zero, with their own eps, mu and delta as
(K, 1, ...) coefficient columns. fn then acts on a member stack
(K, rows, *rshape): transforms and pointwise products run on the whole
stack, each member's velocity solve goes through its own handle, and a
linear flat batch carries blocks (K, *rshape, 1+d, 1+d). A member's
arithmetic is the same in a batch as alone. A single ModelParams gives a
batch of one whose fn takes one state, (rows, *rshape).
"""

from __future__ import annotations

import math
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
    "time_derivative_stack",
    "max_linear_frequency",
]

MODELS = ("sw", "bp", "mbp", "burgers")

# nondispersive velocity solves: which operator each dispersive model inverts
_HANDLE_KIND = {"bp": "I_plus_muTb", "mbp": "hb_B"}


@dataclass(frozen=True)
class ModelParams:
    """Regime parameters shared by all systems.

    eps scales nonlinearity, mu dispersion. rescaled_time integrates the
    mbp system in the slow variable tau = eps*t, which divides every
    non-advective term by eps; it requires eps > 0.
    """

    eps: float
    mu: float
    model: str
    rescaled_time: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (0 <= self.eps < np.inf and 0 <= self.mu < np.inf):
            raise ValueError("eps and mu must be finite and nonnegative")
        if self.rescaled_time and (self.model != "mbp" or self.eps == 0):
            raise ValueError("rescaled_time requires model='mbp' with eps > 0")
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
    time: float = 0.0

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
    def from_stack(cls, grid: Grid, U: np.ndarray, time: float = 0.0) -> "ModelState":
        return cls(grid, U, time)


def state_rows(model: str, grid: Grid) -> int:
    """Number of stacked rows a model's state carries."""
    return 1 if model == "burgers" else 1 + grid.d


@dataclass
class RHSBundle:
    """A flow dW/dt = fn(W) on rfft coefficients W = encode(U) = rfft(U).

    Every flow steps on the coefficients and goes to nodes only for its
    pointwise products; decode is the inverse transform. blocks, set only
    for linear flat-bottom flows, holds the per-mode generators L_k, shape
    (*grid.rshape, 1+d, 1+d), probed from the general flow; fn(W) = L W
    then applies them directly.

    A batch bundle (make_rhs given a sequence of ModelParams) carries one
    member per params entry: params is that tuple, blocks gains a leading
    member axis, and fn(W, members=None) acts on a stack (K, rows, *rshape)
    of the listed members (all of them when None), in the listed order.

    history, set only for flows whose velocity solves run CG, maps a member
    id to that member's last CG_HISTORY solves, (x, y) pairs oldest first.
    A member with an entry warm-starts each CG solve from it and adds the
    solve; a member without one (every member, as make_rhs returns it)
    solves from zero. timeloop.run enters its members.
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


def _checked_handle(kind: str, mu: float, bath: Bathymetry, handles: Optional[dict]):
    """The prebuilt handle of this kind from handles, or a new one."""
    handle = (handles or {}).get(kind) or build_handle(kind, mu, bath)
    if handle.kind != kind or handle.grid != bath.grid or handle.mu != mu:
        raise ValueError("supplied handle does not match model/grid/mu")
    return handle


def _member_handles(kind: str, params: list, bath: Bathymetry, handles: list) -> list:
    """One checked handle per member: its own prebuilt one, or one built per mu."""
    built = {}
    out = []
    for p, given in zip(params, handles):
        if not (given or {}).get(kind):
            if p.mu not in built:
                built[p.mu] = build_handle(kind, p.mu, bath)
            given = {kind: built[p.mu]}
        out.append(_checked_handle(kind, p.mu, bath, given))
    return out


def apply_mode_blocks(blocks: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-member, per-mode block product over a leading member axis k:
    out[k, i, m] = sum_j blocks[k, m, i, j] * W[k, j, m]."""
    return np.einsum("k...ij,kj...->ki...", blocks, W)


def _probe_mode_blocks(fn, grid: Grid, members: int) -> np.ndarray:
    """Per-member, per-mode blocks L_k of a linear flow that acts mode by mode.

    Column j of every L_k is the flow of the spectrum holding 1 in row j of
    every coefficient, so 1 + d evaluations give all blocks (the probing of
    structured Jacobians: Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    A probe spans every mode at once, so it runs in extended precision: in
    double, the roundoff of a dispersive flow's large high-mode terms reaches
    the small low-mode entries (7e-12 of max|L_k| for mbp at n = 256).
    """
    ones = np.ones((members,) + grid.rshape, np.clongdouble)
    probes = np.moveaxis(np.multiply.outer(np.eye(1 + grid.d), ones), -grid.d - 1, 1)
    blocks = np.stack([fn(e) for e in probes], axis=-1)
    return np.moveaxis(blocks, 1, -2).astype(complex)


@dataclass
class _Coefs:
    """Per-member coefficients of a batch flow, for one set of active members.

    Arrays carry the members on their leading axis as (K, 1, ...) columns; a
    plain number is shared by every member, as for time_derivative_stack's
    single member.
    smooth picks the members with delta > 0, which get the mollifier
    sandwich around their solve: a slice over all of them, an index array,
    or None when no member smooths. history is the flow's RHSBundle.history,
    shared by every set of members.
    """

    ids: tuple
    eps: object
    lam: object
    adv_coef: object
    mu: object
    m1: object
    m2: object
    smooth: object
    handles: list
    history: Optional[dict]


def _member_coefs(params: list, grid: Grid, deltas: list, handles: list, history):
    """members -> _Coefs of those members (all when None), built once per set."""
    K = len(params)
    col = (-1,) + (1,) * (1 + grid.d)  # broadcasts over (K, rows, *shape or *rshape)
    eps = np.array([p.eps for p in params]).reshape(col)
    rescaled = params[0].rescaled_time
    lam = np.array([1.0 / p.eps if rescaled else 1.0 for p in params]).reshape(col)
    adv = np.array([1.0 if rescaled else p.eps for p in params]).reshape(col)
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
            smooth = slice(None) if on.all() else (np.flatnonzero(on) if on.any() else None)
            view = views[members] = _Coefs(
                tuple(idx), pick(eps), pick(lam), pick(adv), pick(mu), pick(m1), pick(m2),
                smooth, [handles[i] for i in idx], history,
            )
        return view

    return take


def _sandwich(g: Grid, y: np.ndarray, c: _Coefs) -> np.ndarray:
    """(1 - delta*Lap_g)^-1 applied to the members that smooth, the rest untouched."""
    if c.smooth is None:
        return y
    if isinstance(c.smooth, slice):
        return g.irfft(c.m1 * g.rfft(y))
    y = y.copy()
    y[c.smooth] = g.irfft(c.m1[c.smooth] * g.rfft(y[c.smooth]))
    return y


def _solve_each(y: np.ndarray, c: _Coefs) -> np.ndarray:
    """Each member's weighted velocity solve through its own handle.

    A member with an entry in c.history warm-starts from its past solves
    and adds this one, keeping the last CG_HISTORY. A stalled solve names
    its member on the SolverDivergenceError.
    """
    out = []
    for member, handle, rhs in zip(c.ids, c.handles, y):
        prior = None if c.history is None else c.history.get(member)
        try:
            x = handle.solve_weighted_arrays(rhs, prior)
        except SolverDivergenceError as e:
            e.members = (member,)
            raise
        if prior is not None:
            c.history[member] = (prior + ((x, rhs),))[-CG_HISTORY:]
        out.append(x)
    return np.stack(out)


def _nodal_factors(g: Grid, W: np.ndarray, scalar: bool, gradq: bool, jac: bool):
    """Nodal factors of a spectral stack W = rfft(U), (K, rows, *rshape), from
    one stacked irfft.

    Returns (s, Ut, gqt, J), each with the member axis first: the nodal
    scalar U[:, :1], the band-limited state T U, the band-limited gradient
    T grad U[:, 0], and the projected Jacobian J[:, i, j] = T d_j V_i of the
    velocity rows. A factor not asked for is None.
    """
    d = g.d
    K = W.shape[0]
    parts = [W[:, :1]] * scalar + [g.dealias_mask * W] + [g.mik * W[:, :1]] * gradq
    if jac:
        parts.append((g.mik * W[:, 1:, None]).reshape((K, d * d) + g.rshape))
    nod = g.irfft(np.concatenate(parts, axis=1))
    i = int(scalar)
    Ut = nod[:, i : i + 1 + d]
    i += 1 + d
    gqt = nod[:, i : i + d] if gradq else None
    J = nod[:, i + d * gradq :].reshape((K, d, d) + g.shape) if jac else None
    return (nod[:, :1] if scalar else None), Ut, gqt, J


def _v_dot_grad(g: Grid, Vt: np.ndarray, F: np.ndarray) -> np.ndarray:
    """sum_j Vt_j F[..., j, :]: V.grad q (one row) for F = T grad q, (V.grad)V for F = J.

    Leading axes of Vt are a batch matched by F's, which the Taylor-jet
    recurrences sum over for their Cauchy products.
    """
    if F.ndim > Vt.ndim:  # the Jacobian's row axis i
        return (np.expand_dims(Vt, Vt.ndim - g.d - 1) * F).sum(axis=-(g.d + 1))
    return (Vt * F).sum(axis=-(g.d + 1), keepdims=True)


def _mbp_flow(bath: Bathymetry):
    """The mbp tendency, on rfft coefficients, from its nodal factors.

    tendency(c, Vt, zeta, advq, adv) takes a member stack of the
    band-limited velocity, the nodal surface and, unless eps = 0, the
    products V.grad q and (V.grad)V; c.lam multiplies the non-advective
    terms and c.adv_coef the advective ones, and members with delta > 0 get
    the mollifier sandwich.
    """
    g = bath.grid
    d = g.d
    mask = g.dealias_mask
    ops = get_weighted_ops(bath)
    hb = bath.hb
    hbt = trunc_arr(g, hb)

    def tendency(c: _Coefs, Vt, zeta, advq=None, adv=None):
        nonlinear = advq is not None
        rows = [hbt * Vt, zeta] + ([advq, adv] if nonlinear else [])
        P = g.rfft(np.concatenate(rows, axis=1))
        back = [(g.mik * P[:, :d]).sum(axis=1, keepdims=True), g.ik_stack * P[:, d : d + 1]]
        if nonlinear:
            back.append(mask * P[:, d + 2 :])
        nod = g.irfft(np.concatenate(back, axis=1))  # T div(h_b V), grad zeta, T adv
        w = c.lam * ops.w_hba(nod[:, 1 : 1 + d], c.mu)
        if nonlinear:
            w = w + c.adv_coef * hb * nod[:, 1 + d :]
        x = _solve_each(_sandwich(g, w, c), c)
        R = g.rfft(np.concatenate([bath.inv_hb * nod[:, :1], x], axis=1))
        dq = -c.lam * R[:, :1]
        if nonlinear:
            dq = dq - c.adv_coef * (mask * P[:, d + 1 : d + 2])
        return np.concatenate([c.m2 * dq, -c.m1 * R[:, 1:]], axis=1)

    return tendency


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
    dict or None per member. The members share the model, rescaled_time
    and whether eps is zero; eps, mu and delta are theirs. The bundle's
    fn acts on the member stack: transforms and pointwise products run on
    the whole stack, each member's velocity solve goes through its own
    handle, and members with equal mu share a handle built here.
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
        if (p.model, p.rescaled_time, p.eps != 0.0) != (p0.model, p0.rescaled_time, nonlinear):
            raise ValueError("batch members must share model, rescaled_time and eps == 0")
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
    take = _member_coefs(params, g, deltas, solvers, history)

    if model == "burgers":
        # one stacked inverse transform gives T u and T u_x, one forward
        # transform the product; the 2/3 projection, -eps and the
        # mollifier fold into a single output coefficient
        lift = np.concatenate([mask[None], g.mik])
        coefs = {}

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            coef = coefs.get(members)
            if coef is None:
                c = take(members)
                coef = coefs[members] = -c.eps * mask * c.m2
            X = g.irfft(lift * W)
            return coef * g.rfft(X[:, :1] * X[:, 1:])

        return RHSBundle(fn, g, tuple(params))

    if model == "mbp":
        # primary variable is q, surface recovered pointwise. In slow time
        # tau = eps*t the advective terms keep coefficient one while
        # everything else is divided by eps.
        tendency = _mbp_flow(bath)

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            c = take(members)
            q, Ut, gqt, J = _nodal_factors(g, W, True, nonlinear, nonlinear)
            Vt = Ut[:, 1:]
            advs = (_v_dot_grad(g, Vt, gqt), _v_dot_grad(g, Vt, J)) if nonlinear else ()
            return tendency(c, Vt, q_to_zeta_arr(q, c.eps if nonlinear else 0.0, bath), *advs)

    else:
        hb = bath.hb
        hbt = trunc_arr(g, hb)
        hmin_static = bath.h_min

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            c = take(members)
            zeta, Ut, _, J = _nodal_factors(g, W, nonlinear, False, nonlinear)
            if nonlinear:
                _check_wet(hb, hmin_static, c, zeta)
            Vt = Ut[:, 1:]
            prods = [(hbt + c.eps * Ut[:, :1]) * Vt]
            if nonlinear:
                prods.append(_v_dot_grad(g, Vt, J))
            P = g.rfft(np.concatenate(prods, axis=1))
            dz = -c.m2 * (g.mik * P[:, :d]).sum(axis=1, keepdims=True)
            w = g.ik_stack * W[:, :1]
            if nonlinear:
                w = w + c.eps * (mask * P[:, d:])
            if model == "sw":
                return np.concatenate([dz, -c.m2 * w], axis=1)
            y = hb * g.irfft(w)  # the I_plus_muTb equation in its weighted form
            x = _solve_each(_sandwich(g, y, c), c)
            return np.concatenate([dz, -c.m1 * g.rfft(x)], axis=1)

    if nonlinear or not bath.is_flat:
        return RHSBundle(fn, g, tuple(params), history=history)
    # eps = 0 over a flat bottom: the flow is linear and acts mode by mode
    blocks = _probe_mode_blocks(fn, g, K)

    def linear_fn(W: np.ndarray, members=None) -> np.ndarray:
        return apply_mode_blocks(blocks if members is None else blocks[list(members)], W)

    return RHSBundle(linear_fn, g, tuple(params), blocks)


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
# iterated time derivatives of the mbp flow (Taylor-jet recurrences)


def time_derivative_stack(
    U: np.ndarray,
    params: ModelParams,
    bath: Bathymetry,
    k_max: int = 1,
    handles: Optional[dict] = None,
) -> list[np.ndarray]:
    """Stacks u_k = (eps d_t)^k (q, V) for k = 0..k_max along the mbp flow.

    Works with Taylor coefficients c_j = (d_t^j u)/j! so products of series
    become Cauchy convolutions with no binomial bookkeeping; the surface
    jet rides along through zeta = h_b*(exp(eps*q) - 1)/eps, whose
    coefficients satisfy (m+1) e_{m+1} = eps*sum (j+1) q_{j+1} e_{m-j}.
    Each coefficient goes through the flow's own tendency, with its
    products replaced by their Cauchy sums, so k = 1 equals eps times the
    plain right-hand side. The stack is the same whether trajectories are
    run in physical or rescaled time, since (eps d_t) is exactly d_tau.
    """
    if params.model != "mbp":
        raise ValueError("time_derivative_stack is defined along the mbp flow")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    g = bath.grid
    eps = params.eps
    nonlinear = eps != 0.0
    hb = bath.hb

    if U.shape != (1 + g.d,) + g.shape:
        raise ValueError(f"mbp state must be (1 + d, *grid.shape), got {U.shape}")
    handle = _checked_handle("hb_B", params.mu, bath, handles)
    tendency = _mbp_flow(bath)
    coefs = _Coefs((0,), eps, 1.0, eps, params.mu, 1.0, 1.0, None, [handle], None)

    # Taylor coefficients on rfft coefficients, with their nodal factors
    # (Vt, T grad q, J) and the nodal q, surface and exp(eps*q) jets, each
    # as a batch of one member
    W_c = [g.rfft(U)[None]]
    _, Ut, gqt, J = _nodal_factors(g, W_c[0], False, nonlinear, nonlinear)
    F = [(Ut[:, 1:], gqt, J)]
    q0 = U[None, :1]
    q_c, z_c, e_c = [q0], [q_to_zeta_arr(q0, eps, bath)], [np.exp(eps * q0)]

    for m in range(k_max):
        advs = ()
        if nonlinear:  # Cauchy sums over the pairs (a, m - a)
            Vts = np.stack([f[0] for f in F])
            advs = [_v_dot_grad(g, Vts, np.stack([f[i] for f in F[::-1]])).sum(axis=0)
                    for i in (1, 2)]
        W_c.append(tendency(coefs, F[m][0], z_c[m], *advs) / (m + 1))
        q, Ut, gqt, J = _nodal_factors(g, W_c[-1], True, nonlinear, nonlinear)
        q_c.append(q)
        F.append((Ut[:, 1:], gqt, J))
        if nonlinear:
            acc = sum(j * q_c[j] * e_c[m + 1 - j] for j in range(1, m + 2))
            e_c.append(eps * acc / (m + 1))
            z_c.append(hb * e_c[m + 1] / eps)
        else:
            z_c.append(hb * q_c[m + 1])

    out = [np.array(U, dtype=float)]
    if k_max:
        nodal = g.irfft(np.concatenate(W_c[1:]))
        out += [eps**k * math.factorial(k) * nodal[k - 1] for k in range(1, k_max + 1)]
    return out


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
    if params.rescaled_time:
        lin = lin / params.eps
    adv = 0.0
    if state is not None and params.eps > 0:
        rows = state.stack()
        sup = float(np.abs(rows[1:] if rows.shape[0] > 1 else rows[:1]).max())
        adv = params.eps * sup * kmax
    return lin + adv
