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


def split_mode_blocks(blocks: np.ndarray) -> tuple:
    """Per-mode blocks (K, *rshape, m, m) as the pair (Re L, i Im L) that
    apply_mode_blocks takes: two complex arrays laid out (K, i, j, *rshape)."""
    P = np.moveaxis(blocks, (-2, -1), (1, 2))
    re = np.zeros(P.shape, complex)
    im = np.zeros(P.shape, complex)
    re.real = P.real
    im.imag = P.imag
    return re, im


def apply_mode_blocks(split: tuple, W: np.ndarray) -> np.ndarray:
    """Per-member, per-mode block product over a leading member axis k:
    out[k, i] = sum_j L[k, ..., i, j] * W[k, j] on every mode, for
    split = split_mode_blocks(L).

    On finite input this is np.einsum("k...ij,kj...->ki...", L, W), bit for
    bit. einsum rounds each term's parts as Re L Re W - Im L Im W and
    Re L Im W + Im L Re W, and sums the terms over j from +0.0. Probed blocks
    carry roundoff-sized parts beside their real or imaginary entries, and
    numpy's complex multiply may fuse a part's two products into one
    rounding. Re L and i Im L each have a zero part, so their products round
    each part once, and their sum is einsum's term. The terms are summed in
    j's order, and adding 0.0 turns a zero sum's -0.0 into einsum's +0.0.
    """
    re, im = split
    Wj = W[:, None]
    T = re * Wj
    T += im * Wj
    out = T[:, :, 0] + T[:, :, 1]
    for j in range(2, T.shape[2]):
        out += T[:, :, j]
    out += 0.0
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
    """
    ones = np.ones((members,) + grid.rshape, np.clongdouble)
    probes = np.moveaxis(np.multiply.outer(np.eye(1 + grid.d), ones), -grid.d - 1, 1)
    blocks = np.stack([fn(e) for e in probes], axis=-1)
    return np.moveaxis(blocks, 1, -2).astype(complex)


@dataclass
class _Coefs:
    """Per-member coefficients of a batch flow, for one set of active members.

    Arrays carry the members on their leading axis as (K, 1, ...) columns;
    m1 and m2 are a plain 1.0 when no member smooths. eps_mask and eps_hb
    are eps times the 2/3 mask and times h_b, bound once: the mask is 0 or
    1, and eps * h_b * x already evaluates as (eps * h_b) * x, so the flows
    get the bits of the products written out. smooth picks the members with
    delta > 0, which get the mollifier sandwich around their solve: a slice
    over all of them, an index array, or None when no member smooths.
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
            smooth = slice(None) if on.all() else (np.flatnonzero(on) if on.any() else None)
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
    if isinstance(c.smooth, slice):
        return g.irfft(c.m1 * g.rfft(y))
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
    warm-starts from its past solves and adds this one, keeping the last
    CG_HISTORY. A stalled solve names its member on the
    SolverDivergenceError.
    """
    for i, (member, handle, rhs) in enumerate(zip(c.ids, c.handles, y)):
        prior = None if c.history is None else c.history.get(member)
        try:
            if prior is None:
                handle.solve_weighted_arrays(rhs, out=out[i])
                continue
            x = handle.solve_weighted_arrays(rhs, prior)
        except SolverDivergenceError as e:
            e.members = (member,)
            raise
        c.history[member] = (prior + ((x, rhs),))[-CG_HISTORY:]
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


def _v_dot_grad(g: Grid, Vt: np.ndarray, F: np.ndarray, out=None) -> np.ndarray:
    """sum_j Vt_j F[..., r, j, :] for every gradient row r: V.grad q for the
    row T grad q, (V.grad)V for the rows of J, both at once for [T grad q; J].

    Leading axes of Vt are a batch matched by F's, which the Taylor-jet
    recurrences sum over for their Cauchy products. In d = 1 the sum has
    one term, so it is that product; in d = 2 it is one addition, as
    numpy's sum over two terms makes it. out, if given, receives the result.
    """
    if g.d == 1:
        return np.multiply(Vt, F[..., 0, :], out=out)
    lead = Vt.ndim - g.d - 1  # Vt's component axis, under F's row axis
    prod = Vt.reshape(Vt.shape[:lead] + (1,) + Vt.shape[lead:]) * F
    return np.add(prod[..., 0, :, :], prod[..., 1, :, :], out=out)


def _div(g: Grid, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The band-limited divergence sum_j mik_j spec[:, j] of a member stack
    of vector spectra, into out, (K, 1, *rshape); in d = 1 the sum has one
    term, so it is that product, and in d = 2 it is one addition."""
    if g.d == 1:
        return np.multiply(g.mik, spec, out=out)
    prod = g.mik * spec
    return np.add(prod[:, :1], prod[:, 1:], out=out)


def _mbp_flow(bath: Bathymetry):
    """The mbp tendency, on rfft coefficients, from its nodal factors.

    Returns (inputs, tendency). inputs(Vt, nonlinear) is a new nodal stack
    S = [h_bt V; zeta; adv] for a member stack of the band-limited velocity,
    its first d rows filled; the caller writes the nodal surface into row d
    and, unless eps = 0, the products [V.grad q; (V.grad)V] that
    _v_dot_grad forms in one multiply-sum into the rows after it.
    tendency(c, S) reads eps = 0 off S's row count. eps multiplies the
    advective terms (through c.eps_mask and c.eps_hb), and members with
    delta > 0 get the mollifier sandwich, which is skipped when none
    smooths. h_b A grad zeta is the weighted hb_A apply over a mu column,
    the phi part of the operators' one chain. Each transform's input is one
    new stack written in place, and the result is the last transform's
    output, negated in place.
    """
    g = bath.grid
    d = g.d
    mask = g.dealias_mask
    ops = get_weighted_ops(bath)
    hbt = trunc_arr(g, bath.hb)

    def inputs(Vt: np.ndarray, nonlinear: bool) -> np.ndarray:
        S = np.empty(Vt.shape[:1] + (2 + 2 * d if nonlinear else 1 + d,) + g.shape, Vt.dtype)
        np.multiply(hbt, Vt, out=S[:, :d])
        return S

    def tendency(c: _Coefs, S: np.ndarray) -> np.ndarray:
        nonlinear = S.shape[1] > 1 + d
        K = S.shape[0]
        P = g.rfft(S)
        # T div(h_b V), grad zeta, T (V.grad)V
        back = np.empty((K, 1 + d + d * nonlinear) + g.rshape, P.dtype)
        _div(g, P[:, :d], back[:, :1])
        np.multiply(g.ik_stack, P[:, d : d + 1], out=back[:, 1 : 1 + d])
        if nonlinear:
            np.multiply(mask, P[:, d + 2 :], out=back[:, 1 + d :])
        nod = g.irfft(back)
        w = ops.weighted("hb_A", nod[:, 1 : 1 + d], c.mu)
        if nonlinear:
            w += c.eps_hb * nod[:, 1 + d :]
        E = np.empty((K, 1 + d) + g.shape, nod.dtype)
        np.multiply(bath.inv_hb, nod[:, :1], out=E[:, :1])
        _solve_each(_sandwich(g, w, c), c, E[:, 1:])
        R = g.rfft(E)
        if nonlinear:
            R[:, :1] += c.eps_mask * P[:, d + 1 : d + 2]
        return _negated(c, R, c.m1)

    return inputs, tendency


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

    if model == "mbp":
        # primary variable is q, surface recovered pointwise
        inputs, tendency = _mbp_flow(bath)

        def fn(W: np.ndarray, members=None) -> np.ndarray:
            c = take(members)
            q, Ut, F = _nodal_factors(g, W, True, nonlinear, nonlinear)
            Vt = Ut[:, 1:]
            S = inputs(Vt, nonlinear)
            S[:, d : d + 1] = q_to_zeta_arr(q, c.eps if nonlinear else 0.0, bath)
            if nonlinear:
                _v_dot_grad(g, Vt, F, S[:, d + 1 :])
            return tendency(c, S)

    else:
        hb = bath.hb
        hbt = trunc_arr(g, hb)
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

    if nonlinear or not bath.is_flat:
        return RHSBundle(fn, g, tuple(params), history=history)
    # eps = 0 over a flat bottom: the flow is linear and acts mode by mode
    blocks = _probe_mode_blocks(fn, g, K)

    @functools.cache
    def split(members) -> tuple:  # built on first use: a run steps by its powers
        return split_mode_blocks(blocks if members is None else blocks[list(members)])

    def linear_fn(W: np.ndarray, members=None) -> np.ndarray:
        return apply_mode_blocks(split(members), W)

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
    plain right-hand side.
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
    inputs, tendency = _mbp_flow(bath)
    coefs = _member_coefs([params], bath, [0.0], [handle], None)()
    d = g.d

    # Taylor coefficients on rfft coefficients, with their nodal factors
    # (Vt, [T grad q; J]) and the nodal q, surface and exp(eps*q) jets, each
    # as a batch of one member
    W_c = [g.rfft(U)[None]]
    _, Ut, grads = _nodal_factors(g, W_c[0], False, nonlinear, nonlinear)
    F = [(Ut[:, 1:], grads)]
    q0 = U[None, :1]
    q_c, z_c, e_c = [q0], [q_to_zeta_arr(q0, eps, bath)], [np.exp(eps * q0)]

    for m in range(k_max):
        S = inputs(F[m][0], nonlinear)
        S[:, d : d + 1] = z_c[m]
        if nonlinear:  # Cauchy sums over the pairs (a, m - a)
            Vts = np.stack([f[0] for f in F])
            S[:, d + 1 :] = _v_dot_grad(g, Vts, np.stack([f[1] for f in F[::-1]])).sum(axis=0)
        W_c.append(tendency(coefs, S) / (m + 1))
        q, Ut, grads = _nodal_factors(g, W_c[-1], True, nonlinear, nonlinear)
        q_c.append(q)
        F.append((Ut[:, 1:], grads))
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
    adv = 0.0
    if state is not None and params.eps > 0:
        rows = state.stack()
        sup = float(np.abs(rows[1:] if rows.shape[0] > 1 else rows[:1]).max())
        adv = params.eps * sup * kmax
    return lin + adv
