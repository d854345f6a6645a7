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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bathymetry import Bathymetry, q_to_zeta_arr
from .diagnostics import exact_dispersion
from .errors import DryStateError, RegimeWarning
from .operators import OperatorHandle, build_handle, get_weighted_ops
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
        if self.eps < 0 or self.mu < 0:
            raise ValueError("eps and mu must be nonnegative")
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
    """

    fn: Callable[[np.ndarray], np.ndarray]
    grid: Grid
    params: ModelParams
    blocks: Optional[np.ndarray] = None

    def encode(self, U: np.ndarray) -> np.ndarray:
        return self.grid.rfft(U)

    def decode(self, W: np.ndarray) -> np.ndarray:
        return self.grid.irfft(W)

    def nodal_rhs(self, U: np.ndarray) -> np.ndarray:
        """The flow evaluated on a nodal stack."""
        return self.decode(self.fn(self.encode(U)))


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


def apply_mode_blocks(blocks: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Per-mode block product: out[i, k] = sum_j blocks[k, i, j] * W[j, k]."""
    return np.einsum("...ij,j...->i...", blocks, W)


def _probe_mode_blocks(fn, grid: Grid) -> np.ndarray:
    """Per-mode blocks L_k of a linear flow that acts mode by mode.

    Column j of every L_k is the flow of the spectrum holding 1 in row j of
    every coefficient, so 1 + d evaluations give all blocks (the probing of
    structured Jacobians: Curtis, Powell & Reid, IMA J. Appl. Math. 13, 1974).
    A probe spans every mode at once, so it runs in extended precision: in
    double, the roundoff of a dispersive flow's large high-mode terms reaches
    the small low-mode entries (7e-12 of max|L_k| for mbp at n = 256).
    """
    probes = np.multiply.outer(np.eye(1 + grid.d), np.ones(grid.rshape, np.clongdouble))
    blocks = np.stack([fn(e) for e in probes], axis=-1)
    return np.moveaxis(blocks, 0, -2).astype(complex)


def _mollifiers(grid: Grid, delta: float):
    """Spectra m1, m2 of (1 - delta*Lap_g)^-1 and ^-2; plain ones at delta = 0."""
    if delta == 0:
        return 1.0, 1.0
    return (1.0 + delta * grid.k2gamma) ** -1, (1.0 + delta * grid.k2gamma) ** -2


def _nodal_factors(g: Grid, W: np.ndarray, scalar: bool, gradq: bool, jac: bool):
    """Nodal factors of a spectral state W = rfft(U), from one stacked irfft.

    Returns (s, Ut, gqt, J): the nodal scalar U[0], the band-limited state
    T U, the band-limited gradient T grad U[0], and the projected Jacobian
    J[i, j] = T d_j V_i of the velocity rows. A factor not asked for is None.
    """
    d = g.d
    mW = g.dealias_mask * W
    parts = [W[:1]] * scalar + [mW] + [g.ik_stack * mW[0]] * gradq
    if jac:
        parts.append((g.ik_stack * mW[1:, None]).reshape((d * d,) + g.rshape))
    nod = g.irfft(np.concatenate(parts))
    s, Ut, gqt, J = np.split(nod, np.cumsum([scalar, 1 + d, d * gradq]))
    J = J.reshape((d, d) + g.shape) if jac else None
    return (s[0] if scalar else None), Ut, (gqt if gradq else None), J


def _v_dot_grad(g: Grid, Vt: np.ndarray, F: np.ndarray) -> np.ndarray:
    """sum_j Vt_j F[..., j, :]: V.grad q for F = T grad q, (V.grad)V for F = J.

    Leading axes of Vt are a batch matched by F's, which the Taylor-jet
    recurrences sum over for their Cauchy products.
    """
    if F.ndim > Vt.ndim:  # the Jacobian's row axis i
        Vt = np.expand_dims(Vt, Vt.ndim - g.d - 1)
    return (Vt * F).sum(axis=-(g.d + 1))


def _mbp_flow(bath: Bathymetry, handle: OperatorHandle, lam: float, adv_coef: float,
              delta: float = 0.0):
    """The mbp tendency, on rfft coefficients, from its nodal factors.

    tendency(Vt, zeta, advq, adv) takes the band-limited velocity, the
    nodal surface and, unless eps = 0, the products V.grad q and (V.grad)V;
    lam multiplies the non-advective terms and adv_coef the advective ones,
    and delta > 0 adds the mollifier sandwich.
    """
    g = bath.grid
    d = g.d
    mask = g.dealias_mask
    ik = g.ik_stack
    ops = get_weighted_ops(bath)
    hb = bath.hb
    hbt = trunc_arr(g, hb)
    m1, m2 = _mollifiers(g, delta)

    def tendency(Vt, zeta, advq=None, adv=None):
        nonlinear = advq is not None
        rows = [hbt * Vt, zeta[None]] + ([advq[None], adv] if nonlinear else [])
        P = g.rfft(np.concatenate(rows))
        back = [(mask * (ik * P[:d]).sum(axis=0))[None], ik * P[d]]
        if nonlinear:
            back.append(mask * P[d + 2 :])
        nod = g.irfft(np.concatenate(back))  # T div(h_b V), grad zeta, T adv
        w = lam * ops.w_hba(nod[1 : 1 + d], handle.mu)
        if nonlinear:
            w = w + adv_coef * hb * nod[1 + d :]
        if delta > 0:
            w = g.irfft(m1 * g.rfft(w))
        x = handle.solve_weighted_arrays(w)
        R = g.rfft(np.concatenate([(bath.inv_hb * nod[0])[None], x]))
        dq = -lam * R[0]
        if nonlinear:
            dq = dq - adv_coef * (mask * P[d + 1])
        return np.concatenate([(m2 * dq)[None], -m1 * R[1:]])

    return tendency


def make_rhs(
    params: ModelParams,
    bath: Bathymetry,
    delta: float = 0.0,
    handles: Optional[dict] = None,
) -> RHSBundle:
    """Build the flow for params.model over the given bathymetry.

    handles may carry prebuilt operator factorizations (from
    build_handles); missing ones are built here.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    g = bath.grid
    eps, mu, model = params.eps, params.mu, params.model

    if model == "burgers" and g.d != 1:
        raise ValueError("burgers runs on d = 1 grids only")

    d = g.d
    mask = g.dealias_mask
    ik = g.ik_stack
    nonlinear = eps != 0.0
    m1, m2 = _mollifiers(g, delta)

    kind = _HANDLE_KIND.get(model)
    handle = _checked_handle(kind, mu, bath, handles) if kind else None

    if model == "burgers":
        # one stacked inverse transform gives T u and T u_x, one forward
        # transform the product; the 2/3 projection, -eps and the
        # mollifier fold into a single output coefficient
        lift = np.stack([mask, mask * g.ik[0]])
        coef = -eps * mask * m2

        def fn(W: np.ndarray) -> np.ndarray:
            ut, ux_t = g.irfft(lift * W)
            return (coef * g.rfft(ut * ux_t))[None]

        return RHSBundle(fn, g, params)

    if model == "mbp":
        # primary variable is q, surface recovered pointwise. In slow time
        # tau = eps*t the advective terms keep coefficient one while
        # everything else is divided by eps.
        lam = 1.0 / eps if params.rescaled_time else 1.0
        adv_coef = 1.0 if params.rescaled_time else eps
        tendency = _mbp_flow(bath, handle, lam, adv_coef, delta)

        def fn(W: np.ndarray) -> np.ndarray:
            q, Ut, gqt, J = _nodal_factors(g, W, True, nonlinear, nonlinear)
            Vt = Ut[1:]
            advs = (_v_dot_grad(g, Vt, gqt), _v_dot_grad(g, Vt, J)) if nonlinear else ()
            return tendency(Vt, q_to_zeta_arr(q, eps, bath), *advs)

    else:
        hb = bath.hb
        hbt = trunc_arr(g, hb)
        hmin_static = bath.h_min

        def fn(W: np.ndarray) -> np.ndarray:
            zeta, Ut, _, J = _nodal_factors(g, W, nonlinear, False, nonlinear)
            if nonlinear and hmin_static + eps * zeta.min() <= 0.0:
                if (hb + eps * zeta).min() <= 0.0:
                    raise DryStateError("free surface reached the bottom")
            Vt = Ut[1:]
            prods = [(hbt + eps * Ut[0]) * Vt]
            if nonlinear:
                prods.append(_v_dot_grad(g, Vt, J))
            P = g.rfft(np.concatenate(prods))
            dz = -m2 * (mask * (ik * P[:d]).sum(axis=0))
            w = ik * W[0]
            if nonlinear:
                w = w + eps * (mask * P[d:])
            if model == "sw":
                return np.concatenate([dz[None], -m2 * w])
            y = hb * g.irfft(w)  # the I_plus_muTb equation in its weighted form
            if delta > 0:
                y = g.irfft(m1 * g.rfft(y))
            x = handle.solve_weighted_arrays(y)
            return np.concatenate([dz[None], -m1 * g.rfft(x)])

    if nonlinear or not bath.is_flat:
        return RHSBundle(fn, g, params)
    # eps = 0 over a flat bottom: the flow is linear and acts mode by mode
    blocks = _probe_mode_blocks(fn, g)
    return RHSBundle(lambda W: apply_mode_blocks(blocks, W), g, params, blocks)


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
    tendency = _mbp_flow(bath, handle, 1.0, eps)

    # Taylor coefficients on rfft coefficients, with their nodal factors
    # (Vt, T grad q, J) and the nodal q, surface and exp(eps*q) jets
    W_c = [g.rfft(U)]
    _, Ut, gqt, J = _nodal_factors(g, W_c[0], False, nonlinear, nonlinear)
    F = [(Ut[1:], gqt, J)]
    q_c, z_c, e_c = [U[0]], [q_to_zeta_arr(U[0], eps, bath)], [np.exp(eps * U[0])]

    for m in range(k_max):
        advs = ()
        if nonlinear:  # Cauchy sums over the pairs (a, m - a)
            Vts = np.stack([f[0] for f in F])
            advs = [_v_dot_grad(g, Vts, np.stack([f[i] for f in F[::-1]])).sum(axis=0)
                    for i in (1, 2)]
        W_c.append(tendency(F[m][0], z_c[m], *advs) / (m + 1))
        q, Ut, gqt, J = _nodal_factors(g, W_c[-1], True, nonlinear, nonlinear)
        q_c.append(q)
        F.append((Ut[1:], gqt, J))
        if nonlinear:
            acc = sum(j * q_c[j] * e_c[m + 1 - j] for j in range(1, m + 2))
            e_c.append(eps * acc / (m + 1))
            z_c.append(hb * e_c[m + 1] / eps)
        else:
            z_c.append(hb * q_c[m + 1])

    out = [np.array(U, dtype=float)]
    if k_max:
        nodal = g.irfft(np.stack(W_c[1:]))
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
