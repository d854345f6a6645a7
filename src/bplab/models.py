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

make_rhs returns a bundle carrying the flow plus an encode/decode pair for
the integration coordinates. Linear flat-bottom systems (eps = 0, b = 0)
integrate directly on rfft coefficients: the flow is then a handful of
multiplier products per call, and since the change of basis is linear it
commutes with Runge-Kutta stages exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bathymetry import Bathymetry, q_to_zeta_arr
from .errors import DryStateError, RegimeWarning
from .operators import OperatorHandle, build_handle, get_weighted_ops
from .spectral import Grid, grad_arr, trunc_arr

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
    """A flow dW/dt = fn(W) in integration coordinates W = encode(U).

    encode/decode are inverse linear maps between the nodal stack and the
    coordinates the stepper advances (identity for nonlinear systems,
    rfft/irfft for fused linear ones).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    encode: Callable[[np.ndarray], np.ndarray]
    decode: Callable[[np.ndarray], np.ndarray]
    params: ModelParams
    bath: Bathymetry
    delta: float = 0.0
    spectral_state: bool = False
    handles: dict = field(default_factory=dict)

    def nodal_rhs(self, U: np.ndarray) -> np.ndarray:
        """The flow evaluated in nodal coordinates, whatever the bundle uses."""
        if self.spectral_state:
            return self.decode(self.fn(self.encode(U)))
        return self.fn(U)


def build_handles(params: ModelParams, bath: Bathymetry) -> dict:
    """Factorized operator handles the model's velocity equation needs."""
    kind = _HANDLE_KIND.get(params.model)
    if kind is None:
        return {}
    return {kind: build_handle(kind, params.mu, bath)}


def _identity(a: np.ndarray) -> np.ndarray:
    return a


def _moll_spec(grid: Grid, delta: float, power: int) -> np.ndarray:
    return (1.0 + delta * grid.k2gamma) ** power


def _div_trunc(g: Grid, flux: np.ndarray) -> np.ndarray:
    """div of the 2/3-projected flux, fused into one inverse transform."""
    return g.irfft(g.dealias_mask * (g.ik_stack * g.rfft(flux)).sum(axis=0))


def _make_linear_flat_rhs(
    params: ModelParams, bath: Bathymetry, delta: float
) -> RHSBundle:
    """Fused spectral flow for eps = 0 over a flat bottom.

    Every product with h_b = 1 collapses, and the velocity equation's
    right-hand side is always a gradient, on which the weighted inverses
    act mode by mode along the k direction. The whole flow is therefore
    two fixed multiplier stacks

        d s_hat   = sum_j cs[j] * V_hat[j]
        d V_hat_j = cv[j] * s_hat

    precombined here so each evaluation is a handful of array products.
    They reproduce the generic dealiased path mode by mode.
    """
    g = bath.grid
    mu = params.mu
    mask = g.dealias_mask
    model = params.model

    if model in ("bp", "mbp"):
        if _HANDLE_KIND[model] == "I_plus_muTb":
            inv_ld = 1.0 / (1.0 + (mu / 3.0) * g.k2deriv * mask)
        else:  # hb_B
            inv_ld = 1.0 / (1.0 + (4.0 * mu / 3.0) * g.k2deriv * mask)
    else:
        inv_ld = np.ones_like(g.k2gamma)
    if model == "mbp":
        # h_b*A on a gradient field: symbol 1 + mu*mask*|k|^2 along it
        inv_ld = inv_ld * (1.0 + mu * mask * g.k2deriv)

    if delta > 0:
        # the velocity solve sandwich applies (1 + delta*k^2)^-1 twice,
        # numerically the same factor as the squared scalar smoothing
        m2 = _moll_spec(g, delta, -2)
        inv_ld = inv_ld * m2
    else:
        m2 = 1.0

    cs = [-(m2 * mask * ikj) for ikj in g.ik]
    cv = [-(inv_ld * ikj) for ikj in g.ik]

    def fn(W: np.ndarray) -> np.ndarray:
        out = np.empty_like(W)
        s = W[0]
        acc = cs[0] * W[1]
        for j in range(1, g.d):
            acc += cs[j] * W[1 + j]
        out[0] = acc
        for j in range(g.d):
            np.multiply(cv[j], s, out=out[1 + j])
        return out

    return RHSBundle(
        fn=fn,
        encode=g.rfft,
        decode=g.irfft,
        params=params,
        bath=bath,
        delta=delta,
        spectral_state=True,
    )


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
    model = params.model
    eps = params.eps
    mu = params.mu

    if model == "burgers":
        if g.d != 1:
            raise ValueError("burgers runs on d = 1 grids only")
        if params.rescaled_time:
            raise ValueError("rescaled_time is an mbp option")

    if model != "burgers" and eps == 0.0 and bath.is_flat:
        return _make_linear_flat_rhs(params, bath, delta)

    mask = g.dealias_mask
    ik = g.ik
    m1 = _moll_spec(g, delta, -1) if delta > 0 else None
    m2 = _moll_spec(g, delta, -2) if delta > 0 else None

    handle: Optional[OperatorHandle] = None
    kind = _HANDLE_KIND.get(model)
    if kind is not None:
        handle = (handles or {}).get(kind)
        if handle is None:
            handle = build_handle(kind, mu, bath)
        if handle.kind != kind or handle.grid != g or handle.mu != mu:
            raise ValueError("supplied handle does not match model/grid/mu")

    if model == "burgers":

        def fn(U: np.ndarray) -> np.ndarray:
            spec = g.rfft(U[0])
            ut = g.irfft(mask * spec)
            ux_t = g.irfft(mask * (ik[0] * spec))
            dspec = -eps * mask * g.rfft(ut * ux_t)
            if delta > 0:
                dspec = m2 * dspec
            return g.irfft(dspec)[None]

        return RHSBundle(fn, _identity, _identity, params, bath, delta)

    ops = get_weighted_ops(bath)
    hb = bath.hb
    inv_hb = bath.inv_hb
    hbt = trunc_arr(g, hb)
    hmin_static = bath.h_min

    def _advect(spec: np.ndarray, Vt: np.ndarray) -> np.ndarray:
        """Dealiased (V.grad)V from the state's spectrum; (d, shape) out."""
        jac = g.irfft(mask * g.ik_stack * spec[1:, None])  # jac[i, j] = T d_j V_i
        return g.irfft(mask * g.rfft((Vt * jac).sum(axis=1)))

    def _moll_rows(rows: np.ndarray, mspec: np.ndarray) -> np.ndarray:
        return g.irfft(mspec * g.rfft(rows))

    if model in ("sw", "bp"):

        def fn(U: np.ndarray) -> np.ndarray:
            zeta = U[0]
            if eps != 0.0 and hmin_static + eps * zeta.min() <= 0.0:
                h = hb + eps * zeta
                if h.min() <= 0.0:
                    raise DryStateError("free surface reached the bottom")
            spec = g.rfft(U)
            Ut = g.irfft(mask * spec)
            Vt = Ut[1:]
            ht = hbt + eps * Ut[0]
            dz = -_div_trunc(g, ht * Vt)
            w = g.irfft(np.stack([ik[j] * spec[0] for j in range(g.d)]))
            if eps != 0.0:
                w = w + eps * _advect(spec, Vt)
            if model == "sw":
                if delta > 0:
                    dz = _moll_rows(dz, m2)
                    w = _moll_rows(w, m2)
                dV = -w
            else:
                if delta > 0:
                    dz = _moll_rows(dz, m2)
                    x = handle.solve_weighted_arrays(_moll_rows(hb * w, m1))
                    dV = -_moll_rows(x, m1)
                else:
                    dV = -handle.solve_arrays(w)
            return np.concatenate([dz[None], dV], axis=0)

        return RHSBundle(
            fn, _identity, _identity, params, bath, delta,
            handles={} if handle is None else {kind: handle},
        )

    # mbp: primary variable is q, surface recovered pointwise.
    # In slow time tau = eps*t the advective terms keep coefficient one
    # while everything else is divided by eps.
    lam = 1.0 / eps if params.rescaled_time else 1.0
    adv_coef = 1.0 if params.rescaled_time else eps

    def fn(U: np.ndarray) -> np.ndarray:
        q = U[0]
        spec = g.rfft(U)
        Ut = g.irfft(mask * spec)
        Vt = Ut[1:]
        div_part = inv_hb * _div_trunc(g, hbt * Vt)
        if eps != 0.0:
            advq = (Vt * g.irfft(mask * g.ik_stack * spec[0])).sum(axis=0)
            dq = -adv_coef * g.irfft(mask * g.rfft(advq)) - lam * div_part
        else:
            dq = -lam * div_part
        zeta = q_to_zeta_arr(q, eps, bath)
        w = lam * ops.w_hba(grad_arr(g, zeta), mu)
        if eps != 0.0:
            w = w + adv_coef * hb * _advect(spec, Vt)
        if delta > 0:
            dq = _moll_rows(dq, m2)
            x = handle.solve_weighted_arrays(_moll_rows(w, m1))
            dV = -_moll_rows(x, m1)
        else:
            dV = -handle.solve_weighted_arrays(w)
        return np.concatenate([dq[None], dV], axis=0)

    return RHSBundle(
        fn, _identity, _identity, params, bath, delta,
        handles={kind: handle},
    )


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
    Each product mirrors the dealiased arrangement of the flow itself, so
    k = 1 equals eps times the plain right-hand side. The stack is the
    same whether trajectories are run in physical or rescaled time, since
    (eps d_t) is exactly d_tau.
    """
    if params.model != "mbp":
        raise ValueError("time_derivative_stack is defined along the mbp flow")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    g = bath.grid
    eps = params.eps
    mu = params.mu
    mask = g.dealias_mask
    ops = get_weighted_ops(bath)
    hb = bath.hb
    inv_hb = bath.inv_hb
    hbt = trunc_arr(g, hb)

    if U.shape != (1 + g.d,) + g.shape:
        raise ValueError(f"mbp state must be (1 + d, *grid.shape), got {U.shape}")
    handle = (handles or {}).get("hb_B")
    if handle is None:
        handle = build_handle("hb_B", mu, bath)

    def _vel_caches(V: np.ndarray):
        """Band-limited V and the projected Jacobian T(d_j V_i)."""
        spec = g.rfft(V)
        return g.irfft(mask * spec), g.irfft(mask * g.ik_stack * spec[:, None])

    def _gradq_cache(q: np.ndarray) -> np.ndarray:
        return g.irfft(mask * g.ik_stack * g.rfft(q))

    q_c = [U[0]]
    V_c = [U[1:]]
    z_c = [q_to_zeta_arr(q_c[0], eps, bath)]
    e_c = [np.exp(eps * q_c[0])] if eps != 0.0 else None

    Vt0, jac0 = _vel_caches(V_c[0])
    Vt_c, jac_c, gqt_c = [Vt0], [jac0], [_gradq_cache(q_c[0])]

    for m in range(k_max):
        # scalar equation coefficient
        div_part = inv_hb * _div_trunc(g, hbt * Vt_c[m])
        if eps != 0.0:
            advq = np.zeros(g.shape)
            for a in range(m + 1):
                b = m - a
                for j in range(g.d):
                    advq = advq + Vt_c[a][j] * gqt_c[b][j]
            dq_m = -eps * g.irfft(mask * g.rfft(advq)) - div_part
        else:
            dq_m = -div_part
        q_c.append(dq_m / (m + 1))

        # velocity equation coefficient
        w = ops.w_hba(grad_arr(g, z_c[m]), mu)
        if eps != 0.0:
            adv = np.zeros((g.d,) + g.shape)
            for a in range(m + 1):
                b = m - a
                for i in range(g.d):
                    for j in range(g.d):
                        adv[i] += Vt_c[a][j] * jac_c[b][i][j]
            w = w + eps * hb * g.irfft(mask * g.rfft(adv))
        V_c.append(-handle.solve_weighted_arrays(w) / (m + 1))

        # extend the surface jet and the caches
        if eps != 0.0:
            acc = np.zeros(g.shape)
            for j in range(1, m + 2):
                acc = acc + j * q_c[j] * e_c[m + 1 - j]
            e_c.append(eps * acc / (m + 1))
            z_c.append(hb * e_c[m + 1] / eps)
        else:
            z_c.append(hb * q_c[m + 1])
        Vt_m1, jac_m1 = _vel_caches(V_c[m + 1])
        Vt_c.append(Vt_m1)
        jac_c.append(jac_m1)
        gqt_c.append(_gradq_cache(q_c[m + 1]))

    out = []
    for k in range(k_max + 1):
        scale = eps**k * math.factorial(k)
        out.append(scale * np.concatenate([q_c[k][None], V_c[k]]))
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
    mu = params.mu
    if params.model == "sw":
        lin = kmax
    elif params.model == "bp":
        lin = kmax / math.sqrt(1.0 + mu * kmax**2 / 3.0)
    elif params.model == "mbp":
        lin = kmax * math.sqrt((1.0 + mu * kmax**2) / (1.0 + 4.0 * mu * kmax**2 / 3.0))
    else:
        lin = 0.0
    if params.rescaled_time:
        lin = lin / params.eps
    adv = 0.0
    if state is not None and params.eps > 0:
        rows = state.stack()
        sup = float(np.abs(rows[1:] if rows.shape[0] > 1 else rows[:1]).max())
        adv = params.eps * sup * kmax
    return lin + adv
