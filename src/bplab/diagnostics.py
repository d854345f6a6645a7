"""Energies, dispersion measurement, order fits, and blow-up detection.

Everything here is a pure function of recorded data: trajectories go in,
numbers come out. The three energies written to run diagnostics are

    energy_bp         0.5*|zeta|_2^2 + 0.5*<h_b(I + mu*Tb)V, V>
    energy_EN         |zeta|_{H^N} + sqrt(mu)*|grad zeta|_{H^N}
                      + |V|_{H^N} + sqrt(mu)*|grad V|_{H^N}
    energy_theorem_E  |zeta|_{H^s}^2 + |V|_{H^s}^2 + mu*|div V|_{H^s}^2

all on the surface/velocity pair, given as arrays: zeta (*grid.shape)
and V (d, *grid.shape), each with optional leading record axes.
Trajectories of the log-variable system are converted back to the surface
before evaluation. E^N and E_thm are discrete Parseval sums over the rfft
coefficients of the stacked pair (spectral.hs_norms); E_bp is a nodal sum,
because its h_b products act on nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bathymetry import Bathymetry, q_to_zeta_arr
from .errors import (
    DegenerateFitError,
    InsufficientSamplesError,
    NoShockError,
)
from .operators import get_weighted_ops
from .spectral import Grid, grad_arr, hs_norms

__all__ = [
    "DiagnosticsRecord",
    "energy_bp",
    "energy_EN",
    "energy_theorem_E",
    "build_records",
    "exact_dispersion",
    "fit_oscillation_frequency",
    "measure_dispersion",
    "estimate_order",
    "burgers_shock_time",
    "ShockFit",
    "detect_gradient_blowup",
]


# ---------------------------------------------------------------------------
# energies: zeta (*lead, *shape) and V (*lead, d, *shape) give one value per
# record, or a float for a single state


def _records(grid: Grid, zeta: np.ndarray, V: Optional[np.ndarray]):
    """(lead, U): the record axes, and (zeta, V) stacked as (R, rows, *shape).

    zeta's trailing axes must be grid.shape and V's (d, *grid.shape): a
    field of another size is refused, not read as more or fewer records.
    """
    lead = zeta.shape[: zeta.ndim - grid.d]
    if zeta.shape[len(lead) :] != grid.shape or (
        V is not None and V.shape[V.ndim - grid.d - 1 :] != (grid.d, *grid.shape)
    ):
        raise ValueError(f"fields do not lie on the d={grid.d} n={grid.n} grid")
    rows = [zeta.reshape((-1, 1) + grid.shape)]
    if V is not None:
        rows.append(V.reshape((-1, grid.d) + grid.shape))
    return lead, np.concatenate(rows, axis=1)


def _per_record(values: np.ndarray, lead: tuple):
    return float(values[0]) if lead == () else values.reshape(lead)


def _energies(grid: Grid, spec: np.ndarray, mu: float, s: float):
    """(E^s, E_thm at index s) per record, from spec = rfft(U), (R, rows, *rshape).

    A stacked array's norm is the root of its rows' squared norms, and a
    gradient's is its spectrum's weighted by grid.k2deriv.
    """
    smu = np.sqrt(mu)
    nz = hs_norms(grid, spec[:, :1], s)
    en = nz + smu * hs_norms(grid, spec[:, :1], s, grid.k2deriv)
    thm = nz**2
    if spec.shape[1] > 1:
        nv = hs_norms(grid, spec[:, 1:], s)
        en = en + nv + smu * hs_norms(grid, spec[:, 1:], s, grid.k2deriv)
        div = (grid.ik_stack * spec[:, 1:]).sum(axis=1)
        thm = thm + nv**2 + mu * hs_norms(grid, div, s) ** 2
    return en, thm


def energy_bp(zeta: np.ndarray, V: np.ndarray, mu: float, bath: Bathymetry):
    """Quadratic energy of the dispersive system; conserved on flat linear runs."""
    g = bath.grid
    lead, U = _records(g, zeta, V)
    zeta, V = U[:, 0], U[:, 1:]
    wv = get_weighted_ops(bath).weighted("I_plus_muTb", V, mu)
    kinetic = (wv * V).reshape(V.shape[0], -1).sum(axis=1)
    potential = (zeta * zeta).reshape(zeta.shape[0], -1).sum(axis=1)
    return _per_record(0.5 * (potential + kinetic) * g.dx**g.d, lead)


def energy_EN(
    grid: Grid, zeta: np.ndarray, V: Optional[np.ndarray], mu: float, N: float = 3.0
):
    """Layered H^N energy; the gradient blocks carry the sqrt(mu) weight."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    lead, U = _records(grid, zeta, V)
    return _per_record(_energies(grid, grid.rfft(U), mu, N)[0], lead)


def energy_theorem_E(
    grid: Grid, zeta: np.ndarray, V: Optional[np.ndarray], mu: float, s: float = 3.0
):
    """Squared state size |U|_{H^s}^2 + mu*|div V|_{H^s}^2 (no root taken)."""
    lead, U = _records(grid, zeta, V)
    return _per_record(_energies(grid, grid.rfft(U), mu, s)[1], lead)


# ---------------------------------------------------------------------------
# per-record assembly

RECORD_CHUNK_POINTS = 1 << 14  # grid values per stacked chunk of build_records


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One recorded instant; serializes to one CSV row."""

    time: float
    EN: float
    E_bp: float
    E_thm: float
    sup_U: float
    sup_gradU: float
    mode_amplitudes: Optional[np.ndarray] = None


def build_records(traj, bath: Bathymetry, N: float = 3.0) -> list:
    """Energy/monitor records over a trajectory; E^N and E_thm both use index N.

    The log-variable scalar is converted to the surface before every
    energy; Burgers has no surface or velocity, so its E_bp is NaN and its
    other energies use the profile alone. Records are evaluated in stacked
    chunks of about RECORD_CHUNK_POINTS grid values, each with one forward
    transform of its nodal states; the record objects are then built in one
    pass over the columns' tolist() floats, which are the values float()
    gives, with each record's mode amplitudes a row of one abs().
    """
    g = traj.grid
    model = traj.params.model
    mu = traj.params.mu
    eps = traj.params.eps
    n_rec = len(traj.states)
    if n_rec == 0:
        return []
    rows = traj.states[0].size
    chunk = max(1, RECORD_CHUNK_POINTS // rows)
    en, ethm, ebp = (np.empty(n_rec) for _ in range(3))
    for lo in range(0, n_rec, chunk):
        hi = min(lo + chunk, n_rec)
        U = np.stack(traj.states[lo:hi])
        if model == "mbp":
            U[:, 0] = q_to_zeta_arr(U[:, 0], eps, bath)
        en[lo:hi], ethm[lo:hi] = _energies(g, g.rfft(U), mu, N)
        ebp[lo:hi] = np.nan if U.shape[1] == 1 else energy_bp(U[:, 0], U[:, 1:], mu, bath)
    cols = zip(
        traj.times.tolist(), en.tolist(), ebp.tolist(), ethm.tolist(),
        traj.sup_u.tolist(), traj.sup_grad_u.tolist(),
    )
    if traj.mode_history is None:
        return [DiagnosticsRecord(*c) for c in cols]
    return [DiagnosticsRecord(*c, a) for c, a in zip(cols, np.abs(traj.mode_history))]


# ---------------------------------------------------------------------------
# dispersion


def exact_dispersion(model: str, k: float, mu: float) -> float:
    """Angular frequency of a plane wave of twisted wavenumber k, flat bottom."""
    k2 = k * k
    if model == "sw":
        return float(abs(k))
    if model == "bp":
        return float(abs(k) / np.sqrt(1.0 + mu * k2 / 3.0))
    if model == "mbp":
        return float(abs(k) * np.sqrt((1.0 + mu * k2) / (1.0 + 4.0 * mu * k2 / 3.0)))
    raise ValueError(f"no dispersion relation for model {model!r}")


def _zero_crossings(times: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Linear-interpolation zero crossings of a sampled oscillation."""
    out = []
    for i in range(len(y) - 1):
        a, b = y[i], y[i + 1]
        if a == 0.0:
            if not out or out[-1] != times[i]:
                out.append(float(times[i]))
        elif a * b < 0.0:
            out.append(float(times[i] - a * (times[i + 1] - times[i]) / (b - a)))
    if len(y) and y[-1] == 0.0:
        out.append(float(times[-1]))
    return np.array(out)


def fit_oscillation_frequency(times: np.ndarray, series: np.ndarray) -> float:
    """Frequency from the zero crossings of Re <c(t), c(0)>.

    Consecutive crossings of a cosine are pi/omega apart, so a straight
    line through (index, crossing time) gives omega = pi/slope. Requires
    at least six crossings (three full periods). A series with c(0) = 0
    has no reference phase, and every record of it would count as a
    crossing: it raises DegenerateFitError.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series)
    if times.shape != series.shape:
        raise ValueError("times and series must have matching shapes")
    if series.size and series[0] == 0:
        raise DegenerateFitError("the series starts at zero, so it has no phase to follow")
    y = np.real(series * np.conj(series[0]))
    crossings = _zero_crossings(times, y)
    if len(crossings) < 6:
        raise InsufficientSamplesError(
            f"found {len(crossings)} zero crossings, need 6 (three periods);"
            " run longer or record more often"
        )
    slope = np.polyfit(np.arange(len(crossings)), crossings, 1)[0]
    return float(np.pi / slope)


def measure_dispersion(trajectory, k) -> float:
    """Measured frequency of tracked mode k along a linear run.

    k must be one of the trajectory's tracked modes (an index in d=1, an
    index pair in d=2). Compare with exact_dispersion for the deviation.
    """
    if trajectory.mode_history is None:
        raise ValueError("trajectory has no tracked modes")
    track = list(trajectory.config.track_modes)
    key = tuple(k) if isinstance(k, (tuple, list)) else k
    norm = [tuple(m) if isinstance(m, (tuple, list)) else m for m in track]
    if key not in norm:
        raise ValueError(f"mode {k!r} was not tracked (have {track!r})")
    pos = norm.index(key)
    return fit_oscillation_frequency(trajectory.times, trajectory.mode_history[:, pos])


# ---------------------------------------------------------------------------
# rate fits


def estimate_order(pairs: Sequence) -> float:
    """Least-squares slope of log(error) against log(parameter).

    pairs is a sequence of (parameter, error). Raises DegenerateFitError
    when there are fewer than three points, values are nonpositive, the
    parameters do not vary, or the errors sit at the noise floor.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise DegenerateFitError("need at least three (parameter, error) pairs")
    scales, errors = arr[:, 0], arr[:, 1]
    if np.any(scales <= 0) or np.any(errors <= 0):
        raise DegenerateFitError("parameters and errors must be positive")
    ls = np.log(scales)
    if np.ptp(ls) < 1e-12:
        raise DegenerateFitError("parameters are all equal")
    if errors.max() < 1e-14 or errors.max() / errors.min() < 1.2:
        raise DegenerateFitError("errors are at the noise floor; nothing to fit")
    return float(np.polyfit(ls, np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# gradient blow-up


def burgers_shock_time(grid: Grid, u0: np.ndarray, eps: float) -> float:
    """Characteristics-crossing time -1/(eps*min u0') of the transport flow."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    slope_min = float(grad_arr(grid, u0)[0].min())
    if eps == 0.0 or slope_min >= 0.0:
        raise NoShockError(
            "no characteristics cross: eps = 0 or u0 is nondecreasing"
        )
    return -1.0 / (eps * slope_min)


@dataclass(frozen=True)
class ShockFit:
    """Detected gradient blow-up: crossing time, extrapolated time, rate."""

    t_detect: float
    t_extrapolated: float
    slope: float


def detect_gradient_blowup(
    times: np.ndarray, sup_grad: np.ndarray, threshold: float = 100.0
) -> ShockFit:
    """Locate gradient blow-up from the recorded sup|grad u| history.

    t_detect interpolates the first threshold crossing. The reciprocal of
    a steepening profile's gradient decays linearly to zero, so a line
    through its tail pins the blow-up time sharper than the crossing does;
    slope is the power of (T - t) in a log-log fit and sits near -1 for
    genuine gradient blow-up. A history that turns NaN or inf before a
    finite record reaches the threshold raises NoShockError naming that
    record and its time.
    """
    times = np.asarray(times, dtype=float)
    sup_grad = np.asarray(sup_grad, dtype=float)
    if times.shape != sup_grad.shape:
        raise ValueError("times and sup_grad must have matching shapes")
    finite = np.isfinite(sup_grad)
    above = np.nonzero(finite & (sup_grad >= threshold))[0]
    bad = np.nonzero(~finite)[0]
    # a history that breaks down before a finite record crosses has no
    # crossing to interpolate: name where it broke instead
    if len(bad) and (len(above) == 0 or bad[0] < above[0]):
        i = int(bad[0])
        raise NoShockError(
            f"sup|grad u| turned non-finite ({sup_grad[i]}) at record {i}, "
            f"t = {times[i]:.6g}, before reaching {threshold}"
        )
    if len(above) == 0:
        raise NoShockError(
            f"sup|grad u| never reached {threshold} (max {sup_grad.max():.3g})"
        )
    j = int(above[0])
    if j == 0:
        t_detect = float(times[0])
    else:
        a, b = sup_grad[j - 1], sup_grad[j]
        t_detect = float(
            times[j - 1] + (threshold - a) * (times[j] - times[j - 1]) / (b - a)
        )

    # Fit window: clearly steepened, but capped well below the threshold.
    # Once the front narrows toward the grid scale the recorded gradient
    # lags the true growth, so near-detection records would drag the line
    # shallow and wreck the extrapolation.
    sel = np.nonzero(
        (sup_grad >= 4.0 * sup_grad[0])
        & (sup_grad <= 0.25 * threshold)
        & (times <= times[j])
    )[0]
    if len(sel) < 3:
        raise InsufficientSamplesError(
            "too few steepening records to fit; lower the stride"
        )
    y = 1.0 / sup_grad[sel]
    coef = np.polyfit(times[sel], y, 1)
    if coef[0] >= 0:
        raise DegenerateFitError("reciprocal gradient is not decaying")
    t_ext = float(-coef[1] / coef[0])
    tau = t_ext - times[sel]
    if np.any(tau <= 0):
        raise DegenerateFitError("extrapolated blow-up precedes fitted records")
    slope = float(np.polyfit(np.log(tau), np.log(sup_grad[sel]), 1)[0])
    return ShockFit(t_detect=t_detect, t_extrapolated=t_ext, slope=slope)
