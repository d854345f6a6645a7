"""Independent oracles the tests compare the fast paths against.

Derivatives come from centered stencils, eigen-extrema from scipy's dense
eigensolver, reference trajectories from a plain RK4 loop over a flow
evaluated on nodes, dealiased products from the plain 2/3-rule
projection, the rotated gradient and divergence from their plain
multipliers, H^s norms from nodal quadrature of Lambda^s f, and the bp and
mbp velocity solves' right-hand sides written whole, as the flows stated
them before they split off the hydrostatic velocity. The fast
paths are checked bit for bit against their explicit form: the nodal
factors built factor by factor, the operator audit's trials drawn and
applied one at a time, the RK4 step as the textbook writes it, the
Burgers flux transformed over the whole masked spectrum, the per-mode
block product as np.einsum forms it, and the diagnostics CSV as csv.writer
writes it. None of this runs in the package; it only checks it.
"""

from __future__ import annotations

import csv

import numpy as np

from bplab.bathymetry import q_to_zeta_arr
from bplab.errors import NotSPDError
from bplab.operators import _gram_apply, coercivity_report, get_weighted_ops
from bplab.spectral import Grid, grad_arr, lambda_arr, trunc_arr


def eig_extrema(M: np.ndarray, G: np.ndarray | None = None) -> tuple[float, float]:
    """Extreme eigenvalues of M, generalized against Gram G when given.

    Solved after symmetric whitening by the Gram's Cholesky factor, which is
    also the SPD check: a Gram that fails to factorize raises NotSPDError.
    """
    import scipy.linalg  # loaded by the dense oracles only

    M = 0.5 * (M + M.T)
    if G is None:
        w = scipy.linalg.eigh(M, eigvals_only=True)
        return float(w[0]), float(w[-1])
    G = 0.5 * (G + G.T)
    try:
        L = scipy.linalg.cholesky(G, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotSPDError(f"Gram matrix not SPD: {exc}") from exc
    Linv = scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)
    w = scipy.linalg.eigh(Linv @ M @ Linv.T, eigvals_only=True)
    return float(w[0]), float(w[-1])


_D1_4TH = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)  # offsets -2,-1,1,2
_D2_4TH = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)


def fd_derivative(
    grid: Grid, a: np.ndarray, order: int = 1, axis: int = 0
) -> np.ndarray:
    """Periodic centered finite difference, 4th-order accurate.

    order is the derivative order (1 or 2) along grid axis `axis`. Used as
    the independent check on spectral derivatives, never in the solvers.
    """
    h = grid.dx
    if order == 1:
        out = (
            _D1_4TH[0] * np.roll(a, 2, axis=axis)
            + _D1_4TH[1] * np.roll(a, 1, axis=axis)
            + _D1_4TH[2] * np.roll(a, -1, axis=axis)
            + _D1_4TH[3] * np.roll(a, -2, axis=axis)
        ) / h
    elif order == 2:
        out = (
            _D2_4TH[0] * np.roll(a, 2, axis=axis)
            + _D2_4TH[1] * np.roll(a, 1, axis=axis)
            + _D2_4TH[2] * a
            + _D2_4TH[3] * np.roll(a, -1, axis=axis)
            + _D2_4TH[4] * np.roll(a, -2, axis=axis)
        ) / h**2
    else:
        raise ValueError("order must be 1 or 2")
    return out


def fd_gradient(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Twisted gradient (d, *shape) from the stencil oracle (gamma on axis 1)."""
    out = [fd_derivative(grid, a, 1, axis=0)]
    if grid.d == 2:
        out.append(grid.gamma * fd_derivative(grid, a, 1, axis=1))
    return np.stack(out)


def reference_trajectory(initial, rhs, t_end: float, dt_fine: float):
    """Fine-step RK4 reference for trajectory comparisons.

    initial is a stacked state array, rhs an array -> array callable. Kept
    independent of the production timeloop on purpose: plain loop, no
    diagnostics, no termination logic.
    """
    steps = int(round(t_end / dt_fine))
    if abs(steps * dt_fine - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError("t_end must be an integer number of fine steps")
    u = np.array(initial, dtype=float, copy=True)
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt_fine * k1)
        k3 = rhs(u + 0.5 * dt_fine * k2)
        k4 = rhs(u + dt_fine * k3)
        u = u + (dt_fine / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def rk4_step_reference(fn, W, dt):
    """One classical RK4 step as the textbook writes it, each combination a
    new array; dt is a number or a column that broadcasts against W."""
    k1 = fn(W)
    k2 = fn(W + 0.5 * dt * k1)
    k3 = fn(W + 0.5 * dt * k2)
    k4 = fn(W + dt * k3)
    return W + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def mode_blocks_reference(blocks: np.ndarray, W: np.ndarray) -> np.ndarray:
    """out[k, i] = sum_j L[k, ..., i, j] * W[k, j] per mode, as np.einsum
    forms it, for blocks L (K, *rshape, m, m) and a member stack W."""
    return np.einsum("k...ij,kj...->ki...", blocks, W)


def write_run_csv_reference(path, records, track_modes=()) -> None:
    """scenarios.write_run_csv through csv.writer: the header, then one row
    of repr(float(v)) per record."""
    from bplab.scenarios import CSV_COLUMNS, _mode_column

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(CSV_COLUMNS) + [_mode_column(m) for m in track_modes])
        for r in records:
            row = [repr(float(v)) for v in (r.time, r.EN, r.E_bp, r.E_thm, r.sup_U, r.sup_gradU)]
            if r.mode_amplitudes is not None:
                row.extend(repr(float(a)) for a in r.mode_amplitudes)
            w.writerow(row)


def burgers_flux_reference(grid: Grid, W: np.ndarray, eps, deltas) -> np.ndarray:
    """The Burgers flow coef * rfft(irfft(mask * W) ** 2) of a member stack
    W (K, 1, n//2 + 1), the whole masked spectrum transformed; eps and deltas
    hold one value per member, and coef = -eps/2 * (band-limited d_x) *
    (1 - delta*d_xx)^-2."""
    col = (-1, 1, 1)
    m2 = grid.mollifier(np.reshape(deltas, col), -2)
    coef = -0.5 * np.reshape(eps, col) * grid.mik * m2
    return coef * grid.rfft(grid.irfft(grid.dealias_mask * W) ** 2)


def dprod(grid: Grid, a, b):
    """Dealiased product T(Ta * Tb) of two grid functions.

    T is the 2/3-rule projection; the outer T keeps the result clean for a
    following derivative.
    """
    return trunc_arr(grid, trunc_arr(grid, a) * trunc_arr(grid, b))


def perp_grad_arr(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Rotated gradient (..., *shape) -> (..., d, *shape); zero in d=1."""
    if grid.d == 1:
        return np.zeros_like(np.expand_dims(a, -2))
    spec = np.expand_dims(grid.rfft(a), -3)
    return grid.irfft(grid.ik_perp * spec)


def perp_div_arr(grid: Grid, V) -> np.ndarray:
    """Rotated divergence, reducing axis -(d+1); zero in d=1."""
    V = np.asarray(V)
    if grid.d == 1:
        return np.zeros_like(V[..., 0, :])
    return grid.irfft((grid.ik_perp * grid.rfft(V)).sum(axis=-3))


def nodal_rhs(bundle, U: np.ndarray) -> np.ndarray:
    """A bundle's flow evaluated on a nodal stack U."""
    return bundle.decode(bundle.fn(bundle.encode(U)))


def l2_norm_arr(grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a) * grid.dx**grid.d))


def sobolev_norm_arr(grid: Grid, a: np.ndarray, s: float) -> float:
    """|f|_{H^s} = |Lambda^s f|_2 via Parseval-consistent quadrature."""
    if s == 0:
        return l2_norm_arr(grid, a)
    return l2_norm_arr(grid, lambda_arr(grid, a, s))


def nodal_factors_reference(grid: Grid, W: np.ndarray, scalar: bool, gradq: bool, jac: bool):
    """(s, Ut, gqt, J) of a spectral stack W (K, rows, *rshape), one factor
    at a time: the plain scalar row, the masked state, the band-limited
    gradient of row 0 and the band-limited Jacobian of the velocity rows,
    each sliced, multiplied and reshaped alone, then one stacked irfft."""
    d = grid.d
    K = W.shape[0]
    parts = [W[:, :1]] * scalar + [grid.dealias_mask * W] + [grid.mik * W[:, :1]] * gradq
    if jac:
        parts.append((grid.mik * W[:, 1:, None]).reshape((K, d * d) + grid.rshape))
    nod = grid.irfft(np.concatenate(parts, axis=1))
    i = int(scalar)
    Ut = nod[:, i : i + 1 + d]
    i += 1 + d
    gqt = nod[:, i : i + d] if gradq else None
    J = nod[:, i + d * gradq :].reshape((K, d, d) + grid.shape) if jac else None
    return (nod[:, :1] if scalar else None), Ut, gqt, J


def velocity_rhs_reference(model: str, eps: float, mu: float, bath, W: np.ndarray):
    """(V0, y) of the bp or mbp weighted velocity solve at one member's
    spectrum W (rows, *rshape), written whole, as the flows solved it before
    they split off V0: the hydrostatic velocity V0 is grad zeta + eps
    T(V.grad)V for bp and grad zeta for mbp, and y is h_b V0 for bp and h_b A
    grad zeta + eps h_b T(V.grad)V for mbp."""
    g = bath.grid
    _, Ut, _, J = nodal_factors_reference(g, W[None], False, False, True)
    adv = trunc_arr(g, (Ut[0, 1:][None] * J[0]).sum(axis=1))  # dealiased (V.grad)V
    if model == "bp":
        V0 = g.irfft(g.ik_stack * W[:1]) + eps * adv
        return V0, bath.hb * V0
    V0 = grad_arr(g, q_to_zeta_arr(g.irfft(W[0]), eps, bath))
    return V0, get_weighted_ops(bath).weighted("hb_A", V0, mu) + eps * bath.hb * adv


def coercivity_report_per_trial(handle, trials: int = 8, rng=None) -> dict:
    """operators.coercivity_report with one draw and two applies per trial.

    Only the trial fields are computed here; the header and the dense
    eigen-extrema, which no trial touches, are the report's own.
    """
    rng = rng or np.random.default_rng(0)
    grid = handle.grid
    report = coercivity_report(handle, trials=1)
    quotients = []
    sym = 0.0
    for _ in range(trials):
        v, w = rng.standard_normal((2, grid.d) + grid.shape)
        Wv = handle.apply_weighted_arrays(v)
        Ww = handle.apply_weighted_arrays(w)
        num = float(np.vdot(Wv, v).real)
        den = float(np.vdot(_gram_apply(grid, handle.kind, handle.mu, v), v).real)
        quotients.append(num / den)
        asym = abs(float(np.vdot(Wv, w).real) - float(np.vdot(v, Ww).real))
        scale = float(
            np.linalg.norm(Wv.ravel()) * np.linalg.norm(w.ravel())
            + np.linalg.norm(v.ravel()) * np.linalg.norm(Ww.ravel())
        )
        sym = max(sym, asym / scale)
    report["trial_min_quotient"] = min(quotients)
    report["trial_max_quotient"] = max(quotients)
    report["symmetry_residual"] = sym
    return report


def audit_round_trip_per_trial(handle, M: np.ndarray, trials: int, rng) -> tuple:
    """(solve_residual, dense_mismatch) of the operator audit, one draw, solve
    and apply of each kind per trial; M is the dense weighted matrix."""
    grid = handle.grid
    solve_resid = 0.0
    dense_resid = 0.0
    for _ in range(trials):
        r = rng.standard_normal((grid.d,) + grid.shape)
        x = handle.solve_arrays(r)
        back = handle.apply_arrays(x)
        solve_resid = max(solve_resid, float(np.abs(back - r).max() / np.abs(r).max()))
        mv = (M @ r.ravel()).reshape(r.shape)
        av = handle.apply_weighted_arrays(r)
        dense_resid = max(dense_resid, float(np.linalg.norm(mv - av) / np.linalg.norm(mv)))
    return solve_resid, dense_resid
