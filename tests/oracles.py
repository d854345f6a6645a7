"""Independent oracles the tests compare the fast paths against.

Derivatives come from centered stencils, eigen-extrema from scipy's dense
eigensolver, reference trajectories from a plain RK4 loop over a flow
evaluated on nodes, dealiased products from the plain 2/3-rule
projection, the rotated gradient from its plain multiplier, and H^s norms
from nodal quadrature of Lambda^s f. None of this runs in the package; it
only checks it.
"""

from __future__ import annotations

import numpy as np

from bplab.errors import NotSPDError
from bplab.spectral import Grid, lambda_arr, trunc_arr


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
