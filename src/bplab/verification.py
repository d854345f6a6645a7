"""Independent oracles: dense assembly, eigen-extrema, finite differences.

Everything here exists to cross-check the spectral fast paths, so the
implementations deliberately avoid sharing code with them: matrices are
materialized through the public applies, one block of identity columns per
batched call, derivatives come from centered stencils, and reference
trajectories halve the step until they are trusted.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .bathymetry import Bathymetry
from .errors import NotSPDError, SizeLimitError
from .operators import KINDS, _gram_apply, dense_matrix, get_weighted_ops
from .spectral import Grid

__all__ = [
    "DENSE_SIZE_LIMIT",
    "assemble_dense",
    "eig_extrema",
    "fd_derivative",
    "fd_gradient",
    "reference_trajectory",
]

DENSE_SIZE_LIMIT = 4096

_GRAM_KINDS = ("gram_X0", "gram_H1")


def assemble_dense(kind: str, mu: float, bath: Bathymetry) -> np.ndarray:
    """Materialize a weighted operator or Gram matrix in the nodal basis.

    kind is one of I_plus_muTb / hb_B / hb_A (their h_b-weighted symmetric
    forms), gram_X0 / gram_H1, or identity. Raises SizeLimitError above
    DENSE_SIZE_LIMIT total unknowns.
    """
    grid = bath.grid
    size = grid.d * grid.n**grid.d
    if size > DENSE_SIZE_LIMIT:
        raise SizeLimitError(f"dense assembly capped at {DENSE_SIZE_LIMIT}, got {size}")
    if kind == "identity":
        return np.eye(size)
    if kind in KINDS:
        ops = get_weighted_ops(bath)
        return dense_matrix(lambda V: ops.weighted(kind, V, mu), grid)
    if kind == "gram_X0":
        return dense_matrix(lambda V: _gram_apply(grid, "hb_A", mu, V), grid)
    if kind == "gram_H1":
        return dense_matrix(lambda V: _gram_apply(grid, "hb_B", mu, V), grid)
    raise ValueError(f"unknown dense kind {kind!r}")


def eig_extrema(M: np.ndarray, G: np.ndarray | None = None) -> tuple[float, float]:
    """Extreme eigenvalues of M, generalized against Gram G when given.

    Solved after symmetric whitening by the Gram's Cholesky factor, which is
    also the SPD check: a Gram that fails to factorize raises NotSPDError.
    """
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
