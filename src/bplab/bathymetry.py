"""Bottom profiles, rest height, and the logarithmic surface variable.

The rest water column is h_b = 1 - beta*b and must stay strictly positive.
The modified evolution system replaces the surface elevation zeta by

    q = log(1 + eps*zeta/h_b) / eps,

which is admissible exactly while 1 + eps*zeta/h_b > 0. At eps = 0 every
formula below degenerates to its analytic limit rather than dividing by eps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import AdmissibilityWarning, LogDomainError, NonpositiveDepthError
from .spectral import Grid, grad_arr

__all__ = [
    "Bathymetry",
    "build_bathymetry",
    "zeta_to_q_arr",
    "q_to_zeta_arr",
    "q_positivity_factor",
    "PROFILES",
]

ADMISSIBILITY_MARGIN = 0.1


def _wrapped_offset(x: np.ndarray, center: float, L: float) -> np.ndarray:
    # minimum-image distance so bumps are exactly periodic
    return (x - center + 0.5 * L) % L - 0.5 * L


def _gaussian(grid: Grid, center, width: float, height: float) -> np.ndarray:
    centers = center if isinstance(center, (tuple, list)) else (center,) * grid.d
    r2 = np.zeros(grid.shape)
    for xc, c in zip(grid.x, centers):
        dxi = _wrapped_offset(xc, c, grid.L)
        r2 = r2 + dxi * dxi
    return height * np.exp(-0.5 * r2 / width**2)


def _profile_flat(grid: Grid, params) -> np.ndarray:
    return np.zeros(grid.shape)


def _profile_gaussian_bump(grid: Grid, params) -> np.ndarray:
    center = params.get("center", 0.5 * grid.L)
    width = params.get("width", grid.L / 8.0)
    height = params.get("height", 1.0)
    return _gaussian(grid, center, width, height)


def _profile_sinusoidal(grid: Grid, params) -> np.ndarray:
    k = int(params.get("k", 1))
    amplitude = params.get("amplitude", 1.0)
    out = amplitude * np.ones(grid.shape)
    for xc in grid.x:
        out = out * np.sin(2.0 * np.pi * k * xc / grid.L)
    return out


def _profile_two_bumps(grid: Grid, params) -> np.ndarray:
    c1 = params.get("center1", grid.L / 3.0)
    c2 = params.get("center2", 2.0 * grid.L / 3.0)
    w1 = params.get("width1", grid.L / 10.0)
    w2 = params.get("width2", grid.L / 10.0)
    h1 = params.get("height1", 1.0)
    h2 = params.get("height2", 0.5)
    return _gaussian(grid, c1, w1, h1) + _gaussian(grid, c2, w2, h2)


class Profile(NamedTuple):
    """A bottom profile's builder and the params keys it reads, each with its number type."""

    build: Callable[[Grid, dict], np.ndarray]
    keys: dict


PROFILES = {
    "flat": Profile(_profile_flat, {}),
    "gaussian_bump": Profile(
        _profile_gaussian_bump, {"center": float, "width": float, "height": float}
    ),
    "sinusoidal": Profile(_profile_sinusoidal, {"k": int, "amplitude": float}),
    "two_bumps": Profile(
        _profile_two_bumps,
        {key: float for key in ("center1", "center2", "width1", "width2", "height1", "height2")},
    ),
}


@dataclass(frozen=True, eq=False)
class Bathymetry:
    """Bottom profile b with its rest-height caches.

    b is copied on construction and frozen, because h_b and the weighted
    operator cores are cached per Bathymetry object. Stores h_b = 1 - beta*b,
    the twisted gradient of b, and the powers the dispersive operators
    consume. Construction fails unless min h_b > 0, so a NaN or infinite
    beta or b fails too.
    """

    grid: Grid
    beta: float
    b: np.ndarray

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        b = np.array(self.b, dtype=float, copy=True)
        if b.shape != self.grid.shape:
            raise ValueError(
                f"profile shape {b.shape} does not match grid {self.grid.shape}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        if not self.h_min > 0.0:
            raise NonpositiveDepthError(
                f"rest height min(1 - beta*b) = {self.h_min:.6g} is not positive"
            )

    @cached_property
    def hb(self) -> np.ndarray:
        return 1.0 - self.beta * self.b

    @cached_property
    def h_min(self) -> float:
        return float(self.hb.min())

    @cached_property
    def inv_hb(self) -> np.ndarray:
        return 1.0 / self.hb

    @cached_property
    def grad_b(self) -> np.ndarray:
        """Twisted gradient of the raw profile b."""
        return grad_arr(self.grid, self.b)

    @property
    def is_flat(self) -> bool:
        return self.beta == 0.0 or not np.any(self.b)


def build_bathymetry(grid: Grid, profile: str, beta: float, params=None) -> Bathymetry:
    """Construct a named bottom profile; raises NonpositiveDepthError if drowned
    and ValueError for a params key the profile does not read."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile '{profile}', choose from {sorted(PROFILES)}")
    keys = PROFILES[profile].keys
    for key in params or {}:
        if key not in keys:
            raise ValueError(f"profile {profile!r} reads no {key!r}, choose from {sorted(keys)}")
    b = PROFILES[profile].build(grid, dict(params or {}))
    return Bathymetry(grid=grid, beta=beta, b=b)


def _check_admissibility(ratio_min: float) -> None:
    # ratio = 1 + eps*zeta/h_b must stay positive for the log to exist
    if ratio_min <= 0.0:
        raise LogDomainError(
            f"min(1 + eps*zeta/h_b) = {ratio_min:.6g} leaves the log domain"
        )
    if ratio_min < ADMISSIBILITY_MARGIN:
        warnings.warn(
            f"surface within {ratio_min:.3g} of the admissibility boundary",
            AdmissibilityWarning,
            stacklevel=3,
        )


def zeta_to_q_arr(zeta: np.ndarray, eps: float, bath: Bathymetry) -> np.ndarray:
    """Forward log variable q = log(1 + eps*zeta/h_b)/eps; zeta/h_b at eps=0."""
    x = eps * zeta * bath.inv_hb
    _check_admissibility(float(1.0 + x.min()))
    if eps == 0.0:
        return zeta * bath.inv_hb
    return np.log1p(x) / eps


def q_to_zeta_arr(q: np.ndarray, eps, bath: Bathymetry) -> np.ndarray:
    """Inverse map zeta = h_b*(exp(eps*q) - 1)/eps; h_b*q at eps=0. Total.

    eps may also be an array of nonzero per-member values that broadcasts
    against q, as a batch of flows passes it.
    """
    if np.ndim(eps) == 0 and eps == 0.0:
        return bath.hb * q
    return bath.hb * np.expm1(eps * q) / eps


def q_positivity_factor(zeta: np.ndarray, eps: float, bath: Bathymetry) -> np.ndarray:
    """Pointwise factor Q(zeta) with q = Q(zeta)*zeta.

    Closed form log1p(eps*zeta/h_b)/(eps*zeta), strictly positive on the
    admissible set; the eps*zeta -> 0 limit is 1/h_b.
    """
    x = eps * zeta * bath.inv_hb
    _check_admissibility(float(1.0 + x.min()))
    small = np.abs(x) < 1e-12
    safe = np.where(small, 1.0, x)
    return np.where(
        small,
        bath.inv_hb * (1.0 - 0.5 * x),
        np.log1p(safe) / (safe * bath.hb),
    )
