"""Periodic pseudospectral core: grids, Fourier symbols, the H^s norm.

Everything lives on the torus [0, L)^d sampled at n points per axis.
The anisotropic derivative stack is

    grad_g f = (df/dx, g*df/dy)        d=2,  or  df/dx   d=1
    perp_g f = (-g*df/dy, df/dx)       d=2,  or  0       d=1

with 0 < g <= 1 the transversality ratio carried by the grid. A grid
function is a plain array whose trailing axes are grid.shape; leading axes
stack rows (a velocity's d components, a state's 1 + d rows) or a batch.
Derivatives and smoothing act as Fourier multipliers in rfft space;
products of grid functions are dealiased with the 2/3 rule before they are
differentiated.

Grid owns every Fourier symbol the package multiplies by: the derivative
multipliers ik and their band-limited form mik, the Bessel potential
(1 + |k^g|^2)^(s/2), the mollifier (1 + delta*|k^g|^2)^power and the rfft
Parseval weight. hs_norms is the one H^s norm: a discrete Parseval sum
over rfft coefficients, equal to the nodal quadrature of |Lambda^s f|^2.

Grid.rfft and Grid.irfft are the package's only transforms. Each 1-D pass
calls the pocketfft gufunc that np.fft wraps (numpy >= 2.0) with np.fft's
own output layout, precision and normalization, but without its argument
handling, which costs as much as the transform itself at these sizes; the
results are np.fft's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "trunc_arr",
    "grad_arr",
    "div_arr",
    "lambda_arr",
    "mollify_arr",
    "hs_norms",
]

# numpy.fft's pocketfft gufuncs, bound by the first transform: import numpy
# does not load numpy.fft, and a run that never transforms should not pay for it
_pfu = None
# gufunc axes of a pass along a d=2 grid's first axis: input, normalization, output
_FIRST_GRID_AXIS = [(-2,), (), (-2,)]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid with cached rfft-layout wavenumber arrays.

    Wavenumbers are the physical 2*pi*m/L, twisted by gamma along the
    second axis. The 2/3-rule mask and derivative multipliers are built
    once and reused by every operator.
    """

    d: int
    n: int
    L: float
    gamma: float = 1.0

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two with n >= 8")
        if not 0 < self.L < np.inf:
            raise ValueError("L must be finite and positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def rshape(self) -> tuple[int, ...]:
        if self.d == 1:
            return (self.n // 2 + 1,)
        return (self.n, self.n // 2 + 1)

    @property
    def dx(self) -> float:
        return self.L / self.n

    @cached_property
    def x(self) -> tuple[np.ndarray, ...]:
        """Node coordinates, full grid shape per axis."""
        c = np.arange(self.n) * self.dx
        if self.d == 1:
            return (c,)
        return tuple(np.meshgrid(c, c, indexing="ij"))

    @cached_property
    def _k_int(self) -> list[np.ndarray]:
        # integer mode indices per axis, rfft layout, broadcastable shapes
        n = self.n
        if self.d == 1:
            return [np.arange(n // 2 + 1)]
        kx = np.fft.fftfreq(n, 1.0 / n)
        ky = np.arange(n // 2 + 1)
        return [kx[:, None], ky[None, :]]

    @cached_property
    def kgamma(self) -> list[np.ndarray]:
        """Twisted physical wavenumbers (k1, gamma*k2)."""
        scale = 2.0 * np.pi / self.L
        ks = [scale * k for k in self._k_int]
        if self.d == 2:
            ks[1] = self.gamma * ks[1]
        return ks

    @cached_property
    def k2gamma(self) -> np.ndarray:
        """|k^gamma|^2 on the rfft grid."""
        out = np.zeros(self.rshape)
        for k in self.kgamma:
            out = out + k * k
        return out

    @cached_property
    def ik(self) -> list[np.ndarray]:
        """First-derivative multipliers i*k^gamma, Nyquist line zeroed.

        The odd derivative of the real Nyquist mode is not representable,
        so that line is dropped from first derivatives.
        """
        n = self.n
        out = []
        for k_int, kg in zip(self._k_int, self.kgamma):
            out.append(1j * kg * (np.abs(k_int) != n // 2))
        return out

    @cached_property
    def keff(self) -> list[np.ndarray]:
        """Real effective wavenumbers imag(ik), i.e. k^gamma minus Nyquist."""
        return [np.imag(m) for m in self.ik]

    @cached_property
    def ik_stack(self) -> np.ndarray:
        """The d multipliers ik stacked on a leading axis: (d, *rshape)."""
        return np.stack(np.broadcast_arrays(*self.ik))

    @cached_property
    def ik_perp(self) -> np.ndarray:
        """Rotated multipliers (-i*gamma*k2, i*k1) of perp_grad: (2, *rshape), d=2."""
        return np.stack([-self.ik_stack[1], self.ik_stack[0]])

    @cached_property
    def k2deriv(self) -> np.ndarray:
        """|k^gamma|^2 as realized by the derivative multipliers."""
        out = np.zeros(self.rshape)
        for k in self.keff:
            out = out + k * k
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask in rfft layout (True keeps the mode)."""
        cut = self.n / 3.0
        mask = np.ones(self.rshape, dtype=bool)
        for k_int in self._k_int:
            mask = mask & (np.abs(k_int) < cut)
        return mask

    @cached_property
    def mik(self) -> np.ndarray:
        """Band-limited derivative multipliers dealias_mask * ik_stack: (d, *rshape)."""
        return self.dealias_mask * self.ik_stack

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """w with sum(w * |rfft(f)|^2) = dx^d * sum(f^2): (L/n^2)^d, doubled on the
        last axis's interior modes, which stand for their conjugates too."""
        w = np.full(self.rshape, 2.0 * (self.L / self.n**2) ** self.d)
        w[..., [0, -1]] *= 0.5  # k = 0 and Nyquist count once
        return w

    def bessel(self, s: float) -> np.ndarray:
        """Bessel-potential symbol (1 + |k^gamma|^2)^(s/2) of Lambda^s."""
        return (1.0 + self.k2gamma) ** (0.5 * s)

    def mollifier(self, delta, power: int) -> np.ndarray:
        """Symbol (1 + delta*|k^gamma|^2)^power of (1 - delta*Lap_gamma)^power;
        delta may be a column that broadcasts against rshape, one per member."""
        if power not in (-2, -1, 1, 2):
            raise ValueError("power must be one of -2, -1, 1, 2")
        if np.any(np.asarray(delta) < 0):
            raise ValueError("delta must be nonnegative")
        return (1.0 + delta * self.k2gamma) ** power

    @cached_property
    def _precisions(self) -> dict:
        """Input dtype -> (real dtype, complex dtype, 1/n), as np.fft picks them."""
        return {}

    def _precision(self, a: np.ndarray) -> tuple:
        """np.fft's output precision for a's dtype, looked up once per dtype.

        The precision follows the input's: float64 gives complex128, and
        longdouble gives clongdouble. The first transform binds the kernels.
        """
        global _pfu
        from numpy.fft import _pocketfft_umath as _pfu

        real = np.result_type(a.real.dtype, 1.0)
        entry = (real, np.result_type(a.dtype, 1j), np.reciprocal(self.n, dtype=real))
        self._precisions[a.dtype] = entry
        return entry

    def rfft(self, a: np.ndarray) -> np.ndarray:
        """Real transform over the trailing grid axes (stacked arrays ok).

        Each 1-D pass is one call of the pocketfft kernel that np.fft wraps,
        with np.fft's output layout, precision and normalization, so the
        result is np.fft.rfft's (d=1) or rfftn's (d=2), bit for bit. In d=2
        the passes are rfftn's: rfft along the last axis, then fft along the
        first.
        """
        cplx = (self._precisions.get(a.dtype) or self._precision(a))[1]
        out = np.empty_like(a, shape=a.shape[:-1] + (self.n // 2 + 1,), dtype=cplx)
        _pfu.rfft_n_even(a, 1, out=out)  # Grid's n is even
        if self.d == 1:
            return out
        return _pfu.fft(out, 1, out=np.empty_like(out), axes=_FIRST_GRID_AXIS)

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        """Inverse of rfft: np.fft.irfft's (d=1) or irfftn's (d=2) result, bit
        for bit; in d=2 irfftn's two 1-D passes, ifft then irfft.

        A spectrum whose last axis is shorter than n//2 + 1 is zero-padded,
        as np.fft.irfft(spec, n) pads it: the transform of its leading
        columns alone is that of the spectrum zero above them.
        """
        real, cplx, inv_n = self._precisions.get(spec.dtype) or self._precision(spec)
        if self.d == 2:
            out = np.empty_like(spec, dtype=cplx)
            spec = _pfu.ifft(spec, inv_n, out=out, axes=_FIRST_GRID_AXIS)
        out = np.empty_like(spec, shape=spec.shape[:-1] + (self.n,), dtype=real)
        return _pfu.irfft(spec, inv_n, out=out)


# ---------------------------------------------------------------------------
# array-level primitives


def trunc_arr(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Projection onto the 2/3-rule band."""
    return grid.irfft(grid.dealias_mask * grid.rfft(a))


def grad_arr(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Twisted gradient: (..., *shape) -> (..., d, *shape), one transform pair."""
    spec = np.expand_dims(grid.rfft(a), -(grid.d + 1))
    return grid.irfft(grid.ik_stack * spec)


def div_arr(grid: Grid, V) -> np.ndarray:
    """Twisted divergence, reducing axis -(d+1): (..., d, *shape) -> (..., *shape)."""
    spec = grid.rfft(np.asarray(V))
    return grid.irfft((grid.ik_stack * spec).sum(axis=-(grid.d + 1)))


def lambda_arr(grid: Grid, a: np.ndarray, s: float) -> np.ndarray:
    """Bessel potential Lambda^s = (1 - Lap_gamma)^(s/2)."""
    return grid.irfft(grid.bessel(s) * grid.rfft(a))


def mollify_arr(grid: Grid, a: np.ndarray, delta: float, power: int) -> np.ndarray:
    """Powers of (1 - delta*Lap_gamma), power in (-2, -1, 1, 2)."""
    return grid.irfft(grid.mollifier(delta, power) * grid.rfft(a))


def hs_norms(grid: Grid, spec: np.ndarray, s: float, symbol=1.0) -> np.ndarray:
    """|Lambda^s f|_2 for each leading index of spec = rfft(f), (R, ..., *rshape).

    The axes after the first are one stacked norm. symbol weights |spec|^2:
    grid.k2deriv gives the norm of the d derivatives grad_arr returns.
    """
    w = grid.parseval_weight * grid.bessel(2.0 * s) * symbol
    sq = w * (spec.real**2 + spec.imag**2)
    return np.sqrt(sq.reshape(spec.shape[0], -1).sum(axis=1))
