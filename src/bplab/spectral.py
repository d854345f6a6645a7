"""Periodic pseudospectral core: grids, fields, multipliers, norms.

Everything lives on the torus [0, L)^d sampled at n points per axis.
The anisotropic derivative stack is

    grad_g f = (df/dx, g*df/dy)        d=2,  or  df/dx   d=1
    perp_g f = (-g*df/dy, df/dx)       d=2,  or  0       d=1

with 0 < g <= 1 the transversality ratio carried by the grid. Derivatives
and smoothing act as Fourier multipliers in rfft space; products of grid
functions are dealiased with the 2/3 rule before they are differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "VecField",
    "grad_gamma",
    "div_gamma",
    "perp_grad",
    "perp_div",
    "lambda_s",
    "mollify",
    "dealias",
    "inner",
    "l2_norm",
    "sobolev_norm",
    "xs_norm",
    "field_from_function",
    "zero_field",
    "zero_vecfield",
]


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
        if not self.L > 0:
            raise ValueError("L must be positive")
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

    def rfft(self, a: np.ndarray) -> np.ndarray:
        """Real transform over the trailing grid axes (stacked arrays ok)."""
        if self.d == 1:
            return np.fft.rfft(a, axis=-1)
        return np.fft.rfftn(a, axes=(-2, -1))

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        if self.d == 1:
            return np.fft.irfft(spec, n=self.n, axis=-1)
        return np.fft.irfftn(spec, s=self.shape, axes=(-2, -1))


@dataclass(frozen=True, eq=False)
class Field:
    """Immutable scalar grid function (samples are frozen on construction)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float, copy=True)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"samples shape {arr.shape} does not match grid {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def is_finite(self) -> bool:
        """NaN/Inf is a detectable corruption state, not an invariant."""
        return bool(np.isfinite(self.samples).all())


@dataclass(frozen=True, eq=False)
class VecField:
    """Velocity-like vector of d component fields on a shared grid."""

    grid: Grid
    components: tuple[Field, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) != self.grid.d:
            raise ValueError(f"expected {self.grid.d} components, got {len(comps)}")
        for c in comps:
            if c.grid != self.grid:
                raise ValueError("components must share the grid")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_arrays(cls, grid: Grid, arrays) -> "VecField":
        return cls(grid, tuple(Field(grid, a) for a in arrays))

    def arrays(self) -> list[np.ndarray]:
        return [c.samples for c in self.components]

    @property
    def is_finite(self) -> bool:
        return all(c.is_finite for c in self.components)


# ---------------------------------------------------------------------------
# array-level primitives; the Field API below wraps these


def trunc_arr(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Projection onto the 2/3-rule band."""
    return grid.irfft(grid.dealias_mask * grid.rfft(a))


def dprod(grid: Grid, a, b, a_clean: bool = False, b_clean: bool = False):
    """Dealiased product T(Ta * Tb) of two grid functions.

    T is the 2/3-rule projection; the outer T keeps the result clean for a
    following derivative. Flags skip input truncation when the caller knows
    a factor is already band-limited (precomputed coefficients, outputs of
    trunc_arr or dprod).
    """
    ta = a if a_clean else trunc_arr(grid, a)
    tb = b if b_clean else trunc_arr(grid, b)
    return trunc_arr(grid, ta * tb)


def grad_arr(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Twisted gradient: (..., *shape) -> (..., d, *shape), one transform pair."""
    spec = np.expand_dims(grid.rfft(a), -(grid.d + 1))
    return grid.irfft(grid.ik_stack * spec)


def div_arr(grid: Grid, V) -> np.ndarray:
    """Twisted divergence, reducing axis -(d+1): (..., d, *shape) -> (..., *shape)."""
    spec = grid.rfft(np.asarray(V))
    return grid.irfft((grid.ik_stack * spec).sum(axis=-(grid.d + 1)))


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


def lambda_arr(grid: Grid, a: np.ndarray, s: float) -> np.ndarray:
    """Bessel-potential multiplier (1 + |k^gamma|^2)^(s/2)."""
    w = (1.0 + grid.k2gamma) ** (0.5 * s)
    return grid.irfft(w * grid.rfft(a))


def mollify_arr(grid: Grid, a: np.ndarray, delta: float, power: int) -> np.ndarray:
    """Powers of (1 - delta*Lap_gamma): multiplier (1 + delta*|k^gamma|^2)^power."""
    if power not in (-2, -1, 1, 2):
        raise ValueError("power must be one of -2, -1, 1, 2")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    w = (1.0 + delta * grid.k2gamma) ** power
    return grid.irfft(w * grid.rfft(a))


def quad_inner_arr(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Trapezoidal (here: exact) L2 pairing dx^d * sum(a*b)."""
    return float(np.sum(a * b)) * grid.dx**grid.d


def l2_norm_arr(grid: Grid, a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(a * a) * grid.dx**grid.d))


def sobolev_norm_arr(grid: Grid, a: np.ndarray, s: float) -> float:
    """|f|_{H^s} = |Lambda^s f|_2 via Parseval-consistent quadrature."""
    if s == 0:
        return l2_norm_arr(grid, a)
    return l2_norm_arr(grid, lambda_arr(grid, a, s))


# ---------------------------------------------------------------------------
# Field-level API


def _unary(f: Field, arr_fn, *args) -> Field:
    return Field(f.grid, arr_fn(f.grid, f.samples, *args))


def grad_gamma(f: Field) -> VecField:
    """Twisted gradient (d/dx, gamma*d/dy); plain d/dx in d=1."""
    return VecField.from_arrays(f.grid, grad_arr(f.grid, f.samples))


def div_gamma(v: VecField) -> Field:
    """Twisted divergence, the negative adjoint of grad_gamma."""
    return Field(v.grid, div_arr(v.grid, v.arrays()))


def perp_grad(f: Field) -> VecField:
    """Rotated gradient (-gamma*d/dy, d/dx); identically zero in d=1."""
    return VecField.from_arrays(f.grid, perp_grad_arr(f.grid, f.samples))


def perp_div(v: VecField) -> Field:
    """Rotated divergence -gamma*d/dy v1 + d/dx v2; zero in d=1."""
    return Field(v.grid, perp_div_arr(v.grid, v.arrays()))


def dealias(f: Field) -> Field:
    """2/3-rule band projection of a single field."""
    return _unary(f, trunc_arr)


def lambda_s(f, s: float):
    """Apply (1 - Lap_gamma)^(s/2), componentwise on vector fields."""
    if isinstance(f, VecField):
        return VecField.from_arrays(
            f.grid, [lambda_arr(f.grid, a, s) for a in f.arrays()]
        )
    return _unary(f, lambda_arr, s)


def mollify(f, delta: float, power: int):
    """Apply (1 - delta*Lap_gamma)^power, componentwise on vector fields."""
    if isinstance(f, VecField):
        return VecField.from_arrays(
            f.grid, [mollify_arr(f.grid, a, delta, power) for a in f.arrays()]
        )
    return _unary(f, mollify_arr, delta, power)


def inner(f, g) -> float:
    """L2 pairing; vector fields sum over components."""
    if isinstance(f, VecField) != isinstance(g, VecField):
        raise TypeError("inner() requires two fields of the same kind")
    if isinstance(f, VecField):
        return sum(
            quad_inner_arr(f.grid, a, b) for a, b in zip(f.arrays(), g.arrays())
        )
    return quad_inner_arr(f.grid, f.samples, g.samples)


def l2_norm(f) -> float:
    return float(np.sqrt(inner(f, f)))


def sobolev_norm(f, s: float) -> float:
    """H^s norm; vector fields take the root of the component sum of squares."""
    if isinstance(f, VecField):
        return float(
            np.sqrt(sum(sobolev_norm_arr(f.grid, a, s) ** 2 for a in f.arrays()))
        )
    return sobolev_norm_arr(f.grid, f.samples, s)


def xs_norm(v: VecField, s: float, mu: float) -> float:
    """Divergence-weighted norm |v|_{H^s}^2 + mu*|div_gamma v|_{H^s}^2, rooted."""
    base = sobolev_norm(v, s) ** 2
    dv = div_arr(v.grid, v.arrays())
    return float(np.sqrt(base + mu * sobolev_norm_arr(v.grid, dv, s) ** 2))


def field_from_function(grid: Grid, fn) -> Field:
    return Field(grid, fn(*grid.x))


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.shape))


def zero_vecfield(grid: Grid) -> VecField:
    return VecField.from_arrays(grid, [np.zeros(grid.shape)] * grid.d)
