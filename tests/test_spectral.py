"""Spectral core: derivatives, multipliers, norms against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.bathymetry import Bathymetry, build_bathymetry
from bplab.diagnostics import energy_theorem_E
from bplab.models import ModelParams, ModelState
from bplab.spectral import (
    Grid,
    div_arr,
    grad_arr,
    hs_norms,
    lambda_arr,
    mollify_arr,
    trunc_arr,
)
from bplab.timeloop import StepperConfig, run
from oracles import l2_norm_arr, perp_div_arr, perp_grad_arr, sobolev_norm_arr


def grid1(n=64, L=2 * np.pi):
    return Grid(d=1, n=n, L=L)


def grid2(n=32, L=2 * np.pi, gamma=1.0):
    return Grid(d=2, n=n, L=L, gamma=gamma)


def random_field(grid, rng):
    return rng.standard_normal(grid.shape)


def random_vec(grid, rng):
    return rng.standard_normal((grid.d,) + grid.shape)


def inner(grid, a, b):
    """L2 pairing dx^d * sum(a*b); stacked rows sum over components."""
    return float(np.sum(a * b)) * grid.dx**grid.d


class TestGridValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Grid(d=3, n=16, L=1.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(d=1, n=24, L=1.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Grid(d=1, n=4, L=1.0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            Grid(d=2, n=16, L=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            Grid(d=2, n=16, L=1.0, gamma=1.5)

    def test_rejects_non_finite_length(self):
        for L in (np.nan, np.inf):
            with pytest.raises(ValueError, match="L must be finite"):
                Grid(d=1, n=16, L=L)

    def test_wavenumbers_are_2pi_over_L_integers(self):
        g = Grid(d=1, n=16, L=4.0)
        np.testing.assert_allclose(g.kgamma[0], 2 * np.pi / 4.0 * np.arange(9))


class TestDerivatives:
    def test_derivative_of_sin_kx(self):
        # d/dx sin(kx) = k cos(kx), exact for band-limited data
        g = grid1()
        for k in (1, 3, 7):
            f = np.sin(k * g.x[0])
            df = grad_arr(g, f)[0]
            np.testing.assert_allclose(df, k * np.cos(k * g.x[0]), atol=1e-12)

    def test_divergence_d1_equals_derivative(self):
        g = grid1()
        rng = np.random.default_rng(1)
        v = random_vec(g, rng)
        dv = div_arr(g, v)
        df = grad_arr(g, v[0])[0]
        np.testing.assert_allclose(dv, df, atol=1e-12)

    def test_twisted_gradient_d2(self):
        # grad_g = (d/dx, g*d/dy) picks up gamma on the second axis only
        gamma = 0.5
        g = grid2(gamma=gamma)
        X, Y = g.x
        f = np.sin(2 * X) * np.cos(3 * Y)
        gx, gy = grad_arr(g, f)
        np.testing.assert_allclose(gx, 2 * np.cos(2 * X) * np.cos(3 * Y), atol=1e-12)
        np.testing.assert_allclose(
            gy, -3 * gamma * np.sin(2 * X) * np.sin(3 * Y), atol=1e-12
        )

    def test_perp_operators_vanish_d1(self):
        g = grid1()
        rng = np.random.default_rng(2)
        f = random_field(g, rng)
        assert np.all(perp_grad_arr(g, f)[0] == 0.0)
        assert np.all(perp_div_arr(g, random_vec(g, rng)) == 0.0)

    def test_perp_div_of_perp_grad_is_gamma2_laplacian(self):
        # perp_div(perp_grad f) = (g^2 dyy + dxx) f ... check against spectrum
        g = grid2(gamma=0.7)
        f = np.sin(3 * g.x[0]) * np.sin(2 * g.x[1])
        got = perp_div_arr(g, perp_grad_arr(g, f))
        want = -(3**2 + 0.7**2 * 2**2) * f
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_perp_div_of_gradient_vanishes(self):
        # the rotated divergence annihilates gradients identically
        g = grid2(gamma=0.6)
        rng = np.random.default_rng(3)
        f = random_field(g, rng)
        res = perp_div_arr(g, grad_arr(g, f))
        assert np.max(np.abs(res)) < 1e-10 * max(1.0, np.max(np.abs(f)))


class TestAdjointness:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_grad_div_adjoint_d1(self, seed):
        g = grid1(n=32)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        v = random_vec(g, rng)
        lhs = inner(g, grad_arr(g, f), v)
        rhs = -inner(g, f, div_arr(g, v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_grad_div_adjoint_d2(self, seed):
        g = grid2(n=16, gamma=0.8)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        v = random_vec(g, rng)
        lhs = inner(g, grad_arr(g, f), v)
        rhs = -inner(g, f, div_arr(g, v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_perp_grad_perp_div_adjoint(self):
        g = grid2(n=16, gamma=0.55)
        rng = np.random.default_rng(7)
        f = random_field(g, rng)
        v = random_vec(g, rng)
        lhs = inner(g, perp_grad_arr(g, f), v)
        rhs = -inner(g, f, perp_div_arr(g, v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestMultipliers:
    def test_lambda_zero_is_identity(self):
        g = grid1()
        rng = np.random.default_rng(4)
        f = random_field(g, rng)
        np.testing.assert_allclose(lambda_arr(g, f, 0.0), f, atol=1e-13)

    def test_lambda_s_roundtrip(self):
        g = grid1()
        rng = np.random.default_rng(5)
        f = random_field(g, rng)
        back = lambda_arr(g, lambda_arr(g, f, 2.0), -2.0)
        np.testing.assert_allclose(back, f, atol=1e-11)

    def test_mollify_closed_form_on_mode(self):
        # (1 - delta*Lap)^{-1} sin(kx) = sin(kx) / (1 + delta*k^2)
        g = grid1()
        delta, k = 0.1, 4
        f = np.sin(k * g.x[0])
        got = mollify_arr(g, f, delta, -1)
        np.testing.assert_allclose(got, f / (1 + delta * k**2), atol=1e-13)

    def test_mollify_inverse_pairs(self):
        g = grid2(n=16)
        rng = np.random.default_rng(6)
        f = random_field(g, rng)
        for p in (1, 2):
            back = mollify_arr(g, mollify_arr(g, f, 0.05, p), 0.05, -p)
            np.testing.assert_allclose(back, f, atol=1e-12)

    def test_mollify_rejects_bad_power(self):
        g = grid1()
        with pytest.raises(ValueError):
            mollify_arr(g, np.zeros(g.shape), 0.1, 3)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_multipliers_commute(self, seed):
        g = grid1(n=32)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        a = mollify_arr(g, lambda_arr(g, f, 1.5), 0.2, -1)
        b = lambda_arr(g, mollify_arr(g, f, 0.2, -1), 1.5)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_dealias_zeroes_top_third(self):
        g = grid1(n=64)
        # mode 30 sits above the 2/3 cutoff (64/3 = 21.3), mode 10 below
        f = np.sin(10 * g.x[0]) + np.sin(30 * g.x[0])
        got = trunc_arr(g, f)
        np.testing.assert_allclose(got, np.sin(10 * g.x[0]), atol=1e-12)


def numpy_transforms(g):
    """np.fft's forward and inverse transform over g's grid axes."""
    if g.d == 1:
        return np.fft.rfft, lambda spec: np.fft.irfft(spec, n=g.n)
    return (
        lambda a: np.fft.rfftn(a, axes=(-2, -1)),
        lambda spec: np.fft.irfftn(spec, s=g.shape, axes=(-2, -1)),
    )


def assert_same_bits(got, want):
    """got is want bit for bit, in want's dtype and memory layout."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    if got.dtype.char in "gG":
        # an x87 long double fills 10 of its 16 bytes and np.empty leaves the
        # rest unset, so its bytes differ even between two np.fft calls:
        # compare the values and the signs of zero instead
        for part in (np.real, np.imag):
            a, b = part(got), part(want)
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    else:
        assert got.tobytes() == want.tobytes()


def _read_only(a):
    a.flags.writeable = False
    return a


# the input layouts the package passes, each of shape `shape`; models' W[:, rows]
# gathers an inner axis, which numpy lays out first, so it is not C-contiguous
LAYOUTS = {
    "contiguous": lambda draw, shape: draw(shape),
    "gather": lambda draw, shape: draw(shape[:1] + (7,) + shape[2:])[:, [4, 0, 6, 1, 3]],
    "reversed": lambda draw, shape: draw(shape)[..., ::-1],
    "transposed": lambda draw, shape: draw(shape[::-1]).T,
    "read-only": lambda draw, shape: _read_only(draw(shape)),
}

_LEADS = pytest.mark.parametrize("lead", [(), (3,), (2, 5)], ids=["none", "3", "2x5"])


def check_transforms(g, lead):
    """g's transforms of random data stacked on lead are np.fft's bit for bit;
    the inverse also takes spectra that are not Hermitian."""
    rng = np.random.default_rng(g.n)
    a = rng.standard_normal(lead + g.shape)
    spec = rng.standard_normal(lead + g.rshape) + 1j * rng.standard_normal(lead + g.rshape)
    rfft, irfft = numpy_transforms(g)
    fwd, inv = g.rfft(a), g.irfft(spec)
    assert_same_bits(fwd, rfft(a))
    assert_same_bits(inv, irfft(spec))
    assert fwd.shape == lead + g.rshape and inv.shape == lead + g.shape


class TestTransforms:
    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
    @_LEADS
    def test_d1_transforms_are_numpys_bit_for_bit(self, n, lead):
        check_transforms(grid1(n=n), lead)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @_LEADS
    def test_d2_transforms_are_numpys_nd_transforms_bit_for_bit(self, n, lead):
        # d=2 transforms run rfftn's and irfftn's two 1-D passes themselves
        check_transforms(grid2(n=n, gamma=0.7), lead)

    @pytest.mark.parametrize("n", [64, 512])
    def test_d1_inverse_zero_pads_a_short_spectrum(self, n):
        # the Burgers flow inverse-transforms only the kept band, a prefix in d=1
        g = grid1(n=n)
        rng = np.random.default_rng(n)
        spec = rng.standard_normal((3, 1) + g.rshape) + 1j * rng.standard_normal((3, 1) + g.rshape)
        for m in (int(g.dealias_mask.sum()), 1):
            cut = spec[..., :m]
            assert_same_bits(g.irfft(cut), np.fft.irfft(cut, n=g.n))

    def test_d2_inverse_zero_pads_short_columns(self):
        g = grid2(n=32, gamma=0.7)
        rng = np.random.default_rng(5)
        spec = rng.standard_normal((2,) + g.rshape) + 1j * rng.standard_normal((2,) + g.rshape)
        cut = spec[..., : int(g.dealias_mask[0].sum())]  # the kept columns
        assert cut.shape[-1] < g.n // 2 + 1
        assert_same_bits(g.irfft(cut), np.fft.irfftn(cut, s=g.shape, axes=(-2, -1)))

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("real", [np.float64, np.longdouble], ids=["double", "extended"])
    @pytest.mark.parametrize("d", [1, 2], ids=["d1", "d2"])
    def test_layouts_and_precisions_are_numpys(self, d, real, layout):
        # the output keeps the input's memory order and precision: the linear
        # flat flows are probed in clongdouble, and a double output would
        # round every probe to complex128
        g = Grid(d, 64 if d == 1 else 16, 2 * np.pi)
        rng = np.random.default_rng(d)
        cplx = np.result_type(real, 1j)
        a = LAYOUTS[layout](lambda s: rng.standard_normal(s).astype(real), (2, 5) + g.shape)
        spec = LAYOUTS[layout](
            lambda s: (rng.standard_normal(s) + 1j * rng.standard_normal(s)).astype(cplx),
            (2, 5) + g.rshape,
        )
        rfft, irfft = numpy_transforms(g)
        fwd, inv = g.rfft(a), g.irfft(spec)
        assert fwd.dtype == cplx and inv.dtype == real
        assert_same_bits(fwd, rfft(a))
        assert_same_bits(inv, irfft(spec))


def hs_norm(g, f, s, symbol=1.0):
    """The Parseval norm of one grid function, or of one stacked array."""
    return float(hs_norms(g, g.rfft(f)[None], s, symbol)[0])


class TestNorms:
    def test_l2_norm_of_sin_is_sqrt_pi(self):
        # |sin|_{L2(0,2pi)} = sqrt(pi); quadrature is exact for trig modes
        g = grid1(n=64, L=2 * np.pi)
        f = np.sin(g.x[0])
        assert abs(hs_norm(g, f, 0.0) - np.sqrt(np.pi)) < 1e-12
        assert abs(l2_norm_arr(g, f) - np.sqrt(np.pi)) < 1e-12

    def test_hs_norm_of_single_mode(self):
        # |sin(kx)|_{H^s}^2 = (1+k^2)^s * pi on [0, 2pi)
        g = grid1(n=64)
        for s in (1.0, 2.0, 3.0):
            for k in (1, 2, 5):
                f = np.sin(k * g.x[0])
                want = np.sqrt((1 + k**2) ** s * np.pi)
                assert abs(hs_norm(g, f, s) - want) < 1e-10 * want

    def test_parseval_consistency(self):
        g = grid1()
        rng = np.random.default_rng(8)
        f = random_field(g, rng)
        direct = np.sqrt(inner(g, f, f))
        via_parseval = hs_norm(g, f, 0.0)
        assert abs(direct - via_parseval) < 1e-12 * direct

    @pytest.mark.parametrize(
        "g", [Grid(1, 256, 20.0 * np.pi), Grid(2, 32, 2.0 * np.pi, gamma=0.8)], ids=["d1", "d2"]
    )
    @pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
    def test_parseval_norm_is_the_nodal_norm(self, g, s):
        # white noise fills every mode, the k = 0 and Nyquist lines included;
        # each record is a two-row stack, one stacked norm
        rng = np.random.default_rng(g.d * 10 + int(s))
        F = rng.standard_normal((3, 2) + g.shape)
        spec = g.rfft(F)
        assert np.abs(spec[..., -1]).min() > 0.0
        got = hs_norms(g, spec, s)
        got_grad = hs_norms(g, spec, s, g.k2deriv)
        for r in range(3):
            want = sobolev_norm_arr(g, F[r], s)
            assert abs(got[r] - want) <= 1e-12 * want
            want_grad = sobolev_norm_arr(g, grad_arr(g, F[r]), s)
            assert abs(got_grad[r] - want_grad) <= 1e-12 * want_grad

    # the X^s norm |v|_{H^s}^2 + mu*|div v|_{H^s}^2 is energy_theorem_E at zeta = 0

    def test_xs_norm_flat_limit(self):
        # mu = 0 collapses X^s onto plain (H^s)^d
        g = grid2(n=16)
        rng = np.random.default_rng(9)
        v = random_vec(g, rng)
        xs = np.sqrt(energy_theorem_E(g, np.zeros(g.shape), v, 0.0, 1.0))
        hs = hs_norm(g, v, 1.0)
        assert abs(xs - hs) < 1e-12

    def test_xs_norm_single_mode(self):
        # v = (sin(kx), 0): div v = k cos(kx), |v|_{X^0}^2 = pi + mu k^2 pi
        g = grid2(n=32)
        k, mu = 2, 0.3
        v = np.stack([np.sin(k * g.x[0]), np.zeros(g.shape)])
        want = np.sqrt((1 + mu * k**2) * np.pi * 2 * np.pi)
        xs = np.sqrt(energy_theorem_E(g, np.zeros(g.shape), v, mu, 0.0))
        assert abs(xs - want) < 1e-10 * want


class TestFieldTypes:
    """The containers of grid functions: ModelState's stack and the bottom b."""

    def test_field_samples_frozen(self):
        g = grid1()
        src = np.zeros((2,) + g.shape)
        state = ModelState(g, src)
        src[0, 0] = 1.0  # the state holds its own copy
        assert state.U[0, 0] == 0.0
        with pytest.raises(ValueError):
            state.U[0, 0] = 1.0
        bath = build_bathymetry(g, "flat", 0.0)
        with pytest.raises(ValueError):
            bath.b[0] = 1.0

    def test_field_shape_checked(self):
        g = grid1()
        with pytest.raises(ValueError):
            ModelState(g, np.zeros((2, 7)))
        with pytest.raises(ValueError):
            ModelState(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            Bathymetry(g, 0.1, np.zeros(7))

    def test_vecfield_grid_consistency(self):
        # a state has one row (burgers) or 1 + d rows, all on the state's grid
        g, h = grid1(), grid1(n=32)
        with pytest.raises(ValueError):
            ModelState(g, np.zeros((2,) + h.shape))
        with pytest.raises(ValueError):
            ModelState(g, np.zeros((3,) + g.shape))
        assert ModelState(g, np.zeros((1,) + g.shape)).stack().shape == (1,) + g.shape

    def test_corruption_is_detectable(self):
        # NaN is a detectable corruption state: a run starting from it stops
        g = grid1()
        bath = build_bathymetry(g, "flat", 0.0)
        U = np.zeros((2,) + g.shape)
        cfg = StepperConfig(dt=1e-2, t_end=0.1)
        params = ModelParams(0.0, 0.1, "bp")
        assert run(ModelState(g, U), params, bath, cfg).termination == "completed"
        U[0, 3] = np.nan
        traj = run(ModelState(g, U), params, bath, cfg)
        assert traj.termination == "blowup" and traj.steps_taken == 0
