"""Bottom profiles and the logarithmic surface variable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.bathymetry import (
    Bathymetry,
    build_bathymetry,
    q_positivity_factor,
    q_to_zeta_arr,
    zeta_to_q_arr,
)
from bplab.errors import AdmissibilityWarning, LogDomainError, NonpositiveDepthError
from bplab.models import ModelParams, ModelState
from bplab.spectral import Grid, grad_arr
from bplab.timeloop import StepperConfig, run

G1 = Grid(d=1, n=64, L=2 * np.pi)


class TestProfiles:
    def test_flat_profile_is_zero(self):
        bath = build_bathymetry(G1, "flat", beta=0.5)
        assert np.all(bath.b == 0.0)
        assert bath.h_min == 1.0
        assert bath.is_flat

    def test_gaussian_bump_hmin(self):
        # height-1 bump at beta=0.8 leaves a 0.2 water column at the crest
        bath = build_bathymetry(
            G1, "gaussian_bump", beta=0.8, params={"height": 1.0, "center": np.pi}
        )
        assert abs(bath.h_min - 0.2) < 1e-12
        assert not bath.is_flat

    def test_bump_is_periodic_and_smooth(self):
        # wrapped-distance construction: no jump across the seam
        bath = build_bathymetry(
            G1, "gaussian_bump", beta=0.5, params={"center": 0.0, "width": 0.7}
        )
        b = bath.b
        assert abs(b[0] - max(b)) < 1e-12  # crest on the seam node
        assert abs(b[1] - b[-1]) < 1e-12  # symmetric across it

    def test_nonpositive_depth_raises(self):
        with pytest.raises(NonpositiveDepthError):
            build_bathymetry(G1, "gaussian_bump", beta=1.0, params={"height": 1.0})

    def test_non_finite_beta_or_b_raises(self):
        # NaN compares false both ways, so only h_min > 0 can refuse it
        for beta in (np.nan, np.inf):
            for profile in ("flat", "gaussian_bump"):
                # inf * 0 on the flat stretches is NaN
                with pytest.raises(NonpositiveDepthError), np.errstate(invalid="ignore"):
                    build_bathymetry(G1, profile, beta=beta)
        for bad in (np.nan, np.inf):
            b = np.zeros(G1.shape)
            b[3] = bad
            with pytest.raises(NonpositiveDepthError):
                Bathymetry(grid=G1, beta=0.5, b=b)

    def test_sinusoidal_and_two_bumps_build(self):
        g2 = Grid(d=2, n=16, L=2 * np.pi)
        for grid in (G1, g2):
            for profile, params in (
                ("sinusoidal", {"amplitude": 0.5}),
                ("two_bumps", {"height2": 0.5}),
            ):
                bath = build_bathymetry(grid, profile, beta=0.2, params=params)
                assert bath.h_min > 0.0

    def test_unread_params_key_refused(self):
        # two_bumps reads no amplitude; the key would be dropped without a word
        with pytest.raises(ValueError, match="'two_bumps' reads no 'amplitude'"):
            build_bathymetry(G1, "two_bumps", 0.2, {"amplitude": 0.5})

    def test_grad_hb_is_minus_beta_grad_b(self):
        bath = build_bathymetry(G1, "sinusoidal", beta=0.3, params={"k": 2})
        ghb = grad_arr(G1, bath.hb)[0]
        np.testing.assert_allclose(ghb, -0.3 * bath.grad_b[0], atol=1e-14)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            build_bathymetry(G1, "trench", beta=0.1)


class TestWaterHeight:
    def test_height_formula(self):
        # the total column h = 1 + eps*zeta - beta*b is h_b + eps*zeta
        bath = build_bathymetry(G1, "sinusoidal", beta=0.2)
        zeta = 0.3 * np.cos(G1.x[0])
        h = bath.hb + 0.1 * zeta
        np.testing.assert_allclose(
            h, 1.0 + 0.1 * zeta - 0.2 * bath.b, atol=1e-14
        )
        assert h.min() > 0.0

    def test_dry_flagged_not_raised(self):
        # a surface below the bottom ends a run as dry instead of raising
        bath = build_bathymetry(G1, "flat", beta=0.0)
        zeta = np.full(G1.shape, -1.5)
        assert (bath.hb + 1.0 * zeta).min() <= 0.0
        state = ModelState(G1, np.stack([zeta, np.zeros(G1.shape)]))
        traj = run(state, ModelParams(1.0, 0.0, "sw"), bath, StepperConfig(dt=1e-2, t_end=0.1))
        assert traj.termination == "dry"


def _admissible_zeta(rng, bath, eps):
    # keep 1 + eps*zeta/h_b well inside the admissible set
    raw = rng.standard_normal(bath.grid.shape)
    raw = raw / max(1.0, np.max(np.abs(raw)))
    if eps == 0.0:
        return raw
    return 0.5 * bath.h_min / eps * raw


class TestQTransform:
    def test_scalar_value(self):
        # eps=0.1, zeta such that eps*zeta/h_b = 0.05 on a flat bottom:
        # q = log(1.05)/0.1, and back
        bath = build_bathymetry(G1, "flat", beta=0.0)
        zeta = np.full(G1.shape, 0.5)
        q = zeta_to_q_arr(zeta, 0.1, bath)
        np.testing.assert_allclose(q, np.log(1.05) / 0.1, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-6, 0.01, 0.1, 0.5]),
    )
    def test_roundtrip_random_admissible(self, seed, eps):
        rng = np.random.default_rng(seed)
        bath = build_bathymetry(
            G1, "gaussian_bump", beta=0.4, params={"height": 1.0}
        )
        zeta = _admissible_zeta(rng, bath, eps)
        back = q_to_zeta_arr(zeta_to_q_arr(zeta, eps, bath), eps, bath)
        scale = max(1.0, np.max(np.abs(zeta)))
        assert np.max(np.abs(back - zeta)) <= 1e-12 * scale

    def test_roundtrip_other_direction(self):
        rng = np.random.default_rng(11)
        bath = build_bathymetry(G1, "sinusoidal", beta=0.3)
        q = 0.8 * rng.standard_normal(G1.shape)
        back = zeta_to_q_arr(q_to_zeta_arr(q, 0.2, bath), 0.2, bath)
        assert np.max(np.abs(back - q)) <= 1e-12

    def test_eps_zero_limits(self):
        bath = build_bathymetry(G1, "gaussian_bump", beta=0.5)
        rng = np.random.default_rng(12)
        zeta = rng.standard_normal(G1.shape)
        q = zeta_to_q_arr(zeta, 0.0, bath)
        np.testing.assert_allclose(q, zeta / bath.hb, atol=1e-14)
        np.testing.assert_allclose(q_to_zeta_arr(q, 0.0, bath), zeta, atol=1e-13)

    def test_log_domain_error(self):
        bath = build_bathymetry(G1, "flat", beta=0.0)
        zeta = np.full(G1.shape, -2.0)
        with pytest.raises(LogDomainError):
            zeta_to_q_arr(zeta, 1.0, bath)

    def test_admissibility_warning_near_boundary(self):
        bath = build_bathymetry(G1, "flat", beta=0.0)
        zeta = np.full(G1.shape, -0.95)
        with pytest.warns(AdmissibilityWarning):
            zeta_to_q_arr(zeta, 1.0, bath)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.3]))
    def test_q_equals_positivity_factor_times_zeta(self, seed, eps):
        rng = np.random.default_rng(seed)
        bath = build_bathymetry(G1, "gaussian_bump", beta=0.4)
        zeta = _admissible_zeta(rng, bath, eps)
        q = zeta_to_q_arr(zeta, eps, bath)
        Q = q_positivity_factor(zeta, eps, bath)
        assert np.all(Q > 0.0)
        assert np.max(np.abs(q - Q * zeta)) <= 1e-12 * max(
            1.0, np.max(np.abs(q))
        )

    def test_positivity_factor_eps_zero_is_inv_hb(self):
        bath = build_bathymetry(G1, "gaussian_bump", beta=0.6)
        zeta = np.zeros(G1.shape)
        Q = q_positivity_factor(zeta, 0.0, bath)
        np.testing.assert_allclose(Q, bath.inv_hb, atol=1e-13)
