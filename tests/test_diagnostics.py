"""Energies against hand values, dispersion fits, order fits, blow-up."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.bathymetry import build_bathymetry, zeta_to_q_arr
from bplab.diagnostics import (
    DiagnosticsRecord,
    ShockFit,
    build_records,
    burgers_shock_time,
    detect_gradient_blowup,
    energy_EN,
    energy_bp,
    energy_theorem_E,
    estimate_order,
    exact_dispersion,
    fit_oscillation_frequency,
    measure_dispersion,
)
from bplab.errors import (
    DegenerateFitError,
    InsufficientSamplesError,
    NoShockError,
)
from bplab.models import ModelParams, ModelState
from bplab.spectral import Grid
from bplab.timeloop import StepperConfig, run
from oracles import l2_norm_arr, sobolev_norm_arr

G1 = Grid(1, 64, 2.0 * np.pi)
FLAT1 = build_bathymetry(G1, "flat", 0.0)
BUMP1 = build_bathymetry(G1, "gaussian_bump", 0.5)


ZERO = np.zeros(G1.shape)
ZERO_V = np.zeros((1,) + G1.shape)


def _mode_state(grid, k, zeta_amp=1.0, vel_amp=0.0):
    x = grid.x[0]
    return zeta_amp * np.cos(k * x), vel_amp * np.sin(k * x)[None]


def _random_pair(grid, rng, amp=0.1):
    U = amp * rng.standard_normal((1 + grid.d,) + grid.shape)
    spec = grid.rfft(U)
    lowpass = grid.k2gamma <= (6.0 * 2.0 * np.pi / grid.L) ** 2
    U = grid.irfft(spec * lowpass)
    return U[0], U[1:]


# ---------------------------------------------------------------------------
# energy_bp


def test_energy_bp_rest_is_zero():
    assert energy_bp(ZERO, ZERO_V, 0.3, FLAT1) == 0.0


def test_energy_bp_single_mode_closed_form():
    # flat bottom: 0.5*pi from the surface, 0.5*(1 + mu*k^2/3)*pi from velocity
    mu, k = 0.5, 2
    zeta, vel = _mode_state(G1, k, zeta_amp=1.0, vel_amp=1.0)
    expected = 0.5 * np.pi + 0.5 * (1.0 + mu * k * k / 3.0) * np.pi
    assert abs(energy_bp(zeta, vel, mu, FLAT1) - expected) < 1e-12


def test_energy_bp_mu_zero_is_plain_quadratic():
    rng = np.random.default_rng(7)
    zeta, vel = _random_pair(G1, rng)
    got = energy_bp(zeta, vel, 0.0, FLAT1)
    expected = 0.5 * l2_norm_arr(G1, zeta) ** 2 + 0.5 * l2_norm_arr(G1, vel) ** 2
    assert abs(got - expected) < 1e-12


def test_energy_bp_positive_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        zeta, vel = _random_pair(G1, rng)
        e = energy_bp(zeta, vel, 0.1, BUMP1)
        assert e > 0.0


# ---------------------------------------------------------------------------
# energy_EN


def test_energy_EN_zero_iff_rest():
    assert energy_EN(G1, ZERO, ZERO_V, 0.2, 3) == 0.0
    zeta, vel = _mode_state(G1, 1, zeta_amp=1e-9)
    assert energy_EN(G1, zeta, vel, 0.2, 3) > 0.0


def test_energy_EN_rejects_negative_index():
    with pytest.raises(ValueError):
        energy_EN(G1, ZERO, ZERO_V, 0.2, -1)


def test_energy_EN_single_mode_closed_forms():
    # cos x on [0, 2pi): every H^N block of the k=1 mode is sqrt(1+1)^N*sqrt(pi)
    zeta = np.cos(G1.x[0])
    got0 = energy_EN(G1, zeta, None, 1.0, 0)
    assert abs(got0 - 2.0 * np.sqrt(np.pi)) < 1e-12
    got1 = energy_EN(G1, zeta, None, 1.0, 1)
    assert abs(got1 - 2.0 * np.sqrt(2.0 * np.pi)) < 1e-12


def test_energy_EN_mu_zero_drops_gradient_blocks():
    rng = np.random.default_rng(3)
    zeta, vel = _random_pair(G1, rng)
    got = energy_EN(G1, zeta, vel, 0.0, 2)
    expected = sobolev_norm_arr(G1, zeta, 2) + sobolev_norm_arr(G1, vel, 2)
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize("energy", ["EN", "theorem", "bp"])
def test_energies_refuse_a_field_of_another_size(energy):
    # cos x sampled at 128 points on a 64-point grid is not two records
    fine = Grid(1, 128, 2.0 * np.pi)
    zeta, vel = np.cos(fine.x[0]), np.zeros((1,) + fine.shape)
    calls = {
        "EN": lambda z, v: energy_EN(G1, z, v, 0.1),
        "theorem": lambda z, v: energy_theorem_E(G1, z, v, 0.1),
        "bp": lambda z, v: energy_bp(z, v, 0.1, FLAT1),
    }
    for z, v in ((zeta, vel), (zeta[::2], vel), (zeta, vel[..., ::2])):
        with pytest.raises(ValueError, match="grid"):
            calls[energy](z, v)
    assert calls[energy](zeta[::2], vel[..., ::2]) > 0.0


# ---------------------------------------------------------------------------
# energy_theorem_E


def test_energy_theorem_rest_is_zero():
    assert energy_theorem_E(G1, ZERO, ZERO_V, 0.4, 2) == 0.0


def test_energy_theorem_single_mode_hand_value():
    # zeta = cos x, V = sin x, s = 1, mu = 0.5:
    # 2*pi + 2*pi + 0.5 * 2*pi = 5*pi
    mu = 0.5
    zeta, vel = _mode_state(G1, 1, zeta_amp=1.0, vel_amp=1.0)
    assert abs(energy_theorem_E(G1, zeta, vel, mu, 1) - 5.0 * np.pi) < 1e-12


def test_energy_theorem_mu_zero_is_state_norm():
    rng = np.random.default_rng(11)
    zeta, vel = _random_pair(G1, rng)
    got = energy_theorem_E(G1, zeta, vel, 0.0, 3)
    expected = sobolev_norm_arr(G1, zeta, 3) ** 2 + sobolev_norm_arr(G1, vel, 3) ** 2
    assert abs(got - expected) < 1e-12 * max(1.0, expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 63))
def test_energies_translation_invariant_flat(seed, shift):
    rng = np.random.default_rng(seed)
    zeta, vel = _random_pair(G1, rng)
    zs = np.roll(zeta, shift, axis=-1)
    vs = np.roll(vel, shift, axis=-1)
    for fn in (
        lambda z, v: energy_bp(z, v, 0.2, FLAT1),
        lambda z, v: energy_EN(G1, z, v, 0.2, 2),
        lambda z, v: energy_theorem_E(G1, z, v, 0.2, 2),
    ):
        a, b = fn(zeta, vel), fn(zs, vs)
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


G2 = Grid(2, 16, 2.0 * np.pi, gamma=0.7)


@pytest.mark.parametrize(
    "bath", [BUMP1, build_bathymetry(G2, "gaussian_bump", 0.5)], ids=["d1", "d2"]
)
def test_batched_energies_equal_single_state_calls(bath):
    # records on two leading axes give each record's single-state value
    g = bath.grid
    rng = np.random.default_rng(17)
    pairs = [_random_pair(g, rng) for _ in range(6)]
    zeta = np.stack([z for z, _ in pairs]).reshape((2, 3) + g.shape)
    vel = np.stack([v for _, v in pairs]).reshape((2, 3, g.d) + g.shape)
    for fn in (
        lambda z, v: energy_bp(z, v, 0.2, bath),
        lambda z, v: energy_EN(g, z, v, 0.2, 3),
        lambda z, v: energy_EN(g, z, None, 0.2, 3),
        lambda z, v: energy_theorem_E(g, z, v, 0.2, 2),
        lambda z, v: energy_theorem_E(g, z, None, 0.2, 2),
    ):
        batch = fn(zeta, vel)
        assert batch.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                single = fn(zeta[i, j], vel[i, j])
                assert isinstance(single, float)
                assert abs(batch[i, j] - single) <= 1e-15 * abs(single)


# ---------------------------------------------------------------------------
# dispersion relations and frequency fits


def test_exact_dispersion_frozen_values():
    assert exact_dispersion("sw", 3.0, 0.7) == 3.0
    assert abs(exact_dispersion("bp", 2.0, 0.5) - 2.0 * np.sqrt(3.0 / 5.0)) < 1e-15
    assert abs(exact_dispersion("mbp", 1.0, 0.3) - np.sqrt(1.3 / 1.4)) < 1e-15
    with pytest.raises(ValueError):
        exact_dispersion("burgers", 1.0, 0.1)


def test_dispersion_orderings():
    for k in (1.0, 2.0, 5.0):
        for mu in (0.1, 0.5):
            sw = exact_dispersion("sw", k, mu)
            bp = exact_dispersion("bp", k, mu)
            mbp = exact_dispersion("mbp", k, mu)
            assert bp < mbp < sw


def test_fit_oscillation_frequency_synthetic():
    omega = 1.37
    times = np.arange(0.0, 25.0, 0.01)
    series = (0.3 + 0.0j) * np.cos(omega * times)
    got = fit_oscillation_frequency(times, series)
    assert abs(got - omega) / omega < 1e-5


def test_fit_oscillation_frequency_rotating_phase():
    omega = 0.83
    times = np.arange(0.0, 40.0, 0.02)
    series = 0.2 * np.exp(-1j * omega * times + 0.4j)
    got = fit_oscillation_frequency(times, series)
    assert abs(got - omega) / omega < 1e-5


def test_fit_rejects_short_window():
    times = np.arange(0.0, 1.0, 0.01)
    with pytest.raises(InsufficientSamplesError):
        fit_oscillation_frequency(times, np.cos(2.0 * np.pi * times * 0.5))


def test_fit_refuses_a_series_that_starts_at_zero():
    # Re <c(t), c(0)> would vanish at every record, each one a crossing, and
    # the fit would read the record spacing as half a period
    times = np.arange(0.0, 25.0, 0.01)
    with pytest.raises(DegenerateFitError):
        fit_oscillation_frequency(times, np.zeros(times.shape, complex))
    with pytest.raises(DegenerateFitError):
        fit_oscillation_frequency(times, 0.3 * np.sin(1.37 * times) + 0j)


def _linear_bp_trajectory(k=2, mu=0.1, periods=5.0, n=64):
    grid = Grid(1, n, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    params = ModelParams(0.0, mu, "bp")
    x = grid.x[0]
    state = ModelState(grid, np.stack([1e-3 * np.cos(k * x), np.zeros(grid.shape)]))
    omega = exact_dispersion("bp", k, mu)
    t_end = periods * 2.0 * np.pi / omega
    cfg = StepperConfig(dt=1e-3, t_end=t_end, output_stride=10, track_modes=(k, 3))
    return run(state, params, bath, cfg), omega


def test_measure_dispersion_linear_run():
    traj, omega = _linear_bp_trajectory()
    got = measure_dispersion(traj, 2)
    assert abs(got - omega) / omega < 1e-4


def test_measure_dispersion_needs_tracked_mode():
    traj, _ = _linear_bp_trajectory(periods=3.5)
    with pytest.raises(ValueError):
        measure_dispersion(traj, 5)


def test_measure_dispersion_short_run_raises():
    traj, _ = _linear_bp_trajectory(periods=1.5)
    with pytest.raises(InsufficientSamplesError):
        measure_dispersion(traj, 2)


# ---------------------------------------------------------------------------
# estimate_order


def test_estimate_order_exact_power_laws():
    ps = np.array([0.08, 0.04, 0.02, 0.01])
    assert abs(estimate_order(zip(ps, 3.0 * ps**2)) - 2.0) < 1e-12
    assert abs(estimate_order(zip(ps, 0.7 * ps)) - 1.0) < 1e-12


def test_estimate_order_guards():
    with pytest.raises(DegenerateFitError):
        estimate_order([(0.1, 1e-3), (0.05, 1e-4)])
    with pytest.raises(DegenerateFitError):
        estimate_order([(0.1, 1e-3), (0.1, 1e-4), (0.1, 1e-5)])
    with pytest.raises(DegenerateFitError):
        estimate_order([(0.1, 1e-3), (0.05, -1e-4), (0.025, 1e-5)])
    # identical errors sit at the noise floor, no slope to read
    with pytest.raises(DegenerateFitError):
        estimate_order([(0.1, 1e-16), (0.05, 1.1e-16), (0.025, 0.9e-16)])


# ---------------------------------------------------------------------------
# gradient blow-up


def test_burgers_shock_time_sine():
    u0 = -np.sin(G1.x[0])
    for eps in (0.5, 0.1):
        assert abs(burgers_shock_time(G1, u0, eps) - 1.0 / eps) < 1e-10 / eps


def test_burgers_shock_time_no_shock():
    with pytest.raises(NoShockError):
        burgers_shock_time(G1, np.full(G1.shape, 0.7), 0.5)
    with pytest.raises(NoShockError):
        burgers_shock_time(G1, -np.sin(G1.x[0]), 0.0)


def test_detect_gradient_blowup_synthetic():
    times = np.arange(0.0, 0.9951, 0.005)
    sup_grad = 1.0 / (1.0 - times)
    fit = detect_gradient_blowup(times, sup_grad, threshold=50.0)
    assert abs(fit.t_detect - 0.98) < 5e-4
    assert abs(fit.t_extrapolated - 1.0) < 1e-9
    assert abs(fit.slope + 1.0) < 1e-6


def test_detect_gradient_blowup_never_crosses():
    times = np.linspace(0.0, 1.0, 50)
    with pytest.raises(NoShockError):
        detect_gradient_blowup(times, np.ones_like(times), threshold=10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_detect_gradient_blowup_names_first_nonfinite_record(bad):
    # a run that blew up between records: the error names the first
    # non-finite record, and an inf is not taken for a crossing
    times = np.array([0.0, 2.0, 4.0])
    with pytest.raises(NoShockError, match=r"non-finite \((nan|inf)\) at record 1, t = 2,"):
        detect_gradient_blowup(times, np.array([1.0, bad, bad]), threshold=100.0)
    with pytest.raises(NoShockError, match=r"at record 2, t = 4,"):
        detect_gradient_blowup(times, np.array([1.0, 50.0, bad]), threshold=100.0)


def test_detect_gradient_blowup_keeps_a_crossing_before_a_nonfinite_tail():
    times = np.arange(0.0, 0.9951, 0.005)
    sup_grad = 1.0 / (1.0 - times)
    clean = detect_gradient_blowup(times, sup_grad, threshold=50.0)
    for bad in (np.nan, np.inf):
        tail = np.append(sup_grad, bad)
        fit = detect_gradient_blowup(np.append(times, 1.0), tail, threshold=50.0)
        assert fit == clean


def test_detect_gradient_blowup_ignores_saturated_tail():
    # Past the point where the front outruns the grid, recorded gradients
    # grow slower than 1/(T - t). The fit must not see those records.
    times = np.arange(0.0, 1.2, 0.005)
    sup_grad = 1.0 / np.maximum(1.0 - times, 1e-12)
    saturated = sup_grad >= 30.0
    t_sat = times[saturated][0]
    sup_grad[saturated] = 30.0 + 400.0 * (times[saturated] - t_sat)
    fit = detect_gradient_blowup(times, sup_grad, threshold=100.0)
    assert abs(fit.t_extrapolated - 1.0) < 1e-6
    assert abs(fit.slope + 1.0) < 1e-5
    assert fit.t_detect > 1.0


# ---------------------------------------------------------------------------
# record assembly


def test_build_records_linear_flat_drift_tiny():
    traj, _ = _linear_bp_trajectory(periods=3.5)
    recs = build_records(traj, build_bathymetry(traj.grid, "flat", 0.0))
    assert len(recs) == traj.n_records
    e0 = recs[0].E_bp
    drift = max(abs(r.E_bp - e0) for r in recs) / e0
    assert drift < 1e-9
    assert all(np.isfinite(r.EN) and np.isfinite(r.E_thm) for r in recs)
    assert recs[0].mode_amplitudes is not None
    assert recs[0].mode_amplitudes.shape == (2,)


def test_build_records_mbp_reports_surface_energy():
    grid = Grid(1, 64, 2.0 * np.pi)
    bath = build_bathymetry(grid, "gaussian_bump", 0.5)
    eps = 0.1
    zeta0 = 0.2 * np.cos(grid.x[0])
    q0 = zeta_to_q_arr(zeta0, eps, bath)
    state = ModelState(grid, np.stack([q0, np.zeros(grid.shape)]))
    params = ModelParams(eps, 0.1, "mbp")
    cfg = StepperConfig(dt=5e-3, t_end=0.05)
    traj = run(state, params, bath, cfg)
    recs = build_records(traj, bath)
    vf = np.zeros((1,) + grid.shape)
    assert abs(recs[0].E_bp - energy_bp(zeta0, vf, 0.1, bath)) < 1e-12
    assert abs(recs[0].EN - energy_EN(grid, zeta0, vf, 0.1, 3)) < 1e-12


def test_build_records_burgers_has_nan_ebp():
    grid = Grid(1, 64, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    state = ModelState(grid, -np.sin(grid.x[0])[None])
    params = ModelParams(0.1, 0.0, "burgers")
    cfg = StepperConfig(dt=1e-2, t_end=0.1)
    traj = run(state, params, bath, cfg)
    recs = build_records(traj, bath)
    assert np.isnan(recs[0].E_bp)
    assert recs[0].EN > 0.0
    assert isinstance(recs[0], DiagnosticsRecord)


def test_shockfit_is_frozen():
    fit = ShockFit(1.0, 1.01, -1.0)
    with pytest.raises(AttributeError):
        fit.slope = 2.0
