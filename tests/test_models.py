"""Flow evaluations: closed forms, model relations, jets, guards."""

import numpy as np
import pytest

from bplab.bathymetry import build_bathymetry, q_to_zeta_arr
from bplab.errors import DryStateError, RegimeWarning
from bplab.models import (
    MODELS,
    ModelParams,
    ModelState,
    build_handles,
    make_rhs,
    max_linear_frequency,
    time_derivative_stack,
)
from bplab.operators import build_handle, get_weighted_ops
from bplab.spectral import Grid, dprod, div_arr, grad_arr
from bplab.verification import reference_trajectory

G1 = Grid(1, 64, 2.0 * np.pi)
G2 = Grid(2, 16, 2.0 * np.pi, gamma=0.8)
FLAT1 = build_bathymetry(G1, "flat", 0.0)
FLAT2 = build_bathymetry(G2, "flat", 0.0)
BUMP1 = build_bathymetry(G1, "gaussian_bump", 0.5)
BUMP2 = build_bathymetry(G2, "gaussian_bump", 0.5)


def _at_rest(grid, scalar):
    """Stacked state: the given primary scalar and a zero velocity."""
    return np.stack([scalar] + [np.zeros(grid.shape)] * grid.d)


def _random_state(grid, rng, amp=0.1, rows=None):
    rows = 1 + grid.d if rows is None else rows
    U = amp * rng.standard_normal((rows,) + grid.shape)
    # keep the data well inside the resolved band
    spec = grid.rfft(U)
    lowpass = grid.k2gamma <= (6.0 * 2.0 * np.pi / grid.L) ** 2
    return grid.irfft(spec * lowpass)


# ---------------------------------------------------------------------------
# parameter guards


def test_models_tuple():
    assert MODELS == ("sw", "bp", "mbp", "burgers")


def test_params_rejects_unknown_model():
    with pytest.raises(ValueError):
        ModelParams(0.1, 0.1, "kdv")


def test_params_rejects_negative_scales():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.1, "sw")
    with pytest.raises(ValueError):
        ModelParams(0.1, -0.1, "sw")


def test_rescaled_time_needs_mbp_and_eps():
    with pytest.raises(ValueError):
        ModelParams(0.1, 0.1, "bp", rescaled_time=True)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.1, "mbp", rescaled_time=True)
    ModelParams(0.1, 0.1, "mbp", rescaled_time=True)


def test_regime_warning_when_dispersion_too_weak():
    with pytest.warns(RegimeWarning):
        ModelParams(0.5, 0.01, "bp")


def test_no_regime_warning_in_regime():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ModelParams(0.5, 0.1, "bp")
        ModelParams(0.5, 0.0, "sw")


def test_burgers_needs_1d():
    params = ModelParams(0.5, 0.0, "burgers")
    with pytest.raises(ValueError):
        make_rhs(params, FLAT2)


def test_negative_delta_rejected():
    with pytest.raises(ValueError):
        make_rhs(ModelParams(0.0, 0.1, "bp"), FLAT1, delta=-1e-3)


def test_build_handles_kinds():
    assert build_handles(ModelParams(0.1, 0.2, "bp"), BUMP1).keys() == {"I_plus_muTb"}
    assert build_handles(ModelParams(0.1, 0.2, "mbp"), BUMP1).keys() == {"hb_B"}
    assert build_handles(ModelParams(0.1, 0.0, "sw"), BUMP1) == {}


def test_state_stack_round_trip():
    rng = np.random.default_rng(7)
    U = rng.standard_normal((3,) + G2.shape)
    st = ModelState.from_stack(G2, U, time=1.5)
    assert st.stack().shape == (3,) + G2.shape
    assert np.array_equal(st.stack(), U)
    assert st.time == 1.5
    u1 = ModelState.from_stack(G1, rng.standard_normal((1,) + G1.shape))
    assert u1.stack().shape == (1,) + G1.shape


# ---------------------------------------------------------------------------
# rest states and closed forms


@pytest.mark.parametrize("model", MODELS)
def test_rest_state_is_fixed_point(model):
    grid = G1
    bath = FLAT1 if model == "burgers" else BUMP1
    params = ModelParams(0.3, 0.4, model)
    bundle = make_rhs(params, bath)
    rows = 1 if model == "burgers" else 1 + grid.d
    dU = bundle.nodal_rhs(np.zeros((rows,) + grid.shape))
    assert np.abs(dU).max() < 1e-14


def test_burgers_closed_form():
    params = ModelParams(0.4, 0.0, "burgers")
    x = G1.x[0]
    out = make_rhs(params, FLAT1).nodal_rhs(np.sin(x)[None])
    # -eps*sin*cos = -(eps/2) sin(2x), fully resolved on the kept band
    expected = -0.2 * np.sin(2.0 * x)
    assert np.abs(out[0] - expected).max() < 1e-13
    assert out.shape == (1,) + G1.shape  # no velocity rows


# squared-frequency factors for a single kept mode, by hand:
#   sw   w2 = k^2
#   bp   w2 = k^2/(1 + mu*k^2/3)
#   mbp  w2 = k^2 (1 + mu*k^2)/(1 + 4*mu*k^2/3)
@pytest.mark.parametrize(
    "model,mu,w2",
    [
        ("sw", 0.0, 4.0),
        ("bp", 0.3, 4.0 / (1.0 + 0.4)),
        ("mbp", 0.3, 4.0 * (1.0 + 1.2) / (1.0 + 1.6)),
    ],
)
def test_linear_mode_squared_frequency_1d(model, mu, w2):
    params = ModelParams(0.0, mu, model)
    bundle = make_rhs(params, FLAT1)
    assert bundle.spectral_state
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[0] = np.cos(2.0 * x)
    dd = bundle.nodal_rhs(bundle.nodal_rhs(U))
    assert np.abs(dd[0] + w2 * U[0]).max() < 1e-11 * max(1.0, w2)


def test_linear_mode_squared_frequency_2d_twisted():
    # mode along the second axis feels the twisted wavenumber gamma*k
    mu = 0.5
    keff = G2.gamma * 3.0
    w2 = keff**2 / (1.0 + mu * keff**2 / 3.0)
    params = ModelParams(0.0, mu, "bp")
    bundle = make_rhs(params, FLAT2)
    U = np.zeros((3,) + G2.shape)
    U[0] = np.cos(3.0 * G2.x[1])
    dd = bundle.nodal_rhs(bundle.nodal_rhs(U))
    assert np.abs(dd[0] + w2 * U[0]).max() < 1e-11


def test_fused_bp_matches_primitive_assembly():
    """The spectral fast path against the same flow built from primitives."""
    rng = np.random.default_rng(3)
    mu = 0.35
    params = ModelParams(0.0, mu, "bp")
    bundle = make_rhs(params, FLAT2)
    handle = build_handle("I_plus_muTb", mu, FLAT2)
    U = _random_state(G2, rng)
    got = bundle.nodal_rhs(U)
    flux = [dprod(G2, FLAT2.hb, U[1 + j]) for j in range(2)]
    dz = -div_arr(G2, flux)
    dV = -handle.solve_arrays(np.stack(grad_arr(G2, U[0])))
    assert np.abs(got[0] - dz).max() < 1e-12
    assert np.abs(got[1:] - dV).max() < 1e-12


def test_fused_mbp_matches_primitive_assembly():
    rng = np.random.default_rng(4)
    mu = 0.6
    params = ModelParams(0.0, mu, "mbp")
    bundle = make_rhs(params, FLAT2)
    handle = build_handle("hb_B", mu, FLAT2)
    U = _random_state(G2, rng)
    got = bundle.nodal_rhs(U)
    flux = [dprod(G2, FLAT2.hb, U[1 + j]) for j in range(2)]
    dq = -div_arr(G2, flux)
    zeta = q_to_zeta_arr(U[0], 0.0, FLAT2)
    gz = np.stack(grad_arr(G2, zeta))
    w = get_weighted_ops(FLAT2).w_hba(gz, mu)
    dV = -handle.solve_weighted_arrays(w)
    assert np.abs(got[0] - dq).max() < 1e-12
    assert np.abs(got[1:] - dV).max() < 1e-12


def test_fused_sw_mollified_closed_form():
    delta, k = 2e-2, 3.0
    params = ModelParams(0.0, 0.0, "sw")
    bundle = make_rhs(params, FLAT1, delta=delta)
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[1] = np.cos(k * x)
    dU = bundle.nodal_rhs(U)
    expected = k * np.sin(k * x) / (1.0 + delta * k**2) ** 2
    assert np.abs(dU[0] - expected).max() < 1e-13
    assert np.abs(dU[1]).max() < 1e-14


def test_fused_bp_mollified_closed_form():
    delta, mu, k = 1e-2, 0.3, 2.0
    params = ModelParams(0.0, mu, "bp")
    bundle = make_rhs(params, FLAT1, delta=delta)
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[0] = np.cos(k * x)
    dU = bundle.nodal_rhs(U)
    factor = 1.0 / ((1.0 + delta * k**2) ** 2 * (1.0 + mu * k**2 / 3.0))
    expected = factor * k * np.sin(k * x)
    assert np.abs(dU[1] - expected).max() < 1e-13


# ---------------------------------------------------------------------------
# model relations


def test_bp_collapses_to_sw_at_mu_zero():
    rng = np.random.default_rng(11)
    U = _random_state(G1, rng, amp=0.05)
    with pytest.warns(RegimeWarning):  # mu = 0 is out of regime by design here
        bp_params = ModelParams(0.4, 0.0, "bp")
    sw = make_rhs(ModelParams(0.4, 0.0, "sw"), BUMP1)
    bp = make_rhs(bp_params, BUMP1)
    a = sw.nodal_rhs(U)
    b = bp.nodal_rhs(U)
    assert np.abs(a - b).max() < 1e-11


def test_rescaled_mbp_is_physical_over_eps():
    rng = np.random.default_rng(12)
    eps = 0.4
    U = _random_state(G2, rng, amp=0.05)
    handles = build_handles(ModelParams(eps, 0.5, "mbp"), BUMP2)
    phys = make_rhs(ModelParams(eps, 0.5, "mbp"), BUMP2, handles=handles)
    resc = make_rhs(
        ModelParams(eps, 0.5, "mbp", rescaled_time=True), BUMP2, handles=handles
    )
    a = phys.nodal_rhs(U) / eps
    b = resc.nodal_rhs(U)
    assert np.abs(a - b).max() < 1e-12 / eps


def test_translation_equivariance_flat_nonlinear():
    rng = np.random.default_rng(13)
    shift = 5
    U = _random_state(G1, rng, amp=0.08)
    bundle = make_rhs(ModelParams(0.3, 0.25, "bp"), FLAT1)
    lhs = bundle.nodal_rhs(np.roll(U, shift, axis=-1))
    rhs_ = np.roll(bundle.nodal_rhs(U), shift, axis=-1)
    assert np.abs(lhs - rhs_).max() < 1e-12


def test_dry_state_raises():
    params = ModelParams(0.5, 0.2, "sw")
    zeta = np.full(G1.shape, -2.5)  # h = 1 + 0.5*(-2.5) < 0
    with pytest.raises(DryStateError):
        make_rhs(params, FLAT1).nodal_rhs(_at_rest(G1, zeta))


def test_mbp_never_dry():
    # the log variable keeps depth positive by construction
    params = ModelParams(0.5, 0.2, "mbp")
    q = np.full(G1.shape, -8.0)
    out = make_rhs(params, BUMP1).nodal_rhs(_at_rest(G1, q))
    assert np.isfinite(out[0]).all()


def test_wrapper_model_mismatch():
    # a handle that factorizes another model's operator is rejected
    bp, mbp = ModelParams(0.1, 0.1, "bp"), ModelParams(0.1, 0.1, "mbp")
    with pytest.raises(ValueError):
        make_rhs(bp, BUMP1, handles={"I_plus_muTb": build_handle("hb_B", 0.1, BUMP1)})
    with pytest.raises(ValueError):
        make_rhs(mbp, BUMP1, handles={"hb_B": build_handle("I_plus_muTb", 0.1, BUMP1)})


def test_wrapper_accepts_prebuilt_handle():
    rng = np.random.default_rng(21)
    U = _random_state(G1, rng, amp=0.03)
    params = ModelParams(0.2, 0.3, "bp")
    handle = build_handle("I_plus_muTb", 0.3, BUMP1)
    a = make_rhs(params, BUMP1, handles={"I_plus_muTb": handle}).nodal_rhs(U)
    b = make_rhs(params, BUMP1).nodal_rhs(U)
    assert np.abs(a - b).max() < 1e-13


def test_handle_mismatch_rejected():
    params = ModelParams(0.2, 0.3, "bp")
    wrong = build_handle("I_plus_muTb", 0.5, BUMP1)  # different mu
    with pytest.raises(ValueError):
        make_rhs(params, BUMP1, handles={"I_plus_muTb": wrong})


# ---------------------------------------------------------------------------
# iterated time derivatives


def _mbp_setup(eps=0.4, mu=0.4):
    rng = np.random.default_rng(17)
    params = ModelParams(eps, mu, "mbp")
    U = _random_state(G1, rng, amp=0.08)
    return params, U


def test_jet_order_zero_is_state():
    params, U = _mbp_setup()
    stack = time_derivative_stack(U, params, BUMP1, k_max=0)
    assert len(stack) == 1
    assert np.array_equal(stack[0][0], U[0])
    assert np.array_equal(stack[0][1:], U[1:])


def test_jet_first_order_matches_rhs():
    params, U = _mbp_setup()
    stack = time_derivative_stack(U, params, BUMP1, k_max=1)
    u1 = stack[1]
    dU = make_rhs(params, BUMP1).nodal_rhs(U)
    assert np.abs(u1[0] - params.eps * dU[0]).max() < 1e-13
    assert np.abs(u1[1:] - params.eps * dU[1:]).max() < 1e-13


def test_jet_against_time_differences():
    """u_1 and u_2 against centered differences of a fine reference run."""
    params, U = _mbp_setup()
    eps = params.eps
    stack = time_derivative_stack(U, params, BUMP1, k_max=2)
    rhs = make_rhs(params, BUMP1).nodal_rhs
    dt = 2e-3
    up = reference_trajectory(U, rhs, dt, dt / 8.0)
    um = reference_trajectory(U, rhs, -dt, -dt / 8.0)
    d1 = (up - um) / (2.0 * dt)
    d2 = (up - 2.0 * U + um) / dt**2
    # u_k = (eps*d_t)^k u, so u_1 = eps*d_t u and u_2 = eps^2 * d_t^2 u
    u1, u2 = stack[1], stack[2]
    scale1 = np.abs(u1).max()
    scale2 = max(np.abs(u2).max(), 1e-3)
    assert np.abs(u1 - eps * d1).max() < 1e-4 * scale1
    assert np.abs(u2 - eps**2 * d2).max() < 1e-3 * scale2


def test_jet_vanishes_for_linear_flow():
    # at eps = 0 the operator (eps*d_t)^k annihilates every k >= 1
    params = ModelParams(0.0, 0.4, "mbp")
    rng = np.random.default_rng(19)
    stack = time_derivative_stack(_random_state(G1, rng), params, BUMP1, k_max=3)
    for k in (1, 2, 3):
        assert np.abs(stack[k][0]).max() == 0.0


def test_jet_rescaled_flag_is_irrelevant():
    params, U = _mbp_setup()
    resc = ModelParams(params.eps, params.mu, "mbp", rescaled_time=True)
    a = time_derivative_stack(U, params, BUMP1, k_max=2)
    b = time_derivative_stack(U, resc, BUMP1, k_max=2)
    for ua, ub in zip(a, b):
        assert np.array_equal(ua[0], ub[0])
        assert np.array_equal(ua[1:], ub[1:])


def test_jet_requires_mbp():
    U = _at_rest(G1, np.zeros(G1.shape))
    with pytest.raises(ValueError):
        time_derivative_stack(U, ModelParams(0.1, 0.1, "bp"), BUMP1)
    with pytest.raises(ValueError):  # the mbp state carries a velocity
        time_derivative_stack(U[:1], ModelParams(0.1, 0.1, "mbp"), BUMP1)


# ---------------------------------------------------------------------------
# frequency bookkeeping


def test_frequency_ordering():
    sw = max_linear_frequency(ModelParams(0.0, 0.5, "sw"), G1)
    bp = max_linear_frequency(ModelParams(0.0, 0.5, "bp"), G1)
    mbp = max_linear_frequency(ModelParams(0.0, 0.5, "mbp"), G1)
    assert bp < sw  # dispersion slows bp phase speeds down
    assert mbp > bp  # while the modified branch grows with k
    kmax = np.sqrt(G1.k2deriv.max())
    assert sw == pytest.approx(kmax)


def test_frequency_advective_part():
    params = ModelParams(0.5, 0.0, "burgers")
    assert max_linear_frequency(params, G1) == 0.0
    st = ModelState(G1, 2.0 * np.ones((1,) + G1.shape))
    kmax = float(np.sqrt(G1.k2deriv.max()))
    assert max_linear_frequency(params, G1, st) == pytest.approx(0.5 * 2.0 * kmax)
