"""Flow evaluations: closed forms, model relations, guards."""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab import models
from bplab.bathymetry import build_bathymetry, q_to_zeta_arr
from bplab.errors import DryStateError, RegimeWarning
from bplab.models import (
    MODELS,
    ModelParams,
    ModelState,
    _nodal_factors,
    build_handles,
    make_rhs,
    max_linear_frequency,
)
from bplab.operators import CG_TOL, build_handle, get_weighted_ops
from bplab.spectral import Grid, div_arr, grad_arr, mollify_arr, trunc_arr
from bplab.timeloop import StepperConfig, _mode_major, apply_mode_blocks, run
from oracles import (
    burgers_flux_reference,
    dprod,
    mode_blocks_reference,
    nodal_factors_reference,
    nodal_rhs,
    reference_trajectory,
    velocity_rhs_reference,
)

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


def test_params_rejects_non_finite_scales():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(bad, 0.1, "sw")
        with pytest.raises(ValueError, match="finite"):
            ModelParams(0.1, bad, "sw")
        with pytest.raises(ValueError, match="delta must be finite"):
            ModelParams(0.1, 0.1, "sw", delta=bad)


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
        ModelParams(0.0, 0.1, "bp", delta=-1e-3)
    # delta is the params'; a third positional argument is refused, not read as handles
    with pytest.raises(TypeError):
        make_rhs(ModelParams(0.0, 0.1, "bp"), FLAT1, 0.0)


def test_build_handles_kinds():
    assert build_handles(ModelParams(0.1, 0.2, "bp"), BUMP1).keys() == {"I_plus_muTb"}
    assert build_handles(ModelParams(0.1, 0.2, "mbp"), BUMP1).keys() == {"hb_B"}
    assert build_handles(ModelParams(0.1, 0.0, "sw"), BUMP1) == {}


def test_state_stack_round_trip():
    rng = np.random.default_rng(7)
    U = rng.standard_normal((3,) + G2.shape)
    st = ModelState.from_stack(G2, U)
    assert st.stack().shape == (3,) + G2.shape
    assert np.array_equal(st.stack(), U)
    # a state carries no time: every run records from t = 0
    assert [f.name for f in fields(ModelState)] == ["grid", "U"]
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
    dU = nodal_rhs(bundle, np.zeros((rows,) + grid.shape))
    assert np.abs(dU).max() < 1e-14


def test_burgers_closed_form():
    params = ModelParams(0.4, 0.0, "burgers")
    x = G1.x[0]
    out = nodal_rhs(make_rhs(params, FLAT1), np.sin(x)[None])
    # -eps*sin*cos = -(eps/2) sin(2x), fully resolved on the kept band
    expected = -0.2 * np.sin(2.0 * x)
    assert np.abs(out[0] - expected).max() < 1e-13
    assert out.shape == (1,) + G1.shape  # no velocity rows


def _burgers_five_transform_rhs(grid, u, eps, delta):
    """The nodal Burgers flow as rfft, irfft, irfft, rfft, irfft."""
    mask = grid.dealias_mask
    spec = grid.rfft(u)
    ut = grid.irfft(mask * spec)
    ux_t = grid.irfft(mask * (grid.ik[0] * spec))
    dspec = -eps * mask * grid.rfft(ut * ux_t)
    if delta > 0:
        dspec = dspec / (1.0 + delta * grid.k2gamma) ** 2
    return grid.irfft(dspec)


@pytest.mark.parametrize("delta", [0.0, 2e-2])
def test_burgers_matches_nodal_formula(delta):
    # random grid data excites every mode, so both 2/3 projections matter
    u = np.random.default_rng(21).standard_normal(G1.shape)
    bundle = make_rhs(ModelParams(0.7, 0.0, "burgers", delta), FLAT1)
    assert np.array_equal(bundle.encode(u[None]), G1.rfft(u[None]))
    got = nodal_rhs(bundle, u[None])
    expected = _burgers_five_transform_rhs(G1, u, 0.7, delta)
    assert got.shape == (1,) + G1.shape
    assert np.abs(got[0] - expected).max() <= 1e-13 * np.abs(expected).max()


def test_burgers_run_matches_nodal_reference():
    # before the shock at t = 1/eps, rfft-coordinate stepping retraces the
    # nodal RK4 loop over the same flow
    eps, dt, t_end = 0.5, 1e-2, 0.5
    params = ModelParams(eps, 0.0, "burgers")
    u0 = np.sin(G1.x[0])[None]
    traj = run(ModelState(G1, u0), params, FLAT1, StepperConfig(dt=dt, t_end=t_end))
    assert traj.termination == "completed"
    rhs = partial(nodal_rhs, make_rhs(params, FLAT1))
    ref = reference_trajectory(u0, rhs, t_end, dt)
    assert np.abs(traj.states[-1] - ref).max() <= 1e-12


def test_burgers_fn_makes_two_transforms(monkeypatch):
    # one stacked inverse transform and one forward transform per evaluation
    calls = _count_transforms(monkeypatch)
    bundle = make_rhs(ModelParams(0.5, 0.0, "burgers", 1e-2), FLAT1)
    W = bundle.encode(np.sin(G1.x[0])[None])
    calls.clear()
    for _ in range(3):
        W = W + 1e-3 * bundle.fn(W)
    assert calls == ["irfft", "rfft"] * 3


def test_burgers_fn_inverse_transforms_one_row_per_member(monkeypatch):
    # flux form: only T u goes to nodes, so the irfft carries K rows, not 2K,
    # each of them only the kept band, which irfft zero-pads
    seen = []
    irfft = Grid.irfft

    def recording(self, spec):
        seen.append(spec.shape)
        return irfft(self, spec)

    monkeypatch.setattr(Grid, "irfft", recording)
    W = G1.rfft(np.stack([np.sin(G1.x[0]), np.cos(2 * G1.x[0])])[:, None])
    make_rhs(ModelParams(0.5, 0.0, "burgers", 1e-2), FLAT1).fn(W[0])
    make_rhs([ModelParams(e, 0.0, "burgers") for e in (0.7, 0.3)], FLAT1).fn(W)
    kept = int(G1.dealias_mask.sum())
    assert seen == [(1, 1, kept), (2, 1, kept)]


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("delta", [0.0, 1e-2])
def test_burgers_flow_is_the_full_spectrum_flux_bit_for_bit(delta, K, n):
    # the flow transforms the kept band alone; the oracle masks the whole
    # spectrum, which irfft would zero-pad to the same nodes
    g = Grid(1, n, 2.0 * np.pi)
    rng = np.random.default_rng(K * n)
    eps = [0.7, 0.3, 0.5][:K]
    deltas = [delta, 0.0, 2.0 * delta][:K]
    params = [ModelParams(e, 0.0, "burgers", dl) for e, dl in zip(eps, deltas)]
    W = g.rfft(rng.standard_normal((K, 1, n)))
    bath = build_bathymetry(g, "flat", 0.0)
    if K == 1:
        got = make_rhs(params[0], bath).fn(W[0])[None]
    else:
        got = make_rhs(params, bath).fn(W)
    want = burgers_flux_reference(g, W, eps, deltas)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # noise on the modes above the band changes nothing
    noisy = W.copy()
    top = ~g.dealias_mask
    noisy[..., top] = rng.standard_normal(noisy[..., top].shape) * (1 + 1j)
    fn = make_rhs(params, bath).fn
    assert fn(noisy).tobytes() == got.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([64, 512]))
def test_burgers_flow_is_energy_neutral(seed, n):
    # Galerkin invariant: <u, -eps/2 d_x T(u^2)> = 0 for u on the 2/3 band
    g = Grid(1, n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    W = g.dealias_mask * g.rfft(rng.standard_normal((1, n)))
    params = ModelParams(rng.uniform(0.05, 1.0), 0.0, "burgers")
    F = make_rhs(params, build_bathymetry(g, "flat", 0.0)).fn(W)
    w = g.parseval_weight

    def inner(a, b):
        return float((w * (a.conj() * b).real).sum())

    assert abs(inner(W, F)) <= 1e-13 * np.sqrt(inner(W, W) * inner(F, F))


def _nodal_reference_rhs(params, bath, handle, U):
    """The sw/bp/mbp flows written on nodal stacks, primitive by primitive.

    Every product is dealiased by the 2/3 rule before it is differentiated
    or solved for; params.delta > 0 smooths the scalar flow by m2 and
    sandwiches the velocity solve as m1 Solve m1.
    """
    g = bath.grid
    eps, mu, delta = params.eps, params.mu, params.delta
    hb = bath.hb

    def T(a):
        return trunc_arr(g, a)

    def moll(a, power):
        return mollify_arr(g, a, delta, power) if delta > 0 else a

    Vt = T(U[1:])
    jac = T(grad_arr(g, Vt))  # jac[i, j] = T d_j V_i
    adv = T((Vt[None] * jac).sum(axis=1))  # dealiased (V.grad)V
    if params.model in ("sw", "bp"):
        ht = T(hb) + eps * T(U[0])
        dz = moll(-div_arr(g, T(ht * Vt)), -2)
        w = grad_arr(g, U[0]) + eps * adv
        if params.model == "sw":
            dV = -moll(w, -2)
        elif delta > 0:
            dV = -moll(handle.solve_weighted_arrays(moll(hb * w, -1)), -1)
        else:
            dV = -handle.solve_arrays(w)
        return np.concatenate([dz[None], dV])

    q = U[0]
    advq = T((Vt * T(grad_arr(g, q))).sum(axis=0))
    div_part = bath.inv_hb * div_arr(g, T(T(hb) * Vt))
    dq = moll(-eps * advq - div_part, -2)
    zeta = q_to_zeta_arr(q, eps, bath)
    w = get_weighted_ops(bath).weighted("hb_A", grad_arr(g, zeta), mu) + eps * hb * adv
    dV = -moll(handle.solve_weighted_arrays(moll(w, -1)), -1)
    return np.concatenate([dq[None], dV])


# nonlinear flows over a bump, and linear flat-bottom ones, whose bundles
# apply the blocks probed from the same flow
_FLOW_CASES = [
    pytest.param(model, bath, eps, delta, id=f"{model}-{bid}-{delta}")
    for delta in (0.0, 1e-2)
    for bid, bath, eps in (
        ("d1", BUMP1, 0.3), ("d2", BUMP2, 0.3),
        ("flat-d1", FLAT1, 0.0), ("flat-d2", FLAT2, 0.0),
    )
    for model in ("sw", "bp", "mbp")
]


@pytest.mark.parametrize("model,bath,eps,delta", _FLOW_CASES)
def test_nonlinear_bump_matches_nodal_formula(model, bath, eps, delta):
    # random data on every mode, so each 2/3 projection matters
    g = bath.grid
    params = ModelParams(eps, 0.4, model, delta)
    U = 0.1 * np.random.default_rng(23).standard_normal((1 + g.d,) + g.shape)
    handles = build_handles(params, bath)
    bundle = make_rhs(params, bath, handles=handles)
    assert (bundle.blocks is not None) == (eps == 0.0)
    got = nodal_rhs(bundle, U)
    handle = next(iter(handles.values()), None)
    expected = _nodal_reference_rhs(params, bath, handle, U)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def _count_transforms(monkeypatch):
    """Record every Grid.rfft/irfft call by name."""
    calls = []

    def counted(name):
        transform = getattr(Grid, name)

        def wrapper(self, a):
            calls.append(name)
            return transform(self, a)

        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(Grid, name, counted(name))
    return calls


def test_sw_fn_makes_two_transforms(monkeypatch):
    # nonlinear sw over a bump: one stacked irfft of the nodal factors and
    # one rfft of the products; the mollifier is a spectral multiplier
    calls = _count_transforms(monkeypatch)
    bundle = make_rhs(ModelParams(0.3, 0.0, "sw", 1e-2), BUMP1)
    W = bundle.encode(_random_state(G1, np.random.default_rng(5)))
    calls.clear()
    for _ in range(3):
        W = W + 1e-3 * bundle.fn(W)
    assert calls == ["irfft", "rfft"] * 3


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
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[0] = np.cos(2.0 * x)
    assert np.array_equal(bundle.encode(U), G1.rfft(U))
    dd = nodal_rhs(bundle, nodal_rhs(bundle, U))
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
    dd = nodal_rhs(bundle, nodal_rhs(bundle, U))
    assert np.abs(dd[0] + w2 * U[0]).max() < 1e-11


def test_flat_probe_runs_in_extended_precision(monkeypatch):
    # the blocks are probed on every mode at once, so in double the roundoff
    # of mbp's large high-mode terms would reach the small low-mode blocks
    # (2.5e-11 of |L_1| and 2.8e-13 of |L_5| at n = 256); the flow the probe
    # sees, run in double on one mode at a time, carries no such roundoff
    flows = []

    def capture(fn, grid, members):
        flows.append(fn)
        return probe(fn, grid, members)

    probe = models._probe_mode_blocks
    monkeypatch.setattr(models, "_probe_mode_blocks", capture)
    g = Grid(1, 256, 2.0 * np.pi)
    bundle = make_rhs(ModelParams(0.0, 0.5, "mbp"), build_bathymetry(g, "flat", 0.0))
    (fn,) = flows
    for k in range(1, 6):
        L_k = np.empty((2, 2), complex)
        for j in range(2):
            e = np.zeros((1, 2) + g.rshape, complex)
            e[0, j, k] = 1.0
            L_k[:, j] = fn(e)[0, :, k]
        assert np.abs(bundle.blocks[k] - L_k).max() <= 1e-13 * np.abs(L_k).max()


def test_fused_bp_matches_primitive_assembly():
    """The spectral fast path against the same flow built from primitives."""
    rng = np.random.default_rng(3)
    mu = 0.35
    params = ModelParams(0.0, mu, "bp")
    bundle = make_rhs(params, FLAT2)
    handle = build_handle("I_plus_muTb", mu, FLAT2)
    U = _random_state(G2, rng)
    got = nodal_rhs(bundle, U)
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
    got = nodal_rhs(bundle, U)
    flux = [dprod(G2, FLAT2.hb, U[1 + j]) for j in range(2)]
    dq = -div_arr(G2, flux)
    zeta = q_to_zeta_arr(U[0], 0.0, FLAT2)
    gz = np.stack(grad_arr(G2, zeta))
    w = get_weighted_ops(FLAT2).weighted("hb_A", gz, mu)
    dV = -handle.solve_weighted_arrays(w)
    assert np.abs(got[0] - dq).max() < 1e-12
    assert np.abs(got[1:] - dV).max() < 1e-12


def test_fused_sw_mollified_closed_form():
    delta, k = 2e-2, 3.0
    bundle = make_rhs(ModelParams(0.0, 0.0, "sw", delta), FLAT1)
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[1] = np.cos(k * x)
    dU = nodal_rhs(bundle, U)
    expected = k * np.sin(k * x) / (1.0 + delta * k**2) ** 2
    assert np.abs(dU[0] - expected).max() < 1e-13
    assert np.abs(dU[1]).max() < 1e-14


def test_fused_bp_mollified_closed_form():
    delta, mu, k = 1e-2, 0.3, 2.0
    bundle = make_rhs(ModelParams(0.0, mu, "bp", delta), FLAT1)
    x = G1.x[0]
    U = np.zeros((2,) + G1.shape)
    U[0] = np.cos(k * x)
    dU = nodal_rhs(bundle, U)
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
    a = nodal_rhs(sw, U)
    b = nodal_rhs(bp, U)
    assert np.abs(a - b).max() < 1e-11


def test_translation_equivariance_flat_nonlinear():
    rng = np.random.default_rng(13)
    shift = 5
    U = _random_state(G1, rng, amp=0.08)
    bundle = make_rhs(ModelParams(0.3, 0.25, "bp"), FLAT1)
    lhs = nodal_rhs(bundle, np.roll(U, shift, axis=-1))
    rhs_ = np.roll(nodal_rhs(bundle, U), shift, axis=-1)
    assert np.abs(lhs - rhs_).max() < 1e-12


# batch flows: per-member eps, mu and delta, bit for bit each member's own flow
_BATCH_CASES = [
    pytest.param(model, bath, eps, id=f"{model}-{bid}")
    for bid, bath, eps in (("d1", BUMP1, 0.3), ("d2", BUMP2, 0.3), ("flat-d1", FLAT1, 0.0))
    for model in ("sw", "bp", "mbp")
]


@pytest.mark.parametrize("model,bath,eps", _BATCH_CASES)
def test_batch_flow_is_each_members_flow(model, bath, eps):
    g = bath.grid
    params = [
        ModelParams(eps * f, mu, model, delta)
        for f, mu, delta in ((1.0, 0.4, 1e-2), (0.5, 0.2, 0.0), (0.25, 0.4, 1e-3))
    ]
    rng = np.random.default_rng(31)
    W = g.rfft(0.1 * rng.standard_normal((3, 1 + g.d) + g.shape))
    batch = make_rhs(params, bath)
    assert batch.params == tuple(params)
    solo = [make_rhs(p, bath) for p in params]
    out = batch.fn(W)
    for k in range(3):
        assert np.array_equal(out[k], solo[k].fn(W[k]))
    # a subset of the members, in stack order, as a run steps them after a member left
    sub = batch.fn(W[[0, 2]], (0, 2))
    assert np.array_equal(sub, out[[0, 2]])
    if eps == 0.0:
        assert batch.blocks.shape == (3,) + g.rshape + (1 + g.d, 1 + g.d)
        for k in range(3):
            assert np.array_equal(batch.blocks[k], solo[k].blocks)


@pytest.mark.parametrize("smooth", [False, True], ids=["plain", "one-smoothing"])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_linear_flat_flow_is_the_einsum_block_product_bit_for_bit(bath, model, K, smooth):
    # the probed blocks are i times a real matrix, with +0.0 real parts, so
    # one complex product per entry rounds each part once, as einsum does;
    # the bundle's flow is the model's own, which they match to rounding
    g = bath.grid
    deltas = [1e-2 * smooth] + [0.0] * (K - 1)
    params = [ModelParams(0.0, mu, model, dl) for mu, dl in zip((0.4, 0.1, 0.0), deltas)]
    bundle = make_rhs(params, bath)
    L = bundle.blocks
    assert not np.any(L.real) and not np.signbit(L.real).any()
    W = g.rfft(np.random.default_rng(41).standard_normal((K, 1 + g.d) + g.shape))
    W[..., 0] = complex(-0.0, 0.0)  # einsum sums from +0.0, so its zero sums are +0.0
    expected = mode_blocks_reference(L, W)
    got = apply_mode_blocks(_mode_major(L), W)
    assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()
    flow = bundle.fn(W)
    assert np.abs(flow - expected).max() <= 1e-12 * np.abs(expected).max()
    if K > 1:
        sub = apply_mode_blocks(_mode_major(L[[0, K - 1]]), W[[0, K - 1]])
        assert sub.tobytes() == mode_blocks_reference(L[[0, K - 1]], W[[0, K - 1]]).tobytes()
        assert np.array_equal(bundle.fn(W[[0, K - 1]], (0, K - 1)), flow[[0, K - 1]])


def test_probe_refuses_a_linear_flow_with_a_real_term():
    # a small damping term -nu W puts a real part on every diagonal entry,
    # which zeroing the probe's roundoff would silently drop
    bundle = make_rhs([ModelParams(0.0, 0.2, "bp")] * 2, FLAT1)
    probe = partial(models._probe_mode_blocks, grid=G1, members=2)
    assert np.array_equal(probe(bundle.fn), bundle.blocks)
    with pytest.raises(ValueError, match="real parts"):
        probe(lambda W: bundle.fn(W) - 1e-6 * W)


# bump-2d-pcg's grid and bottom: 2048 unknowns, so its velocity solves run CG
PCG_BUMP = build_bathymetry(Grid(2, 32, 8.0 * np.pi, gamma=0.8), "gaussian_bump", 0.5)


@pytest.mark.parametrize("deltas", [(0.0, 0.0), (1e-2, 0.0)], ids=["plain", "smoothing"])
@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [BUMP1, PCG_BUMP], ids=["d1-dense", "d2-pcg"])
def test_flow_outputs_are_fresh_arrays(bath, model, deltas):
    # the RK4 step accumulates in place into what it allocates, so a flow
    # must return a new array on every call and keep no reference to it
    g = bath.grid
    params = [ModelParams(0.1, mu, model, dl) for mu, dl in zip((0.2, 0.3), deltas)]
    if model != "sw":
        handle = build_handles(params[0], bath)[models._HANDLE_KIND[model]]
        assert handle.strategy == ("dense" if g.d == 1 else "pcg")
    bundle = make_rhs(params, bath)
    rng = np.random.default_rng(47)
    W1, W2 = (g.rfft(np.stack([_random_state(g, rng) for _ in params])) for _ in range(2))
    first = bundle.fn(W1)
    kept = first.copy()
    bundle.fn(W2)
    assert np.array_equal(first, kept)
    first[...] = np.nan
    assert np.array_equal(bundle.fn(W1), kept)


# a d=1 grid of 2048 points also exceeds the dense limit, so its solves run CG
PCG_BUMP1 = build_bathymetry(Grid(1, 2048, 16.0 * np.pi), "gaussian_bump", 0.5)


def _watch_cold_solves(handle):
    """Record (rhs, u, ref) of each solve a flow called outside a run makes."""
    solve = handle.solve_weighted_arrays
    seen = []

    def watched(rhs, prior=None, out=None, ref=None):
        assert prior is None
        u = solve(rhs, out=out, ref=ref)
        seen.append((rhs, u.copy(), ref))
        return u

    handle.solve_weighted_arrays = watched
    return seen


@pytest.mark.parametrize("bath", [PCG_BUMP1, PCG_BUMP], ids=["d1", "d2"])
def test_mbp_stopping_reference_never_exceeds_the_whole_rhs(bath):
    # a member that splits its velocity x = V0 + u stops CG at CG_TOL times
    # ref <= |y|, so x meets CG_TOL on y itself: random states over a bump,
    # where ref is the bound <h_b(V0 + eps N), V0> / |V0| or, where that
    # falls below |r|, the exact |y|
    g = bath.grid
    params = [ModelParams(eps, mu, "mbp") for eps, mu in ((0.05, 0.05), (0.1, 0.2), (0.3, 0.05))]
    handles = [build_handles(p, bath) for p in params]
    assert all(h["hb_B"].strategy == "pcg" for h in handles)
    seen = [_watch_cold_solves(h["hb_B"]) for h in handles]
    bundle = make_rhs(params, bath, handles=handles)
    rng = np.random.default_rng(53)
    below = exact = 0
    # (amplitude, surface scale): a nearly flat or flat surface under a
    # moving velocity takes the fallback
    for amp, surface in ((0.02, 1.0), (0.1, 1.0), (0.3, 1.0), (0.1, 1e-6), (0.1, 0.0)):
        U = np.stack([_random_state(g, rng, amp) for _ in params])
        U[:, 0] *= surface
        W = g.rfft(U)
        bundle.fn(W)
        for k, (p, h) in enumerate(zip(params, handles)):
            r, u, ref = seen[k][-1]
            V0, y = velocity_rhs_reference("mbp", p.eps, p.mu, bath, W[k])
            norm_y = np.linalg.norm(y)
            assert ref <= norm_y * (1.0 + 1e-12)
            below += ref < 0.999 * norm_y
            exact += ref >= norm_y * (1.0 - 1e-12)
            true = h["hb_B"].apply_weighted_arrays(V0 + u)
            assert np.linalg.norm(y - true) <= 1.01 * CG_TOL * norm_y
    assert below and exact  # the bound and the exact fallback were both in use


@pytest.mark.parametrize("model", ["bp", "mbp"])
@pytest.mark.parametrize("delta", [0.0, 1e-2], ids=["split", "smoothing"])
def test_pcg_flow_matches_nodal_formula(model, delta):
    # random data on every mode over the pcg bump: a member that does not
    # smooth solves its correction to the hydrostatic velocity, one that
    # smooths solves y itself; both give the nodal formula's solve of y to
    # within what CG_TOL leaves
    bath = PCG_BUMP
    g = bath.grid
    params = ModelParams(0.3, 0.4, model, delta)
    U = 0.1 * np.random.default_rng(23).standard_normal((1 + g.d,) + g.shape)
    handles = build_handles(params, bath)
    got = nodal_rhs(make_rhs(params, bath, handles=handles), U)
    handle = next(iter(handles.values()))
    expected = _nodal_reference_rhs(params, bath, handle, U)
    assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max()


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble], ids=["c128", "clong"])
@pytest.mark.parametrize("grid", [G1, G2], ids=["d1", "d2-gamma0.8"])
def test_nodal_factors_table_matches_factor_by_factor(grid, dtype):
    # one gather and one multiply by the (row, symbol) table give the bits
    # of each factor sliced and multiplied alone; the linear flat probe
    # runs in clongdouble
    rng = np.random.default_rng(41)
    W = grid.rfft(rng.standard_normal((2, 1 + grid.d) + grid.shape)).astype(dtype)
    for scalar in (False, True):
        for gradq in (False, True):
            for jac in (False, True):
                s, Ut, F = _nodal_factors(grid, W, scalar, gradq, jac)
                s_ref, Ut_ref, gqt, J = nodal_factors_reference(grid, W, scalar, gradq, jac)
                assert Ut.dtype == Ut_ref.dtype
                assert np.array_equal(Ut, Ut_ref)
                assert (s is None) == (not scalar)
                if scalar:
                    assert np.array_equal(s, s_ref)
                assert (F is None) == (not (gradq or jac))
                if gradq:
                    assert np.array_equal(F[:, 0], gqt)
                if jac:
                    assert np.array_equal(F[:, int(gradq):], J)


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [BUMP1, BUMP2], ids=["d1", "d2"])
def test_unit_coefficients_skipped_exactly(bath, model, eps):
    # alone, a delta = 0 member skips its unit mollifier; in a batch with a
    # smoothing member it is multiplied by ones: the same bits either way
    g = bath.grid
    rng = np.random.default_rng(43)
    W = g.rfft(0.1 * rng.standard_normal((2, 1 + g.d) + g.shape))
    params = [ModelParams(eps, 0.2, model), ModelParams(eps, 0.3, model, 1e-2)]
    alone = make_rhs(params[0], bath).fn(W[0])
    batch = make_rhs(params, bath).fn(W)
    assert np.array_equal(batch[0], alone)


def test_batch_burgers_flow_is_each_members_flow():
    params = [ModelParams(0.7, 0.0, "burgers"), ModelParams(0.3, 0.0, "burgers", 2e-2)]
    W = G1.rfft(np.stack([np.sin(G1.x[0]), np.cos(2 * G1.x[0])])[:, None])
    batch = make_rhs(params, FLAT1)
    out = batch.fn(W)
    for k in range(2):
        solo = make_rhs(params[k], FLAT1)
        assert np.array_equal(out[k], solo.fn(W[k]))
    assert np.array_equal(batch.fn(W[1:], (1,)), out[1:])


def test_batch_members_share_a_handle_per_mu(monkeypatch):
    built = []

    def counting_build_handle(kind, mu, bath):
        built.append(mu)
        return build_handle(kind, mu, bath)

    monkeypatch.setattr("bplab.models.build_handle", counting_build_handle)
    params = [ModelParams(0.1, mu, "mbp", dl) for mu, dl in ((0.2, 1e-2), (0.3, 0.0), (0.2, 0.0))]
    make_rhs(params, BUMP1)
    assert built == [0.2, 0.3]


def test_batch_dry_error_raises_for_any_dry_member():
    # the flow names no member: the stepper retakes the step member by member
    params = [ModelParams(e, 0.2, "sw") for e in (0.1, 0.5, 0.5)]
    zeta = np.full(G1.shape, -2.5)  # dry at eps = 0.5 only
    W = G1.rfft(np.stack([_at_rest(G1, zeta)] * 3))
    bundle = make_rhs(params, FLAT1)
    with pytest.raises(DryStateError):
        bundle.fn(W)
    with pytest.raises(DryStateError):
        bundle.fn(W[1:], (0, 2))  # positions in the stack map to member ids
    assert np.isfinite(bundle.fn(W[:1], (0,))).all()


def test_batch_members_must_share_the_flow():
    with pytest.raises(ValueError):
        make_rhs([ModelParams(0.1, 0.1, "bp"), ModelParams(0.0, 0.1, "bp")], BUMP1)
    with pytest.raises(ValueError):
        make_rhs([ModelParams(0.1, 0.1, "mbp"), ModelParams(0.1, 0.1, "bp")], BUMP1)
    with pytest.raises(ValueError):
        make_rhs([ModelParams(0.1, 0.1, "bp")] * 2, BUMP1, handles=[None])


def test_dry_state_raises():
    params = ModelParams(0.5, 0.2, "sw")
    zeta = np.full(G1.shape, -2.5)  # h = 1 + 0.5*(-2.5) < 0
    with pytest.raises(DryStateError):
        nodal_rhs(make_rhs(params, FLAT1), _at_rest(G1, zeta))


def test_mbp_never_dry():
    # the log variable keeps depth positive by construction
    params = ModelParams(0.5, 0.2, "mbp")
    q = np.full(G1.shape, -8.0)
    out = nodal_rhs(make_rhs(params, BUMP1), _at_rest(G1, q))
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
    a = nodal_rhs(make_rhs(params, BUMP1, handles={"I_plus_muTb": handle}), U)
    b = nodal_rhs(make_rhs(params, BUMP1), U)
    assert np.abs(a - b).max() < 1e-13


def test_handle_mismatch_rejected():
    params = ModelParams(0.2, 0.3, "bp")
    wrong = build_handle("I_plus_muTb", 0.5, BUMP1)  # different mu
    with pytest.raises(ValueError):
        make_rhs(params, BUMP1, handles={"I_plus_muTb": wrong})
    mbp = ModelParams(0.4, 0.4, "mbp")
    with pytest.raises(ValueError):
        make_rhs(mbp, BUMP1, handles={"hb_B": build_handle("hb_B", 0.1, BUMP1)})
    with pytest.raises(ValueError):  # a batch member's handle is checked too
        make_rhs([mbp, mbp], BUMP1, handles=[None, {"hb_B": build_handle("hb_B", 0.1, BUMP1)}])


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
