"""Stepper accuracy, recording bookkeeping, and failure terminations."""

import dataclasses
import warnings
from functools import partial

import numpy as np
import pytest

from bplab.bathymetry import build_bathymetry
from bplab.diagnostics import build_records
from bplab.errors import CFLWarning, SolverDivergenceError
from bplab.models import ModelParams, ModelState, build_handles, make_rhs
from bplab.operators import CG_TOL, OperatorHandle
from bplab.spectral import Grid
from bplab import timeloop
from bplab.timeloop import CFL_LIMIT, Batch, StepperConfig, _propagator, _rk4, run
from oracles import (
    mode_blocks_reference,
    nodal_rhs,
    reference_trajectory,
    rk4_step_reference,
    velocity_rhs_reference,
)

G1 = Grid(1, 64, 2.0 * np.pi)
G2 = Grid(2, 16, 2.0 * np.pi, gamma=0.7)
FLAT1 = build_bathymetry(G1, "flat", 0.0)
FLAT2 = build_bathymetry(G2, "flat", 0.0)
BUMP1 = build_bathymetry(G1, "gaussian_bump", 0.4)
# d=2 n=32 over a bump has 2048 velocity unknowns, above the dense limit,
# so every velocity solve of a run over it goes through CG
GP = Grid(d=2, n=32, L=8.0 * np.pi, gamma=0.8)
PCG_BUMP = build_bathymetry(GP, "gaussian_bump", 0.5)


def _mode_state(grid, k=2.0, amp=1.0):
    x = grid.x[0]
    zeta = amp * np.cos(k * x)
    return ModelState(grid, np.stack([zeta] + [np.zeros(grid.shape)] * grid.d))


# ---------------------------------------------------------------------------
# config guards


def test_config_validation():
    good = dict(dt=1e-2, t_end=1.0)
    StepperConfig(**good)
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=-1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=1.0, output_stride=0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=1.0, blowup_threshold=0.0)
    with pytest.raises(ValueError):
        ModelParams(0.0, 0.1, "bp", delta=-1e-4)
    with pytest.raises(TypeError):  # delta is the params', not the stepper's
        StepperConfig(dt=1e-2, t_end=1.0, delta=1e-4)


def test_config_refuses_a_stride_that_is_not_an_integer():
    # records fall at whole step counts: 2.5 made run crash in record, and a
    # float 2.0 would count the recorded steps in floats
    for bad in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="output_stride must be an integer"):
            StepperConfig(dt=1e-2, t_end=1.0, output_stride=bad)
    assert StepperConfig(dt=1e-2, t_end=1.0, output_stride=np.int64(2)).output_stride == 2


def test_config_refuses_track_modes_that_are_not_integers():
    # int() would track mode 1 for both 1.5 and True
    for bad in ((1.5,), (True,), ("1",), ((1, 0.5),), ((False, 1),)):
        with pytest.raises(ValueError, match="track_modes entries must be integers"):
            StepperConfig(dt=1e-2, t_end=1.0, track_modes=bad)
    for good in ((1, np.int64(3)), ((1, 0), (-2, np.int64(3))), ([1, 0],)):
        assert StepperConfig(dt=1e-2, t_end=1.0, track_modes=good).track_modes == good


def test_config_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        for key in ("dt", "t_end"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                StepperConfig(**{"dt": 1e-2, "t_end": 1.0, key: bad})
        with pytest.raises(ValueError, match="delta must be finite"):
            ModelParams(0.0, 0.1, "bp", delta=bad)


def test_cfl_limit_lies_inside_rk4_stability():
    # one RK4 step of dW/dt = z W multiplies W by R(z); along the imaginary
    # axis |R(iy)| <= 1 holds up to y = 2*sqrt(2) and fails beyond it
    def R(z):
        return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24

    y = np.linspace(0.0, CFL_LIMIT, 10001)
    z = 1j * y
    step = _rk4(1.0)(lambda W: z * W, np.ones_like(z))
    assert np.abs(step - R(z)).max() <= 1e-14
    assert np.abs(R(z)).max() <= 1 + 1e-12
    assert abs(R(2.9j)) > 1


# the step over a three-member stack: one dt for all, or a column of three
_STEP_DTS = [1e-2, np.array([1e-2, 3e-3, 7e-3]).reshape(3, 1, 1)]


@pytest.mark.parametrize("dt", _STEP_DTS, ids=["scalar", "column"])
@pytest.mark.parametrize("model,bath", [("burgers", FLAT1), ("mbp", BUMP1)])
def test_rk4_step_is_the_textbook_step_bit_for_bit(model, bath, dt):
    mu = 0.3 if model == "mbp" else 0.0
    members = ((0.2, 1e-2), (0.5, 0.0), (0.3, 3e-2))
    params = [ModelParams(eps, mu, model, delta) for eps, delta in members]
    bundle = make_rhs(params, bath)
    rng = np.random.default_rng(17)
    rows = 1 if model == "burgers" else 1 + G1.d
    W = bundle.encode(0.1 * rng.standard_normal((3, rows) + G1.shape))
    W0 = W.copy()
    got = _rk4(dt)(bundle.fn, W)
    want = rk4_step_reference(bundle.fn, W, dt)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert W.tobytes() == W0.tobytes()


@pytest.mark.parametrize("dt", _STEP_DTS, ids=["scalar", "column"])
@pytest.mark.parametrize("returns", ["argument", "cached", "alternating"])
def test_rk4_step_writes_only_into_its_own_arrays(returns, dt):
    # a flow may hand back its argument or an array it keeps: the step must
    # leave W, every stage input and every k it was given as they came
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 2, 9)) + 1j * rng.standard_normal((3, 2, 9))
    cached = rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape)
    seen = []  # (array, its bytes when the flow saw or returned it)

    def fn(X):
        # "alternating" hands back the cached array at calls 1 and 3, X at 2 and 4
        from_cache = returns == "cached" or (returns == "alternating" and len(seen) % 4 == 0)
        out = cached if from_cache else X
        seen.extend([(X, X.tobytes()), (out, out.tobytes())])
        return out

    W0 = W.tobytes()
    got = _rk4(dt)(fn, W)
    assert W.tobytes() == W0 and len(seen) == 8
    for a, before in seen:
        assert a.tobytes() == before
    assert got.tobytes() == rk4_step_reference(fn, W, dt).tobytes()


# ---------------------------------------------------------------------------
# accuracy against closed forms and the independent reference loop


def test_linear_bp_mode_closed_form():
    """zeta = cos(kx)cos(wt), V from its time integral, to RK4 accuracy."""
    mu, k = 0.5, 2.0
    s = 1.0 + mu * k**2 / 3.0
    w = k / np.sqrt(s)
    params = ModelParams(0.0, mu, "bp")
    cfg = StepperConfig(dt=1e-3, t_end=1.0)
    traj = run(_mode_state(G1, k=k), params, FLAT1, cfg)
    assert traj.termination == "completed"
    x = G1.x[0]
    t = traj.times[-1]
    zeta_exact = np.cos(k * x) * np.cos(w * t)
    v_exact = k * np.sin(k * x) * np.sin(w * t) / (s * w)
    final = traj.states[-1]
    assert np.abs(final[0] - zeta_exact).max() < 1e-10
    assert np.abs(final[1] - v_exact).max() < 1e-10


def test_rk4_convergence_order():
    mu, k = 0.5, 2.0
    w = k / np.sqrt(1.0 + mu * k**2 / 3.0)
    params = ModelParams(0.0, mu, "bp")
    errs = []
    for dt in (2e-2, 1e-2):
        cfg = StepperConfig(dt=dt, t_end=1.0, output_stride=10**9)
        traj = run(_mode_state(G1, k=k), params, FLAT1, cfg)
        zeta_exact = np.cos(k * G1.x[0]) * np.cos(w * traj.times[-1])
        errs.append(np.abs(traj.states[-1][0] - zeta_exact).max())
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - 4) < 0.3


@pytest.mark.parametrize(
    "model,eps,bath",
    [("mbp", 0.0, FLAT1), ("bp", 0.2, BUMP1), ("mbp", 0.2, BUMP1)],
    ids=["mbp-flat", "bp-bump", "mbp-bump"],
)
def test_matches_independent_reference_loop(model, eps, bath):
    """Spectral-coordinate stepping equals nodal RK4 step for step."""
    params = ModelParams(eps, 0.3, model)
    bundle = make_rhs(params, bath)
    state = _mode_state(G1, k=3.0, amp=0.2)
    assert np.array_equal(bundle.encode(state.stack()), G1.rfft(state.stack()))
    cfg = StepperConfig(dt=5e-3, t_end=0.1)
    traj = run(state, params, bath, cfg)
    ref = reference_trajectory(state.stack(), partial(nodal_rhs, bundle), 0.1, 5e-3)
    assert np.abs(traj.states[-1] - ref).max() < 1e-12


# ---------------------------------------------------------------------------
# the exact per-mode propagator of linear flat runs against the stage loop


def _random_state(grid, seed, amp=1.0):
    """O(amp) data on every mode, the unresolved third of the band included."""
    U = amp * np.random.default_rng(seed).standard_normal((1 + grid.d,) + grid.shape)
    return ModelState(grid, U)


def _stage_records(bundle, U0, dt, n_steps, stride):
    """Explicit RK4 stage loop over bundle.fn: (step, W) at each record step."""
    W = bundle.encode(U0)
    out = [(0, W)]
    step = _rk4(dt)
    for s in range(1, n_steps + 1):
        W = step(bundle.fn, W)
        if s % stride == 0 or s == n_steps:
            out.append((s, W))
    return out


@pytest.mark.parametrize("delta", [0.0, 1e-2])
@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_propagator_matches_stage_loop(bath, model, delta):
    g = bath.grid
    params = ModelParams(0.0, 0.3, model, delta)
    state = _random_state(g, seed=5)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, output_stride=250, blowup_threshold=1e6)
    traj = run(state, params, bath, cfg)
    assert traj.termination == "completed" and traj.steps_taken == 1000
    bundle = make_rhs(params, bath)
    ref = _stage_records(bundle, state.stack(), traj.dt, 1000, 250)
    assert traj.n_records == len(ref) == 5
    for got, (_, W) in zip(traj.states, ref):
        assert np.abs(got - bundle.decode(W)).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_propagator_stride_remainder(bath):
    # 1000 steps at stride 7: 142 full strides, then a remainder of 6
    g = bath.grid
    params = ModelParams(0.0, 0.4, "bp")
    modes = (1, 3) if g.d == 1 else ((1, 0), (-2, 3))
    cfg = StepperConfig(
        dt=1e-3, t_end=1.0, output_stride=7, track_modes=modes, blowup_threshold=1e6
    )
    state = _random_state(g, seed=9)
    traj = run(state, params, bath, cfg)
    ref = _stage_records(make_rhs(params, bath), state.stack(), traj.dt, 1000, 7)
    assert traj.steps_taken == 1000
    assert traj.n_records == len(ref) == 144
    assert np.array_equal(traj.times, np.array([s for s, _ in ref]) * traj.dt)
    idx = [(m,) if g.d == 1 else m for m in modes]
    ref_modes = np.array([[W[0][ix] for ix in idx] for _, W in ref])
    assert np.abs(traj.mode_history - ref_modes).max() <= 1e-12 * np.abs(ref_modes).max()
    for got, (_, W) in zip(traj.states, ref):
        assert np.abs(got - g.irfft(W)).max() <= 1e-12 * np.abs(got).max()


@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_propagator_is_the_einsum_of_the_step_power_bit_for_bit(bath, model):
    # a full stride and a remainder, over the stack and over a subset of it,
    # with one smoothing member
    g = bath.grid
    params = [ModelParams(0.0, mu, model, dl) for mu, dl in ((0.4, 1e-2), (0.1, 0.0), (0.0, 0.0))]
    bundle = make_rhs(params, bath)
    dts = np.array([1e-2, 3e-3, 7e-3])
    propagate = _propagator(bundle.blocks, dts)
    eye = np.broadcast_to(np.eye(1 + g.d), bundle.blocks.shape)
    one_step = rk4_step_reference(
        lambda X: bundle.blocks @ X, eye, dts.reshape((-1,) + (1,) * (bundle.blocks.ndim - 1))
    )
    W = g.rfft(np.random.default_rng(43).standard_normal((3, 1 + g.d) + g.shape))
    W[..., 0] = complex(-0.0, 0.0)  # einsum sums from +0.0, so its zero sums are +0.0
    for n, members in ((7, (0, 1, 2)), (6, (0, 1, 2)), (7, (0, 2)), (6, (1,))):
        part = W[list(members)]
        expected = mode_blocks_reference(
            np.linalg.matrix_power(one_step[list(members)], n), part
        )
        for _ in range(2):  # computed, then cached
            got = propagate(part, n, members)
            assert np.array_equal(got, expected) and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", ["sw", "bp", "mbp"])
@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_cached_powers_have_one_nonzero_part_per_entry(bath, model, monkeypatch):
    # R(dt L)^n keeps L's parity: real scalar-scalar and velocity-velocity
    # entries, imaginary couplings, so one complex product rounds each once
    g = bath.grid
    params = [ModelParams(0.0, mu, model, dl) for mu, dl in ((0.4, 1e-2), (0.1, 0.0), (0.0, 0.0))]
    bundle = make_rhs(params, bath)
    propagate = _propagator(bundle.blocks, np.array([1e-2, 3e-3, 7e-3]))
    applied = []
    apply = timeloop.apply_mode_blocks
    monkeypatch.setattr(timeloop, "apply_mode_blocks", lambda P, W: applied.append(P) or apply(P, W))
    W = g.rfft(np.random.default_rng(47).standard_normal((3, 1 + g.d) + g.shape))
    for n, members in ((1, (0, 1, 2)), (7, (0, 1, 2)), (20, (0, 2)), (250, (1,))):
        propagate(W[list(members)], n, members)
    assert len(applied) == 4
    for P in applied:
        assert not np.any((P.real != 0) & (P.imag != 0))
        assert np.any(P.real) and np.any(P.imag)


def test_propagator_over_cfl_blowup_matches_stage_loop():
    # dt*omega = 3.1 on the top kept mode lies past rk4's stability
    # boundary 2.83, so that mode grows from 1e-6 to the threshold
    params = ModelParams(0.0, 0.0, "sw")
    kmax = float(np.sqrt((G1.k2deriv * G1.dealias_mask).max()))
    dt = 3.1 / kmax
    threshold = 10.0
    state = ModelState(G1, 1e-6 * _random_state(G1, seed=13).stack())
    cfg = StepperConfig(dt=dt, t_end=200 * dt, output_stride=3, blowup_threshold=threshold)
    with pytest.warns(CFLWarning):
        traj = run(state, params, FLAT1, cfg)
    assert traj.termination == "blowup"

    bundle = make_rhs(params, FLAT1)
    expected = None
    for s, W in _stage_records(bundle, state.stack(), traj.dt, 200, 3):
        sup = np.abs(bundle.decode(W)).max()
        sup_grad = np.abs(G1.irfft(G1.ik_stack * W)).max()
        if max(sup, sup_grad) > threshold:
            expected = s
            break
    assert expected is not None and 10 < expected < 200
    assert traj.steps_taken == expected
    assert traj.termination_time == expected * traj.dt
    assert traj.times[-1] == expected * traj.dt


def test_linear_flat_run_never_calls_fn(monkeypatch):
    # a linear flat run advances by propagator powers only
    calls = []

    def counting_make_rhs(*args, **kwargs):
        bundle = make_rhs(*args, **kwargs)
        fn = bundle.fn

        def counted(W):
            calls.append(1)
            return fn(W)

        bundle.fn = counted
        return bundle

    monkeypatch.setattr("bplab.timeloop.make_rhs", counting_make_rhs)
    for bath in (FLAT1, FLAT2):
        cfg = StepperConfig(dt=1e-2, t_end=1.0, output_stride=7, blowup_threshold=1e6)
        traj = run(_random_state(bath.grid, seed=1), ModelParams(0.0, 0.2, "mbp"), bath, cfg)
        assert traj.steps_taken == 100
    assert calls == []


def test_nonlinear_bump_run_completes():
    params = ModelParams(0.3, 0.4, "mbp")
    state = _mode_state(G1, k=1.0, amp=0.1)
    cfg = StepperConfig(dt=5e-3, t_end=0.5, output_stride=20)
    traj = run(state, params, BUMP1, cfg)
    assert traj.termination == "completed"
    assert np.isfinite(traj.states[-1]).all()
    assert traj.times[-1] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# recording bookkeeping


def test_record_times_and_modes():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.2, output_stride=5, track_modes=(2, 3))
    traj = run(_mode_state(G1, k=2.0), params, FLAT1, cfg)
    assert traj.n_records == 5  # steps 0, 5, 10, 15, 20
    assert np.allclose(np.diff(traj.times), 5 * traj.dt)
    assert traj.mode_history.shape == (5, 2)
    # tracked amplitudes equal the transform of the recorded state
    spec = G1.rfft(traj.states[-1][0])
    assert traj.mode_history[-1][0] == pytest.approx(spec[2])
    assert traj.mode_history[-1][1] == pytest.approx(spec[3])
    # mode 3 never excited by a linear run from a pure mode-2 state
    assert np.abs(traj.mode_history[:, 1]).max() < 1e-10


@pytest.mark.parametrize(
    "bath,bad",
    [(FLAT1, (1,)), (FLAT1, [2]), (FLAT2, 5), (FLAT2, (1,)), (FLAT2, (1, 2, 3)), (FLAT2, [1])],
    ids=["d1-1-tuple", "d1-1-list", "d2-int", "d2-1-tuple", "d2-triple", "d2-1-list"],
)
def test_tracked_mode_of_the_wrong_shape_is_refused(bath, bad):
    # a d=1 mode is one integer and a d=2 mode a pair; (1, 2, 3) in d=2 was
    # tracked as (1, 2), and the others raised TypeError or IndexError
    cfg = StepperConfig(dt=1e-2, t_end=0.1, track_modes=(bad,))
    state = _mode_state(bath.grid)
    with pytest.raises(ValueError, match=r"mode .* is not (one integer|a pair of integers)"):
        run(state, ModelParams(0.0, 0.4, "bp"), bath, cfg)


def test_final_step_always_recorded():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.13, output_stride=5)
    traj = run(_mode_state(G1), params, FLAT1, cfg)
    assert traj.times[-1] == pytest.approx(0.13)
    assert traj.steps_taken == 13


def test_zero_horizon_records_initial_only():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.0)
    traj = run(_mode_state(G1), params, FLAT1, cfg)
    assert traj.termination == "completed"
    assert traj.n_records == 1
    assert traj.steps_taken == 0


def test_determinism():
    params = ModelParams(0.2, 0.4, "mbp")
    state = _mode_state(G1, amp=0.05)
    cfg = StepperConfig(dt=5e-3, t_end=0.2, output_stride=10)
    a = run(state, params, BUMP1, cfg)
    b = run(state, params, BUMP1, cfg)
    assert np.array_equal(a.states[-1], b.states[-1])
    assert np.array_equal(a.sup_grad_u, b.sup_grad_u)


def test_bad_mode_index_rejected():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.1, track_modes=(99,))
    with pytest.raises(ValueError):
        run(_mode_state(G1), params, FLAT1, cfg)


def test_state_rows_must_match_model():
    params = ModelParams(0.3, 0.0, "burgers")
    cfg = StepperConfig(dt=1e-2, t_end=0.1)
    with pytest.raises(ValueError):
        run(_mode_state(G1), params, FLAT1, cfg)  # has a velocity row


@pytest.mark.parametrize(
    "grid, bath",
    [(Grid(1, 32, 2.0 * np.pi), FLAT1), (G1, build_bathymetry(Grid(1, 64, 4.0 * np.pi), "flat", 0.0))],
    ids=["n", "L"],
)
def test_start_state_off_the_bottoms_grid_is_refused(grid, bath):
    # the stepper would step it on the bottom's grid: zero-padded, or stretched
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.1)
    off = _mode_state(grid, k=1.0, amp=0.05)
    with pytest.raises(ValueError, match="bottom"):
        run(off, params, bath, cfg)
    on = _mode_state(bath.grid, k=1.0, amp=0.05)
    with pytest.raises(ValueError, match="bottom"):
        run([on, off], [params] * 2, bath, [cfg] * 2)
    assert run(on, params, bath, cfg).termination == "completed"


# ---------------------------------------------------------------------------
# terminations


def test_burgers_gradient_blowup():
    grid = Grid(1, 256, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    params = ModelParams(1.0, 0.0, "burgers")
    state = ModelState(grid, np.sin(grid.x[0])[None])
    cfg = StepperConfig(dt=2e-3, t_end=1.5, output_stride=5, blowup_threshold=50.0)
    traj = run(state, params, bath, cfg)
    assert traj.termination == "blowup"
    # the sup of u_x crosses the threshold just before the shock at t = 1
    assert 0.8 < traj.termination_time <= 1.1
    assert traj.sup_grad_u[-1] > 50.0


def test_dry_termination():
    params = ModelParams(0.5, 0.0, "sw")
    state = ModelState(G1, np.stack([np.full(G1.shape, -2.5), np.zeros(G1.shape)]))
    cfg = StepperConfig(dt=1e-2, t_end=0.1)
    traj = run(state, params, FLAT1, cfg)
    assert traj.termination == "dry"
    assert traj.steps_taken == 0
    assert traj.n_records == 1


def test_initial_state_beyond_threshold():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=0.1, blowup_threshold=0.5)
    traj = run(_mode_state(G1, amp=2.0), params, FLAT1, cfg)
    assert traj.termination == "blowup"
    assert traj.termination_time == 0.0
    assert traj.steps_taken == 0


@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_nan_node_reaches_both_monitors(bath):
    # one NaN node in a linear bp run; Python's max(0.0, nan) would log 0.0
    g = bath.grid
    U = np.zeros((1 + g.d,) + g.shape)
    U[0] = np.cos(g.x[0])
    U[(0,) + (3,) * g.d] = np.nan
    traj = run(ModelState(g, U), ModelParams(0.0, 0.4, "bp"), bath, StepperConfig(1e-2, 0.1))
    assert traj.termination == "blowup" and traj.steps_taken == 0
    assert np.isnan(traj.sup_u).all() and np.isnan(traj.sup_grad_u).all()


def test_sup_grad_is_largest_derivative_over_rows_and_directions():
    # a zero-step run records its start once
    rng = np.random.default_rng(8)
    U = rng.standard_normal((3,) + G2.shape)
    W = G2.rfft(U)
    expected = max(np.abs(G2.irfft(ikj * W)).max() for ikj in G2.ik)
    traj = run(ModelState(G2, U), ModelParams(0.0, 0.0, "sw"), FLAT2, StepperConfig(0.1, 0.0))
    assert traj.sup_grad_u.tolist() == [expected]


def test_cfl_warning():
    params = ModelParams(0.0, 0.0, "sw")  # stiffest linear branch
    state = _mode_state(G1)
    with pytest.warns(CFLWarning):
        run(state, params, FLAT1, StepperConfig(dt=0.5, t_end=1.0))
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        run(state, params, FLAT1, StepperConfig(dt=1e-3, t_end=0.01))


def test_step_zero_rhs_only_moves_clock():
    # a rest state is a fixed point of every flow, so one step is a no-op
    params = ModelParams(0.3, 0.2, "bp")
    state = ModelState(G1, np.zeros((2,) + G1.shape))
    traj = run(state, params, BUMP1, StepperConfig(dt=0.25, t_end=0.25))
    assert traj.steps_taken == 1
    assert traj.times[-1] == 0.25
    assert np.array_equal(traj.states[-1], state.stack())


def test_step_composes_to_run():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=2e-2)
    bundle = make_rhs(params, FLAT1)
    s0 = _mode_state(G1)
    steps, W = _stage_records(bundle, s0.stack(), cfg.dt, 2, 1)[-1]
    traj = run(s0, params, FLAT1, cfg)
    assert traj.steps_taken == steps == 2
    assert np.allclose(bundle.decode(W), traj.states[-1], rtol=0.0, atol=1e-14)
    assert abs(steps * cfg.dt - traj.times[-1]) < 1e-14


def test_step_rejects_row_mismatch():
    params = ModelParams(0.1, 0.0, "burgers")
    with pytest.raises(ValueError, match="rows"):
        run(_mode_state(G1), params, FLAT1, StepperConfig(dt=1e-2, t_end=1.0))


def test_pcg_time_loop_conserves_linear_bp_energy():
    g, bath = GP, PCG_BUMP
    params = ModelParams(eps=0.0, mu=0.05, model="bp")
    handles = build_handles(params, bath)
    handle = handles["I_plus_muTb"]
    assert handle.strategy == "pcg"

    # a periodic gaussian hump at rest, on the bump's slope
    r2 = sum(((x - 0.25 * g.L) % g.L - 0.5 * g.L) ** 2 for x in g.x)
    zeta = 0.3 * np.exp(-0.5 * r2 / 9.0)
    state = ModelState(g, np.stack([zeta, np.zeros(g.shape), np.zeros(g.shape)]))
    traj = run(state, params, bath, StepperConfig(dt=0.05, t_end=0.5), handles)
    assert traj.termination == "completed" and traj.steps_taken == 10

    e_bp = np.array([r.E_bp for r in build_records(traj, bath, N=3)])
    assert np.abs(e_bp - e_bp[0]).max() / e_bp[0] <= 1e-6

    rhs = np.random.default_rng(0).standard_normal((2,) + g.shape)
    back = handle.apply_arrays(handle.solve_arrays(rhs))
    assert np.abs(back - rhs).max() / np.abs(rhs).max() <= 1e-9


# ---------------------------------------------------------------------------
# batched runs: every member equals its run alone


def _assert_same_run(got, solo):
    assert np.array_equal(got.times, solo.times)
    assert len(got.states) == len(solo.states)
    for a, b in zip(got.states, solo.states):
        assert np.array_equal(a, b)
    assert np.array_equal(got.sup_u, solo.sup_u, equal_nan=True)
    assert np.array_equal(got.sup_grad_u, solo.sup_grad_u, equal_nan=True)
    if solo.mode_history is None:
        assert got.mode_history is None
    else:
        assert np.array_equal(got.mode_history, solo.mode_history)
    assert got.termination == solo.termination
    assert got.termination_time == solo.termination_time
    assert got.steps_taken == solo.steps_taken
    assert got.dt == solo.dt and got.params == solo.params and got.config == solo.config


def _batch_matches_solo(states, params, bath, configs):
    batch = run(states, params, bath, configs)
    assert isinstance(batch, Batch) and len(batch) == len(states)
    solos = [run(*member, bath, cfg) for member, cfg in zip(zip(states, params), configs)]
    for got, solo in zip(batch, solos):
        _assert_same_run(got, solo)
    assert batch.steps_taken == sum(t.steps_taken for t in solos)
    assert batch.n_records == sum(t.n_records for t in solos)
    return batch


def test_burgers_batch_member_blows_up_first():
    grid = Grid(1, 128, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    state = ModelState(grid, np.sin(grid.x[0])[None])
    eps = (0.4, 0.2, 0.1)
    cfg = StepperConfig(dt=1e-2, t_end=12.0, output_stride=5, blowup_threshold=20.0)
    batch = _batch_matches_solo(
        [state] * 3, [ModelParams(e, 0.0, "burgers") for e in eps], bath, [cfg] * 3
    )
    # shocks at t = 1/eps: the eps = 0.4 member leaves while the others step on
    assert [t.termination for t in batch] == ["blowup"] * 3
    steps = [t.steps_taken for t in batch]
    assert steps[0] < steps[1] < steps[2]


def test_sw_batch_member_goes_dry():
    x = G1.x[0]
    state = ModelState(G1, np.stack([-1.5 * np.cos(x), 5.0 * np.sin(x)]))
    params = [ModelParams(e, 0.0, "sw") for e in (0.2, 0.5, 0.1)]
    cfg = StepperConfig(dt=1e-2, t_end=1.0, output_stride=5)
    batch = _batch_matches_solo([state] * 3, params, FLAT1, [cfg] * 3)
    assert [t.termination for t in batch] == ["completed", "dry", "completed"]
    assert 0 < batch[1].steps_taken < 100
    assert batch[0].steps_taken == batch[2].steps_taken == 100


@pytest.mark.parametrize("bath", [BUMP1, build_bathymetry(G2, "gaussian_bump", 0.4)],
                         ids=["d1", "d2"])
def test_mbp_batch_per_member_mu_and_horizon(bath):
    # longtime's shape: eps = mu per member and horizons of 0.1/eps
    g = bath.grid
    values = (0.2, 0.1, 0.05)
    params = [ModelParams(v, v, "mbp") for v in values]
    states = [_mode_state(g, k=1.0, amp=0.1 * v) for v in values]
    configs = [StepperConfig(dt=2e-2, t_end=0.1 / v, output_stride=4) for v in values]
    batch = _batch_matches_solo(states, params, bath, configs)
    assert [t.steps_taken for t in batch] == [25, 50, 100]


def test_mbp_batch_per_member_delta():
    # mollifier-study's shape: one model, deltas with the plain run among them
    params = [ModelParams(0.2, 0.3, "mbp", d) for d in (1e-2, 1e-3, 0.0)]
    state = _mode_state(G1, k=1.0, amp=0.05)
    config = StepperConfig(dt=5e-3, t_end=0.2, output_stride=7)
    batch = _batch_matches_solo([state] * 3, params, BUMP1, [config] * 3)
    assert all(t.termination == "completed" for t in batch)


@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_linear_flat_batch_per_member_mu(bath):
    # dispersion's shape, with per-member horizons that end off the stride
    g = bath.grid
    modes = (1, 3) if g.d == 1 else ((1, 0), (-2, 3))
    params = [ModelParams(0.0, mu, "bp") for mu in (0.0, 0.1, 0.5)]
    configs = [
        StepperConfig(dt=1e-2, t_end=t, output_stride=7, track_modes=modes)
        for t in (1.0, 0.83, 1.0)
    ]
    states = [_random_state(g, seed=s, amp=1e-3) for s in (1, 2, 3)]
    batch = _batch_matches_solo(states, params, bath, configs)
    assert [t.steps_taken for t in batch] == [100, 83, 100]


@pytest.mark.parametrize("bath", [FLAT1, FLAT2], ids=["d1", "d2"])
def test_linear_flat_batch_advances_in_groups_when_horizons_end_apart(bath, monkeypatch):
    # horizons that end off the stride and apart: members whose next records
    # fall on one step advance as one group, the whole stack while all do
    g = bath.grid
    modes = (1, 3) if g.d == 1 else ((1, 0), (-2, 3))
    params = [ModelParams(0.0, mu, "mbp", dl) for mu, dl in ((0.2, 0.0), (0.1, 1e-2), (0.05, 0.0))]
    configs = [
        StepperConfig(dt=1e-2, t_end=t, output_stride=5, track_modes=modes)
        for t in (0.6, 0.43, 0.57)
    ]
    states = [_random_state(g, seed=s, amp=1e-3) for s in (4, 5, 6)]
    sizes = []
    apply = timeloop.apply_mode_blocks

    def counted(P, W):
        sizes.append(W.shape[0])
        return apply(P, W)

    monkeypatch.setattr(timeloop, "apply_mode_blocks", counted)
    batch = run(states, params, bath, configs)
    # eight full-stack strides to step 40, then steps 43 (member 1 alone) and
    # 45 (the others), 50 and 55, then 57 and 60 as groups of one
    assert sizes[:8] == [3] * 8 and sorted(sizes[8:10]) == [1, 2]
    assert sizes[10:12] == [2, 2] and sizes[12:14] == [1, 1]
    for got, state, p, c in zip(batch, states, params, configs):
        _assert_same_run(got, run(state, p, bath, c))
    assert [t.steps_taken for t in batch] == [60, 43, 57]


def test_nonlinear_batch_member_blows_up_at_a_record():
    # Burgers with tracked modes: the eps = 0.4 member passes the threshold at
    # a record, while the others step on to their own horizons
    grid = Grid(1, 128, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    state = ModelState(grid, np.sin(grid.x[0])[None])
    params = [ModelParams(e, 0.0, "burgers") for e in (0.1, 0.4, 0.2)]
    configs = [
        StepperConfig(dt=1e-2, t_end=t, output_stride=6, blowup_threshold=20.0, track_modes=(1, 2))
        for t in (2.0, 4.0, 1.57)
    ]
    batch = _batch_matches_solo([state] * 3, params, bath, configs)
    assert [t.termination for t in batch] == ["completed", "blowup", "completed"]
    assert batch[1].sup_grad_u[-1] > 20.0 and batch[1].steps_taken % 6 == 0
    assert batch[1].termination_time < 4.0 and batch[1].mode_history.shape == (batch[1].n_records, 2)


@pytest.mark.parametrize("bath", [FLAT1, BUMP1], ids=["linear-flat", "nonlinear-bump"])
def test_recorded_states_are_each_members_own(bath):
    g = bath.grid
    eps = 0.0 if bath.is_flat else 0.1
    params = [ModelParams(eps, mu, "bp") for mu in (0.2, 0.3)]
    configs = [StepperConfig(dt=1e-2, t_end=0.2, output_stride=5)] * 2
    states = [_random_state(g, seed=s, amp=1e-2) for s in (7, 8)]
    batch = run(states, params, bath, configs)
    before = [[U.copy() for U in t.states] for t in batch]
    batch[0].states[2][...] = 7.0
    assert (batch[0].states[2] == 7.0).all()
    for t, saved in zip(batch, before):
        for i, (U, V) in enumerate(zip(t.states, saved)):
            if not (t is batch[0] and i == 2):
                assert np.array_equal(U, V)


def _burgers_overflow_run(eps, stride, t_end=2.0):
    # dt = 0.1 at n = 512: the eps = 0.4 profile passes threshold 100 at step
    # 9 and overflows in step 12, between records at stride 20
    grid = Grid(1, 512, 2.0 * np.pi)
    bath = build_bathymetry(grid, "flat", 0.0)
    state = ModelState(grid, np.sin(grid.x[0])[None])
    params = [ModelParams(e, 0.0, "burgers") for e in eps]
    config = StepperConfig(dt=0.1, t_end=t_end, output_stride=stride, blowup_threshold=100.0)
    return [state] * len(eps), params, bath, [config] * len(eps)


def test_blowup_between_records_ends_at_its_step():
    states, params, bath, configs = _burgers_overflow_run([0.4], stride=20)
    with pytest.warns(CFLWarning) as caught:
        traj = run(states[0], params[0], bath, configs[0])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert traj.termination == "blowup" and traj.termination_time <= 1.2
    assert traj.steps_taken <= 12 and np.isfinite(traj.states[-1]).all()
    assert np.isfinite(traj.sup_u).all() and np.isfinite(traj.sup_grad_u).all()
    assert traj.times[-1] == traj.steps_taken * traj.dt
    # at stride 1 the threshold catches it at a record first
    states, params, bath, configs = _burgers_overflow_run([0.4], stride=1)
    with pytest.warns(CFLWarning):
        first = run(states[0], params[0], bath, configs[0])
    assert first.termination_time < traj.termination_time


def test_batch_member_overflowing_between_records_leaves_alone():
    # the others step on, bit for bit as alone, after the step is retaken
    states, params, bath, configs = _burgers_overflow_run([0.1, 0.4, 0.05], stride=20)
    with warnings.catch_warnings(), pytest.warns(CFLWarning):
        warnings.simplefilter("error", RuntimeWarning)
        batch = _batch_matches_solo(states, params, bath, configs)
    assert [t.termination for t in batch] == ["completed", "blowup", "completed"]
    assert batch[0].steps_taken == batch[2].steps_taken == 20
    assert batch[1].steps_taken <= 12


def test_stack_step_failing_where_no_member_fails_alone_raises(monkeypatch):
    # a stack's step that overflows while every member's own step is finite
    # is a fault of the batch arithmetic, not a blowup of any member
    make = timeloop.make_rhs

    def stack_only_overflow(*args, **kwargs):
        bundle = make(*args, **kwargs)

        def fn(W, members=None):
            if members is None or len(members) > 1:
                np.float64(1e308) * 10.0
            return bundle.fn(W, members=members)

        return dataclasses.replace(bundle, fn=fn)

    monkeypatch.setattr(timeloop, "make_rhs", stack_only_overflow)
    state = ModelState(G1, np.sin(G1.x[0])[None])
    params = [ModelParams(e, 0.0, "burgers") for e in (0.1, 0.2)]
    cfg = StepperConfig(dt=1e-2, t_end=0.1, output_stride=5)
    with pytest.raises(FloatingPointError):
        run([state] * 2, params, FLAT1, [cfg] * 2)


def test_batch_members_must_share_the_stepper_and_the_flow():
    state = _mode_state(G1, amp=0.05)
    cfg = StepperConfig(dt=1e-2, t_end=0.1)
    bp = ModelParams(0.1, 0.1, "bp")
    with pytest.raises(ValueError):
        run([state] * 2, [bp] * 2, BUMP1, [cfg, StepperConfig(dt=1e-2, t_end=0.1, output_stride=2)])
    with pytest.raises(ValueError):
        run([state] * 2, [bp, ModelParams(0.0, 0.1, "bp")], BUMP1, [cfg] * 2)
    with pytest.raises(ValueError):
        run([state] * 2, [bp, ModelParams(0.1, 0.1, "sw")], BUMP1, [cfg] * 2)


def test_batched_run_under_the_benchmark_run_meter():
    # the benchmark wraps run by identity and reads steps_taken and
    # n_records off what it returns: a batch reports its members' sums
    import importlib.util
    from pathlib import Path

    import bplab

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    params = [ModelParams(e, 0.0, "burgers") for e in (0.5, 0.25)]
    state = ModelState(G1, np.sin(G1.x[0])[None])
    configs = [StepperConfig(dt=2e-2, t_end=t, output_stride=3) for t in (0.5, 1.0)]
    patches, meter = tracer.Patches(), tracer.RunMeter()
    try:
        meter.install(patches, bplab.timeloop)
        batch = bplab.timeloop.run([state] * 2, params, FLAT1, configs)
    finally:
        patches.restore()
    assert bplab.timeloop.run is run
    ((seconds, steps, records),) = meter.take()
    assert seconds > 0.0
    assert steps == batch.steps_taken == 25 + 50
    assert records == batch.n_records == sum(t.n_records for t in batch) == (9 + 1) + (17 + 1)


def _pcg_hump(amp: float, outflow: float = 0.0, centre: float = 0.25):
    """A gaussian hump of the primary variable centred at centre*L on each
    axis (on PCG_BUMP's slope by default) with velocity outflow * (x - c) * hump."""
    c = centre * GP.L
    offsets = [(x - c + 0.5 * GP.L) % GP.L - 0.5 * GP.L for x in GP.x]
    hump = np.exp(-0.5 * sum(r**2 for r in offsets) / 9.0)
    return ModelState(GP, np.stack([amp * hump] + [outflow * r * hump for r in offsets]))


def test_pcg_mbp_batch_per_member_mu_and_horizon():
    # warm-started CG solves: each member keeps its own history
    values = (0.1, 0.05, 0.2)
    params = [ModelParams(v, v, "mbp") for v in values]
    states = [_pcg_hump(2.0 * v) for v in values]
    configs = [
        StepperConfig(dt=0.05, t_end=t, output_stride=3) for t in (0.2, 0.4, 0.3)
    ]
    batch = _batch_matches_solo(states, params, PCG_BUMP, configs)
    assert build_handles(params[0], PCG_BUMP)["hb_B"].strategy == "pcg"
    assert [t.steps_taken for t in batch] == [4, 8, 6]


@pytest.mark.parametrize("model", ["bp", "mbp"])
def test_pcg_batch_mixing_smoothing_and_plain_members(model):
    # the plain member solves for its correction to the hydrostatic velocity
    # and keeps corrections in its CG history, the smoothing members solve
    # and keep whole velocities: each as in its run alone
    params = [ModelParams(0.1, 0.1, model, delta) for delta in (1e-2, 0.0, 1e-3)]
    configs = [StepperConfig(dt=0.05, t_end=t, output_stride=3) for t in (0.3, 0.4, 0.2)]
    state = _pcg_hump(0.2, outflow=0.3)
    batch = _batch_matches_solo([state] * 3, params, PCG_BUMP, configs)
    (handle,) = build_handles(params[0], PCG_BUMP).values()
    assert handle.strategy == "pcg"
    assert [t.termination for t in batch] == ["completed"] * 3
    assert [t.steps_taken for t in batch] == [6, 8, 4]


def test_pcg_bp_batch_member_goes_dry():
    # a trough over the bump's top, emptied by its outflow: the eps = 0.45
    # member goes dry, and the others retake that step from the CG history
    # they held when it began
    state = _pcg_hump(-1.0, outflow=4.0, centre=0.5)
    params = [ModelParams(e, 0.1, "bp") for e in (0.2, 0.45, 0.3)]
    cfg = StepperConfig(dt=0.02, t_end=0.6, output_stride=5)
    batch = _batch_matches_solo([state] * 3, params, PCG_BUMP, [cfg] * 3)
    assert [t.termination for t in batch] == ["completed", "dry", "completed"]
    assert 0 < batch[1].steps_taken < 30
    assert batch[0].steps_taken == batch[2].steps_taken == 30


def test_pcg_bp_batch_member_stalls(monkeypatch):
    # the mu = 0.1 member's velocity solve stalls once its right-hand side
    # grows past a norm, a property of its state, so its retaken step stalls
    # again: it ends solver_failure there, and the others step on from the
    # CG history they held when that step began
    solve = OperatorHandle.solve_weighted_arrays

    def stalling(self, y, *args, **kwargs):
        if self.mu == 0.1 and np.linalg.norm(y) > 0.009:
            raise SolverDivergenceError("stalled")
        return solve(self, y, *args, **kwargs)

    monkeypatch.setattr(OperatorHandle, "solve_weighted_arrays", stalling)
    state = _pcg_hump(0.3, outflow=0.5)
    params = [ModelParams(0.1, mu, "bp") for mu in (0.05, 0.1, 0.2)]
    cfg = StepperConfig(dt=0.05, t_end=0.5, output_stride=3)
    batch = _batch_matches_solo([state] * 3, params, PCG_BUMP, [cfg] * 3)
    assert build_handles(params[1], PCG_BUMP)["I_plus_muTb"].strategy == "pcg"
    assert [t.termination for t in batch] == ["completed", "solver_failure", "completed"]
    assert 0 < batch[1].steps_taken < 10
    assert batch[1].termination_time == (batch[1].steps_taken + 1) * batch[1].dt
    assert batch[0].steps_taken == batch[2].steps_taken == 10


def test_pcg_flow_outside_a_run_solves_cold():
    # only run enters members into the flow's history: a flow called
    # directly keeps nothing between calls
    bundle = make_rhs(ModelParams(eps=0.05, mu=0.05, model="mbp"), PCG_BUMP)
    W = bundle.encode(_pcg_hump(0.3).stack())
    first = bundle.fn(W)
    assert np.array_equal(bundle.fn(W), first)
    assert bundle.history == {}


def _watch_split_solves(monkeypatch, params, handle, count=False):
    """Record every velocity solve of a one-member run over PCG_BUMP with
    what it solves whole: (V0, y, r, u, image, ref, prior pairs, applies).
    The member solves the correction W u = r = y - W V0 and takes x = V0 + u;
    (V0, y) come from the oracle at the stage the flow was called at. With
    count, applies lists (p, W p) of each apply inside the solve."""
    stage = []
    make = timeloop.make_rhs

    def watched_make_rhs(*args, **kwargs):
        bundle = make(*args, **kwargs)
        fn = bundle.fn

        def watched_fn(W, members=None):
            stage[:] = [W[0].copy()]
            return fn(W, members)

        bundle.fn = watched_fn
        return bundle

    solve, apply_w = handle.solve_weighted_arrays, handle.apply_weighted_arrays
    seen, applies = [], []

    def counted(V):
        AV = apply_w(V)
        applies.append((V.copy(), AV))  # CG updates its direction in place
        return AV

    def watched(r, prior=None, ref=None):
        applies.clear()
        u, image = solve(r, prior, ref=ref)
        V0, y = velocity_rhs_reference(params.model, params.eps, params.mu, PCG_BUMP, stage[0])
        seen.append((V0, y, r, u, image, ref, len(prior), list(applies)))
        return u, image

    monkeypatch.setattr(timeloop, "make_rhs", watched_make_rhs)
    if count:
        handle.apply_weighted_arrays = counted
    handle.solve_weighted_arrays = watched
    return seen


def test_pcg_warm_started_solves_meet_the_round_trip_bound(monkeypatch):
    # every warm-started solve of a run meets the benchmark's round-trip
    # residual |y - W x| / |y| <= 1e-9 on the whole velocity x = V0 + u,
    # measured against a true apply
    params = ModelParams(eps=0.05, mu=0.05, model="mbp")
    handles = build_handles(params, PCG_BUMP)
    handle = handles["hb_B"]
    apply_w = handle.apply_weighted_arrays
    seen = _watch_split_solves(monkeypatch, params, handle)
    traj = run(_pcg_hump(0.3), params, PCG_BUMP, StepperConfig(dt=0.05, t_end=0.5), handles)
    assert traj.termination == "completed" and traj.steps_taken == 10
    assert len(seen) == 40
    assert [s[6] for s in seen[:5]] == [0, 1, 2, 3, 4]
    warm = [(V0, y, u) for V0, y, _, u, _, _, n, _ in seen if n]
    assert len(warm) == 39
    worst = max(np.linalg.norm(y - apply_w(V0 + u)) / np.linalg.norm(y) for V0, y, u in warm)
    assert worst <= 1e-9


@pytest.mark.parametrize("model,kind", [("bp", "I_plus_muTb"), ("mbp", "hb_B")])
def test_pcg_run_keeps_images_and_applies_only_in_cg_iterations(monkeypatch, model, kind):
    # the history keeps each correction's image W u, so a warm start takes
    # its residual from the images: over a short run they stay within
    # rounding of a true apply, the whole velocity x = V0 + u meets CG_TOL
    # on y, as a solve of y itself does, and every apply inside a solve is
    # a CG iteration
    params = ModelParams(eps=0.05, mu=0.05, model=model)
    handles = build_handles(params, PCG_BUMP)
    handle = handles[kind]
    assert handle.strategy == "pcg"
    apply_w = handle.apply_weighted_arrays
    seen = _watch_split_solves(monkeypatch, params, handle, count=True)
    traj = run(_pcg_hump(0.3), params, PCG_BUMP, StepperConfig(dt=0.05, t_end=0.5), handles)
    assert traj.termination == "completed" and len(seen) == 40
    assert sum(1 for s in seen if s[6]) == 39
    for V0, y, r, u, image, ref, n, directions in seen:
        norm_y = np.linalg.norm(y)
        assert np.linalg.norm(apply_w(u) - image) <= 1e-2 * CG_TOL * norm_y
        assert np.linalg.norm(y - apply_w(V0 + u)) <= 1.01 * CG_TOL * norm_y
        # CG's directions are W-conjugate; an apply to the start u0 would not be
        for i, (p, Ap) in enumerate(directions):
            for q, Aq in directions[:i]:
                assert abs(np.vdot(p, Aq)) <= 1e-6 * np.sqrt(np.vdot(p, Ap) * np.vdot(q, Aq))


def test_pcg_images_stay_a_fraction_of_the_tolerance_over_a_long_run(monkeypatch):
    # a warm start combines past images with coefficients that grow as the
    # past corrections become dependent, and each image inherits its
    # start's errors; dropping directions below CG_HISTORY_DROP of their
    # A-norm^2 bounds them to a fraction of the tolerance on y over 150 steps
    params = ModelParams(eps=0.05, mu=0.05, model="mbp")
    handles = build_handles(params, PCG_BUMP)
    handle = handles["hb_B"]
    apply_w = handle.apply_weighted_arrays
    seen = _watch_split_solves(monkeypatch, params, handle)
    cfg = StepperConfig(dt=0.025, t_end=3.75, output_stride=150)
    traj = run(_pcg_hump(0.3), params, PCG_BUMP, cfg, handles)
    assert traj.termination == "completed" and traj.steps_taken == 150 and len(seen) == 600
    worst = max(
        np.linalg.norm(apply_w(u) - image) / np.linalg.norm(y)
        for _, y, _, u, image, *_ in seen[-40:]
    )
    assert worst <= 0.2 * CG_TOL


def test_pcg_flat_surface_under_a_moving_velocity_completes(monkeypatch):
    # grad zeta = 0 at the start, so the mbp stopping bound is 0 / 0 there:
    # the member falls back to the exact |y|, which is |r| while V0 = 0, and
    # its solves neither stall nor miss CG_TOL on y
    params = ModelParams(eps=0.1, mu=0.05, model="mbp")
    handles = build_handles(params, PCG_BUMP)
    apply_w = handles["hb_B"].apply_weighted_arrays
    seen = _watch_split_solves(monkeypatch, params, handles["hb_B"], count=True)
    cfg = StepperConfig(dt=0.05, t_end=0.5)
    traj = run(_pcg_hump(0.0, outflow=0.5), params, PCG_BUMP, cfg, handles)
    assert traj.termination == "completed" and traj.steps_taken == 10 and len(seen) == 40
    V0, y, r, _, _, ref, *_ = seen[0]
    assert not V0.any() and np.abs(y - r).max() <= 1e-12 * np.abs(y).max()
    assert ref == pytest.approx(np.linalg.norm(r), rel=1e-12)
    for V0, y, r, u, image, ref, n, applies in seen:
        norm_y = np.linalg.norm(y)
        # at most test_operators' budget for a cold hb_B solve on this bump
        assert ref <= norm_y * (1.0 + 1e-12) and len(applies) <= 11
        assert np.linalg.norm(y - apply_w(V0 + u)) <= 1.01 * CG_TOL * norm_y


@pytest.mark.parametrize("model,kind", [("bp", "I_plus_muTb"), ("mbp", "hb_B")])
def test_pcg_warm_solves_average_at_most_one_and_a_half_applies(model, kind):
    # the warm start predicts the correction to the hydrostatic velocity
    # far better than the whole velocity: 10-step runs over the benchmark's
    # bump make 1.15 (bp) and 1.28 (mbp) applies per warm solve, where
    # solving for the whole velocity made 1.97 for both
    params = ModelParams(eps=0.05, mu=0.05, model=model)
    handles = build_handles(params, PCG_BUMP)
    handle = handles[kind]
    solve, apply_w = handle.solve_weighted_arrays, handle.apply_weighted_arrays
    count, warm = [0], []

    def counted(V):
        count[0] += 1
        return apply_w(V)

    def watched(rhs, prior=None, **kwargs):
        count[0] = 0
        out = solve(rhs, prior, **kwargs)
        if prior:
            warm.append(count[0])
        return out

    handle.apply_weighted_arrays = counted
    handle.solve_weighted_arrays = watched
    traj = run(_pcg_hump(0.3), params, PCG_BUMP, StepperConfig(dt=0.05, t_end=0.5), handles)
    assert traj.termination == "completed" and len(warm) == 39
    assert np.mean(warm) <= 1.5


def _over_cfl_sw(dt_omega: float, stride: int):
    """A linear flat sw run over FLAT1 at dt*omega on the top kept mode, from
    a random start, for one stride of steps at blow-up threshold 1e300."""
    kmax = float(np.sqrt((G1.k2deriv * G1.dealias_mask).max()))
    dt = dt_omega / kmax
    cfg = StepperConfig(dt=dt, t_end=stride * dt, output_stride=stride, blowup_threshold=1e300)
    return _random_state(G1, seed=13), ModelParams(0.0, 0.0, "sw"), cfg


def test_propagator_power_overflowing_ends_at_the_failing_step():
    # dt*omega = 3.1 lies past RK4's stability limit, so R(dt L)^5000 is not
    # finite: the stride advances one step at a time and the run ends as
    # blowup where its state overflows, its last record finite, without a
    # RuntimeWarning from the power
    state, params, cfg = _over_cfl_sw(3.1, 5000)
    with warnings.catch_warnings(), pytest.warns(CFLWarning):
        warnings.simplefilter("error", RuntimeWarning)
        traj = run(state, params, FLAT1, cfg)
    assert traj.termination == "blowup"
    assert 0 < traj.steps_taken < 5000
    # the last finite state is recorded, and it passes the threshold there
    assert traj.termination_time == traj.times[-1] == traj.steps_taken * traj.dt
    assert np.isfinite(traj.sup_u).all() and np.isfinite(traj.sup_grad_u).all()
    assert np.isfinite(traj.states[-1]).all() and traj.sup_u[-1] > 1e300
    # the run ends at the failing step, not before it: the next RK4 step
    # from the last record overflows
    bundle = make_rhs(params, FLAT1)
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        _rk4(traj.dt)(bundle.fn, bundle.encode(traj.states[-1]))


def test_propagator_overflowing_member_leaves_the_batch_alone():
    # a stable member shares the stride with the overflowing one: each is
    # its run alone, bit for bit
    runs = [_over_cfl_sw(v, 5000) for v in (3.1, 1.0, 3.2)]
    states, params, configs = (list(part) for part in zip(*runs))
    with warnings.catch_warnings(), pytest.warns(CFLWarning):
        warnings.simplefilter("error", RuntimeWarning)
        batch = _batch_matches_solo(states, params, FLAT1, configs)
    assert [t.termination for t in batch] == ["blowup", "completed", "blowup"]
    assert batch[1].steps_taken == 5000
    assert batch[2].steps_taken < batch[0].steps_taken < 5000


def _overflowing_strides_sw(dt_omega: float = 2.84):
    """A linear flat sw run over FLAT1 whose mode 21 steps at dt*omega just
    past RK4's stability limit: each stride's power R(dt L)^2000 is finite,
    but the state grows across strides until it overflows, at blow-up
    threshold inf."""
    x = G1.x[0]
    zeta = 1e-3 * np.cos(21 * x) + 1e-3 * np.cos(x)
    state = ModelState(G1, np.stack([zeta, np.zeros(G1.shape)]))
    dt = dt_omega / 21
    cfg = StepperConfig(dt=dt, t_end=200_000 * dt, output_stride=2000, blowup_threshold=np.inf)
    return state, ModelParams(0.0, 0.0, "sw"), cfg


def test_propagator_state_overflowing_across_strides_ends_at_the_failing_step():
    # the stride's product is not finite though its power is: the stride is
    # retaken one step at a time, and the run ends at the step that overflows
    state, params, cfg = _overflowing_strides_sw()
    with warnings.catch_warnings(), pytest.warns(CFLWarning):
        warnings.simplefilter("error", RuntimeWarning)
        traj = run(state, params, FLAT1, cfg)
    assert traj.termination == "blowup"
    assert 0 < traj.steps_taken < 200_000 and traj.steps_taken % cfg.output_stride
    # its last finite state is recorded; it ends in the step after it
    assert traj.times[-1] == traj.steps_taken * traj.dt
    assert traj.termination_time == (traj.steps_taken + 1) * traj.dt
    assert np.isfinite(traj.sup_u).all() and np.isfinite(traj.sup_grad_u).all()
    assert np.isfinite(traj.states[-1]).all()
    bundle = make_rhs(params, FLAT1)
    with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
        _rk4(traj.dt)(bundle.fn, bundle.encode(traj.states[-1]))


def test_propagator_state_overflowing_across_strides_leaves_the_batch_alone():
    runs = [_overflowing_strides_sw(v) for v in (2.84, 1.0, 2.9)]
    states, params, configs = (list(part) for part in zip(*runs))
    configs[1] = dataclasses.replace(configs[1], t_end=20_000 * configs[1].dt)
    with warnings.catch_warnings(), pytest.warns(CFLWarning):
        warnings.simplefilter("error", RuntimeWarning)
        batch = _batch_matches_solo(states, params, FLAT1, configs)
    assert [t.termination for t in batch] == ["blowup", "completed", "blowup"]
    assert batch[1].steps_taken == 20_000
    assert all(t.steps_taken % 2000 and np.isfinite(t.states[-1]).all() for t in batch[::2])
