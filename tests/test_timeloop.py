"""Stepper accuracy, recording bookkeeping, and failure terminations."""

import numpy as np
import pytest

from bplab.bathymetry import build_bathymetry
from bplab.diagnostics import build_records
from bplab.errors import CFLWarning
from bplab.models import ModelParams, ModelState, build_handles, make_rhs
from bplab.spectral import Grid
from bplab.timeloop import CFL_LIMITS, SCHEMES, StepperConfig, run, step
from bplab.verification import reference_trajectory

G1 = Grid(1, 64, 2.0 * np.pi)
FLAT1 = build_bathymetry(G1, "flat", 0.0)
BUMP1 = build_bathymetry(G1, "gaussian_bump", 0.4)


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
        StepperConfig(dt=1e-2, t_end=1.0, scheme="euler")
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=1.0, output_stride=0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=1.0, blowup_threshold=0.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-2, t_end=1.0, delta=-1e-4)


def test_schemes_and_limits_agree():
    assert set(SCHEMES) == set(CFL_LIMITS)


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


@pytest.mark.parametrize("scheme,order", [("rk4", 4), ("rk2", 2)])
def test_scheme_convergence_order(scheme, order):
    mu, k = 0.5, 2.0
    w = k / np.sqrt(1.0 + mu * k**2 / 3.0)
    params = ModelParams(0.0, mu, "bp")
    errs = []
    for dt in (2e-2, 1e-2):
        cfg = StepperConfig(dt=dt, t_end=1.0, scheme=scheme, output_stride=10**9)
        traj = run(_mode_state(G1, k=k), params, FLAT1, cfg)
        zeta_exact = np.cos(k * G1.x[0]) * np.cos(w * traj.times[-1])
        errs.append(np.abs(traj.states[-1][0] - zeta_exact).max())
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - order) < 0.3


def test_matches_independent_reference_loop():
    """Spectral-coordinate stepping equals nodal RK4 step for step."""
    params = ModelParams(0.0, 0.3, "mbp")
    bundle = make_rhs(params, FLAT1)
    assert bundle.spectral_state
    state = _mode_state(G1, k=3.0, amp=0.2)
    cfg = StepperConfig(dt=5e-3, t_end=0.1)
    traj = run(state, params, FLAT1, cfg)
    ref = reference_trajectory(state.stack(), bundle.nodal_rhs, 0.1, 5e-3)
    assert np.abs(traj.states[-1] - ref).max() < 1e-12


def test_nonlinear_bump_run_completes():
    params = ModelParams(0.3, 0.4, "mbp")
    state = _mode_state(G1, k=1.0, amp=0.1)
    cfg = StepperConfig(dt=5e-3, t_end=0.5, output_stride=20)
    traj = run(state, params, BUMP1, cfg)
    assert traj.termination == "completed"
    assert np.isfinite(traj.final_state.stack()).all()
    assert traj.times[-1] == pytest.approx(0.5)


def test_rescaled_run_matches_physical():
    """Slow-time stepping retraces the physical trajectory exactly."""
    eps = 0.4
    state = _mode_state(G1, k=1.0, amp=0.1)
    phys = run(
        state,
        ModelParams(eps, 0.5, "mbp"),
        BUMP1,
        StepperConfig(dt=1e-2, t_end=0.5, output_stride=10),
    )
    resc = run(
        state,
        ModelParams(eps, 0.5, "mbp", rescaled_time=True),
        BUMP1,
        StepperConfig(dt=eps * 1e-2, t_end=eps * 0.5, output_stride=10),
    )
    assert phys.n_records == resc.n_records
    assert np.abs(phys.states[-1] - resc.states[-1]).max() < 1e-11
    assert np.allclose(phys.times, resc.times / eps)


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
    bundle = make_rhs(params, BUMP1)
    state = ModelState(G1, np.zeros((2,) + G1.shape))
    out = step(state, bundle, StepperConfig(dt=0.25, t_end=1.0))
    assert out.time == 0.25
    assert np.array_equal(out.stack(), state.stack())


def test_step_composes_to_run():
    params = ModelParams(0.0, 0.4, "bp")
    cfg = StepperConfig(dt=1e-2, t_end=2e-2)
    bundle = make_rhs(params, FLAT1)
    s0 = _mode_state(G1)
    s1 = step(step(s0, bundle, cfg), bundle, cfg)
    traj = run(s0, params, FLAT1, cfg)
    assert traj.steps_taken == 2
    assert np.allclose(s1.stack(), traj.states[-1], rtol=0.0, atol=1e-14)
    assert abs(s1.time - traj.times[-1]) < 1e-14


def test_step_rejects_row_mismatch():
    params = ModelParams(0.1, 0.0, "burgers")
    bundle = make_rhs(params, FLAT1)
    with pytest.raises(ValueError):
        step(_mode_state(G1), bundle, StepperConfig(dt=1e-2, t_end=1.0))


def test_pcg_time_loop_conserves_linear_bp_energy():
    # d=2 n=32 over a bump has 2048 velocity unknowns, above the dense
    # limit, so every velocity solve of the run goes through CG
    g = Grid(d=2, n=32, L=8.0 * np.pi, gamma=0.8)
    bath = build_bathymetry(g, "gaussian_bump", 0.5)
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
