"""Acceptance gate: the nine checks a release of this laboratory must pass.

Each test prints one PASS/FAIL line with the measured numbers next to the
budget it is graded against. The six preset experiments are executed twice
into separate output roots by a module fixture; the second pass exists for
the determinism check, and wall-clock budgets are graded on the first.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from bplab.bathymetry import (
    build_bathymetry,
    q_positivity_factor,
    q_to_zeta_arr,
    zeta_to_q_arr,
)
from bplab.diagnostics import build_records
from bplab.models import ModelParams, ModelState
from bplab.scenarios import TIMING_KEYS, load_config, run_scenario
from bplab.spectral import Grid
from bplab.timeloop import StepperConfig, run

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

PRESETS = (
    "dispersion",
    "consistency",
    "longtime",
    "burgers",
    "operator_audit",
    "mollifier_study",
)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """Run every preset twice; map name -> (result1, elapsed1_s, result2)."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name in PRESETS:
        cfg_path = CONFIG_DIR / f"{name}.yaml"
        runs = []
        for attempt in (1, 2):
            cfg = load_config(cfg_path, out=str(root / f"{name}{attempt}"))
            t0 = time.perf_counter()
            res = run_scenario(cfg, jobs=3)
            runs.append((res, time.perf_counter() - t0))
        out[name] = (runs[0][0], runs[0][1], runs[1][0])
    return out


def test_a1_dispersion_accuracy(lab):
    result, elapsed, _ = lab["dispersion"]
    cfg = load_config(CONFIG_DIR / "dispersion.yaml")
    assert cfg.grid.d == 1 and cfg.grid.n == 256
    assert cfg.stepper.dt == 1e-3
    assert cfg.sweep["mu"] == (0.0, 0.1, 0.5)
    assert cfg.stepper.track_modes == (1, 2, 3)
    assert cfg.params.model == "bp" and cfg.params.eps == 0.0
    assert cfg.profile == "flat"

    rows = result.summary["tables"]["dispersion"]
    assert len(rows) == 9
    worst = 0.0
    for row in rows:
        k, mu = row["mode"], row["mu"]
        omega = abs(k) / np.sqrt(1.0 + mu * k * k / 3.0)
        assert abs(row["omega_expected"] - omega) < 1e-12
        worst = max(worst, abs(row["omega_measured"] - omega) / omega)
    ok = worst <= 1e-3 and elapsed <= 10.0 and result.verdicts["dispersion_rel_err"]
    _report(
        "a1 dispersion",
        ok,
        f"max rel err {worst:.3e} (tol 1e-3), {elapsed:.1f} s (budget 10 s)",
    )


def test_a2_operator_audit(lab):
    result, elapsed, _ = lab["operator_audit"]
    rows = result.summary["tables"]["operator_audit"]
    bump = [r for r in rows if r["beta"] == 0.5]
    cases = {r["case"] for r in bump}
    assert any("d1_n32" in c for c in cases) and any("d2_n16" in c for c in cases)
    assert {r["kind"] for r in bump} == {"I_plus_muTb", "hb_B", "hb_A"}

    sym = max(r["symmetry_residual"] for r in bump)
    solve = max(r["solve_residual"] for r in bump)
    dense = max(r["dense_mismatch"] for r in bump)
    quot = min(
        r["min_quotient"] for r in bump if r["kind"] in ("I_plus_muTb", "hb_B")
    )
    ok = (
        sym <= 1e-10
        and quot > 0.0
        and solve <= 1e-9
        and dense <= 1e-12
        and elapsed <= 30.0
        and result.passed
    )
    _report(
        "a2 operator audit",
        ok,
        f"symmetry {sym:.1e} (1e-10), min quotient {quot:.3e} (>0), "
        f"solve {solve:.1e} (1e-9), dense {dense:.1e} (1e-12), "
        f"{elapsed:.1f} s (budget 30 s)",
    )


def test_a3_q_transform_round_trip():
    grid = Grid(1, 64, 2.0 * np.pi)
    bath = build_bathymetry(grid, "gaussian_bump", 0.5)
    eps = 0.1
    rng = np.random.default_rng(20260816)
    k = np.fft.rfftfreq(grid.n, d=1.0 / grid.n)
    worst_zeta = worst_q = worst_id = 0.0
    q_positive = True
    for _ in range(100):
        spec = rng.standard_normal(k.size) * (k <= 8)
        zeta = np.fft.irfft(spec, n=grid.n)
        zeta *= rng.uniform(0.1, 3.5) / max(1e-30, np.abs(zeta).max())
        q = zeta_to_q_arr(zeta, eps, bath)
        back = q_to_zeta_arr(q, eps, bath)
        worst_zeta = max(
            worst_zeta, np.abs(back - zeta).max() / np.abs(zeta).max()
        )

        factor = q_positivity_factor(zeta, eps, bath)
        q_positive = q_positive and bool(factor.min() > 0.0)
        worst_id = max(
            worst_id, np.abs(factor * zeta - q).max() / max(np.abs(q).max(), 1e-30)
        )

        spec2 = rng.standard_normal(k.size) * (k <= 8)
        q0 = np.fft.irfft(spec2, n=grid.n)
        q0 *= rng.uniform(0.1, 3.5) / max(1e-30, np.abs(q0).max())
        back_q = zeta_to_q_arr(q_to_zeta_arr(q0, eps, bath), eps, bath)
        worst_q = max(worst_q, np.abs(back_q - q0).max() / np.abs(q0).max())

    ok = worst_zeta <= 1e-12 and worst_q <= 1e-12 and worst_id <= 1e-12 and q_positive
    _report(
        "a3 q-transform",
        ok,
        f"round trips {worst_zeta:.1e}/{worst_q:.1e}, factor identity "
        f"{worst_id:.1e} (all 1e-12), factor positive: {q_positive}",
    )


def test_a4_model_consistency_orders(lab):
    result, elapsed, _ = lab["consistency"]
    cfg = load_config(CONFIG_DIR / "consistency.yaml")
    assert cfg.sweep["eps_mu"] == (0.08, 0.04, 0.02)
    assert cfg.grid.d == 1 and cfg.grid.n == 256
    assert cfg.beta == 0.5 and cfg.initial.shape == "gaussian"
    assert cfg.stepper.t_end == 1.0

    orders = result.summary["tables"]["orders"]
    ok = (
        orders["bp_vs_sw"] is not None
        and orders["bp_vs_sw"] >= 0.9
        and orders["bp_vs_mbp"] >= 1.7
        and elapsed <= 60.0
        and result.passed
    )
    _report(
        "a4 consistency",
        ok,
        f"order vs first-order model {orders['bp_vs_sw']:.3f} (>=0.9), "
        f"order vs log-variable model {orders['bp_vs_mbp']:.3f} (>=1.7), "
        f"{elapsed:.1f} s (budget 60 s)",
    )


def test_a5_longtime_boundedness(lab):
    result, elapsed, _ = lab["longtime"]
    cfg = load_config(CONFIG_DIR / "longtime.yaml")
    assert cfg.sweep["eps_mu"] == (0.02, 0.01)
    assert cfg.sweep["contrast_eps_mu"] == (0.5,)
    assert cfg.beta == 0.8 and cfg.params.model == "mbp"
    assert cfg.scenario_params["horizon_over_eps"] == 1.0
    assert cfg.thresholds["energy_bound_factor"] == 2.0

    rows = result.summary["tables"]["longtime"]
    graded = [r for r in rows if not r["contrast"]]
    contrast = [r for r in rows if r["contrast"]]
    assert len(graded) == 2 and len(contrast) == 1
    ratio = max(r["EN_ratio"] for r in graded)
    completed = all(r["termination"] == "completed" for r in graded)
    ok = completed and ratio <= 2.0 and elapsed <= 120.0 and result.passed
    _report(
        "a5 longtime",
        ok,
        f"graded runs completed to t=1/eps: {completed}, max E3 ratio "
        f"{ratio:.3f} (<=2), contrast ratio {contrast[0]['EN_ratio']:.2f} "
        f"(recorded), {elapsed:.1f} s (budget 120 s)",
    )


def test_a6_burgers_shock_time(lab):
    result, _, _ = lab["burgers"]
    rows = {r["eps"]: r for r in result.summary["tables"]["burgers"]}
    assert 0.1 in rows and 0.05 in rows
    r1, r2 = rows[0.1], rows[0.05]
    assert abs(r1["t_predicted"] - 10.0) < 1e-9
    assert abs(r2["t_predicted"] - 20.0) < 1e-9
    worst_rel = max(r1["rel_err"], r2["rel_err"])
    slope = np.log(r1["t_detected"] / r2["t_detected"]) / np.log(0.1 / 0.05)
    ok = worst_rel <= 0.10 and abs(slope + 1.0) <= 0.05 and result.passed
    _report(
        "a6 burgers shock time",
        ok,
        f"max rel err {worst_rel:.3f} (<=0.10), eps-scaling slope "
        f"{slope:.4f} (-1 +/- 0.05)",
    )


def test_a7_linear_energy_conservation():
    grid = Grid(1, 64, 2.0 * np.pi)
    mu, k = 0.1, 2
    params = ModelParams(eps=0.0, mu=mu, model="bp")
    bath = build_bathymetry(grid, "flat", 0.0)
    omega = k / np.sqrt(1.0 + mu * k * k / 3.0)
    t_end = 10.0 * 2.0 * np.pi / omega
    zeta0 = 1e-3 * np.cos(k * grid.x[0])
    state0 = ModelState(grid, np.stack([zeta0, np.zeros(grid.n)]))
    config = StepperConfig(dt=1e-3, t_end=t_end, output_stride=20)
    traj = run(state0, params, bath, config)
    assert traj.termination == "completed"
    recs = build_records(traj, bath)
    e = np.array([r.E_bp for r in recs])
    drift = float(np.abs(e - e[0]).max() / e[0])
    ok = drift <= 1e-8
    _report(
        "a7 linear energy conservation",
        ok,
        f"relative drift over 10 periods {drift:.2e} (<=1e-8)",
    )


def test_a8_mollifier_limit(lab):
    result, _, _ = lab["mollifier_study"]
    cfg = load_config(CONFIG_DIR / "mollifier_study.yaml")
    assert cfg.sweep["delta"] == (1e-2, 1e-3, 0.0)
    assert cfg.params.model == "mbp"

    rows = {r["delta"]: r["sup_difference"] for r in result.summary["tables"]["mollifier"]}
    monotone = rows[1e-2] >= rows[1e-3] >= 0.0
    ok = monotone and rows[1e-3] <= 1e-3 and result.passed
    _report(
        "a8 mollifier limit",
        ok,
        f"drift {rows[1e-2]:.2e} at 1e-2 >= {rows[1e-3]:.2e} at 1e-3 "
        f"(monotone: {monotone}), small-delta drift <= 1e-3",
    )


def test_a9_determinism(lab):
    def canonical(result):
        text = (result.out_dir / "summary.json").read_text()
        data = json.loads(text)
        for key in TIMING_KEYS:
            data.pop(key)
        return json.dumps(data, indent=2, sort_keys=True)

    mismatched = [
        name for name in PRESETS if canonical(lab[name][0]) != canonical(lab[name][2])
    ]
    ok = not mismatched
    _report(
        "a9 determinism",
        ok,
        "all six summaries byte-identical modulo timing"
        if ok
        else f"summaries differ: {mismatched}",
    )
