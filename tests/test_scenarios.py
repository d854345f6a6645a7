"""Config loading, initial states, artifact writers, and the CLI surface."""

import json
import re

import numpy as np
import pytest

from bplab.bathymetry import zeta_to_q_arr
from bplab.cli import main
from bplab.errors import ConfigError
from bplab.models import ModelParams
from bplab.scenarios import (
    ENV_OUT,
    SCENARIOS,
    TIMING_KEYS,
    build_initial_state,
    load_config,
    run_scenario,
    write_run_csv,
    write_snapshot,
    write_summary,
)
from bplab.spectral import Grid


def _write(tmp_path, text, name="exp.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


TINY_DISPERSION = """\
scenario: dispersion
seed: 7
grid: {d: 1, n: 64, L: 2pi}
model: {name: bp, eps: 0.0, mu: 0.0}
initial: {shape: single_mode, amplitude: 1.0e-3, mode: 1}
stepper:
  dt: 1.0e-2
  t_end: 20.0
  output_stride: 5
  track_modes: [1]
sweep:
  mu: [0.0]
"""

TINY_AUDIT = """\
scenario: operator-audit
seed: 3
grid: {d: 1, n: 16, L: 2pi}
model: {name: bp, eps: 0.1, mu: 0.1}
scenario_params:
  trials: 3
  cases:
    - {d: 1, n: 16, L: 2pi, profile: gaussian_bump, beta: 0.4, mu: 0.1}
"""

D2_DISPERSION = (
    TINY_DISPERSION.replace("{d: 1, n: 64, L: 2pi}", "{d: 2, n: 16, L: 2pi}")
    .replace("mode: 1}", "mode: [1, 0]}")
    .replace("track_modes: [1]", "track_modes: [[1, 0]]")
)


# ---------------------------------------------------------------------------
# config loading


def test_load_preset_round_trip():
    cfg = load_config("configs/dispersion.yaml")
    assert cfg.scenario == "dispersion"
    assert cfg.grid.n == 256
    assert abs(cfg.grid.L - 2.0 * np.pi) < 1e-15
    assert cfg.params.model == "bp"
    assert cfg.sweep["mu"] == (0.0, 0.1, 0.5)
    assert cfg.stepper.track_modes == (1, 2, 3)
    assert cfg.thresholds["max_rel_err"] == 1e-3


def test_length_shorthand(tmp_path):
    cfg = load_config(
        _write(tmp_path, TINY_DISPERSION.replace("L: 2pi", "L: 20pi"))
    )
    assert abs(cfg.grid.L - 20.0 * np.pi) < 1e-12


def test_unknown_scenario_rejected(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION.replace("dispersion", "frobnicate"))
    with pytest.raises(ConfigError, match="scenario"):
        load_config(p)


def test_bad_grid_rejected(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION.replace("n: 64", "n: 0"))
    with pytest.raises(ConfigError, match="grid"):
        load_config(p)


def test_d2_mode_pairs_parse(tmp_path):
    cfg = load_config(_write(tmp_path, D2_DISPERSION))
    assert cfg.initial.mode == ((1, 0),)
    assert cfg.stepper.track_modes == ((1, 0),)


@pytest.mark.parametrize(
    "text,key",
    [
        (TINY_DISPERSION.replace("amplitude: 1.0e-3", "amplitude: abc"), "initial.amplitude"),
        (TINY_DISPERSION.replace("mode: 1}", "mode: 1, width: [1]}"), "initial.width"),
        (D2_DISPERSION.replace("mode: [1, 0]", "mode: [a, 0]"), "initial.mode"),
        (
            D2_DISPERSION.replace("track_modes: [[1, 0]]", "track_modes: [[a, 0]]"),
            "stepper.track_modes",
        ),
        (
            TINY_DISPERSION + "scenario_params: {horizon_over_eps: soon}\n",
            "scenario_params.horizon_over_eps",
        ),
        (TINY_DISPERSION + "scenario_params: {trials: many}\n", "scenario_params.trials"),
    ],
    ids=["amplitude", "width", "mode", "track_modes", "horizon_over_eps", "trials"],
)
def test_bad_value_rejected(tmp_path, capsys, text, key):
    p = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(p)
    assert main(["validate", "--config", str(p)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_missing_required_sweep(tmp_path):
    text = """\
scenario: burgers
grid: {d: 1, n: 64, L: 2pi}
model: {name: burgers, eps: 0.1, mu: 0.0}
initial: {shape: burgers_sine, amplitude: 1.0}
"""
    with pytest.raises(ConfigError, match="sweep.eps"):
        load_config(_write(tmp_path, text))


def test_unknown_sweep_axis(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION.replace("  mu: [0.0]", "  nu: [0.0]"))
    with pytest.raises(ConfigError, match="sweep.nu"):
        load_config(p)


def test_unknown_threshold_key(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION + "thresholds: {max_wobble: 1.0}\n")
    with pytest.raises(ConfigError, match="thresholds.max_wobble"):
        load_config(p)


def test_mollifier_sweep_needs_reference(tmp_path):
    text = """\
scenario: mollifier-study
grid: {d: 1, n: 32, L: 2pi}
model: {name: mbp, eps: 0.1, mu: 0.1}
sweep:
  delta: [1.0e-2, 1.0e-3]
"""
    with pytest.raises(ConfigError, match="sweep.delta"):
        load_config(_write(tmp_path, text))


def test_unknown_top_level_section(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION + "extras: {x: 1}\n")
    with pytest.raises(ConfigError, match="extras"):
        load_config(p)


def test_out_and_seed_overrides(tmp_path, monkeypatch):
    p = _write(tmp_path, TINY_DISPERSION)
    cfg = load_config(p, out="/tmp/elsewhere", seed=99)
    assert cfg.out_dir == "/tmp/elsewhere"
    assert cfg.seed == 99

    monkeypatch.setenv(ENV_OUT, str(tmp_path / "envroot"))
    cfg2 = load_config(p)
    assert cfg2.out_dir == str(tmp_path / "envroot")
    assert cfg2.seed == 7


def test_raw_parameters_exclude_output(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION + "output: {snapshots: none}\n")
    cfg = load_config(p)
    assert "output" not in cfg.raw
    assert cfg.snapshots == "none"


# ---------------------------------------------------------------------------
# initial states


def _cfg(tmp_path, text):
    return load_config(_write(tmp_path, text))


def test_gaussian_initial_state(tmp_path):
    text = TINY_DISPERSION.replace(
        "initial: {shape: single_mode, amplitude: 1.0e-3, mode: 1}",
        "initial: {shape: gaussian, amplitude: 0.25, width: 0.7}",
    )
    cfg = _cfg(tmp_path, text)
    bath = cfg.build_bath()
    state = build_initial_state(cfg, cfg.grid, cfg.params, bath)
    z = state.U[0]
    assert abs(z.max() - 0.25) < 1e-12
    assert abs(cfg.grid.x[0][z.argmax()] - 0.5 * cfg.grid.L) < cfg.grid.L / 64
    assert state.U.shape == (2,) + cfg.grid.shape and abs(state.U[1:]).max() == 0.0


def test_single_mode_initial_state(tmp_path):
    cfg = _cfg(tmp_path, TINY_DISPERSION)
    state = build_initial_state(cfg, cfg.grid, cfg.params, cfg.build_bath())
    expect = 1e-3 * np.cos(cfg.grid.x[0])
    assert abs(state.U[0] - expect).max() < 1e-15


def test_burgers_sine_initial_state(tmp_path):
    text = """\
scenario: burgers
grid: {d: 1, n: 64, L: 2pi}
model: {name: burgers, eps: 0.1, mu: 0.0}
initial: {shape: burgers_sine, amplitude: 1.0}
sweep:
  eps: [0.1]
"""
    cfg = _cfg(tmp_path, text)
    state = build_initial_state(cfg, cfg.grid, cfg.params, cfg.build_bath())
    assert state.U.shape == (1,) + cfg.grid.shape  # no velocity rows
    expect = -np.sin(cfg.grid.x[0])
    assert abs(state.U[0] - expect).max() < 1e-15


def test_mbp_initial_state_is_log_variable(tmp_path):
    text = """\
scenario: mollifier-study
grid: {d: 1, n: 64, L: 2pi}
model: {name: mbp, eps: 0.1, mu: 0.1}
bathymetry: {profile: gaussian_bump, beta: 0.3}
initial: {shape: gaussian, amplitude: 0.2, width: 0.8}
sweep:
  delta: [1.0e-3, 0.0]
"""
    cfg = _cfg(tmp_path, text)
    bath = cfg.build_bath()
    state = build_initial_state(cfg, cfg.grid, cfg.params, bath)
    zeta = 0.2 * np.exp(-0.5 * ((cfg.grid.x[0] - np.pi) / 0.8) ** 2)
    expect = zeta_to_q_arr(zeta, 0.1, bath)
    assert abs(state.U[0] - expect).max() < 1e-14


# ---------------------------------------------------------------------------
# artifact writers


def test_write_run_csv_schema(tmp_path):
    from bplab.diagnostics import DiagnosticsRecord

    recs = [
        DiagnosticsRecord(
            time=0.1 * i,
            EN=1.0 + i,
            E_bp=2.0,
            E_thm=3.0,
            sup_U=0.5,
            sup_gradU=0.25,
            mode_amplitudes=np.array([1e-3, 2e-3]),
        )
        for i in range(3)
    ]
    path = tmp_path / "diag.csv"
    write_run_csv(path, recs, track_modes=(1, 4))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,EN,E_bp,E_thm,sup_U,sup_gradU,mode_k1,mode_k4"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[6]) == 1e-3


def test_write_run_csv_header_only(tmp_path):
    path = tmp_path / "diag.csv"
    write_run_csv(path, [])
    assert path.read_text() == "t,EN,E_bp,E_thm,sup_U,sup_gradU\n"


def test_write_snapshot_round_trip(tmp_path):
    grid = Grid(1, 32, 2.0 * np.pi)
    U = np.vstack([np.sin(grid.x[0]), np.cos(grid.x[0])])
    write_snapshot(tmp_path / "state_final", U, grid, 1.5, "bp")
    raw = (tmp_path / "state_final.bin").read_bytes()
    assert len(raw) == 8 * U.size
    back = np.frombuffer(raw, dtype="<f8").reshape(U.shape)
    assert np.array_equal(back, U)
    side = json.loads((tmp_path / "state_final.json").read_text())
    assert side["dtype"] == "<f8" and side["order"] == "C"
    assert side["shape"] == [2, 32]
    assert side["grid"]["n"] == 32 and side["model"] == "bp"
    assert side["time"] == 1.5


def test_write_summary_stable_form(tmp_path):
    path = tmp_path / "summary.json"
    write_summary(path, {"b": 1, "a": {"z": 2, "y": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": 2, "y": 3}}


# ---------------------------------------------------------------------------
# end to end on small configs


def test_run_scenario_layout_and_verdicts(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_DISPERSION), out=str(tmp_path / "out"))
    result = run_scenario(cfg, jobs=1)
    assert result.passed
    assert set(result.verdicts) == {"dispersion_rel_err"}
    sdir = result.out_dir
    assert (sdir / "summary.json").is_file()
    run_dirs = [p for p in sdir.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "diagnostics.csv").is_file()
    assert (run_dirs[0] / "state_final.bin").is_file()
    summary = json.loads((sdir / "summary.json").read_text())
    assert summary["runs"][0]["termination"] == "completed"
    assert summary["tables"]["dispersion"][0]["mode"] == 1
    assert "output" not in summary["parameters"]


def test_run_scenario_snapshot_policies(tmp_path):
    base = TINY_DISPERSION + "output: {snapshots: %s}\n"
    cfg = load_config(
        _write(tmp_path, base % "initial_final", "a.yaml"), out=str(tmp_path / "o1")
    )
    rdir = [p for p in run_scenario(cfg).out_dir.iterdir() if p.is_dir()][0]
    assert (rdir / "state_initial.bin").is_file()
    assert (rdir / "state_final.bin").is_file()

    cfg = load_config(_write(tmp_path, base % "none", "b.yaml"), out=str(tmp_path / "o2"))
    rdir = [p for p in run_scenario(cfg).out_dir.iterdir() if p.is_dir()][0]
    assert not list(rdir.glob("*.bin"))


@pytest.mark.parametrize(
    "case,key",
    [
        ("{d: 1, L: 2pi}", "scenario_params.cases[1].n"),
        ("{n: 16, profil: gaussian_bump}", "scenario_params.cases[1].profil"),
        ("{n: 12}", "scenario_params.cases[1]"),
        ("{n: 16, profile: trench}", "scenario_params.cases[1]"),
        ("{n: 16, profile: gaussian_bump, beta: 1.0}", "scenario_params.cases[1]"),
        ("{n: 16, mu: -0.1}", "scenario_params.cases[1]"),
        ("16", "scenario_params.cases[1]"),
    ],
    ids=["missing-n", "unknown-key", "bad-grid", "bad-profile", "drowned", "mu", "scalar"],
)
def test_bad_audit_case_rejected(tmp_path, case, key):
    # a case is checked when the file loads, before any run starts
    p = _write(tmp_path, TINY_AUDIT + f"    - {case}\n")
    with pytest.raises(ConfigError, match=re.escape(key) + ": "):
        load_config(p)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_run_scenario_audit_runs_have_no_trajectory(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_AUDIT), out=str(tmp_path / "out"))
    result = run_scenario(cfg, jobs=1)
    assert result.passed
    rdir = [p for p in result.out_dir.iterdir() if p.is_dir()][0]
    assert (rdir / "diagnostics.csv").read_text().count("\n") == 1
    assert not list(rdir.glob("*.bin"))
    meta = result.summary["runs"][0]
    assert "values" not in meta and "termination" not in meta


def test_summaries_reproducible_across_jobs(tmp_path):
    p = _write(tmp_path, TINY_DISPERSION)

    def run_once(sub, jobs):
        cfg = load_config(p, out=str(tmp_path / sub))
        run_scenario(cfg, jobs=jobs)
        text = (tmp_path / sub / "dispersion" / "summary.json").read_text()
        data = json.loads(text)
        for key in TIMING_KEYS:
            data.pop(key)
        return json.dumps(data, indent=2, sort_keys=True)

    assert run_once("r1", 1) == run_once("r2", 3)


# ---------------------------------------------------------------------------
# CLI


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [ln.split()[0] for ln in lines]
    assert names == sorted(SCENARIOS)
    assert len(lines) == 6


def test_cli_validate(tmp_path, capsys):
    good = _write(tmp_path, TINY_DISPERSION, "good.yaml")
    assert main(["validate", "--config", str(good)]) == 0
    assert "ok: scenario=dispersion" in capsys.readouterr().out

    bad = _write(tmp_path, "scenario: nope\n", "bad.yaml")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_cli_run_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, TINY_DISPERSION, "good.yaml")
    assert main(["run", "--config", str(good), "--out", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    assert "PASS  dispersion: dispersion_rel_err" in out
    assert "summary:" in out

    # an unreachable tolerance flips the verdict, not the plumbing
    strict = _write(
        tmp_path,
        TINY_DISPERSION + "thresholds: {max_rel_err: 1.0e-15}\n",
        "strict.yaml",
    )
    assert main(["run", "--config", str(strict), "--out", str(tmp_path / "o2")]) == 1
    assert "FAIL  dispersion" in capsys.readouterr().out

    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert main(["run", "--config", str(good), "--jobs", "0"]) == 2


def test_model_params_from_config_match(tmp_path):
    cfg = _cfg(tmp_path, TINY_DISPERSION)
    assert cfg.params == ModelParams(eps=0.0, mu=0.0, model="bp")
    assert cfg.build_bath().is_flat
