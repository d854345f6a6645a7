"""Config loading, initial states, artifact writers, and the CLI surface."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from bplab.bathymetry import zeta_to_q_arr
from bplab.cli import main
from bplab.errors import ConfigError
from bplab.models import ModelParams, ModelState
from bplab.scenarios import (
    ENV_OUT,
    SCENARIOS,
    TIMING_KEYS,
    _ConfigLoader,
    _audit_case,
    _audit_cases,
    _audit_reports,
    _audit_runs,
    _run_many,
    batch_runs,
    build_initial_state,
    load_config,
    run_scenario,
    write_run_csv,
    write_snapshot,
    write_summary,
)
from bplab.operators import KINDS, build_handle, coercivity_report
from bplab.spectral import Grid, mollify_arr
from bplab.timeloop import run
from bplab.verification import assemble_dense
from oracles import (
    audit_round_trip_per_trial,
    coercivity_report_per_trial,
    write_run_csv_reference,
)


ROOT = Path(__file__).resolve().parents[1]


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

TINY_LONGTIME = """\
scenario: longtime
grid: {d: 1, n: 16, L: 2pi}
model: {name: mbp, eps: 0.1, mu: 0.1}
sweep:
  eps_mu: [0.02, 0.5]
"""

# every start leaves the water: sw/bp runs end dry, mbp starts outside the log domain
DRY_CONSISTENCY = """\
scenario: consistency
grid: {d: 1, n: 32, L: 2pi}
model: {name: bp, eps: 0.1, mu: 0.1}
initial: {shape: gaussian, amplitude: -20.0, width: 1.0}
stepper: {dt: 1.0e-2, t_end: 0.1}
sweep:
  eps_mu: [0.2, 0.1, 0.05]
"""

TINY_BURGERS = """\
scenario: burgers
grid: {d: 1, n: 64, L: 2pi}
model: {name: burgers, eps: 0.1, mu: 0.0}
initial: {shape: burgers_sine, amplitude: 1.0}
stepper: {dt: 1.0e-2, t_end: 0.2, output_stride: 5, blowup_threshold: 50.0}
sweep:
  eps: [0.4, 0.2]
"""

TINY_MOLLIFIER = """\
scenario: mollifier-study
grid: {d: 1, n: 32, L: 20pi}
model: {name: mbp, eps: 0.1, mu: 0.1}
bathymetry: {profile: gaussian_bump, beta: 0.3}
initial: {shape: gaussian, amplitude: 0.3, width: 3.0}
stepper: {dt: 1.0e-2, t_end: 0.2, output_stride: 4}
sweep:
  delta: [1.0e-2, 1.0e-3, 0.0]
"""

D2_DISPERSION = (
    TINY_DISPERSION.replace("{d: 1, n: 64, L: 2pi}", "{d: 2, n: 16, L: 2pi}")
    .replace("mode: 1}", "mode: [1, 0]}")
    .replace("track_modes: [1]", "track_modes: [[1, 0]]")
)


# ---------------------------------------------------------------------------
# config loading


def test_load_preset_round_trip():
    cfg = load_config(ROOT / "configs" / "dispersion.yaml")
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
            TINY_LONGTIME + "scenario_params: {horizon_over_eps: soon}\n",
            "scenario_params.horizon_over_eps",
        ),
        (TINY_AUDIT.replace("trials: 3", "trials: many"), "scenario_params.trials"),
        # the rfft row of wavenumber -1, which would be graded as wavenumber 15
        (
            D2_DISPERSION.replace("track_modes: [[1, 0]]", "track_modes: [[15, 0]]"),
            "stepper.track_modes",
        ),
        (TINY_DISPERSION.replace("mu: [0.0]", "mu: [0.1, 0.0, 0.1]"), "sweep.mu"),
        (TINY_DISPERSION.replace("mu: [0.0]", "mu: [0.1, 0.100000001]"), "sweep.mu"),
        (TINY_LONGTIME + "  contrast_eps_mu: [0.5]\n", "sweep.contrast_eps_mu"),
        (TINY_DISPERSION.replace("  track_modes: [1]\n", ""), "stepper.track_modes"),
        # a wavenumber beyond n/2 would excite its alias (15 on n=16 is 1)
        (
            DRY_CONSISTENCY.replace("n: 32", "n: 16").replace(
                "gaussian, amplitude: -20.0, width: 1.0", "single_mode, mode: 15"
            ),
            "initial.mode",
        ),
        (TINY_DISPERSION.replace("mode: 1}", "mode: -33}"), "initial.mode"),
        (D2_DISPERSION.replace("mode: [1, 0]}", "mode: [9, 0]}"), "initial.mode"),
        (D2_DISPERSION.replace("mode: [1, 0]}", "mode: [0, -9]}"), "initial.mode"),
        # swept values out of range: negative anywhere, zero where a run divides by it
        (TINY_DISPERSION.replace("mu: [0.0]", "mu: [0.1, -0.1]"), "sweep.mu"),
        (TINY_MOLLIFIER.replace("delta: [1.0e-2,", "delta: [-1.0e-2,"), "sweep.delta"),
        (DRY_CONSISTENCY.replace("eps_mu: [0.2,", "eps_mu: [-0.2,"), "sweep.eps_mu"),
        (TINY_BURGERS.replace("eps: [0.4, 0.2]", "eps: [0.4, -0.2]"), "sweep.eps"),
        (TINY_LONGTIME + "  contrast_eps_mu: [-0.5]\n", "sweep.contrast_eps_mu"),
        (TINY_LONGTIME.replace("eps_mu: [0.02, 0.5]", "eps_mu: [0.02, 0.0]"), "sweep.eps_mu"),
        (TINY_LONGTIME + "  contrast_eps_mu: [0.0]\n", "sweep.contrast_eps_mu"),
        (TINY_BURGERS.replace("eps: [0.4, 0.2]", "eps: [0.4, 0.0]"), "sweep.eps"),
        # an audit without trials has no quotient to grade; a horizon of
        # zero or less gives runs that take no step
        (TINY_AUDIT.replace("trials: 3", "trials: 0"), "scenario_params.trials"),
        (
            TINY_LONGTIME + "scenario_params: {horizon_over_eps: -1.0}\n",
            "scenario_params.horizon_over_eps",
        ),
        (
            TINY_LONGTIME + "scenario_params: {horizon_over_eps: 0.0}\n",
            "scenario_params.horizon_over_eps",
        ),
        # model values the scenario would overwrite
        (TINY_LONGTIME.replace("name: mbp", "name: bp"), "model.name"),
        (TINY_BURGERS.replace("name: burgers", "name: sw"), "model.name"),
        (TINY_DISPERSION.replace("eps: 0.0, mu: 0.0", "eps: 0.1, mu: 0.1"), "model.eps"),
        # burgers has no dispersion relation to grade against
        (TINY_DISPERSION.replace("name: bp", "name: burgers"), "model.name"),
        # numbers given as strings, refused as bathymetry.beta is
        (TINY_AUDIT.replace("beta: 0.4, mu: 0.1}", 'beta: 0.4, mu: "0.1"}'),
         "scenario_params.cases[0].mu"),
        (TINY_AUDIT.replace("eps: 0.1, mu: 0.1}", 'eps: 0.1, mu: "0.1"}'), "model.mu"),
        (TINY_AUDIT.replace("eps: 0.1, mu: 0.1}", 'eps: "0.1", mu: 0.1}'), "model.eps"),
        (TINY_LONGTIME.replace("n: 16", 'n: "16"'), "grid.n"),
        (TINY_LONGTIME.replace("{d: 1,", '{d: "1",'), "grid.d"),
        (TINY_DISPERSION.replace("L: 2pi}", 'L: 2pi, gamma: "0.8"}'), "grid.gamma"),
        (DRY_CONSISTENCY.replace("t_end: 0.1}", 't_end: "0.1"}'), "stepper.t_end"),
        (TINY_BURGERS.replace("dt: 1.0e-2,", 'dt: "1.0e-2",'), "stepper.dt"),
        (TINY_BURGERS.replace("output_stride: 5,", 'output_stride: "5",'),
         "stepper.output_stride"),
        (TINY_BURGERS.replace("blowup_threshold: 50.0", 'blowup_threshold: "50.0"'),
         "stepper.blowup_threshold"),
        (TINY_DISPERSION.replace("eps: 0.0, mu: 0.0}", 'eps: 0.0, mu: 0.0, delta: "0"}'),
         "model.delta"),
        (TINY_LONGTIME.replace("n: 16", "n: .inf"), "grid.n"),
        # keys the scenario does not read: a typo, an axis it ignores
        (
            TINY_LONGTIME + "scenario_params: {horizon_over_epz: 0.5}\n",
            "scenario_params.horizon_over_epz",
        ),
        (DRY_CONSISTENCY + "  mu: [0.3]\n", "sweep.mu"),
        (TINY_DISPERSION + "scenario_params: {trials: 3}\n", "scenario_params.trials"),
        # a fraction where an integer is read
        (TINY_BURGERS.replace("output_stride: 5,", "output_stride: 20.5,"),
         "stepper.output_stride"),
        (TINY_LONGTIME.replace("n: 16", "n: 256.9"), "grid.n"),
        (TINY_AUDIT.replace("trials: 3", "trials: 2.5"), "scenario_params.trials"),
        (TINY_DISPERSION.replace("mode: 1}", "mode: 1.5}"), "initial.mode"),
        # booleans are not numbers, and a quoted boolean is not a boolean
        (DRY_CONSISTENCY.replace("eps_mu: [0.2,", "eps_mu: [true,"), "sweep.eps_mu"),
        (TINY_LONGTIME + "thresholds: {energy_bound_factor: true}\n",
         "thresholds.energy_bound_factor"),
        (TINY_DISPERSION.replace("seed: 7", "seed: true"), "seed"),
        (TINY_DISPERSION.replace("mode: 1}", "mode: true}"), "initial.mode"),
        # NaN and infinities, written as YAML floats or as text
        (DRY_CONSISTENCY.replace("t_end: 0.1}", "t_end: inf}"), "stepper.t_end"),
        (DRY_CONSISTENCY.replace("t_end: 0.1}", "t_end: .inf}"), "stepper.t_end"),
        (TINY_MOLLIFIER.replace("beta: 0.3}", "beta: .nan}"), "bathymetry.beta"),
        (TINY_BURGERS.replace("eps: [0.4, 0.2]", "eps: [0.4, .nan]"), "sweep.eps"),
        (TINY_DISPERSION + "thresholds: {max_rel_err: .inf}\n", "thresholds.max_rel_err"),
        # a gaussian start of width 0 divides 0 by 0 at its centre
        (TINY_MOLLIFIER.replace("width: 3.0}", "width: 0.0}"), "initial.width"),
        (TINY_MOLLIFIER.replace("width: 3.0}", "width: -1.0}"), "initial.width"),
        # profile params: read as numbers, and only the keys the profile reads
        (TINY_MOLLIFIER.replace("beta: 0.3}", "beta: 0.3, params: {width: true}}"),
         "bathymetry.params.width"),
        (TINY_MOLLIFIER.replace("beta: 0.3}", "beta: 0.3, params: {hieght: 0.5}}"),
         "bathymetry.params.hieght"),
        # a key no section reads: a misspelling in each section, a dropped
        # option, and a scheme other than rk4
        (TINY_LONGTIME.replace("n: 16", "nn: 16"), "grid.nn"),
        (TINY_MOLLIFIER.replace("mu: 0.1}", "mu: 0.1, rescaled_tme: true}"),
         "model.rescaled_tme"),
        (TINY_MOLLIFIER.replace("beta: 0.3}", "bta: 0.3}"), "bathymetry.bta"),
        (TINY_MOLLIFIER.replace("width: 3.0}", "widht: 3.0}"), "initial.widht"),
        (TINY_BURGERS.replace("output_stride: 5,", "ouptut_stride: 5,"),
         "stepper.ouptut_stride"),
        (TINY_DISPERSION.replace("  output_stride: 5\n", "  output_stride: 5\n  delta: 0.0\n"),
         "stepper.delta"),
        (TINY_DISPERSION + "output: {snapshot: none}\n", "output.snapshot"),
        (TINY_MOLLIFIER.replace("mu: 0.1}", "mu: 0.1, rescaled_time: true}"),
         "model.rescaled_time"),
        (TINY_MOLLIFIER.replace("mu: 0.1}", 'mu: 0.1, rescaled_time: "false"}'),
         "model.rescaled_time"),
        (TINY_BURGERS.replace("{dt: 1.0e-2,", "{dt: 1.0e-2, scheme: rk2,"), "stepper.scheme"),
    ],
    ids=[
        "amplitude", "width", "mode", "track_modes", "horizon_over_eps", "trials",
        "track_modes_rfft_row", "sweep_repeat", "sweep_same_tag", "sweep_contrast_repeat",
        "dispersion_without_track_modes", "mode_alias", "mode_d1_negative",
        "mode_d2_k1", "mode_d2_k2", "sweep_mu_negative", "sweep_delta_negative",
        "sweep_eps_mu_negative", "sweep_eps_negative", "sweep_contrast_negative",
        "longtime_eps_mu_zero", "longtime_contrast_zero", "burgers_eps_zero",
        "audit_trials_zero", "horizon_negative", "horizon_zero", "longtime_model_name",
        "burgers_model_name", "dispersion_model_eps", "dispersion_burgers",
        "quoted_audit_mu", "quoted_model_mu", "quoted_model_eps", "quoted_n", "quoted_d",
        "quoted_gamma", "quoted_t_end",
        "quoted_dt", "quoted_output_stride", "quoted_blowup_threshold", "quoted_delta",
        "infinite_n", "longtime_unread_param", "consistency_unread_axis",
        "dispersion_unread_param", "fractional_output_stride", "fractional_n",
        "fractional_trials", "fractional_mode", "bool_sweep_entry", "bool_threshold",
        "bool_seed", "bool_mode", "t_end_inf_text", "t_end_inf",
        "beta_nan", "sweep_nan", "threshold_inf", "width_zero", "width_negative",
        "bool_profile_param", "unread_profile_param",
        "unread_grid_key", "unread_model_key", "unread_bathymetry_key", "unread_initial_key",
        "unread_stepper_key", "stepper_delta", "unread_output_key", "rescaled_time",
        "unread_quoted_rescaled_time", "scheme_rk2",
    ],
)
def test_bad_value_rejected(tmp_path, capsys, text, key):
    p = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(p)
    assert main(["validate", "--config", str(p)]) == 2
    assert "invalid:" in capsys.readouterr().err


def test_plain_exponents_are_numbers(tmp_path):
    # YAML 1.1 leaves 1e2 and 1.0e3 strings; the loader reads them as YAML 1.2 floats
    text = TINY_BURGERS.replace("blowup_threshold: 50.0", "blowup_threshold: 1e2")
    text = text.replace("eps: [0.4, 0.2]", "eps: [4.0e-1, 2e-1]")
    cfg = load_config(_write(tmp_path, text + "thresholds: {max_slope_dev: 5.0e2}\n"))
    assert cfg.stepper.blowup_threshold == 100.0
    assert cfg.raw["stepper"]["blowup_threshold"] == 100.0
    assert cfg.sweep["eps"] == (0.4, 0.2)
    assert cfg.thresholds["max_slope_dev"] == 500.0
    assert isinstance(cfg.raw["grid"]["n"], int)  # integers stay integers


def test_libyaml_and_pure_python_loaders_read_the_same_trees():
    # the config loader parses on libyaml where pyyaml has it; given the same
    # YAML 1.2 float resolver, the pure-Python parser must read every shipped
    # config to the same tree, types included (repr tells 1 from 1.0)
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("pyyaml is built without libyaml")
    resolvers = {"yaml_implicit_resolvers": _ConfigLoader.yaml_implicit_resolvers}
    loaders = [type(f"Yaml12{b.__name__}", (b,), resolvers)
               for b in (yaml.SafeLoader, yaml.CSafeLoader)]
    for path in SHIPPED_CONFIGS:
        text = path.read_text()
        py_tree, c_tree = (yaml.load(text, Loader=loader) for loader in loaders)
        assert repr(py_tree) == repr(c_tree), path.name
    for loader in loaders:
        assert yaml.load("x: 1.0e3", Loader=loader) == {"x": 1000.0}
        assert type(yaml.load("x: 1.0e3", Loader=loader)["x"]) is float


def test_preset_summary_records_blowup_threshold_as_number(tmp_path):
    cfg = load_config(ROOT / "configs" / "dispersion.yaml", out=str(tmp_path))
    cfg = replace(cfg, stepper=replace(cfg.stepper, t_end=0.05))  # the parameters stay the file's
    run_scenario(cfg)
    summary = json.loads((tmp_path / "dispersion" / "summary.json").read_text())
    value = summary["parameters"]["stepper"]["blowup_threshold"]
    assert type(value) is float and value == 1000.0


def test_initial_mode_band_edge_loads(tmp_path):
    # |k| = n/2 is on the grid, and d=2 pairs keep their signs
    cfg = load_config(_write(tmp_path, TINY_DISPERSION.replace("mode: 1}", "mode: -32}")))
    assert cfg.initial.mode == (-32,)
    cfg = load_config(_write(tmp_path, D2_DISPERSION.replace("mode: [1, 0]}", "mode: [-8, 8]}")))
    assert cfg.initial.mode == ((-8, 8),)


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


def test_d2_gaussian_initial_state(tmp_path):
    # one Gaussian factor per axis, each centred mid-domain
    text = D2_DISPERSION.replace(
        "initial: {shape: single_mode, amplitude: 1.0e-3, mode: [1, 0]}",
        "initial: {shape: gaussian, amplitude: 0.25, width: 0.7}",
    )
    cfg = _cfg(tmp_path, text)
    state = build_initial_state(cfg, cfg.grid, cfg.params, cfg.build_bath())
    x, y = cfg.grid.x
    c = 0.5 * cfg.grid.L
    expect = 0.25 * np.exp(-0.5 * ((x - c) / 0.7) ** 2) * np.exp(-0.5 * ((y - c) / 0.7) ** 2)
    assert state.U.shape == (3, 16, 16)
    assert abs(state.U[0] - expect).max() < 1e-15


def test_single_mode_initial_state(tmp_path):
    cfg = _cfg(tmp_path, TINY_DISPERSION)
    state = build_initial_state(cfg, cfg.grid, cfg.params, cfg.build_bath())
    expect = 1e-3 * np.cos(cfg.grid.x[0])
    assert abs(state.U[0] - expect).max() < 1e-15
    # d=2: the mode [k1, k2] is cos(k0*(k1*x + k2*y)) over the meshgrid nodes
    text = D2_DISPERSION.replace("mode: [1, 0]}", "mode: [2, -1]}")
    cfg = _cfg(tmp_path, text)
    state = build_initial_state(cfg, cfg.grid, cfg.params, cfg.build_bath())
    k0 = 2.0 * np.pi / cfg.grid.L
    x, y = cfg.grid.x
    assert state.U.shape == (3, 16, 16)
    assert abs(state.U[0] - 1e-3 * np.cos(k0 * (2 * x - 1 * y))).max() < 1e-15


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


def _csv_records(values, amps):
    from bplab.diagnostics import DiagnosticsRecord

    return [DiagnosticsRecord(*row, a) for row, a in zip(values, amps)]


# the writer's rows against csv.writer's: floats whose repr is not plain
# digits, numpy scalars and arrays, and every header shape
_CSV_VALUES = [
    (0.0, float("nan"), float("inf"), float("-inf"), -0.0, 1e-05),
    (1e16, np.float64(0.1), np.float64(-2.5e-300), 1e300, 5e-324, np.float64(1.0 / 3.0)),
    (np.float64(7.0), np.nan, -np.inf, np.float64(-0.0), 123456789.125, 2.0**-1074),
]


@pytest.mark.parametrize(
    "track_modes,amps",
    [
        ((), [None] * 3),
        ((1, 4), [np.array([1e-05, np.nan]), np.array([-0.0, 1e16]), np.array([np.inf, 0.5])]),
        (((1, 0), (-2, 3)), [np.array([2e-3, 1e-17])] * 3),
    ],
    ids=["no-modes", "d1", "d2"],
)
def test_write_run_csv_is_csv_writers_bytes(tmp_path, track_modes, amps):
    recs = _csv_records(_CSV_VALUES, amps)
    write_run_csv(tmp_path / "got.csv", recs, track_modes)
    write_run_csv_reference(tmp_path / "ref.csv", recs, track_modes)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\n") == 1 + len(recs) and b'"' not in got


@pytest.mark.parametrize("track_modes", [(), (1, 2, 3), ((0, 1), (-3, 2))], ids=["none", "d1", "d2"])
def test_write_run_csv_of_no_records_is_csv_writers_header(tmp_path, track_modes):
    write_run_csv(tmp_path / "got.csv", [], track_modes)
    write_run_csv_reference(tmp_path / "ref.csv", [], track_modes)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_d2_dispersion_grades_signed_modes(tmp_path):
    # a single-mode d=2 start, and k1 = -1 read from the last rfft row
    text = D2_DISPERSION.replace("track_modes: [[1, 0]]", "track_modes: [[-1, 0], [1, 1]]")
    cfg = load_config(_write(tmp_path, text), out=str(tmp_path / "out"))
    result = run_scenario(cfg, jobs=1)
    assert result.passed
    rows = result.summary["tables"]["dispersion"]
    assert [row["mode"] for row in rows] == [[-1, 0], [1, 1]]
    assert max(row["rel_err"] for row in rows) < 1e-4


def test_dispersion_fails_modes_that_start_at_zero(tmp_path):
    # a start at rest: every tracked coefficient starts at zero, so no fit
    # has a phase to follow, and mode 0's exact frequency is 0
    text = TINY_DISPERSION
    for old, new in (("n: 64", "n: 32"), ("amplitude: 1.0e-3", "amplitude: 0.0"),
                     ("t_end: 20.0", "t_end: 5.0"), ("track_modes: [1]", "track_modes: [0, 1]"),
                     ("mu: [0.0]", "mu: [0.1]")):
        text = text.replace(old, new)
    cfg = load_config(_write(tmp_path, text), out=str(tmp_path))
    result = run_scenario(cfg, jobs=1)
    assert result.verdicts == {"dispersion_rel_err": False}
    failures = result.summary["failures"]
    assert [f.split(":")[0] for f in failures] == ["mu0.1 mode 0", "mu0.1 mode 1"]
    assert all("DegenerateFitError" in f for f in failures)
    assert result.summary["tables"]["dispersion"] == []


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
        # checked as the top-level bathymetry.beta is
        ('{n: 16, profile: gaussian_bump, beta: "0.5"}', "scenario_params.cases[1].beta"),
        ("{n: 16, profile: gaussian_bump, beta: 0.5, params: {widht: 1.0}}",
         "scenario_params.cases[1].params.widht"),
    ],
    ids=[
        "missing-n", "unknown-key", "bad-grid", "bad-profile", "drowned", "mu", "scalar",
        "quoted-beta", "unread-profile-param",
    ],
)
def test_bad_audit_case_rejected(tmp_path, case, key):
    # a case is checked when the file loads, before any run starts
    p = _write(tmp_path, TINY_AUDIT + f"    - {case}\n")
    with pytest.raises(ConfigError, match=re.escape(key) + ": "):
        load_config(p)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_audit_fallback_case_keeps_bottom_params(tmp_path):
    # without scenario_params.cases the audit runs on the configured bottom,
    # a non-default bump width included
    text = (
        "scenario: operator-audit\n"
        "grid: {d: 1, n: 32, L: 2pi}\n"
        "model: {name: bp, eps: 0.1, mu: 0.1}\n"
        "bathymetry: {profile: gaussian_bump, beta: 0.4, params: {width: 2.0}}\n"
    )
    cfg = load_config(_write(tmp_path, text))
    (case,) = _audit_cases(cfg)
    _, bath, mu = _audit_case(case, cfg.params.mu, cfg.scenario, "case")
    assert mu == 0.1
    assert np.array_equal(bath.b, cfg.build_bath().b)


def test_run_scenario_audit_runs_have_no_trajectory(tmp_path):
    cfg = load_config(_write(tmp_path, TINY_AUDIT), out=str(tmp_path / "out"))
    result = run_scenario(cfg, jobs=1)
    assert result.passed
    rdir = [p for p in result.out_dir.iterdir() if p.is_dir()][0]
    assert (rdir / "diagnostics.csv").read_text().count("\n") == 1
    assert not list(rdir.glob("*.bin"))
    meta = result.summary["runs"][0]
    assert "values" not in meta and "termination" not in meta


def test_failing_runs_never_abort_the_sweep(tmp_path):
    p = _write(tmp_path, DRY_CONSISTENCY)

    def run_once(jobs):
        cfg = load_config(p, out=str(tmp_path / f"j{jobs}"))
        summary = dict(run_scenario(cfg, jobs=jobs).summary)
        for key in TIMING_KEYS:
            summary.pop(key)
        return summary

    summary = run_once(1)
    runs = summary["runs"]
    assert [r["tag"] for r in runs] == [
        f"epsmu{v}_{m}" for v in ("0.2", "0.1", "0.05") for m in ("sw", "bp", "mbp")
    ]
    for meta in runs:
        if meta["tag"].endswith("_mbp"):
            assert meta["error"].startswith("LogDomainError:")
            assert "termination" not in meta
        else:
            assert meta["error"] is None and meta["termination"] == "dry"
    assert not any(summary["verdicts"].values())
    assert len(summary["failures"]) == 10  # nine runs, then the order fit
    assert json.dumps(run_once(2), sort_keys=True) == json.dumps(summary, sort_keys=True)


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
    out = capsys.readouterr().out
    assert "ok: scenario=dispersion" in out and " runs=1 batches=1 " in out

    bad = _write(tmp_path, "scenario: nope\n", "bad.yaml")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "invalid:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset,n_runs", [("consistency", 9), ("operator_audit", 3), ("longtime", 3)]
)
def test_cli_validate_counts_preset_runs(capsys, preset, n_runs):
    # three models per eps_mu value; one run per audit case; contrast runs count
    assert main(["validate", "--config", str(ROOT / "configs" / f"{preset}.yaml")]) == 0
    assert f" runs={n_runs} " in capsys.readouterr().out


@pytest.mark.parametrize(
    "preset,batches",
    [
        ("dispersion", [[0, 1, 2]]),
        ("consistency", [[0, 3, 6], [1, 4, 7], [2, 5, 8]]),
        ("longtime", [[0, 1, 2]]),
        ("burgers", [[0, 1, 2]]),
        ("mollifier_study", [[0, 1, 2]]),
        ("operator_audit", [[0], [1], [2]]),
    ],
)
def test_preset_batches(capsys, preset, batches):
    # a sweep's compatible runs share one batch; audit cases run alone
    cfg = load_config(ROOT / "configs" / f"{preset}.yaml")
    assert batch_runs(SCENARIOS[cfg.scenario].runs(cfg)) == batches
    assert main(["validate", "--config", str(ROOT / "configs" / f"{preset}.yaml")]) == 0
    assert f" batches={len(batches)} " in capsys.readouterr().out


# (runs, batches) of each preset; the benchmark's scaled-down input of a
# preset must declare the same, or the benchmark would measure other work
PRESET_COUNTS = {
    "burgers": (3, 1),
    "consistency": (9, 3),
    "dispersion": (3, 1),
    "longtime": (3, 1),
    "mollifier_study": (3, 1),
    "operator_audit": (3, 3),
}
SHIPPED_CONFIGS = sorted(
    p for sub in ("configs", "perfbench/inputs") for p in (ROOT / sub).glob("*.yaml")
)


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_shipped_config_validates(capsys, path):
    # a stricter loader must not refuse a preset or a benchmark input unseen
    runs, batches = PRESET_COUNTS[path.stem]
    assert main(["validate", "--config", str(path)]) == 0
    assert f" runs={runs} batches={batches} " in capsys.readouterr().out


def test_shipped_configs_cover_every_preset():
    assert len(SHIPPED_CONFIGS) == 2 * len(PRESET_COUNTS)


def test_validate_counts_the_runs_that_run(tmp_path, capsys):
    for text in (TINY_DISPERSION, TINY_AUDIT, DRY_CONSISTENCY):
        p = _write(tmp_path, text)
        assert main(["validate", "--config", str(p)]) == 0
        n_runs = int(re.search(r" runs=(\d+) ", capsys.readouterr().out).group(1))
        result = run_scenario(load_config(p, out=str(tmp_path / "out")))
        assert len(result.summary["runs"]) == n_runs


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


# ---------------------------------------------------------------------------
# batches


def test_mollifier_batch_members_equal_their_runs_alone(tmp_path):
    # per-member delta, each start mollified by its own delta
    cfg = _cfg(tmp_path, TINY_MOLLIFIER)
    bath = cfg.build_bath()
    specs = SCENARIOS[cfg.scenario].runs(cfg)
    results = _run_many(cfg, bath, specs, jobs=1)
    assert [res.batch for res in results] == [0, 0, 0]
    assert len({res.runtime_s for res in results}) == 1  # the batch's seconds
    for spec, res in zip(specs, results):
        delta = spec.params.delta
        state0 = build_initial_state(cfg, cfg.grid, replace(spec.params, delta=0.0), bath)
        if delta > 0:
            state0 = ModelState(cfg.grid, mollify_arr(cfg.grid, state0.U, delta, -1))
        # the scenario starts each run from its own smoothing
        assert np.array_equal(build_initial_state(cfg, cfg.grid, spec.params, bath).U, state0.U)
        solo = run(state0, spec.params, bath, spec.stepper)
        got = res.traj
        assert got.termination == solo.termination == "completed"
        assert got.termination_time == solo.termination_time
        assert got.steps_taken == solo.steps_taken
        assert np.array_equal(got.times, solo.times)
        assert np.array_equal(got.sup_u, solo.sup_u)
        assert np.array_equal(got.sup_grad_u, solo.sup_grad_u)
        assert got.mode_history is None and solo.mode_history is None
        assert all(np.array_equal(a, b) for a, b in zip(got.states, solo.states))


def test_summary_batch_index_is_the_same_at_every_jobs(tmp_path):
    p = _write(tmp_path, DRY_CONSISTENCY)
    runs = {}
    for jobs in (1, 3):
        summary = run_scenario(load_config(p, out=str(tmp_path / f"j{jobs}")), jobs=jobs).summary
        runs[jobs] = [(r["tag"], r["batch"]) for r in summary["runs"]]
        per_run = summary["runtimes"]["per_run_s"]
        for r in summary["runs"]:
            same = [q["tag"] for q in summary["runs"] if q["batch"] == r["batch"]]
            assert {per_run[t] for t in same} == {per_run[r["tag"]]}
    assert runs[1] == runs[3]
    assert [b for _, b in runs[1]] == [0, 1, 2] * 3


def test_burgers_without_a_shock_fails_its_verdict(tmp_path, capsys):
    # zero amplitude: every run completes and the shock time does not exist
    p = _write(tmp_path, TINY_BURGERS.replace("amplitude: 1.0", "amplitude: 0.0"))
    result = run_scenario(load_config(p, out=str(tmp_path / "o")))
    assert not result.passed
    failures = result.summary["failures"]
    assert [f.split(":")[:2] for f in failures[:2]] == [
        ["eps0.4", " NoShockError"], ["eps0.2", " NoShockError"]
    ]
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o2")]) == 1
    assert "note  eps0.4: NoShockError" in capsys.readouterr().out


def test_longtime_names_graded_runs_that_end_early(tmp_path, capsys):
    # every start passes the threshold, so each run ends blowup at t = 0; the
    # graded runs are named as dispersion names them, the contrast run is not
    text = TINY_LONGTIME.replace("eps_mu: [0.02, 0.5]", "eps_mu: [0.2, 0.1]") + (
        "  contrast_eps_mu: [0.5]\n"
        "initial: {shape: gaussian, amplitude: 0.4, width: 1.0}\n"
        "stepper: {dt: 1.0e-2, t_end: 1.0, blowup_threshold: 0.1}\n"
        "scenario_params: {horizon_over_eps: 0.02}\n"
    )
    p = _write(tmp_path, text)
    result = run_scenario(load_config(p, out=str(tmp_path / "o")))
    summary = result.summary
    assert [r["termination"] for r in summary["runs"]] == ["blowup"] * 3
    assert summary["failures"] == ["epsmu0.2: blowup", "epsmu0.1: blowup"]
    assert summary["verdicts"]["longtime_completed"] is False and not result.passed
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o2")]) == 1
    assert "note  epsmu0.1: blowup" in capsys.readouterr().out


# the benchmark's audit cases: the preset's, with the d=2 case at n=8
BENCH_AUDIT_CASES = [
    {"d": 1, "n": 32, "L": "2pi", "profile": "gaussian_bump", "beta": 0.5, "mu": 0.1},
    {"d": 2, "n": 8, "L": "2pi", "profile": "gaussian_bump", "beta": 0.5, "mu": 0.1},
    {"d": 1, "n": 32, "L": "2pi", "profile": "flat", "beta": 0.0, "mu": 0.0},
]


@pytest.mark.parametrize("i", range(3), ids=["d1-bump", "d2-bump", "flat"])
def test_batched_audit_reports_equal_per_trial_ones(i):
    # one draw and one apply per kind for all trials read the generator's
    # stream and give the bits of one draw and one apply per trial
    base = load_config(ROOT / "configs" / "operator_audit.yaml")
    config = replace(base, scenario_params=dict(base.scenario_params, cases=BENCH_AUDIT_CASES))
    _, case, seed = _audit_runs(config)[i].audit
    trials = config.scenario_params["trials"]
    got = _audit_reports(config, i, case, seed)
    _, bath, mu = _audit_case(case, config.params.mu, config.scenario, "case")
    rng = np.random.default_rng(seed)
    for kind, rep in zip(KINDS, got):
        handle = build_handle(kind, mu, bath)
        ref = coercivity_report_per_trial(handle, trials, rng)
        ref["solve_residual"], ref["dense_mismatch"] = audit_round_trip_per_trial(
            handle, assemble_dense(kind, mu, bath), trials, rng
        )
        assert rep == ref
        # and coercivity_report alone, from a fresh generator
        assert coercivity_report(handle, trials, np.random.default_rng(seed)) == (
            coercivity_report_per_trial(handle, trials, np.random.default_rng(seed))
        )
