"""The README's library example runs and its config example loads as
written, its config table is current, every exported name resolves, and
only spectral.Grid transforms or builds Fourier symbols."""

import ast
import importlib
import re
from pathlib import Path

import bplab
from bplab.scenarios import SCENARIOS, SHARED_THRESHOLDS, load_config

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bplab"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["traj"].termination == "completed"
    assert len(scope["records"]) == scope["traj"].n_records


def test_readme_yaml_block_loads(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.yaml"
    path.write_text(blocks[0])
    config = load_config(path, out=str(tmp_path))
    assert config.scenario == "longtime" and config.params.delta == 0.0


def _contract_table() -> dict:
    """README's per-scenario config table: scenario -> {column header: cell}."""
    lines = README.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if re.match(r"\| scenario +\| sweep axes", ln))
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = dict(zip(header, cells))
    return rows


def test_readme_config_table_matches_scenarios():
    rows = _contract_table()
    assert set(rows) == set(SCENARIOS)
    for name, contract in SCENARIOS.items():
        row = rows[name]
        axes = {
            axis: set(filter(None, flags.split(", ")))
            for axis, flags in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", row["sweep axes"])
        }
        assert axes == {
            axis: {flag for flag, on in (("required", a.required), ("positive", a.positive)) if on}
            for axis, a in contract.sweep.items()
        }, name
        assert set(re.findall(r"`(\w+)`", row["`scenario_params`"])) == set(contract.params), name
        defaults = re.findall(r"`(\w+)` ([-+.\deE]+)", row["thresholds (defaults)"])
        assert {key: float(v) for key, v in defaults} == contract.thresholds, name
        model = re.findall(r"`(\w+)`", row["model"])
        assert model == ([contract.model] if contract.model else []), name


def test_readme_states_shared_thresholds():
    text = " ".join(README.read_text().split())
    for key, default in SHARED_THRESHOLDS.items():
        assert f"`{key}` (default {default})" in text


def test_every_exported_name_resolves():
    # a deletion that leaves its name in an __all__ fails here
    modules = [bplab] + [
        importlib.import_module(f"bplab.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_only_spectral_transforms_or_builds_symbols():
    # Grid.rfft/irfft are the only transform calls, so only spectral.py
    # reaches numpy's FFT or its pocketfft kernels; Grid owns every Fourier
    # symbol; the one exception is the flat inverse's per-mode 2x2 blocks,
    # which need the effective wavenumbers keff one by one
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        text = path.read_text()
        allowed = set()
        for node in ast.walk(ast.parse(text)):
            if path.name == "operators.py" and getattr(node, "name", None) == "_flat_inverse":
                allowed = set(range(node.lineno, node.end_lineno + 1))
        for i, line in enumerate(text.splitlines(), 1):
            for pattern in (
                r"np\.fft", r"numpy\.fft", r"_pocketfft", r"\bk2gamma\b", r"\b_k_int\b", r"\bkeff\b"
            ):
                if re.search(pattern, line) and not (pattern == r"\bkeff\b" and i in allowed):
                    found.append(f"{path.name}:{i}: {line.strip()}")
    assert not found, "\n".join(found)
