"""The README's library example runs as written, and its config table is current."""

import re
from pathlib import Path

from bplab.scenarios import SCENARIOS, SHARED_THRESHOLDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["traj"].termination == "completed"
    assert len(scope["records"]) == scope["traj"].n_records


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
