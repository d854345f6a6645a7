"""scripts/bench_file.py builds a BENCH file only from one comparison.

Fake perfbench reports are written under tmp_path; build and main are
called on them directly, so nothing is written at the repository root.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_file.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_file", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_file = _load_script()


def _report(workload, trace, seed=201, seconds=40, failed=0):
    values = {metric: 1.0 for metric in bench_file.END_TO_END}
    values["host.slowdown"] = 1.5
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {"cpus": 2}, "values": values, "passes": [{}, {}],
        "attempted": 10, "failed": failed,
    }


def _write(tmp_path, overrides=None):
    """Both trees' reports of every workload and trace, with overrides applied.

    overrides maps (tree, workload, trace) to keyword changes of _report.
    """
    overrides = overrides or {}
    trees = {}
    for tree in ("parent", "change"):
        root = tmp_path / tree
        for w in bench_file.WORKLOADS:
            (root / ".perfbench_out" / w).mkdir(parents=True)
            for trace in (0, 1):
                report = _report(w, trace, **overrides.get((tree, w, trace), {}))
                path = root / ".perfbench_out" / w / f"report-trace{trace}.json"
                path.write_text(json.dumps(report))
        trees[tree] = root
    return trees["parent"], trees["change"]


def test_matching_reports_build_one_file(tmp_path):
    parent, change = _write(tmp_path)
    body = bench_file.build(parent, change)
    assert (body["seed"], body["seconds"]) == (201, 40)
    assert set(body["end_to_end"]) == set(bench_file.WORKLOADS)
    assert body["end_to_end"]["flat-1d"]["wall_s"]["change_over_parent"] == 1.0


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({("parent", "bump-1d-sweep", 0): {"seed": 7}}, "differ between trees"),
        ({("change", "bump-2d-pcg", 1): {"seconds": 1}}, "differ between trees"),
        (
            {("parent", "flat-1d", 0): {"seconds": 1}, ("change", "flat-1d", 0): {"seconds": 1}},
            "differ between workloads",
        ),
        (
            {("parent", "bump-2d-pcg", 0): {"seed": 7}, ("change", "bump-2d-pcg", 0): {"seed": 7}},
            "differ between workloads",
        ),
        ({("change", "flat-1d", 1): {"failed": 6}}, "6 of 10 checks failed"),
        ({("parent", "bump-1d-sweep", 0): {"failed": 1}}, "1 of 10 checks failed"),
    ],
    ids=["seed-trees", "seconds-trees", "seconds-workloads", "seed-workloads",
         "failed-change", "failed-parent"],
)
def test_mixed_or_failed_reports_are_refused(tmp_path, overrides, match):
    parent, change = _write(tmp_path, overrides)
    with pytest.raises(ValueError, match=match):
        bench_file.build(parent, change)


def test_refusal_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    parent, change = _write(tmp_path, {("change", "flat-1d", 0): {"seed": 7}})
    monkeypatch.setattr(bench_file, "ROOT", tmp_path)
    argv = [
        "--label", "mixed", "--parent", str(parent), "--change", str(change),
        "--parent-rev", "abc", "--about", "a mixed pair",
    ]
    assert bench_file.main(argv) == 2
    assert "differ" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))
