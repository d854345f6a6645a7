"""Self-test of the benchmark on short horizons.

    python3 perfbench/selftest.py

For every workload, with horizons cut so the whole test takes a minute or
two, it checks that
  - a run with tracing off emits every end-to-end metric of BENCHMARK.json,
    and a traced run every per-layer metric, each with its unit;
  - the deterministic counts repeat exactly between two traced runs;
  - the traced spans cover the traced pass's wall time except for a
    remainder, which it reports.
The known-answer checks that need full horizons fail at short ones, so
their verdicts are not part of this test. Exits 1 if any item fails.
"""

from __future__ import annotations

import json
import sys

from common import ROOT, add_program_path, pin_threads

REPEATED_COUNTS = (
    "timeloop.steps",
    "timeloop.records",
    "models.rhs_calls",
    "spectral.transforms",
    "operators.solves",
    "operators.cg_iters.mean",
    "operators.cg_iters.max",
)
MAX_REMAINDER_SHARE = 0.05
SEED = 7


def main() -> int:
    pin_threads()
    add_program_path()
    import run
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'}  {name}{': ' + detail if detail else ''}")

    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(
        "BENCHMARK.json end_to_end matches metrics.END_TO_END",
        declared_e2e == {k: u for k, (u, _) in END_TO_END.items()},
    )
    check("BENCHMARK.json per_layer matches metrics.PER_LAYER", declared_layer == PER_LAYER)
    check(
        "BENCHMARK.json workloads match workloads.WORKLOADS",
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
    )

    for name in WORKLOADS:
        metrics, _ = run.measure(name, SEED, 1, trace=0, short=True)
        check(
            f"{name}: end-to-end metrics emitted with units",
            metrics is not None
            and {k: v["unit"] for k, v in metrics.items()} == declared_e2e,
        )
        first, report = run.measure(name, SEED, 1, trace=1, short=True)
        second, _ = run.measure(name, SEED, 1, trace=1, short=True)
        check(
            f"{name}: per-layer metrics emitted with units",
            first is not None and {k: v["unit"] for k, v in first.items()} == declared_layer,
        )
        if first is None or second is None:
            check(f"{name}: traced runs completed", False)
            continue
        for count in REPEATED_COUNTS:
            a, b = first[count]["value"], second[count]["value"]
            check(f"{name}: {count} repeats exactly", a == b, f"{a} vs {b}")
        traced_wall = report["passes"][-1]["wall_s"]
        remainder = report["values"]["trace.remainder_s"]
        check(
            f"{name}: root spans cover the traced pass",
            0.0 <= remainder <= MAX_REMAINDER_SHARE * traced_wall,
            f"remainder {remainder:.6f} s of {traced_wall:.3f} s",
        )

    print(f"selftest: {len(results)} items, {results.count(False)} failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
