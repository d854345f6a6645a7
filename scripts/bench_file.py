#!/usr/bin/env python3
"""Build a BENCH_<label>.json from the perfbench reports of two checkouts.

    python3 scripts/bench_file.py --label <label> --parent <dir> --change <dir> \
        --parent-rev <rev> --about "<one line>"

Each checkout must hold `.perfbench_out/<workload>/report-trace0.json` and
`report-trace1.json`, written by `perfbench/run.py --workload <workload>
--seed <n> --seconds <s> --trace {0,1}` on the same machine. The file
holds the machine stamp, each workload's end-to-end medians for both trees
with their ratio, and both trees' `--trace 1` layer metrics. It is written
to BENCH_<label>.json at the repository root.

The script refuses (exit 2) reports that were not made as one comparison:
the two trees' reports of a workload and trace must share `seed` and
`seconds`, every workload's `--trace 0` reports must share them too, and no
report may hold a failed check. A `perfbench/selftest.py` run writes its
own short passes to the same files, so a BENCH file built after one would
otherwise mix them in.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("flat-1d", "bump-1d-sweep", "bump-2d-pcg")
END_TO_END = ("wall_s", "cpu_s", "setup_s", "steps_per_s", "peak_rss_mb")


def _report(tree: Path, workload: str, trace: int) -> dict:
    return json.loads((tree / ".perfbench_out" / workload / f"report-trace{trace}.json").read_text())


def _run_of(report: dict) -> tuple:
    return report["seed"], report["seconds"]


def _check(reports: dict) -> None:
    """Raise ValueError unless reports[w][tree][trace] make one comparison."""
    for w, trees in reports.items():
        for tree, pair in trees.items():
            for trace, r in enumerate(pair):
                if r["failed"]:
                    raise ValueError(
                        f"{tree} {w} trace {trace}: {r['failed']} of {r['attempted']} checks failed"
                    )
        for trace in (0, 1):
            runs = {tree: _run_of(pair[trace]) for tree, pair in trees.items()}
            if len(set(runs.values())) > 1:
                raise ValueError(f"{w} trace {trace}: (seed, seconds) differ between trees: {runs}")
    runs = {w: _run_of(trees["change"][0]) for w, trees in reports.items()}
    if len(set(runs.values())) > 1:
        raise ValueError(f"trace 0: (seed, seconds) differ between workloads: {runs}")


def build(parent: Path, change: Path) -> dict:
    out = {"end_to_end": {}, "per_layer": {}, "checks": {}}
    every = {
        w: {
            name: (_report(tree, w, 0), _report(tree, w, 1))
            for name, tree in (("parent", parent), ("change", change))
        }
        for w in WORKLOADS
    }
    _check(every)
    for w, reports in every.items():
        e2e = {}
        for metric in END_TO_END:
            a, b = (reports[name][0]["values"][metric] for name in ("parent", "change"))
            e2e[metric] = {"parent": a, "change": b, "change_over_parent": b / a}
        for name in ("parent", "change"):
            e2e[f"passes.{name}"] = len(reports[name][0]["passes"])
            e2e[f"host.slowdown.{name}"] = reports[name][0]["values"]["host.slowdown"]
        out["end_to_end"][w] = e2e
        out["per_layer"][w] = {
            name: dict(sorted(reports[name][1]["values"].items())) for name in reports
        }
        out["checks"][w] = {
            f"{name}.trace{t}": f"{r['failed']} failed of {r['attempted']}"
            for name in reports
            for t, r in enumerate(reports[name])
        }
    first = every[WORKLOADS[0]]["change"][0]
    out["machine"] = first["machine"]
    out["seed"], out["seconds"] = first["seed"], first["seconds"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--about", required=True)
    args = parser.parse_args(argv)
    try:
        body = build(args.parent, args.change)
    except (OSError, KeyError, ValueError) as e:
        print(f"bench_file: {e}", file=sys.stderr)
        return 2
    bench = {"label": args.label, "about": args.about, "parent_rev": args.parent_rev, **body}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
