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


def build(parent: Path, change: Path) -> dict:
    out = {"end_to_end": {}, "per_layer": {}, "checks": {}}
    for w in WORKLOADS:
        reports = {
            name: (_report(tree, w, 0), _report(tree, w, 1))
            for name, tree in (("parent", parent), ("change", change))
        }
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
    first = _report(change, WORKLOADS[0], 0)
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
