"""Command line entry point.

    bplab run --config <path> [--out <dir>] [--jobs <n>] [--seed <u64>]
    bplab list-scenarios
    bplab validate --config <path>

run exits 0 when every verdict passed, 1 otherwise; malformed
configurations exit 2. The output root defaults to the config's
output.dir, then the BPLAB_OUT environment variable, then ./bplab_out.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .scenarios import SCENARIOS, batch_runs, load_config, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bplab", description="dispersive shallow-water experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("--config", required=True, help="path to a YAML experiment file")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--jobs", type=int, default=1, help="worker pool size")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    sub.add_parser("list-scenarios", help="print the available scenarios")

    p_val = sub.add_parser("validate", help="parse a config and report problems")
    p_val.add_argument("--config", required=True, help="path to a YAML experiment file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-scenarios":
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name].about}")
        return 0

    if args.command == "validate":
        try:
            config = load_config(args.config)
        except ConfigError as e:
            print(f"invalid: {e}", file=sys.stderr)
            return 2
        specs = SCENARIOS[config.scenario].runs(config)
        print(
            f"ok: scenario={config.scenario} grid=d{config.grid.d} n{config.grid.n}"
            f" sweep_axes={sorted(config.sweep)} runs={len(specs)}"
            f" batches={len(batch_runs(specs))} seed={config.seed}"
        )
        return 0

    # run
    try:
        config = load_config(args.config, out=args.out, seed=args.seed)
    except ConfigError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("invalid: --jobs must be at least 1", file=sys.stderr)
        return 2
    result = run_scenario(config, jobs=args.jobs)
    for name, ok in result.verdicts.items():
        print(f"{'PASS' if ok else 'FAIL'}  {result.scenario}: {name}")
    for line in result.summary["failures"]:
        print(f"note  {line}")
    print(f"summary: {result.out_dir / 'summary.json'}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
