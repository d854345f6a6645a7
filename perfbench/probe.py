"""Set-up probe, run in a fresh process by run.py.

    python3 perfbench/probe.py --workload <name> --seed <n> [--import-only]

Imports bplab (through its command-line module), then loads the workload's
configs and builds every bottom and operator handle its runs need. Prints
one JSON line: {"import_s": ..., "setup_s": ...}, both measured from just
before the import.
"""

from __future__ import annotations

import argparse
import json
import time

from common import OUT, add_program_path, check_program, pin_threads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()

    pin_threads()
    add_program_path()
    t0 = time.perf_counter()
    import bplab.cli

    import_s = time.perf_counter() - t0
    check_program(bplab)
    result = {"import_s": import_s}
    if not args.import_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup(args.seed, OUT / args.workload / "probe")
        result["setup_s"] = time.perf_counter() - t0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
