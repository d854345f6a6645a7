"""Paths, thread pinning and program loading shared by the benchmark scripts.

Only the standard library is imported here, so a script can pin BLAS
threads and locate the program before numpy is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
INPUTS = BENCH_DIR / "inputs"
OUT = ROOT / ".perfbench_out"

# The bump-1d-sweep pool runs two worker threads on a 2-core machine, so
# BLAS stays single-threaded everywhere: workers plus BLAS threads never
# exceed the cores, and every workload sees the same BLAS setting.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    """Fix the BLAS thread count; call before numpy is imported."""
    os.environ.update(THREAD_ENV)


def add_program_path() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 if it is absent."""
    if not (SRC / "bplab" / "__init__.py").is_file():
        print(f"perfbench: program not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_program(module) -> None:
    """Exit 2 unless bplab was imported from this checkout."""
    where = Path(module.__file__).resolve().parent
    if where != SRC / "bplab":
        print(f"perfbench: bplab imported from {where}, not {SRC}", file=sys.stderr)
        sys.exit(2)
