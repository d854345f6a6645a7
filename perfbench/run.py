"""bplab benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and BENCHMARK.md): flat-1d, bump-1d-sweep,
bump-2d-pcg. With --trace 0 the run measures the end-to-end metrics with
tracing off: short passes, each after a set-up probe in a fresh process,
until --seconds would be exceeded, reporting medians in reference seconds
(calibrate.py). With --trace 1 it runs the microbenchmarks, one plain pass
(and a serial one where the workload runs a pool) and one traced pass, and
reports the per-layer metrics. Every pass is checked; the last line of
standard output is one JSON result, and the exit code is 1 when a check
failed, 2 when the program or an argument is missing.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

from common import BENCH_DIR, OUT, ROOT, THREAD_ENV, add_program_path, check_program, pin_threads
from metrics import E2E_EXTRA, END_TO_END, FAIL_FRAC, LAYER_EXTRA, PER_LAYER

IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


class ProbeError(RuntimeError):
    pass


def probe(workload: str, seed: int, import_only: bool = False) -> dict:
    """Run probe.py in a fresh interpreter and return its measurements."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", workload]
    cmd += ["--seed", str(seed)]
    if import_only:
        cmd.append("--import-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise ProbeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_stamp() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass

    def blas(cfg) -> dict:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class WorkloadRun:
    """Passes of one workload with one seed, and every check they made."""

    def __init__(self, workload, seed: int, short: bool):
        from bplab import timeloop
        from tracer import Patches, RunMeter

        self.workload = workload
        self.seed = seed
        self.short = short
        self.out = OUT / workload.name
        self.checks = []
        self.passes = []  # (label, PassResult)
        self.slowdowns = {}  # end-to-end runs: the host's, per probe and per pass
        self._reference = None
        self._patches = Patches()
        self._meter = RunMeter()
        self._meter.install(self._patches, timeloop)
        for old in self.out.glob("pass*"):
            shutil.rmtree(old)

    def close(self) -> None:
        self._patches.restore()

    def probe(self, import_only: bool = False):
        """One fresh-process probe, counted as a check; None if it failed."""
        name = "import probe" if import_only else "setup probe"
        try:
            result = probe(self.workload.name, self.seed, import_only)
        except (ProbeError, subprocess.TimeoutExpired, ValueError) as e:
            self.checks.append((name, False, str(e)))
            return None
        self.checks.append((name, True, ""))
        return result

    def run_pass(self, jobs: int, tracer=None):
        """One checked pass; None if it raised."""
        import bplab
        from tracer import Patches

        label = f"pass{len(self.passes)}-jobs{jobs}" + ("-traced" if tracer else "")
        out = self.out / label
        patches = Patches()
        if tracer is not None:
            tracer.run_id = len(self.passes)
            modules = {name: getattr(bplab, name) for name in (
                "bathymetry", "diagnostics", "models", "operators", "scenarios",
                "spectral", "timeloop", "verification",
            )}
            tracer.install(patches, modules)
        self._meter.take()
        try:
            result = self.workload.run_pass(self.seed, out, jobs, self.short)
        except Exception:
            traceback.print_exc()
            self.checks.append((f"{label}: raised", False, traceback.format_exc(limit=1).strip()))
            return None
        finally:
            patches.restore()
        result.runs = self._meter.take()
        result.bytes_written = _dir_bytes(out)
        shutil.rmtree(out)
        self.checks.extend(result.checks)
        self._check_determinism(label, result)
        self.passes.append((label, result))
        return result

    def _check_determinism(self, label: str, result) -> None:
        """Summaries minus TIMING_KEYS must match the first pass byte for byte."""
        if self._reference is None:
            self._reference = (label, result.summaries)
            return
        ref_label, ref = self._reference
        for name, text in result.summaries.items():
            self.checks.append(
                (f"{name}: summary of {label} identical to {ref_label}", text == ref.get(name), "")
            )


def end_to_end(bench: WorkloadRun, seconds: int) -> dict:
    """Alternate set-up probes and passes until --seconds; report medians.

    Times are in reference seconds (see calibrate.py): each probe and pass
    is scaled by the host's slowdown sampled while it ran. The medians in
    plain seconds, and of the slowdown itself, go to the report.
    """
    from calibrate import Sampler

    wl = bench.workload
    deadline = START + seconds
    probes, timed, pair_s = [], [], []  # (measurement, slowdown) each
    while True:
        t0 = time.perf_counter()
        with Sampler(pool_threads=False) as host:
            probed = bench.probe()
        if probed:
            probes.append((probed["setup_s"], host.slowdown()))
        with Sampler(pool_threads=wl.jobs > 1) as host:
            result = bench.run_pass(wl.jobs)
        if result is None:
            break
        timed.append((result, host.slowdown()))
        pair_s.append(time.perf_counter() - t0)
        # start another probe and pass only if even the slowest pair so far
        # would end before the deadline
        if time.perf_counter() + max(pair_s) > deadline:
            break
    bench.slowdowns = {"probes": [x for _, x in probes], "passes": [x for _, x in timed]}
    if not timed or not probes:
        return {}
    med = statistics.median
    return {
        "wall_s": med(r.wall_s / x for r, x in timed),
        "cpu_s": med(r.cpu_s / x for r, x in timed),
        "setup_s": med(s / x for s, x in probes),
        "steps_per_s": med(r.steps / r.run_s * x for r, x in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # not in the result line; see metrics.E2E_EXTRA
        "wall_s.plain": med(r.wall_s for r, _ in timed),
        "cpu_s.plain": med(r.cpu_s for r, _ in timed),
        "setup_s.plain": med(s for s, _ in probes),
        "steps_per_s.plain": med(r.steps / r.run_s for r, _ in timed),
        "host.slowdown": med(x for _, x in timed),
    }


def layers(bench: WorkloadRun, quick: bool) -> dict:
    import micro
    from tracer import WRITE_SPANS, Tracer

    wl = bench.workload
    probes = [bench.probe(import_only=True) for _ in range(IMPORT_PROBES)]
    imports = [p["import_s"] for p in probes if p]
    out = micro.run_all(quick=quick)

    serial = bench.run_pass(jobs=1) if wl.jobs > 1 else None
    plain = bench.run_pass(wl.jobs)
    tracer = Tracer()
    main_thread = tracer.thread_index()
    traced = bench.run_pass(wl.jobs, tracer)
    if not imports or plain is None or traced is None:
        return {}
    table = tracer.table(*traced.window)
    bench.out.mkdir(parents=True, exist_ok=True)
    table.save(bench.out / "spans.npz")

    steps = traced.steps
    cg_iters = table.children_per("operators.solve.pcg", "operators.apply")
    timeloop_self = table.layer_self("timeloop")
    out.update(
        {
            "cli.import_s": statistics.median(imports),
            "scenarios.write_s": table.total(*WRITE_SPANS),
            "scenarios.bytes_written": traced.bytes_written,
            "scenarios.self_s": table.layer_self("scenarios"),
            "bathymetry.build_s": table.total("bathymetry.build_bathymetry"),
            "spectral.transforms": table.count("spectral.rfft") + table.count("spectral.irfft"),
            "spectral.self_s": table.layer_self("spectral"),
            "models.rhs_calls": table.count("models.rhs"),
            "models.self_s": table.layer_self("models"),
            "timeloop.steps": steps,
            "timeloop.records": traced.records,
            "timeloop.run_s": table.total("timeloop.run"),
            "timeloop.self_s": timeloop_self,
            "timeloop.step_overhead_us": timeloop_self / steps * 1e6 if steps else 0.0,
            "operators.solves": int(table.prefix_mask("operators.solve.").sum()),
            "operators.cg_iters.mean": float(cg_iters.mean()) if cg_iters.size else 0.0,
            "operators.cg_iters.max": int(cg_iters.max()) if cg_iters.size else 0,
            "diagnostics.build_records_s": table.total("diagnostics.build_records"),
            "diagnostics.self_s": table.layer_self("diagnostics"),
            # not in the result line, see metrics.LAYER_EXTRA
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "scenarios.load_config_s": table.total("scenarios.load_config"),
            "operators.dense_matrix_s": table.total("operators.dense_matrix"),
            "operators.self_s": table.layer_self("operators"),
            "verification.assemble_dense_s": table.total("verification.assemble_dense"),
            "trace.remainder_s": traced.wall_s - table.root_cover(main_thread, *traced.window),
            "trace.spans": len(table.id),
        }
    )
    if serial is not None:
        out["scenarios.pool_speedup"] = serial.wall_s / plain.wall_s
    return out


def measure(workload_name: str, seed: int, seconds: int, trace: int, short: bool = False):
    """Run one benchmark run in this process; return (metrics, report)."""
    import bplab

    check_program(bplab)
    from workloads import WORKLOADS

    bench = WorkloadRun(WORKLOADS[workload_name], seed, short)
    try:
        values = layers(bench, quick=short) if trace else end_to_end(bench, seconds)
    finally:
        bench.close()
    failed = sum(1 for _, ok, _ in bench.checks if not ok)
    attempted = len(bench.checks)
    if values:
        values[FAIL_FRAC] = failed / attempted
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "short": short,
        "jobs": bench.workload.jobs,
        "machine": machine_stamp(),
        "values": values,
        "passes": [
            {
                "label": label,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "steps": r.steps,
                "records": r.records,
                "run_s": r.run_s,
                "bytes_written": r.bytes_written,
            }
            for label, r in bench.passes
        ],
        "slowdowns": bench.slowdowns,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in bench.checks],
        "attempted": attempted,
        "failed": failed,
    }
    bench.out.mkdir(parents=True, exist_ok=True)
    (bench.out / f"report-trace{trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    names = PER_LAYER if trace else END_TO_END
    if not values or any(name not in values for name in names):
        return None, report
    units = PER_LAYER if trace else {k: u for k, (u, _) in END_TO_END.items()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    return metrics, report


def _print_report(report: dict) -> None:
    m = report["machine"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}"
        f" jobs={report['jobs']}"
    )
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']}"
        f" numpy={m['numpy']} scipy={m['scipy']}"
        f" blas={m['numpy_blas']['name']} {m['numpy_blas']['version']}"
        f" threads={','.join(f'{k}={v}' for k, v in m['thread_env'].items())}"
    )
    for p in report["passes"]:
        print(
            f"  {p['label']:<22} wall {p['wall_s']:.3f} s  cpu {p['cpu_s']:.3f} s"
            f"  steps {p['steps']}"
        )
    for c in report["checks"]:
        if not c["ok"]:
            print(f"  FAILED check {c['name']}: {c['detail']}")
    units = dict(PER_LAYER, **LAYER_EXTRA, **E2E_EXTRA)
    units.update({k: u for k, (u, _) in END_TO_END.items()})
    units[FAIL_FRAC] = "fraction"
    for name, value in report["values"].items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"checks: {report['attempted']} attempted, {report['failed']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bplab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    pin_threads()
    add_program_path()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be nonnegative and --seconds at least 1", file=sys.stderr)
        return 2

    metrics, report = measure(args.workload, args.seed, args.seconds, args.trace)
    _print_report(report)
    if metrics is None:
        print("perfbench: no complete measurement, no result", file=sys.stderr)
        return 1
    failed = report["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": report["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
