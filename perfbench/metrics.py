"""Metric names and units, grouped by the run that emits them.

BENCHMARK.json lists the same names; selftest.py checks that the two agree.
"""

# name: (unit, better); times are in reference seconds, see calibrate.py
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed and written to the report with the metrics above, not put in the
# result line: the same medians in plain seconds, which follow the host's
# load, and the median slowdown of the host the passes ran under.
E2E_EXTRA = {
    "wall_s.plain": "s",
    "cpu_s.plain": "s",
    "setup_s.plain": "s",
    "steps_per_s.plain": "1/s",
    "host.slowdown": "ratio",
}

# fail_frac is printed with the metrics above but is not one of them: it is
# 0 whenever the program is correct, and the result line already carries it
# as failed / attempted.
FAIL_FRAC = "fail_frac"

# per-layer metrics of the traced run (--trace 1); every workload emits all.
# A time here is measured on every workload: where a layer does no work on
# some workload, a microbenchmark stands in for its traced total (see
# LAYER_EXTRA). Counts may be 0, as they repeat exactly by definition.
PER_LAYER = {
    "cli.import_s": "s",
    "scenarios.load_config_us": "us",
    "scenarios.write_s": "s",
    "scenarios.bytes_written": "bytes",
    "scenarios.self_s": "s",
    "bathymetry.build_s": "s",
    "spectral.rfft_us.d1n256": "us",
    "spectral.rfft_us.d1n1024": "us",
    "spectral.rfft_us.d2n32": "us",
    "spectral.irfft_us.d1n256": "us",
    "spectral.irfft_us.d1n1024": "us",
    "spectral.irfft_us.d2n32": "us",
    "spectral.transforms": "count",
    "spectral.self_s": "s",
    "models.rhs_us.linear-flat.d1n256": "us",
    "models.rhs_us.burgers.d1n1024": "us",
    "models.rhs_us.sw.d1n256": "us",
    "models.rhs_us.bp.d1n256": "us",
    "models.rhs_us.mbp.d1n256": "us",
    "models.rhs_us.bp.d2n32": "us",
    "models.rhs_us.mbp.d2n32": "us",
    "models.rhs_calls": "count",
    "models.self_s": "s",
    "timeloop.steps": "count",
    "timeloop.records": "count",
    "timeloop.run_s": "s",
    "timeloop.self_s": "s",
    "timeloop.step_overhead_us": "us",
    "operators.handle_build_s.dense.d1n256": "s",
    "operators.handle_build_s.dense.d2n16": "s",
    "operators.handle_build_s.pcg.d2n32": "s",
    "operators.solve_us.spectral.d1n256": "us",
    "operators.solve_us.dense.d1n256": "us",
    "operators.solve_us.pcg.d2n32": "us",
    "operators.apply_us.d2n32": "us",
    "operators.solves": "count",
    "operators.cg_iters.mean": "count",
    "operators.cg_iters.max": "count",
    "diagnostics.build_records_s": "s",
    "diagnostics.record_us.d1n256": "us",
    "diagnostics.self_s": "s",
    "verification.assemble_dense_s.d2n16": "s",
}

# Printed and written to the report, not put in the result line.
LAYER_EXTRA = {
    # traced times that are 0 on every run of some workload: a time that
    # never changes cannot be told from a fixed number, so the metric after
    # the semicolon grades the layer instead
    "scenarios.load_config_s": "s",  # bump-2d-pcg loads no config; scenarios.load_config_us
    "operators.dense_matrix_s": "s",  # flat-1d, bump-2d-pcg; operators.handle_build_s.dense.*
    "operators.self_s": "s",  # no handle on flat-1d; operators.solve_us.*
    "verification.assemble_dense_s": "s",  # bump-1d-sweep; verification.assemble_dense_s.d2n16
    # one pass against one other pass: mostly the host's noise
    "scenarios.pool_speedup": "ratio",  # jobs=2 workloads only: serial pass / jobs=2 pass
    "trace.overhead_s": "s",  # traced pass wall minus plain pass wall
    # bookkeeping of the trace
    "trace.remainder_s": "s",  # pass wall time outside every root span
    "trace.spans": "count",
}

