"""Host speed, sampled while a measurement runs.

The host the benchmark was built on is shared: from one second to the next,
and for stretches of minutes, it runs everything on it up to twice as slow,
process CPU time included, so a time in plain seconds says as much about the
host as about the program. While an end-to-end measurement runs, a Sampler
therefore times a short fixed reference every SAMPLE_PERIOD_S of wall time,
from a SIGALRM handler in the main thread: small real FFTs and ufunc
arithmetic on short arrays, the kinds of work a pass does, with fixed inputs
and no call into bplab. The samples see the same stretch of the host's load
as the measurement, and a time is reported in reference seconds: scaled by
the reference's time on a quiet host over its mean time during the
measurement. The samples take about 1% of the measurement's wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.05

_RNG = np.random.default_rng(0)
_WAVE = _RNG.standard_normal((2, 256))
_SHORT = _RNG.standard_normal(256)


def _ufuncs(rounds: int) -> None:
    x = _SHORT.copy()
    for _ in range(rounds):
        x = 0.5 * (x + _SHORT) - 0.25 * x * _SHORT
        x.sum()


def _with_fft() -> None:
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(_WAVE))
        _ufuncs(5)


def _ufuncs_only() -> None:
    _ufuncs(60)


# reference: (function, its wall time on the baseline host, a 2-vCPU Intel
# Xeon with numpy 2.4.6 and one BLAS thread, while that host ran at full speed)
WITH_FFT = (_with_fft, 0.0003)
# numpy's FFT can release the GIL; while pool threads of the same process
# hold it, a sample that releases it would time the wait to get it back
UFUNCS_ONLY = (_ufuncs_only, 0.00027)


class Sampler:
    """Times the reference every SAMPLE_PERIOD_S while the block runs."""

    def __init__(self, pool_threads: bool):
        self.fn, self.quiet_s = UFUNCS_ONLY if pool_threads else WITH_FFT
        self.samples = []

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.fn()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one period
            self._sample()

    def slowdown(self) -> float:
        """Mean sample time over the quiet host's: 1 when the host is quiet."""
        return statistics.fmean(self.samples) / self.quiet_s
