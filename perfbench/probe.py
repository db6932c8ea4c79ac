"""Machine-speed probe: rescales measured times to a reference machine speed.

On a small shared machine the speed of a core drifts by up to 2x for seconds
to minutes at a time as other tenants load it, and interpreter-bound code
slows by about the same factor whatever it does.  Raw wall times of one
build then spread by 15-40% between runs.  The probe is a frozen kernel that
mixes the kinds of work the program does (CSV parsing, Python loops over
floats, small numpy calls in a loop) and never calls the program.  While an
operation runs, a timer signal runs the kernel every INTERVAL_S; the
operation's wall time, minus the time spent in the kernel, is scaled by
REF_S over the mean kernel time.  A reported time is thus the time the
operation takes on a machine where the kernel takes REF_S, and a change to
the program moves it in full.
"""

from __future__ import annotations

import csv
import io
import signal
import statistics
import time

import numpy as np

# kernel time on the reference machine: a 2-vCPU Xeon VM at its quiet speed
REF_S = 0.0015
INTERVAL_S = 0.1


class Probe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        rows = rng.normal(size=(60, 31))
        self.text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        self.series = rng.normal(size=1500).tolist()
        self.C = rng.normal(size=(16, 6))
        self.d = rng.normal(size=16)
        self.x = rng.normal(size=6)

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        cols = list(zip(*csv.reader(io.StringIO(self.text))))
        acc = sum(float(v) for v in cols[3])
        run, best = float("inf"), float("-inf")
        for a, b in zip(self.series, reversed(self.series)):
            run = min(run, a)
            best = max(best, min(run, b))
        acc += best
        for _ in range(40):
            v = self.C @ self.x + self.d
            m = float(v.min())
            w = np.exp(-20.0 * (v - m))
            s = float(w.sum())
            acc += m - np.log(s) / 20.0 + float(np.linalg.norm((w / s) @ self.C))
        return time.perf_counter() - t0


class SpeedScale:
    """Times a call and samples the probe on a timer while it runs."""

    def __init__(self):
        self.probe = Probe()
        self._samples = []
        self._busy = False
        self.probe_s = 0.0  # time the probe ran inside the last timed call

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._samples.append(self.probe.seconds())
            self._busy = False

    def factor(self) -> float:
        """REF_S over the median of five kernel runs: the scale of work done
        now, away from any timed call."""
        return REF_S / statistics.median(self.probe.seconds() for _ in range(5))

    def time(self, fn, *args, **kwargs):
        """Returns (fn's result, wall seconds, scaled seconds); the wall time
        excludes the probe's own runs."""
        self._samples = []
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        # one sample at the end so that short calls have one too
        samples = self._samples + [self.probe.seconds()]
        self.probe_s = sum(samples[:-1])
        wall -= self.probe_s
        return out, wall, wall * REF_S / statistics.fmean(samples)
