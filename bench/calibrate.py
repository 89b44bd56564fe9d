"""Host-speed calibration: a fixed kernel, timed around and inside every step.

On a shared 2-vCPU virtual machine the CPU can switch between a fast and a
slow state, often several times a second; the same call then takes up to
1.8 times as long, in wall and in CPU time alike.  A fixed kernel of the
same kind of work (interpreted Python driving small numpy arrays, as the
model's RHS does) slows by about the same factor.  So the kernel, under half
a millisecond long, runs before and after each step and every
SAMPLE_PERIOD_S inside it, and the step's time, less the kernel's, is
scaled by ``REF_S / mean kernel time``.  Times so scaled read as seconds at
the reference speed.  The kernel is benchmark code only, so a faster
program never makes it faster."""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NUMPY_ITERS = 40
PY_ITERS = 1500
# Kernel time on the reference machine in its fast state: a 2-vCPU x86-64
# container, Python 3.11.7, numpy 2.4.6, one BLAS thread.  Only a scale:
# changing it scales every time alike.
REF_S = 0.286e-3
SAMPLE_PERIOD_S = 0.01

_X0 = np.linspace(0.1, 1.0, 9)
_M = np.eye(9) * 0.5 + 0.01


def _kernel():
    """Small-array numpy steps, then scalar Python arithmetic: the two kinds
    of work the package's right-hand sides and drivers mix.  Either kind
    alone tracked the host's slow state less well."""
    x = _X0.copy()
    for _ in range(NUMPY_ITERS):
        y = _M @ x
        x = 0.5 * (x + y / (1.0 + y.sum()))
    s = float(x[0])
    for i in range(PY_ITERS):
        s += (i % 7) / (1.0 + s * 1e-6)
    return s


def sample():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class StepClock:
    """Times one step and scales it to the reference speed.

    The kernel runs before and after the step and, with ``sample_inside``,
    from a SIGALRM handler every SAMPLE_PERIOD_S during it; the handler's own
    time is taken out of the step's.  After the block, ``raw_s`` is the
    step's time, ``cal_s`` the mean kernel time and ``s`` the scaled time.
    """

    def __init__(self, sample_inside):
        self.sample_inside = sample_inside
        self.samples = []
        self.inside_s = 0.0
        self.active = False

    def _on_alarm(self, signum, frame):
        if self.active:   # off inside the handler too, so it never nests
            self.active = False
            t0 = time.perf_counter()
            self.samples.append(sample())
            self.inside_s += time.perf_counter() - t0
            self.active = True

    def start(self):
        self.samples.append(sample())
        if self.sample_inside:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self.active = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.t0 = time.perf_counter()
        return self

    def stop(self):
        t1 = time.perf_counter()
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.active = False
            signal.signal(signal.SIGALRM, self.previous)
        self.raw_s = t1 - self.t0 - self.inside_s
        self.samples.append(sample())
        self.cal_s = statistics.fmean(self.samples)
        self.s = scale(self.raw_s, self.cal_s)
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


def scale(raw_s, cal_s):
    """``raw_s`` expressed at the reference speed, given kernel time ``cal_s``."""
    return raw_s * REF_S / cal_s
