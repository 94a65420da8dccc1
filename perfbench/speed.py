"""Machine-speed probe: untraced times are given at a fixed reference speed.

On a shared machine the speed of one core drifts by 20-50% over tens of
seconds, and no statistic taken inside one run removes that.  While a timed
region runs, a SIGALRM handler times a fixed pure-Python kernel (dict and
tuple work, like the interpreter-bound program) every ``INTERVAL_S`` seconds,
with the garbage collector held off.  The region's net time is its wall time
minus the kernel time spent inside it; its time at the reference speed is the
net time scaled by ``REFERENCE_S`` over the 10% trimmed mean of the kernel
times sampled in it.  A slower program reads slower at any machine speed; a
slower machine cancels out.  Stdlib only, so it can run before numpy is
imported.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.025
REFERENCE_S = 0.8e-3   # the kernel's time at the reference speed: near its median on a 2-core x86-64 sandbox


def kernel():
    d = {}
    for i in range(2500):
        k = (i & 31, i >> 5)
        d[k] = d.get(k, 0.0) + i * 0.5
    return d


class SpeedProbe:
    """Kernel timings, appended to ``samples`` between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)
        if collecting:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference(net, samples):
    """``net`` seconds measured at the speed ``samples`` saw, at the reference speed."""
    if not samples:
        return net
    srt = sorted(samples)
    cut = len(srt) // 10
    return net * REFERENCE_S / statistics.fmean(srt[cut:len(srt) - cut])
