"""The host's speed over a run, read from a fixed reference kernel.

The benchmark runs on a shared host whose speed drifts: a fixed kernel takes
up to 1.8x its usual time while other tenants load the machine, and such
spells can outlast a whole run.  Every time inside a run moves with them, the
fastest of twenty passes included.  So while ``HostSpeed`` runs, a timer
signal interrupts the program every ``GAP_S`` seconds to time ``kernel``,
and a time measured at instant t is put on the scale of a host that runs
the kernel in ``REF_SECONDS``:

    scaled = measured * REF_SECONDS / (the kernel's time at t)

A sample is the median of ``BURST`` kernel runs, and the samples are
smoothed by a rolling median of ``SMOOTH``: single samples scatter by up to
2x.  The kernel's time over a step is the median of the smoothed samples
taken while it ran, if there are three or more, and otherwise their value
interpolated at the middle of the step.  ``clock`` is
``time.perf_counter`` less the time spent sampling, so the program's times
leave the samples out.

The kernel is the benchmark's own code and calls nothing of mhspectral.  It
mimics the program's mix of small numpy operations and interpreter work,
and it starts from caches swept by a fixed buffer, so that it slows down as
the program does when other tenants contend for the caches, while what the
program left in the caches cannot move it.
"""

from __future__ import annotations

import contextlib
import json
import signal
import time

import numpy as np

# Fixes the unit of the scaled times only; the ratio of two runs does not
# depend on it.  With this value, on a 2-core Intel Xeon host (numpy 2.4,
# OpenBLAS on one thread), scaled small_mix batch_s came out near the
# fastest unscaled batch_s of the host's quiet spells.
REF_SECONDS = 1.7e-4
GAP_S = 0.05  # time between two samples
BURST = 3  # kernel runs per sample
SMOOTH = 5  # samples in the rolling median

_A = np.linspace(0.1, 1.0, 144).reshape(12, 12)
_FLUSH = np.ones(1 << 19)  # 4 MB, more than a core's L2 cache


def kernel() -> float:
    """A small normalized power iteration, an eigenvalue solve and a JSON dump."""
    x = np.ones(12)
    acc = 0.0
    for _ in range(20):
        y = _A @ x
        s = float(np.max(np.abs(y)))
        x = y / s
        acc += s
    acc += float(np.max(np.abs(np.linalg.eigvals(_A))))
    json.dumps({"x": [round(v, 6) for v in x.tolist()]})
    return acc


class HostSpeed:
    """Kernel samples taken over a run, and the scale factors they give."""

    def __init__(self):
        self.at: list[float] = []  # clock() at each sample
        self.seconds: list[float] = []  # the kernel's time in each sample
        self.spent = 0.0  # seconds spent sampling
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_signal):
        if self._sampling:  # a signal that came while a slow sample ran
            return
        self._sampling = True
        entered = time.perf_counter()
        runs = []
        for _ in range(BURST):
            # start from caches the program's work cannot have shaped: a warm
            # kernel slowed less than the program did, and a kernel timed in
            # whatever cache state the program left would move with the program
            _FLUSH.sum()
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.at.append(entered - self.spent)
        self.seconds.append(float(np.median(runs)))
        self.spent += time.perf_counter() - entered
        self._sampling = False

    @contextlib.contextmanager
    def running(self):
        """Sample every GAP_S seconds, from a SIGALRM handler, until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, GAP_S, GAP_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, mid, seconds=0.0) -> np.ndarray:
        """REF_SECONDS / the kernel's time over each step of ``seconds`` centred at ``mid``.

        That is the median of the smoothed samples within the step, or, where
        it holds fewer than three, their value interpolated at ``mid``.
        """
        mid = np.atleast_1d(np.asarray(mid, dtype=float))
        half = np.broadcast_to(np.asarray(seconds, dtype=float) / 2, mid.shape)
        at = np.asarray(self.at)
        padded = np.pad(np.asarray(self.seconds), SMOOTH // 2, mode="edge")
        dur = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        kernel_s = np.interp(mid, at, dur)
        lo, hi = np.searchsorted(at, mid - half), np.searchsorted(at, mid + half)
        for i in np.flatnonzero(hi - lo >= 3):
            kernel_s[i] = np.median(dur[lo[i]:hi[i]])
        return REF_SECONDS / kernel_s
