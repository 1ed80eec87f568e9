"""Host-speed sampling, to time commands at a fixed reference speed.

On a shared host the processor's speed drifts between levels up to ~1.6x
apart, in phases of seconds to minutes, and every command of a run moves
with it: over five runs of the same workload the mean call times of all
four commands were fast or slow together, with spreads of 0.18-0.22, while
their ratios to one another spread 0.06.  A run-to-run spread that wide
swamps the regressions the bounds are meant to catch.

``HostSpeed`` measures the drift while the commands run.  A timer signal
interrupts the process every ``EVERY_S`` seconds and times ``probe``, fixed
work that shares no code or data with the program.  A call's scaled time is
its wall time minus the probes that ran inside it, multiplied by
``REFERENCE_S`` over the mean probe time around the call: the time the call
would take on a host where the probe takes ``REFERENCE_S``.  A change to
the program does not change the probe's work, so it moves the scaled time
by the same share as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

EVERY_S = 0.2  # probe interval; one probe costs ~1% of it
WINDOW_S = 0.5  # probes this close to a call's ends also describe it
REFERENCE_S = 0.0017  # probe time on the reference host (2-vCPU VM, CPython 3.11)

_BUFFER = np.random.default_rng(0).random(250_000)  # 2 MB, more than a core's L2 cache
_PRODUCT = np.empty_like(_BUFFER)
_FLOATS = _BUFFER[:400].tolist()


def probe() -> None:
    """Fixed work of the three kinds the program does: an interpreter loop,
    numpy passes over memory and float-to-text formatting."""
    s = 0
    for i in range(12_000):
        s += i * i % 7
    for _ in range(2):
        np.multiply(_BUFFER, 1.0001, out=_PRODUCT)
    ",".join(f"{x:.6f}" for x in _FLOATS)


class HostSpeed:
    """Context manager that samples the probe time while it is open."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration) per probe
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float, busy: float | None = None) -> float:
        """Time of the call that ran from ``t0`` to ``t1`` (or the ``busy``
        part of it), probes excluded, at the reference speed."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples if t0 - WINDOW_S <= s < t1 + WINDOW_S]
        if not near:
            near = [d for _, d in self.samples] or [REFERENCE_S]
        busy = t1 - t0 if busy is None else busy
        return (busy - inside) * REFERENCE_S / statistics.fmean(near)
