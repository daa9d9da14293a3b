"""Host-speed reference sampled while the program runs.

On a shared host the same work can run up to twice as slow from one
minute to the next, which wall time alone cannot tell from a slower
program.  While ``Sampler`` is active, an interval timer (SIGALRM,
``ITIMER_REAL``) interrupts the timed code every ``PERIOD_S`` and the
handler runs one fixed chunk of reference work, timing it.  The chunks
run no program code, so their mean time over a batch is the host's speed
during that batch, and a batch's time divided by it is the batch's cost
in chunks (unit ``cal``), which a program change moves and a host
slowdown mostly does not.  The chunks' own time is taken out of every
operation timed while they ran.

The chunk mixes the kinds of work the program does: an interpreter loop,
16x16 ``numpy.linalg.solve`` calls and short vector expressions.  On a
2-vCPU virtual machine whose speed swung by up to 1.6x, a qvco run's time
over this mix varied about 2.5 times less than its wall time, and a
sweep pass's about 6 times less; each kind alone tracked the host less
well.  It costs about 5 % of a batch.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
LOOP_ITERATIONS = 20_000
SOLVES = 250
VECTOR_STEPS = 150

_rng = np.random.default_rng(0)
_A = _rng.random((16, 16)) + 16.0 * np.eye(16)
_B = _rng.random(16)
_X = _rng.random(64)


def chunk() -> None:
    """One unit of reference work, about 5 ms on a quiet host."""
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    for _ in range(SOLVES):
        np.linalg.solve(_A, _B)
    x = _X
    for _ in range(VECTOR_STEPS):
        x = np.clip(np.exp(-x) * x + np.tanh(x), 0.0, 1.0)


class Sampler:
    """Runs ``chunk`` every PERIOD_S while entered, and records each
    chunk's (start, end) in ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.chunks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        self.chunks.append((t0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.chunks:  # a batch shorter than one period
            self._tick(None, None)

    def spent(self, start: float, end: float) -> float:
        """Seconds of chunks that ran between ``start`` and ``end``.  A
        chunk runs whole between two bytecodes, so it lies wholly inside
        or wholly outside any interval the timed code measured."""
        return sum(e - s for s, e in self.chunks if s >= start and e <= end)

    def mean_chunk_s(self) -> float:
        return statistics.fmean(e - s for s, e in self.chunks)
