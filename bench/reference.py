"""A fixed reference loop, timed all through a call, to divide the call's time by.

The benchmark shares its host with other jobs, and the host's speed moves
by tens of percent from one second to the next: the same shortened
heat_flow call took 17.5 s and 23.6 s within a few minutes. A call's
wall time carries that drift whole. The reference block here runs every
``PERIOD_S`` seconds of the call, from a timer signal, so it meets the
host in the same state as the stretch of the call around it; dividing
each stretch by the blocks on its two sides cancels most of the drift.

The block is benchmark code and never changes between the commits it
compares. It runs a simplified projected-gradient iteration on an N=128
entropy step problem, in the style the step solver had when the
benchmark was defined: a validated frozen dataclass per iterate and a
dozen small numpy calls. Host load slows code of this kind about
as much as it slows the solver.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.special import xlogy

PERIOD_S = 0.05  # one block per 50 ms of a call: under 2 % of its time
N = 128
H = 0.01
ITERATIONS = 8  # per block: 0.6-0.8 ms on a 2-core Xeon VM
FLOOR = 1e-12


@dataclass(frozen=True)
class _Iterate:
    positions: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 1 or not np.all(np.isfinite(p)) or np.any(np.diff(p) < 0):
            raise ValueError("positions must be finite and sorted")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "positions", p)


def _iteration(x: np.ndarray, prev: np.ndarray) -> float:
    n = x.size
    rho = _Iterate(x)
    gaps = np.maximum(np.diff(rho.positions), FLOOR)
    dens = 1.0 / (n * gaps)
    value = float(np.mean((x - prev) ** 2)) + 2.0 * H * float(np.sum(gaps * xlogy(dens, dens)))
    dterm = np.where(gaps > FLOOR, -dens, 0.0)
    grad = np.zeros(n)
    grad[1:] += dterm
    grad[:-1] -= dterm
    grad = (2.0 / n) * (x - prev) + 2.0 * H * grad
    cand = x - 1e-3 * grad
    if not np.all(np.diff(cand) >= 0.0):
        cand = np.sort(cand)
    np.clip(cand, 0.0, 1.0, out=cand)
    return value + float(np.dot(grad, cand - x)) + float(np.linalg.norm(cand - x))


class Reference:
    """Times of the reference block, taken before, during and after calls."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = np.sort(rng.random(N))
        self._prev = np.sort(rng.random(N))
        self.blocks: list[tuple[float, float]] = []  # (start, duration)

    def block(self) -> None:
        t0 = perf_counter()
        for _ in range(ITERATIONS):
            _iteration(self._x, self._prev)
        self.blocks.append((t0, perf_counter() - t0))

    @contextmanager
    def sampling(self):
        """Run a block every PERIOD_S seconds of the body, from SIGALRM."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.block())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Call fn with blocks before, during and after it.

        Returns fn's result, its wall time less the blocks run inside it,
        and its time in blocks: each stretch of the call between two
        blocks, divided by the mean duration of those two blocks, summed.
        """
        first = len(self.blocks)
        self.block()
        with self.sampling():
            t0 = perf_counter()
            result = fn()
            t1 = perf_counter()
        self.block()
        blocks = self.blocks[first:]
        inside = [b for b in blocks[1:-1] if t0 <= b[0] < t1]
        own = relative = 0.0
        start, left = t0, blocks[0][1]
        for block_start, duration in inside + [(t1, blocks[-1][1])]:
            own += block_start - start
            relative += (block_start - start) / (0.5 * (left + duration))
            start, left = block_start + duration, duration
        return result, own, relative
