"""Timing that allows for the speed of a shared machine.

On a shared virtual machine, load from outside the process changes how fast
a fixed computation runs, by up to 2.5x, in phases that last from under a
second to minutes: often longer than a whole run. Such phases move every
timing of a run together, so `Timer` measures the machine's speed as it
goes. Whenever `interval` seconds have passed since its last probe, it times
a fixed reference computation (`probe`: a pure-Python loop, small
eigendecompositions and products, and a few at n = 64, built from numpy
alone, so no change to the library can change it). Every sample recorded
since the previous probe is rescaled by `NOMINAL_S / p`, where p is the mean
of the probes just before and just after it: calibrated seconds are the
seconds the sample would have taken at the speed at which the reference
computation takes `NOMINAL_S`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.020


class Timer:
    def __init__(self, interval: float):
        self.interval = interval
        rng = np.random.default_rng(20160428)
        self._small = [_hermitian(rng, n) for n in (4, 12)]
        self._big = _hermitian(rng, 64)
        self.probes: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self.calibrated: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []
        self._last = self.probe()
        self._last_at = perf_counter()

    def probe(self) -> float:
        """Seconds the reference computation takes now."""
        t0 = perf_counter()
        counts: dict[int, int] = {}
        for i in range(40000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        tiny, small = self._small
        for _ in range(300):
            np.linalg.eigh(small)
            tiny @ tiny
        for _ in range(6):
            np.linalg.eigh(self._big)
            self._big @ self._big
        seconds = perf_counter() - t0
        self.probes.append(seconds)
        return seconds

    def time(self, key: str, fn):
        """Call `fn()`, record its seconds under `key`, and return its result."""
        t0 = perf_counter()
        result = fn()
        self.record(key, perf_counter() - t0)
        return result

    def record(self, key: str, seconds: float) -> None:
        self.raw.setdefault(key, []).append(seconds)
        self._pending.append((key, seconds))
        if perf_counter() - self._last_at >= self.interval:
            self.flush()

    def flush(self) -> None:
        """Probe now and calibrate every sample recorded since the last probe."""
        if not self._pending:
            return
        now = self.probe()
        scale = NOMINAL_S / ((self._last + now) / 2)
        for key, seconds in self._pending:
            self.calibrated.setdefault(key, []).append(seconds * scale)
        self._pending.clear()
        self._last = now
        self._last_at = perf_counter()


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2
