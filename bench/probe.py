"""A fixed CPU kernel that tracks the machine's current work rate.

The kernel mixes the two kinds of work a gradsync step spends its time
on: numpy calls on tiny arrays, where interpreter and call overhead
dominate (the runner, fusion, schedules, the fold), and integer bit
passes over a 16K-element float32 vector (the binary16 emulation).  The
kernel never changes with the code under test, so dividing a step's time
by the probe time cancels drift in the machine's speed but not a change
in the program.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time (ms) that scaled timings are normalised to.
REFERENCE_MS = 0.4


class Probe:
    """Runs the kernel once per call and returns its time in ns."""

    def __init__(self):
        rng = np.random.default_rng(20180730)
        self.tiny = rng.standard_normal(16).astype(np.float32)
        self.lhs = rng.standard_normal((8, 16)).astype(np.float32)
        self.rhs = rng.standard_normal((16, 16)).astype(np.float32)
        self.values = rng.standard_normal(16384).astype(np.float32)
        self.bits = self.values.view(np.uint32)

    def __call__(self) -> int:
        t0 = time.perf_counter_ns()
        acc = self.tiny
        for _ in range(30):
            acc = np.where(acc > 0, acc, -acc) * np.float32(0.5) + self.tiny
            prod = self.lhs @ self.rhs
        exp = (self.bits >> np.uint32(13)) & np.uint32(0x3FF)
        picked = np.where(exp > 512, self.values, -self.values)
        rounded = picked.view(np.uint32) + np.uint32(0x1000)
        t1 = time.perf_counter_ns()
        if not np.isfinite(acc[0] + prod[0, 0]) or rounded.size != self.bits.size:
            raise ArithmeticError("probe kernel produced a non-finite value")
        return t1 - t0
