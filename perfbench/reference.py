"""A fixed numpy workload that gauges how fast the host runs at the moment.

On a shared host the speed of identical work drifts by 20-35 % over minutes,
and the cause sits outside the process, since CPU time tracks wall time. The
kernel below does the same kind of work as a himie training step: small
matmuls, softmax and tanh on 44x32 arrays, driven from Python, and a
hand-written backward pass. It is sampled between training jobs and
evaluation passes. Times divided by the host's current kernel time and
multiplied by `REFERENCE_S` follow the himie code and not the host.

The kernel does not use himie. A change to himie can reach it only through
the caches and heap it leaves behind; the warm-up steps and the paused
garbage collector keep that small.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

REPS = 400
# Reference kernel time: times are reported as if the kernel took this long.
# It is close to the kernel's median on the 2-core x86 host the bounds were
# fixed on, so reported times are near that host's wall times.
REFERENCE_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((44, 32))
_WEIGHTS = [_rng.standard_normal((32, 32)) * 0.1 for _ in range(8)]


def _step() -> None:
    h, saved = _X, []
    for w in _WEIGHTS:
        a = h @ w
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        h = np.tanh(a + e / e.sum(axis=-1, keepdims=True))
        saved.append(h)
    g = np.ones_like(h)
    for h_i, w in zip(reversed(saved), reversed(_WEIGHTS)):
        g = (g * (1.0 - h_i * h_i)) @ w.T


def kernel_seconds() -> float:
    """Wall time of one fixed run of the reference kernel.

    The garbage collector is paused so that the heap himie left behind does
    not change the kernel's time, and a few untimed steps warm the caches.
    """
    gc.disable()
    try:
        for _ in range(10):
            _step()
        t0 = perf_counter()
        for _ in range(REPS):
            _step()
        return perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Reference-kernel samples taken across one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    def to_reference(self) -> float:
        """Multiply a wall time by this to express it in reference time."""
        return REFERENCE_S / statistics.median(self.samples)
