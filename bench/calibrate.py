"""A fixed kernel timed alongside the ops, to state times at one reference speed.

On shared machines the speed a process gets can change by 30-50 % for
tens of seconds at a time (a fixed Python loop alternates between two
speeds), which moves raw timings between runs far more than any change
worth detecting.  So the benchmark times this kernel at least every
``EVERY_S`` seconds and scales each op's time by the kernel's reference
time over its latest time: the figures read as milliseconds on a machine
where the kernel's parts take ``PART_REFERENCE_S``.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# Each part's time at the faster of the two speeds seen on a 2-CPU x86-64
# machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3 on one thread.
PART_REFERENCE_S = {"objects": 0.13e-3, "small": 0.34e-3, "blas": 0.23e-3, "updates": 6e-3, "interpreter": 0.1}
# Re-time the kernel at least this often, and at most every 50 kernel
# times, so that it costs no more than a few per cent of the run.
EVERY_S = 0.25
REPEATS = 3


@dataclass(frozen=True)
class _Pair:
    key: int
    weight: float


class Calibration:
    """The kernel for one workload: ``mix`` says how many times each part runs.

    A workload picks the mix whose slow-down tracked its ops best:
    dataclass, dict and generator calls (``objects``), numpy calls on 4 x 4
    and 16 x 16 matrices (``small``), one 128 x 128 complex product
    (``blas``), a pivoted rank-1 elimination of a 128 x 128 complex Gram
    matrix, the loop that validates a state (``updates``), a fresh
    interpreter importing numpy (``interpreter``).
    """

    def __init__(self, mix: dict[str, int]):
        rng = np.random.default_rng(0)
        self._rng = np.random.default_rng(1)
        self._m4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._m16 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._m128 = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._gram = self._m128 @ self._m128.conj().T
        self._parts = [(getattr(self, "_" + part), count) for part, count in mix.items()]
        self.reference_s = sum(PART_REFERENCE_S[part] * count for part, count in mix.items())
        self._last = -float("inf")
        self._kernel_s = 0.0
        self.scale = 1.0

    def _objects(self) -> None:
        totals: dict[int, float] = {}
        for k in range(120):
            pair = _Pair(k % 7, k * 0.5)
            totals[pair.key] = totals.get(pair.key, 0.0) + pair.weight + self._rng.random()

    def _small(self) -> None:
        for _ in range(30):
            np.trace(self._m4 @ self._m4 @ self._m4)
        for _ in range(20):
            float(np.linalg.norm(self._m16 @ self._m16 - self._m16, "fro"))

    def _blas(self) -> None:
        self._m128 @ self._m128

    def _interpreter(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)

    def _updates(self) -> None:
        a = self._gram.copy()
        for k in range(a.shape[0] - 1):
            j = k + int(np.argmax(np.real(np.diag(a))[k:]))
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
            col = a[k + 1:, k]
            a[k + 1:, k + 1:] -= np.outer(col, col.conj()) / a[k, k].real

    def time_kernel(self) -> float:
        """Best of ``REPEATS`` runs of the kernel, in seconds."""
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for part, count in self._parts:
                for _ in range(count):
                    part()
            best = min(best, time.perf_counter() - start)
        return best

    def factor(self, kernel_s: float) -> float:
        """The scale for an op timed while the kernel took ``kernel_s``."""
        return self.reference_s / kernel_s

    def refresh(self) -> float:
        """Re-time the kernel when the last timing is old enough; return the current scale."""
        now = time.perf_counter()
        if now - self._last >= max(EVERY_S, 50 * self._kernel_s):
            self._kernel_s = self.time_kernel()
            self.scale = self.factor(self._kernel_s)
            self._last = time.perf_counter()
        return self.scale
