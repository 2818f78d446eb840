"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the same code runs at speeds up to 1.6x apart, in phases
that last from seconds to minutes, so runs minutes apart are not comparable.
The benchmark times a fixed numpy kernel (small-array contractions, a
stencil shift and elementwise work, like grflab's inner loops) right before
and after every measured interval (an operation or a group of set-ups).  The
host factor of the interval is the mean of the two kernel times over
`NOMINAL_S`; `run.py` decides how far to divide each time by it.  The kernel
involves no grflab code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.2  # about the kernel's median time on a 2-core Xeon host
_REPEATS = 150


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 6, 6))
        self._b = rng.normal(size=(64, 6, 6))
        self._c = rng.normal(size=(64, 6, 6, 6))
        self.kernel_s: list[float] = []
        self._sample()

    def _sample(self) -> None:
        a, b, c = self._a, self._b, self._c
        t0 = time.perf_counter()
        for _ in range(_REPEATS):
            x = np.einsum("...ij,...jk,...klm->...ilm", a, b, c)
            np.einsum("...ilm,...im->...l", x, a)
            np.roll(x, 1, axis=0) * 0.5 + x
        self.kernel_s.append(time.perf_counter() - t0)

    def bracket(self) -> float:
        """Take a new sample and return the host factor (kernel time over
        `NOMINAL_S`) for the interval since the previous sample."""
        self._sample()
        return 0.5 * (self.kernel_s[-2] + self.kernel_s[-1]) / NOMINAL_S
