"""Host-speed calibration: a fixed reference loop sampled all through a run.

On a shared host the same code runs up to 1.7 times slower for minutes at
a time, in CPU time as much as in wall time, because other tenants load
the caches, memory and cores the program runs on. Wall-clock seconds then
measure the host as much as the program. The :class:`Sampler` measures the
host's speed at the same moments as the program: a timer interrupts the
process every ``INTERVAL_S`` seconds and runs one fixed chunk of reference
work, timed. The program's own time is wall time less the chunks. Its
calibrated time is that times ``NOMINAL_CHUNK_S`` over the mean chunk time
in the same window: the seconds the work would take on a host on which a
chunk takes ``NOMINAL_CHUNK_S``, about the chunk's time on a quiet 2-core
Xeon (2.0 GHz).

A chunk has three parts, because contention slows them by different
factors and the program does all three: interpreter work on a few hot
objects (float arithmetic, dict and tuple hashing), a walk over float
objects scattered through several MiB of memory, and small numpy calls
(4x4 solves, as in a Kalman update). Their sum tracked the program's
speed more closely than any one part. The chunk is independent of the
program's code, keeps nothing it allocates, and runs with the garbage
collector off, so that neither the program's speed nor the size of its
heap changes what a chunk costs.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1  # one chunk every 100 ms of wall time
NOMINAL_CHUNK_S = 0.005

PY_ITERS = 3000
_TABLE = {(i, i & 7): float(i) for i in range(64)}
_VEC = [float(i) / 16.0 for i in range(16)]

MEM_OBJECTS = 1 << 18  # about 8 MiB of float objects and pointers
MEM_WINDOW = 1 << 15  # objects summed per chunk; the window moves on each time
_SCATTERED = [float(i) for i in range(MEM_OBJECTS)]
random.Random(0).shuffle(_SCATTERED)

NP_SOLVES = 200
_A = np.eye(4) * 3.0 + 0.1

_cursor = 0  # start of the next chunk's window into _SCATTERED


def reference_chunk() -> float:
    """A fixed amount of reference work; returns a checksum."""
    global _cursor
    table = _TABLE
    vec = _VEC
    acc = 0.0
    for i in range(PY_ITERS):
        k = i & 63
        key = (k, k & 7)
        x = table[key] * 0.5 + vec[i & 15] * vec[(i + 3) & 15]
        table[key] = x if x < 1e6 else 0.0
        acc += x * x - acc * 1e-3
    at = _cursor
    _cursor = (at + MEM_WINDOW) % MEM_OBJECTS
    acc += sum(_SCATTERED[at:at + MEM_WINDOW])
    for i in range(NP_SOLVES):
        x = np.linalg.solve(_A, _A[:, i & 3])
        acc += float(x @ x)
    return acc


class Sampler:
    """Reference chunks interleaved with the program by an interval timer.

    Between :meth:`start` and :meth:`stop`, ``SIGALRM`` runs a chunk every
    ``INTERVAL_S`` seconds in the main thread, at the next bytecode
    boundary of whatever is running.
    """

    def __init__(self):
        self.chunks = 0
        self.chunk_s = 0.0

    def _on_alarm(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_chunk()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        self.chunks += 1
        self.chunk_s += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall time less the time spent in chunks: the program's own clock."""
        while True:
            spent = self.chunk_s
            now = perf_counter()
            if self.chunk_s == spent:
                return now - spent

    def mark(self) -> tuple[int, float]:
        return self.chunks, self.chunk_s

    def speed(self, since: tuple[int, float]) -> float:
        """NOMINAL_CHUNK_S over the mean chunk time since ``since``."""
        chunks = self.chunks - since[0]
        if chunks == 0:
            raise RuntimeError("no reference chunk ran in the window; it is too short")
        return NOMINAL_CHUNK_S * chunks / (self.chunk_s - since[1])
