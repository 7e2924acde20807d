"""Host-speed reference loop.

The benchmark host drifts by 15-20 % over seconds, and CPU time drifts
as much as wall time.  Timing this fixed loop between equal-work chunks
of a workload, and scaling each chunk by it, removes most of that
drift.

The loop has to slow down by the same factor as the simulator when the
host does.  Over 29 lifetime_wearout rounds whose CPU time varied by
14 % (log standard deviation), candidate loops measured between the
chunks had these slopes against the round time (1.0 is ideal) and left
these residuals after division:

======================================== ===== ========
loop                                     slope residual
======================================== ===== ========
interpreted integer/dict arithmetic       2.0    9.1 %
small-object construction + method calls  0.9   13.3 %
random gathers over an 8 MiB array        1.0    5.4 %
NumPy calls on 512-cell rows              1.1    3.9 %
a miniature line write (this loop)        1.1    3.9 %
======================================== ===== ========

The miniature line write also tracked best on steady_batch (2.9 %
residual against 12.7 % raw) and fleet_mixed (6.3 % against 10.6 %).

Pure-Python loops overreact to the host's slow phases; the simulator
spends much of its time in small NumPy calls on line-sized rows, and so
does this loop.
It never touches the ``repro`` package, so an optimisation of the
program under test cannot move it.
"""

from __future__ import annotations

import struct
import time

import numpy as np

#: CPU seconds :func:`probe` takes on the reference host.  Normalised
#: times are ``measured * PROBE_REFERENCE_S / probe``: what the chunk
#: would have taken on a host where the loop takes exactly this long.
#: Measured on the 2-vCPU Xeon VM this benchmark was tuned on.
PROBE_REFERENCE_S = 0.0025

_rng = np.random.default_rng(12345)
_LINES = [bytes(_rng.integers(0, 256, 64, dtype=np.uint8)) for _ in range(64)]
_WORDS = struct.Struct("<16I").unpack


def _line_writes(stored: np.ndarray, counts: np.ndarray) -> int:
    """A miniature differential write plus a word-pattern size scan."""
    acc = 0
    sizes = {}
    for i in range(120):
        data = _LINES[(i * 7) & 63]
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        row = i & 63
        differ = bits != stored[row]
        flips = int(np.count_nonzero(differ))
        counts[row][differ] += 1
        stored[row] = bits
        size = 0
        for word in _WORDS(data):
            if word == 0:
                size += 3
            elif word < 256:
                size += 11
            elif word < 65536:
                size += 19
            else:
                size += 35
        sizes[data] = (size, flips, row)
        acc += size + flips
    return acc


def probe() -> float:
    """CPU seconds one pass of the reference loop takes right now."""
    stored = np.zeros((64, 512), dtype=np.uint8)
    counts = np.zeros((64, 512), dtype=np.uint64)
    start = time.thread_time()
    _line_writes(stored, counts)
    return time.thread_time() - start
