"""Host-speed calibration.

The benchmark runs on shared hosts whose speed drifts by a quarter or more
over minutes while the process stays on-CPU (CPU time tracks wall time),
so the drift comes from the host and no amount of repetition inside one
run removes it. Each pass therefore also times a fixed reference slice of
work, and timings are reported at the reference host's speed:

    normalised time = measured time * REFERENCE_S / median slice time

The slice mixes small-array numpy calls with scalar Python math, as the
simulator does, but shares no code with tacpush, so a change to tacpush
cannot move it. Raw timings are kept in the run's result file.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median slice time on the reference host (2 x Intel Xeon, Python 3.11.7,
# numpy 2.4.6) when it was quiet; see NOTES.md
REFERENCE_S = 0.0029
SLICE_ITERATIONS = 160

_rng = np.random.default_rng(20201203)
_angles = np.sort(_rng.uniform(0.0, 2.0 * math.pi, 24))
_VERTS = np.stack([30.0 * np.cos(_angles), 30.0 * np.sin(_angles)], axis=1)
_EDGES = np.roll(_VERTS, -1, axis=0) - _VERTS
_EDGE_LEN2 = np.sum(_EDGES * _EDGES, axis=1)


def _reference_work(n: int) -> float:
    """Nearest-edge queries against a fixed 24-gon."""
    acc = 0.0
    for i in range(n):
        q = np.array([math.sin(i) * 40.0, math.cos(i * 0.7) * 40.0])
        w = q[None, :] - _VERTS
        t = np.clip(np.sum(w * _EDGES, axis=1) / _EDGE_LEN2, 0.0, 1.0)
        d = q[None, :] - (_VERTS + t[:, None] * _EDGES)
        d2 = np.sum(d * d, axis=1)
        k = int(np.argmin(d2))
        acc += math.sqrt(float(d2[k])) + math.atan2(q[1], q[0])
    return acc


def slice_seconds() -> float:
    """Wall time of one reference slice."""
    t0 = time.perf_counter()
    _reference_work(SLICE_ITERATIONS)
    return time.perf_counter() - t0


def slices(n: int) -> list:
    """Wall times of n reference slices in a row."""
    return [slice_seconds() for _ in range(n)]
