"""Timing that stays steady on a shared machine.

Other tenants slow this machine's cores by up to 1.8x for seconds at a time,
and the slowdown scales interpreted Python and small numpy calls alike. So
every timed pass is bracketed by a fixed calibration loop, and its wall time
is scaled by ``REFERENCE_S`` over the mean of the two calibration times: the
result reads as the time the pass takes on a machine where the loop takes
``REFERENCE_S``. Passes are kept short (0.015-0.3 s) so that the machine's
state does not change much within one. Raw wall times are reported as well.
Set-up time is scaled by a reference import instead; see run.setup_samples.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Duration of ``calibration()`` on the reference machine (2 shared cores at
# 2.0 GHz, Python 3.11.7, numpy 2.4.6) in its fast state.
REFERENCE_S = 3.2e-3

_EYE2 = np.eye(2, dtype=complex)


def calibration() -> float:
    """Fixed mix of interpreted float arithmetic and 4x4 complex numpy products."""
    acc = 0.0
    for i in range(10_000):
        acc += math.sin(i * 1e-3) * 0.5
    state = np.ones(4, dtype=complex)
    for _ in range(100):
        state = np.kron(_EYE2, _EYE2) @ state
    return acc + float(state.real.sum())


def calibrate() -> float:
    """Duration of one calibration loop, in seconds."""
    start = time.perf_counter()
    calibration()
    return time.perf_counter() - start


def timed(fn, *args):
    """Call ``fn(*args)`` between two calibrations.

    Returns ``(result, raw wall seconds, scale)``, where ``raw * scale`` is
    the wall time at the reference speed.
    """
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    return result, raw, 2.0 * REFERENCE_S / (before + calibrate())
