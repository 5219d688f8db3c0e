"""Speed probe: a fixed piece of work that does not touch the engine.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes as other guests load the host. The probe is
interpreter work and small-array numpy work, the kind the engine does, and
the driver runs it between operations. Scaling the engine's times by
``NOMINAL_S`` ÷ the probe's median time over the same run cancels the part
of the drift that the two share; a change to the engine cannot move the
probe.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.005   # the probe's median CPU time on the reference VM (README)
_MASK = (1 << 64) - 1


def probe() -> float:
    """CPU seconds taken by one fixed probe."""
    t0 = time.process_time()
    s = 0
    for i in range(9000):
        s = (s * 6364136223846793005 + i) & _MASK
    rows = np.arange(2048.0).reshape(128, 16) / 2048.0
    v = np.ones(16)
    for _ in range(120):
        x = np.add.accumulate(rows * v, axis=1)[:, -1]
        e = np.exp(x - np.max(x))
        v = 0.5 * v + e[:16] / np.add.accumulate(e)[-1]
    return time.process_time() - t0
