"""Float helpers for tests that probe comparisons at their exact edges."""

import numpy as np


def nudge(x, ulps):
    """``x`` moved ``ulps[i]`` representable doubles up (or down, < 0)."""
    out = np.array(x, dtype=np.float64)
    for step in range(int(np.abs(ulps).max(initial=0))):
        move = np.abs(ulps) > step
        out[move] = np.nextafter(out[move], np.where(ulps[move] > 0, np.inf, -np.inf))
    return out
