"""Double-buffer-clean kernel (lint fixture).

Named ``vectorized.py`` so the path-scoped DB101 rule applies.
"""

import numpy as np


def apply_generation(sched, D, layout):
    new = D.copy()  # fresh result; D stays untouched
    new[0] = np.minimum(new[0], new[1])
    return new


def run_kernel(schedule, cur, ws, layout):
    for sched in schedule:
        np.copyto(ws.col, cur[0])
        np.minimum(cur[0], ws.col, out=ws.scratch)  # in-place, no alloc
    return cur
