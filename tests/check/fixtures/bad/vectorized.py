"""Double-buffer-violating kernel (lint fixture).

Named ``vectorized.py`` so the path-scoped DB101 rule applies.
"""

import numpy as np


def apply_generation(sched, D, layout):
    D[0] = np.minimum(D[0], D[1])  # DB103: mutates the read-only field
    np.copyto(D, D[::-1])  # DB103
    np.minimum(D[0], D[1], out=D[0])  # DB103: out= targets D
    return D


def run_kernel(schedule, cur, other, ws, layout):
    for sched in schedule:
        scratch = np.zeros(cur.shape[1], dtype=np.int64)  # DB101
        snap = cur.copy()  # DB101: allocation inside the generation loop
        np.minimum(cur[0], snap[0], out=scratch)
    return cur
