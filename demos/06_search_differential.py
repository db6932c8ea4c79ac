"""
The barrier search on 24 seeded random tasks
============================================

Runs maximize_r, with no cap on r, on the k-th random task of the
benchmark's formula generator (perfbench/workloads.formula_text with rng
[7, k], k = 0..23, span 10; one clique of four planar agents, x0 drawn
uniformly from [0, 10]^8 right after the text) and prints, per task,
whether a feasible r was found, r_star, the chosen eta and the seconds the
search took.  Comparing two versions' output shows what a search change
gains or loses, task by task.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import formula_text  # noqa: E402

from stlcbf import StateLayout, maximize_r, normalize, parse  # noqa: E402

LAYOUT = StateLayout(ids=(1, 2, 3, 4), dims=(2, 2, 2, 2))
TASKS = range(24)


def task(k):
    rng = np.random.default_rng([7, k])
    text = formula_text(rng, k, 10.0)
    return normalize(parse(text, LAYOUT)), rng.uniform(0.0, 10.0, size=8)


total = time.perf_counter()
print(f"{'k':>3} {'units':>5} {'switches':>8} {'feasible':>8} {'r_star':>8} {'eta':>5} {'seconds':>8}")
for k in TASKS:
    units, x0 = task(k)
    t0 = time.perf_counter()
    res = maximize_r(units, x0)
    dt = time.perf_counter() - t0
    switches = len({u.deadline for u in units})
    eta = res.diagnostics.get("eta", float("nan")) if res.feasible else float("nan")
    print(f"{k:>3} {len(units):>5} {switches:>8} {str(res.feasible):>8} {res.r_star:>8.4f} "
          f"{eta:>5g} {dt:>8.2f}", flush=True)
print(f"total {time.perf_counter() - total:.1f} s")
