"""
Offline search for the barrier parameters
=========================================

Maximize the robustness target r for which a feasible barrier exists,
then look at the feasibility margins the search certifies.  The search has
one setting, the cap r_max on r; its margin delta and eta are fixed.
"""

import numpy as np

from stlcbf import (
    StateLayout, parse, normalize, maximize_r,
    feasibility_check, barrier_state, left_limit_state,
)

# a single planar agent that has to reach a goal box while keeping y >= 0
layout = StateLayout(ids=(1,), dims=(2,))
task = "G[0,6](dot([0,1], x1) >= 0) & F[2,6](norm_inf(x1 - [3,2]) <= 1)"
units = normalize(parse(task, layout))
x0 = np.array([0.0, 1.0])

result = maximize_r(units, x0, r_max=1.0)
print("task:", task)
print(f"feasible: {result.feasible}, r_star = {result.r_star:.4f}, "
      f"kappa = {result.kappa:.4g}")
print("search diagnostics:")
for key in ("eta", "bound_radius", "initial_margin", "switch_margins", "ascent_exits"):
    print(f"  {key}: {result.diagnostics[key]}")

# the certified margins: the barrier clears delta at t=0 and (approaching
# from the left) at every activity switch
cb = result.barrier
print(f"barrier at (x0, 0): {barrier_state(cb, x0, 0.0).value:.4f} "
      f"(needs >= delta = {result.diagnostics['delta']})")
for s, w in result.witnesses.items():
    print(f"  witness at switch {s:g}: left limit {left_limit_state(cb, w, s).value:.4f}")

# re-check the winning barrier on its own; the class-K gain kappa the
# controller uses is a fixed constant of the search, not derived from them
report = feasibility_check(cb, x0, result.r_star)
print(f"independent feasibility check: feasible = {report.feasible}, "
      f"initial margin {report.initial_margin:.4f}")
print(f"kappa shipped with the barrier: {result.kappa:.4g}")

# starting almost on the y = 0 boundary shrinks the achievable target
tight = maximize_r(units, np.array([0.0, 0.05]), r_max=1.0)
print(f"tight start: feasible = {tight.feasible}, r_star = {tight.r_star:.4f}")

# and starting outside the constraint set is reported as infeasible
bad = maximize_r(units, np.array([0.0, -0.5]), r_max=1.0)
print(f"bad start: feasible = {bad.feasible}, "
      f"warnings = {bad.diagnostics['warnings']}")
