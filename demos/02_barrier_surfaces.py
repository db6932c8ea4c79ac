"""
From a task formula to a time-varying barrier
=============================================

Build the smooth barrier for a two-part task, inspect the softmin
composition, the gamma funnels and the activity switch where a finished
subtask drops out.
"""

import numpy as np

from stlcbf import (
    StateLayout, parse, normalize, GammaParams, build_barrier,
    barrier_state, left_limit_state, gamma_eval,
)

layout = StateLayout(ids=(1,), dims=(2,))
task = "G[0,2](dot([0,1], x1) - 0.5 >= 0) & F[1,5](norm_inf(x1 - [4,2]) <= 1)"
units = normalize(parse(task, layout))
print("task:", task)
print("operator units:")
for u in units:
    print(f"  {u.kind:10s} window end {u.deadline:g}, critical time {u.t_star:g}")

# one funnel per unit: start below, settle above the robustness target r
r = 0.2
params = [GammaParams.from_target(-2.0, r + 1.0, r, u.t_star) if u.t_star > 0
          else GammaParams(-2.0, r + 1.0, 1.0, u.t_star)
          for u in units]
for u, g in zip(units, params):
    print(f"  gamma for {u.kind}: gamma({g.t_star:g}) = {gamma_eval(g, g.t_star):.3f}")

cb = build_barrier(units, params, eta=15.0, bound_radius=20.0)
print(f"barrier horizon {cb.horizon:g}, switches at {cb.schedule}")

# the softmin never exceeds the hard minimum of its terms, and the gap is
# bounded by ln(p)/eta
x = np.array([1.0, 1.5])
st = barrier_state(cb, x, 0.5)
hard_min = float(np.min(st.term_values))
print(f"at x={x}, t=0.5: softmin {st.value:.4f} <= hard min {hard_min:.4f}, "
      f"gap {hard_min - st.value:.4f} <= ln(p)/eta = "
      f"{np.log(len(st.term_values)) / cb.eta:.4f}")

# crossing the first deadline removes the always-clause terms, so the
# barrier can only jump upward; visible where that clause was the binding one
s = cb.schedule[0]
near_goal = np.array([3.5, 1.8])
before = left_limit_state(cb, near_goal, s).value
after = barrier_state(cb, near_goal, s).value
print(f"switch at t={s:g}, x={near_goal}: left limit {before:.4f} -> "
      f"value {after:.4f} (jump {after - before:+.4f})")

# optional picture: barrier over time along a fixed state
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ts = np.linspace(0.0, cb.horizon - 1e-6, 400)
    for pt in (np.array([1.0, 1.5]), np.array([4.0, 2.0])):
        vals = [barrier_state(cb, pt, t).value for t in ts]
        plt.plot(ts, vals, label=f"x = {pt}")
    plt.axhline(0.0, color="k", lw=0.5)
    plt.xlabel("t")
    plt.ylabel("barrier value")
    plt.legend()
    plt.savefig("barrier_surfaces.png", dpi=120)
    print("wrote barrier_surfaces.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
