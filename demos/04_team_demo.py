"""
Four-agent team scenario end to end
===================================

The packaged demo: a three-agent formation tracks a leader through two
waypoints while a fourth agent patrols a corridor.  Construct barriers
offline, run the decentralized controller under noise and coupling, then
verify the outcome with the independent monitor.
"""

import numpy as np

from stlcbf import (
    demo_config, run_construct, build_scenario, run, verify,
    StateLayout, SampledSignal, parse, robustness,
)

cfg = demo_config()
print("cliques:")
for name, cl in cfg["cliques"].items():
    print(f"  {name}: agents {cl['members']}, disturbance budget "
          f"{cl['coupling_bound']}")
    print(f"    {cl['formula']}")

# offline stage: per-clique parameter search
doc = run_construct(cfg)
for name, entry in sorted(doc["cliques"].items()):
    print(f"constructed {name}: r_star = {entry['r_star']:.3f}, "
          f"kappa = {entry['kappa']:.3g}")

# online stage: coupled noisy simulation with the min-norm feedback law
scenario, formulas, r_stars = build_scenario(cfg, doc)
log = run(scenario)
print(f"simulated {log.times[-1]:g} s in {len(log.times) - 1} steps, "
      f"completed = {log.completed}")

# the monitor never looks at the barriers, only at the logged trajectory
report = verify(log, formulas, scenario.cliques, r_stars)
for name, entry in sorted(report["cliques"].items()):
    print(f"  {name}: min barrier {entry['min_barrier']:.4f}, "
          f"rho = {entry['rho']:.4f} vs r_star {entry['r_star']:g} "
          f"(passed = {entry['passed']})")
print(f"verified: {report['passed']}")

# the joint task is the conjunction over cliques; monitor it on the full
# team signal
team = StateLayout(ids=(1, 2, 3, 4), dims=(2, 2, 2, 2))
joint = parse(" & ".join(f"({cfg['cliques'][n]['formula']})"
                         for n in sorted(cfg["cliques"])), team)
stack = np.concatenate([log.states[i] for i in (1, 2, 3, 4)], axis=1)
rho = robustness(joint, SampledSignal(log.times, stack))
print(f"joint robustness at t=0: {rho:.4f}")

# optional picture: planar paths with the waypoint boxes
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    for i in (1, 2, 3, 4):
        xy = log.states[i]
        plt.plot(xy[:, 0], xy[:, 1], label=f"agent {i}")
        plt.plot(xy[0, 0], xy[0, 1], "ko", ms=3)
    for cx, cy, w in ((2.5, 7.0, 0.5), (8.0, 6.0, 0.5), (9.0, 1.0, 1.0), (1.0, 1.0, 1.0)):
        plt.gca().add_patch(plt.Rectangle((cx - w, cy - w), 2 * w, 2 * w,
                                          fill=False, ls="--", lw=0.8))
    plt.axis("equal")
    plt.legend(fontsize=8)
    plt.savefig("team_demo.png", dpi=120)
    print("wrote team_demo.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
