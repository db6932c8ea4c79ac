"""
Cost of one team step against the team size
===========================================

The decentralized law gives every agent a closed-form input, so one team
step should cost one barrier evaluation per clique plus a fixed amount per
agent.  This script measures that: it constructs the demo's three-agent
formation clique once, builds K translated copies of it (N = 3K agents, one
clique per copy, each agent also pulled weakly toward its counterpart in the
previous copy), runs the closed loop for a fixed number of steps and prints
microseconds per step against N.  It reads and writes no files, and exits
with status 1 when a run does not complete.
"""

import copy
import sys
import time

import numpy as np

from stlcbf import (
    AgentModel, Clique, CouplingSpec, NoiseSpec, Scenario,
    barrier_from_dict, barrier_to_dict, demo_config, run, run_construct,
)

STEPS = 400
DT = 0.005
COPIES = (1, 2, 4, 8, 12, 16, 21)
SHIFT = np.array([12.0, 0.0])  # offset between neighbouring copies

# one construction: the formation clique of the packaged demo on its own
cfg = demo_config()
cfg["agents"] = {str(i): cfg["agents"][str(i)] for i in (1, 2, 3)}
cfg["initial_states"] = {str(i): cfg["initial_states"][str(i)] for i in (1, 2, 3)}
cfg["cliques"] = {"formation": cfg["cliques"]["formation"]}
entry = run_construct(cfg)["cliques"]["formation"]
base = barrier_to_dict(barrier_from_dict(entry["barrier"]))
print(f"formation clique: r_star = {entry['r_star']:.3g}, kappa = {entry['kappa']:.3g}, "
      f"{len(base['terms'])} barrier terms")


def translated(doc: dict, delta: np.ndarray) -> dict:
    """The barrier of x -> doc(x - delta): affine d -= c.delta, ball b -= A delta;
    the bounding ball grows by |delta| so that it still holds the team."""
    out = copy.deepcopy(doc)
    out["bound_radius"] = doc["bound_radius"] + float(np.linalg.norm(delta))
    for term in out["terms"]:
        p = term["unit"]["predicate"]
        if p["kind"] == "affine":
            p["d"] = p["d"] - float(np.dot(p["c"], delta))
        else:
            p["b"] = (np.asarray(p["b"]) - np.asarray(p["A"]) @ delta).tolist()
    return out


def scenario(k: int, seed: int) -> Scenario:
    agents, cliques, x0, pulls = {}, [], {}, {}
    for c in range(k):
        ids = (3 * c + 1, 3 * c + 2, 3 * c + 3)
        delta = np.tile(c * SHIFT, 3)
        cliques.append(Clique(
            name=f"formation{c}", members=ids,
            barrier=barrier_from_dict(translated(base, delta)),
            coupling_bound=cfg["cliques"]["formation"]["coupling_bound"],
            kappa=float(entry["kappa"]),
        ))
        for role, i in enumerate(ids):
            agents[i] = AgentModel(agent_id=i, state_dim=2)
            x0[i] = np.asarray(cfg["initial_states"][str(role + 1)]) + c * SHIFT
            if c > 0:
                pulls[i] = ((0.05, i - 3),)
    return Scenario(
        agents=agents, cliques=tuple(cliques), x0=x0, dt=DT, horizon=STEPS * DT,
        coupling=CouplingSpec(kind="saturating_attraction", attractions=pulls),
        noise=NoiseSpec(bound=0.1, distribution="uniform_ball", seed=seed),
    )


print(f"\n{'N':>4} {'cliques':>8} {'us/step':>9} {'us/step/agent':>14}  completed")
rows = []
incomplete = 0
for k in COPIES:
    times, completed = [], []
    for seed in range(3):
        sc = scenario(k, seed)
        t0 = time.perf_counter()
        log = run(sc)
        times.append(time.perf_counter() - t0)
        completed.append(log.completed)
    incomplete += completed.count(False)
    us = 1e6 * min(times) / STEPS
    n = 3 * k
    rows.append((n, us))
    print(f"{n:>4} {k:>8} {us:>9.0f} {us / n:>14.1f}  {all(completed)}")

# least-squares line through the points: fixed cost plus cost per agent
n_arr, us_arr = (np.array(v, dtype=float) for v in zip(*rows))
slope, icpt = np.polyfit(n_arr, us_arr, 1)
resid = us_arr - (slope * n_arr + icpt)
print(f"\nfit: {icpt:.0f} us + {slope:.1f} us per agent; "
      f"largest deviation from the line {np.max(np.abs(resid) / us_arr):.1%} of the point")
if incomplete:
    print(f"{incomplete} runs did not complete", file=sys.stderr)
    sys.exit(1)
