"""
The yardstick: the whole pipeline on three seeded task sets
===========================================================

Runs construct, simulate and verify on every task of three sets, over four
planar agents in one clique:

- the 24-task set: perfbench/workloads.formula_text with rng [7, k],
  k = 0..23, span 10, then x0 drawn uniformly from [0, 10]^8 with the same
  rng, right after the text;
- the 120-task set: the same construction with rng [s, k] for seeds
  s = 1, 2, 4, 9, 10.  Its until tasks are almost all infeasible, because a
  random x0 rarely satisfies an until's lhs;
- the F-set, which reaches the eventually operator: for the same s and k,
  rng [100 + s, k], a = rng.uniform(0, 6.5) and the task
  F[a, a + 3.5](psi) with psi = workloads._psi(rng, 1 + 3 (k % 4)), the
  window printed to two decimals, then x0 as above.

Each task is one config: coupling_bound 0.05, no coupling, no secondary
input, noise bound 0, dt 0.005 and an empty search section (no r_max).  Its
pipeline is run_construct, then, for a feasible task, build_scenario(seed=0),
run and verify in-process.

Every task drawn is run and reported: no task is left out.  Each row holds
the task's operator units and switch times, r_star (the level verify checks
rho against), kappa, the eta of the search's winning barrier, the seconds
construction took, whether the run completed, the minimum logged barrier,
the robustness rho at t = 0, the steps that break the discrete barrier
condition b_{k+1} >= (1 - kappa dt) b_k on the logged barrier, the largest
one-step move max_k |x_{k+1} - x_k|_inf, and the verdict; then one count
line per set.  Comparing two versions' output shows, task by task, whether
the soundness chain (construct certifies, the law keeps b >= 0, verify
confirms) holds.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from stlcbf import normalize, run, verify  # noqa: E402
from stlcbf.config import build_scenario, clique_formulas, run_construct  # noqa: E402

SEEDS = (1, 2, 4, 9, 10)
TASKS = range(24)
CLIQUE = "team"


def task_formula_text(s, k):
    rng = np.random.default_rng([s, k])
    return workloads.formula_text(rng, k, 10.0), rng.uniform(0.0, 10.0, size=8)


def task_f(s, k):
    rng = np.random.default_rng([100 + s, k])
    a = float(rng.uniform(0.0, 6.5))
    text = f"F[{a:.2f},{a + 3.5:.2f}]({workloads._psi(rng, 1 + 3 * (k % 4))})"
    return text, rng.uniform(0.0, 10.0, size=8)


SETS = (("24-task set", (7,), task_formula_text), ("120-task set", SEEDS, task_formula_text),
        ("F-set", SEEDS, task_f))
# (name, width, format) of each row cell; a cell the task has no value for prints "-"
COLUMNS = (("s", 3, "d"), ("k", 3, "d"), ("units", 5, "d"), ("switches", 8, "d"), ("r_star", 8, ".4f"),
           ("kappa", 8, ".4g"), ("eta", 5, "g"), ("seconds", 7, ".2f"), ("completed", 9, ""), ("min_b", 9, ".4g"),
           ("rho", 9, ".4g"), ("breaks", 6, "d"), ("max_step", 8, ".4g"), ("verdict", 10, ""))


def pipeline_config(text, x0):
    return {
        "agents": {str(i): {"dim": 2} for i in range(1, 5)},
        "cliques": {CLIQUE: {"members": [1, 2, 3, 4], "formula": text, "coupling_bound": 0.05}},
        "initial_states": {str(i): x0[2 * i - 2 : 2 * i].tolist() for i in range(1, 5)},
        "noise": {"bound": 0.0},
        "sim": {"dt": 0.005},
        "search": {},
    }


def pipeline(cfg) -> dict:
    """The task's cells from its units to its verdict."""
    units = normalize(clique_formulas(cfg)[CLIQUE])
    t0 = time.perf_counter()
    doc = run_construct(cfg)
    entry = doc["cliques"][CLIQUE]
    cells = {"units": len(units), "switches": len({u.deadline for u in units}), "r_star": entry["r_star"],
             "seconds": time.perf_counter() - t0, "verdict": "infeasible"}
    if not entry["feasible"]:
        return cells
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=0)
    log = run(scenario)
    report = verify(log, formulas, scenario.cliques, r_stars)
    c = report["cliques"][CLIQUE]
    b = log.barriers[CLIQUE]
    live = np.isfinite(b[:-1]) & np.isfinite(b[1:])  # the column is nan once the clique expired
    return {**cells, "kappa": entry["kappa"], "eta": entry["diagnostics"]["eta"], "completed": report["completed"],
            "min_b": c["min_barrier"], "rho": float("nan") if c["rho"] is None else c["rho"],
            "breaks": int(np.count_nonzero(b[1:][live] < (1.0 - entry["kappa"] * log.dt) * b[:-1][live])),
            "max_step": float(np.abs(np.diff(log.x, axis=0)).max()),
            "verdict": "pass" if report["passed"] else "fail"}


total = time.perf_counter()
for name, seeds, make_task in SETS:
    counts = {"infeasible": 0, "pass": 0, "fail": 0}
    print(f"== {name}")
    print(" ".join(f"{col:>{w}}" for col, w, _ in COLUMNS))
    for s in seeds:
        for k in TASKS:
            cells = {"s": s, "k": k, **pipeline(pipeline_config(*make_task(s, k)))}
            counts[cells["verdict"]] += 1
            print(" ".join("-".rjust(w) if col not in cells else f"{cells[col]:{f}}".rjust(w) for col, w, f in COLUMNS),
                  flush=True)
    print(f"{name}: feasible {counts['pass'] + counts['fail']}, pass {counts['pass']}, "
          f"fail {counts['fail']}, infeasible {counts['infeasible']}")
print(f"total {time.perf_counter() - total:.1f} s")
