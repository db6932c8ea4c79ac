"""
The whole pipeline on the 120-task set and the F-set
====================================================

Runs demos/07's pipeline on two larger seeded task sets, over the same
four planar agents in one clique:

- the 120-task set: demos/07's construction (perfbench/workloads.formula_text
  with rng [s, k], span 10, then x0 drawn uniformly from [0, 10]^8 with the
  same rng) for seeds s = 1, 2, 4, 9, 10 and k = 0..23.  Its until tasks are
  almost all infeasible, because a random x0 rarely satisfies an until's lhs;
- the F-set, which reaches the eventually operator: for the same s and k,
  rng [100 + s, k], a = rng.uniform(0, 6.5) and the task
  F[a, a + 3.5](psi) with psi = workloads._psi(rng, 1 + 3 (k % 4)), the
  window printed to two decimals, then x0 as above.

Every task drawn is run and reported: no task is left out.  Each row is
demos/07's (r_star, kappa, whether the run completed, the minimum logged
barrier, rho at t = 0, the verdict) plus the eta of the search's winning
barrier; then one count line per set.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from stlcbf import run, verify  # noqa: E402
from stlcbf.config import build_scenario, run_construct  # noqa: E402

SEEDS = (1, 2, 4, 9, 10)
TASKS = range(24)
CLIQUE = "team"


def task_120(s, k):
    rng = np.random.default_rng([s, k])
    return workloads.formula_text(rng, k, 10.0), rng.uniform(0.0, 10.0, size=8)


def task_f(s, k):
    rng = np.random.default_rng([100 + s, k])
    a = float(rng.uniform(0.0, 6.5))
    text = f"F[{a:.2f},{a + 3.5:.2f}]({workloads._psi(rng, 1 + 3 * (k % 4))})"
    return text, rng.uniform(0.0, 10.0, size=8)


def pipeline_config(text, x0):
    return {
        "agents": {str(i): {"dim": 2} for i in range(1, 5)},
        "cliques": {CLIQUE: {"members": [1, 2, 3, 4], "formula": text, "coupling_bound": 0.05}},
        "initial_states": {str(i): x0[2 * i - 2 : 2 * i].tolist() for i in range(1, 5)},
        "noise": {"bound": 0.0},
        "sim": {"dt": 0.005},
        "search": {},
    }


def run_set(name, make_task):
    counts = {"infeasible": 0, "pass": 0, "fail": 0}
    print(f"== {name}")
    print(f"{'s':>3} {'k':>3} {'r_star':>8} {'kappa':>8} {'eta':>5} {'completed':>9} {'min_b':>9} "
          f"{'rho':>9} {'verdict':>10}")
    for s in SEEDS:
        for k in TASKS:
            cfg = pipeline_config(*make_task(s, k))
            doc = run_construct(cfg)
            entry = doc["cliques"][CLIQUE]
            if not entry["feasible"]:
                counts["infeasible"] += 1
                print(f"{s:>3} {k:>3} {entry['r_star']:>8.4f} {'-':>8} {'-':>5} {'-':>9} {'-':>9} {'-':>9} "
                      f"{'infeasible':>10}", flush=True)
                continue
            scenario, formulas, r_stars = build_scenario(cfg, doc, seed=0)
            report = verify(run(scenario), formulas, scenario.cliques, r_stars)
            c = report["cliques"][CLIQUE]
            rho = float("nan") if c["rho"] is None else c["rho"]
            verdict = "pass" if report["passed"] else "fail"
            counts[verdict] += 1
            print(f"{s:>3} {k:>3} {entry['r_star']:>8.4f} {entry['kappa']:>8.4g} "
                  f"{entry['diagnostics']['eta']:>5g} {str(report['completed']):>9} "
                  f"{c['min_barrier']:>9.4g} {rho:>9.4g} {verdict:>10}", flush=True)
    print(f"{name}: feasible {counts['pass'] + counts['fail']}, pass {counts['pass']}, "
          f"fail {counts['fail']}, infeasible {counts['infeasible']}")


total = time.perf_counter()
run_set("120-task set", task_120)
run_set("F-set", task_f)
print(f"total {time.perf_counter() - total:.1f} s")
