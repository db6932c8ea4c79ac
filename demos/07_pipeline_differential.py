"""
The whole pipeline on 24 seeded random tasks
============================================

Runs construct, simulate and verify on the k-th random task of the
benchmark's formula generator (perfbench/workloads.formula_text with rng
[7, k], k = 0..23, span 10; x0 drawn uniformly from [0, 10]^8 with the same
rng, right after the text), as demos/06 searches it.  Each task is one
config: agents 1-4 of dim 2 in one clique with coupling_bound 0.05, no
coupling, no secondary input, noise bound 0, dt 0.005, and an empty search
section (no r_max).  A feasible task runs
run_construct, build_scenario(seed=0), run and verify in-process.

Prints, per task, r_star (the level verify checks rho against), kappa,
whether the run completed, the minimum logged barrier, the robustness rho
at t = 0 and the verdict, then the counts.  Comparing
two versions' output shows, task by task, whether the soundness chain
(construct certifies, the law keeps b >= 0, verify confirms) holds.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import formula_text  # noqa: E402

from stlcbf import run, verify  # noqa: E402
from stlcbf.config import build_scenario, run_construct  # noqa: E402

TASKS = range(24)
CLIQUE = "team"


def pipeline_config(k):
    rng = np.random.default_rng([7, k])
    text = formula_text(rng, k, 10.0)
    x0 = rng.uniform(0.0, 10.0, size=8)
    return {
        "agents": {str(i): {"dim": 2} for i in range(1, 5)},
        "cliques": {CLIQUE: {"members": [1, 2, 3, 4], "formula": text, "coupling_bound": 0.05}},
        "initial_states": {str(i): x0[2 * i - 2 : 2 * i].tolist() for i in range(1, 5)},
        "noise": {"bound": 0.0},
        "sim": {"dt": 0.005},
        "search": {},
    }


total = time.perf_counter()
counts = {"infeasible": 0, "pass": 0, "fail": 0}
print(f"{'k':>3} {'r_star':>8} {'kappa':>8} {'completed':>9} {'min_b':>9} {'rho':>9} {'verdict':>10}")
for k in TASKS:
    cfg = pipeline_config(k)
    doc = run_construct(cfg)
    entry = doc["cliques"][CLIQUE]
    if not entry["feasible"]:
        counts["infeasible"] += 1
        print(f"{k:>3} {entry['r_star']:>8.4f} {'-':>8} {'-':>9} {'-':>9} {'-':>9} {'infeasible':>10}",
              flush=True)
        continue
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=0)
    report = verify(run(scenario), formulas, scenario.cliques, r_stars)
    c = report["cliques"][CLIQUE]
    rho = float("nan") if c["rho"] is None else c["rho"]
    verdict = "pass" if report["passed"] else "fail"
    counts[verdict] += 1
    print(f"{k:>3} {entry['r_star']:>8.4f} {entry['kappa']:>8.4g} {str(report['completed']):>9} "
          f"{c['min_barrier']:>9.4g} {rho:>9.4g} {verdict:>10}",
          flush=True)
print(f"feasible {counts['pass'] + counts['fail']}, pass {counts['pass']}, fail {counts['fail']}, "
      f"infeasible {counts['infeasible']}; total {time.perf_counter() - total:.1f} s")
