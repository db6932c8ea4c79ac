#!/usr/bin/env python3
"""stlcbf benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload demo --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The exit code is
0 when every output check passed, 1 when one failed and 2 when the benchmark
cannot run.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per BLAS/OpenMP pool, set before numpy is loaded anywhere; the
# set-up probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9


def measure_setup(scale) -> float:
    """Median scaled wall time of a fresh interpreter importing the package,
    the set-up every workload pays before its first timed call.  The probe
    runs between the interpreters, not beside them."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import stlcbf.cli"]
    subprocess.run(cmd, cwd=ROOT, check=True)  # writes the bytecode cache once
    before = scale.factor()
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        after = scale.factor()
        times.append(wall * 0.5 * (before + after))
        before = after
    return statistics.median(times)


def git_sha(root: Path):
    """HEAD commit of the checkout, or None when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_op(wl, i: int, scale, tracer=None):
    """Do operation i; returns (wall seconds, scaled seconds, failed units).
    The times are None when the operation raised."""
    with tracer if tracer is not None else contextlib.nullcontext():
        try:
            out, wall, scaled = scale.time(wl.call, i)
        except Exception:
            traceback.print_exc()
            return None, None, wl.units
    try:
        wl.check(i, out)
    except Exception as err:
        print(f"check: operation {i} failed: {err!r}", flush=True)
        return wall, scaled, wl.units
    return wall, scaled, 0


def measure_plain(wl, seconds: float, scale):
    """Operations back to back for `seconds`; returns (metrics, attempted, failed)."""
    wl.prepare()
    wall, scaled, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        w, s, bad = run_op(wl, attempted // wl.units, scale)
        if w is not None:
            wall.append(w / wl.units)
            scaled.append(s / wl.units)
        attempted += wl.units
        failed += bad
    failed += wl.finish()
    if not scaled:
        return {}, attempted, failed
    op_s = statistics.median(scaled)
    q1, _, q3 = statistics.quantiles(scaled, n=4) if len(scaled) > 1 else (op_s, op_s, op_s)
    print(f"op_s: median {op_s:.6g} s (quartiles {q1:.6g}, {q3:.6g}) scaled, "
          f"{statistics.median(wall):.6g} s wall, of {len(scaled)} operations", flush=True)
    return {"op_s": (op_s, "s")}, attempted, failed


def measure_traced(wl, seconds: float, scale):
    """Pairs of one plain and one traced repeat of operation 0 for `seconds`.

    The figures are those of one traced unit: the workload's preparation plus
    one operation.  Counts must repeat exactly across the traced repeats.
    """
    from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics

    prep = Tracer()
    with prep:
        _, wall, scaled = scale.time(wl.prepare)
    prep_factor = scaled / wall if wall > 0 else 1.0
    plain, traced, units = [], [], []
    attempted, failed = 0, 0
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        _, s0, bad0 = run_op(wl, 0, scale)
        tr = Tracer()
        w1, s1, bad1 = run_op(wl, 0, scale, tr)
        attempted += 2 * wl.units
        failed += bad0 + bad1
        if s0 is None or s1 is None:
            continue
        plain.append(s0)
        traced.append(s1)
        # span times include the probe runs that interrupted them
        stage_s = sum(tr.busy[span] for span in wl.stages) - scale.probe_s
        if stage_s > w1 or tr.busy["team_control"] > tr.busy["run"]:
            print(f"check: layer times exceed their caller ({stage_s:.6g} s in stages, "
                  f"{w1:.6g} s wall)", flush=True)
            failed += 1
        units.append(layer_metrics(prep.merged(tr, (prep_factor, s1 / w1)), wl.bytes_written))
    failed += wl.finish()
    if not units:
        return {}, attempted, failed
    for name in COUNT_METRICS:
        if len({u[name] for u in units}) != 1:
            print(f"check: {name} differs between repeats: {[u[name] for u in units]}", flush=True)
            failed += 1
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace_overhead_frac":
            value = overhead
        elif name in COUNT_METRICS:
            value = units[0][name]
        else:
            value = statistics.median(u[name] for u in units)
        metrics[name] = (value, unit)
    print(f"traced {len(units)} repeats of operation 0", flush=True)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="demo, mc-seeds or monitor")
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics of a traced run")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "stlcbf" / "__init__.py").is_file():
        print(f"error: no stlcbf source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    from probe import SpeedScale

    # One core for the whole run, set-up interpreters included, so the probe
    # samples the core the measured work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scale = SpeedScale()
    setup_s = None if args.trace else measure_setup(scale)
    sys.path.insert(0, str(SRC))
    import numpy
    import stlcbf
    from workloads import WORKLOADS

    if Path(stlcbf.__file__).resolve().parent != SRC / "stlcbf":
        print(f"error: imported stlcbf from {stlcbf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpu_count": os.cpu_count(), "git_sha": git_sha(ROOT),
    }
    print("env: " + json.dumps(env), flush=True)

    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    measure = measure_traced if args.trace else measure_plain
    try:
        metrics, attempted, failed = measure(wl, args.seconds, scale)
    except Exception:
        traceback.print_exc()
        metrics, attempted, failed = {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        # ru_maxrss is in KiB on Linux
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = (rss, "MB")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
