"""The benchmark's three workloads.

Each workload turns the workload seed into its inputs in ``prepare``, does
one operation in ``call`` (the only timed part) and checks that operation's
outputs in ``check``; ``finish`` makes the checks that are too slow to run
after every operation.  The program is reached only through module
attributes looked up at call time, so a Tracer installed around ``call``
sees every layer.

- demo: ``stlcbf demo`` in-process, the packaged user path end to end.
  Construct (param_search -> barrier.left_limit_state) dominates, then
  simulate (sim -> controller -> barrier.barrier_state), then log I/O.  It
  is the only workload that writes trajectory.csv and log.json.
- mc-seeds: one construction in ``prepare``, then one noise seed per
  operation through build_scenario -> run -> verify, as acceptance
  criterion c08 does, with no files written.  The timed work is the
  simulator loop, controller.team_control and barrier.barrier_state;
  param_search does nothing in it.
- monitor: seeded long signal CSVs in the trajectory-CSV header shape and a
  batch of formula texts; an operation reads each CSV once and parses and
  evaluates every formula on it at t = 0.  Only the CSV reader, parsing and
  robustness do work: barrier, param_search and controller do none, so it is
  the bypass workload for construct and simulate changes.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import shutil

import numpy as np

from oracle import brute_robustness

# Modules by name: the package rebinds the attribute stlcbf.robustness to the
# function of that name.
cli = importlib.import_module("stlcbf.cli")
config = importlib.import_module("stlcbf.config")
demo = importlib.import_module("stlcbf.demo")
parsing = importlib.import_module("stlcbf.parsing")
robustness = importlib.import_module("stlcbf.robustness")
sim = importlib.import_module("stlcbf.sim")


class CheckFailed(Exception):
    """The program gave a wrong or incomplete result."""


def noise_seed(seed: int, i: int) -> int:
    """Noise seed of operation i, derived from the workload seed."""
    return seed * 1000 + i


def check_feasible(doc: dict) -> None:
    for name, entry in doc["cliques"].items():
        if not (entry["feasible"] and entry["r_star"] > 0.0):
            raise CheckFailed(f"clique {name} not feasible with r_star > 0")


class Workload:
    units = 1  # operations (as counted in attempted/failed) per call
    bytes_written = 0  # by the last call
    stages = ()  # spans called directly by one call; their sum is within its wall time

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def finish(self) -> int:
        return 0


class Demo(Workload):
    name = "demo"
    stages = ("run_construct", "build_scenario", "run", "write_log_csv", "log_to_dict",
              "write_json", "load_json", "log_from_dict", "verify")

    def call(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["demo", "-o", str(self.workdir / "demo"),
                           "--seed", str(noise_seed(self.seed, i))])
        return rc, buf.getvalue()

    def check(self, i: int, out) -> None:
        rc, text = out
        out_dir = self.workdir / "demo"
        try:
            if rc != 0:
                raise CheckFailed(f"demo exited with code {rc}")
            check_feasible(json.loads((out_dir / "barriers.json").read_text()))
            # verify prints its report last, as an indented JSON object
            lines = text.splitlines()
            start = max(k for k, line in enumerate(lines) if line == "{")
            if not json.loads("\n".join(lines[start:]))["passed"]:
                raise CheckFailed("verify did not pass")
            self.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class McSeeds(Workload):
    name = "mc-seeds"
    stages = ("build_scenario", "run", "verify")

    def prepare(self) -> None:
        self.cfg = demo.demo_config()
        self.doc = config.run_construct(self.cfg)
        check_feasible(self.doc)

    def call(self, i: int):
        scenario, formulas, r_stars = config.build_scenario(
            self.cfg, self.doc, seed=noise_seed(self.seed, i)
        )
        log = sim.run(scenario)
        return log, sim.verify(log, formulas, scenario.cliques, r_stars)

    def check(self, i: int, out) -> None:
        log, report = out
        if any(ev["kind"] == "qp_infeasible" for ev in log.events):
            raise CheckFailed("QP infeasible")
        if not (log.completed and report["passed"]):
            raise CheckFailed("run did not complete and verify")


# monitor input sizes: each signal is 4 agents x dim 2, 12001 samples (60 s at
# dt 0.005), three times the demo's 4001 samples
N_SIGNALS = 3
N_SAMPLES = 12001
DT = 0.005
AGENTS = (1, 2, 3, 4)
N_RANDOM_FORMULAS = 22
N_ORACLE_CHECKS = 6


def _vec(rng, lo, hi) -> str:
    return "[" + ",".join(f"{v:.2f}" for v in rng.uniform(lo, hi, size=2)) + "]"


def _atom(rng, kind: int, negate: bool) -> str:
    i, j = (int(a) for a in rng.choice(AGENTS, size=2, replace=False))
    if kind in (0, 1):
        expr = f"x{i}" if kind == 0 else f"x{i} - x{j}"
        d = float(rng.uniform(-6.0, 6.0))
        text = f"dot({_vec(rng, -1, 1)}, {expr}) {'+' if d >= 0 else '-'} {abs(d):.2f} >= 0"
        return f"!({text})" if negate else text
    r = float(rng.uniform(0.5, 4.0))
    if kind == 2:
        return f"norm_inf(x{i} - {_vec(rng, 2, 8)}) <= {r:.2f}"
    if kind == 3:
        return f"norm_inf(x{i} - x{j} + {_vec(rng, -2, 2)}) <= {r:.2f}"
    return f"ball2(x{i} - {_vec(rng, 2, 8)}, {r:.2f})"


def _psi(rng, k: int) -> str:
    return " & ".join(_atom(rng, (k + m) % 5, (k + m) % 3 == 0) for m in range(1 + k % 3))


def formula_text(rng, k: int, span: float) -> str:
    """The k-th random task in the README grammar: 1-3 G/F/U terms inside
    [0, span].  Its shape (operators, atom kinds, window lengths) depends on
    k only, so the cost of a batch does not depend on the seed; the seed
    picks agents, constants and window positions."""
    terms = []
    for j in range(1 + k % 3):
        shape = k + j
        length = span * (0.2 + 0.15 * (shape % 3))
        a = float(rng.uniform(0.0, span - length))
        window = f"[{a:.2f},{a + length:.2f}]"
        if shape % 3 == 2:
            terms.append(f"({_psi(rng, shape)}) U{window} ({_psi(rng, shape + 1)})")
        else:
            terms.append(f"{'GF'[shape % 3]}{window}({_psi(rng, shape)})")
    return " & ".join(terms)


def signal_arrays(rng):
    """Times and a smooth (n, 8) state trajectory wandering over [0, 10]^2 per agent."""
    times = np.linspace(0.0, DT * (N_SAMPLES - 1), N_SAMPLES)
    cols = []
    for _ in range(2 * len(AGENTS)):
        centre, amp = rng.uniform(3.0, 7.0), rng.uniform(1.0, 3.0)
        freq, phase = rng.uniform(0.05, 0.4), rng.uniform(0.0, 2 * math.pi)
        walk = np.cumsum(rng.normal(scale=0.01, size=N_SAMPLES))
        cols.append(centre + amp * np.sin(freq * times + phase) + walk)
    return times, np.stack(cols, axis=1)


def write_signal_csv(path, rng, times, states) -> None:
    """Write in the header shape sim.write_log_csv uses: step fields (inputs,
    barriers, residuals, shares, disturbances) on every row but the last."""
    n = len(times)
    dims = range(2)
    header = ["t"] + [f"x{i}_{c}" for i in AGENTS for c in dims]
    header += [f"u{i}_{c}" for i in AGENTS for c in dims] + ["b_formation", "b_patrol"]
    header += [f"{k}_{i}" for i in AGENTS for k in ("res", "share", "dist")]
    n_step = len(header) - 1 - states.shape[1]
    step = rng.normal(size=(n - 1, n_step))
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for k in range(n):
            row = [repr(float(times[k]))] + [repr(float(v)) for v in states[k]]
            row += [""] * n_step if k == n - 1 else [repr(float(v)) for v in step[k]]
            wr.writerow(row)


class Monitor(Workload):
    name = "monitor"
    stages = ("read_signal_csv", "parse", "robustness")
    first = None  # values of the first call

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.signals = []
        for s in range(N_SIGNALS):
            times, states = signal_arrays(rng)
            path = self.workdir / f"signal{s}.csv"
            write_signal_csv(path, rng, times, states)
            self.signals.append((path, times, states))
        span = float(self.signals[0][1][-1])
        cfg = demo.demo_config()
        self.texts = [formula_text(rng, k, span) for k in range(N_RANDOM_FORMULAS)]
        self.texts += [cfg["cliques"][name]["formula"] for name in sorted(cfg["cliques"])]
        self.units = N_SIGNALS * len(self.texts)

    def call(self, i: int) -> list:
        values = []
        for path, _, _ in self.signals:
            layout, signal = sim.read_signal_csv(path)
            for text in self.texts:
                values.append(robustness.robustness(parsing.parse(text, layout), signal, 0.0))
        return values

    def check(self, i: int, values) -> None:
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed("non-finite robustness value")
        if self.first is None:
            self.first = values
        elif values != self.first:
            raise CheckFailed("robustness values differ between repeats of one batch")

    def finish(self) -> int:
        """Failures among a seeded sample of evaluations re-done by the brute-force
        evaluator, plus signals the CSV reader did not return exactly."""
        if self.first is None:
            return 0  # no operation succeeded; its failures are already counted
        rng = np.random.default_rng([self.seed, 1])
        failed = 0
        for path, times, states in self.signals:
            layout, signal = sim.read_signal_csv(path)
            if not (np.array_equal(signal.times, times) and np.array_equal(signal.states, states)):
                print(f"check: {path.name} did not read back exactly", flush=True)
                failed += len(self.texts)
        picks = rng.choice(self.units, size=N_ORACLE_CHECKS, replace=False)
        for k in sorted(int(p) for p in picks):
            _, times, states = self.signals[k // len(self.texts)]
            want = brute_robustness(parsing.parse(self.texts[k % len(self.texts)], layout), times, states)
            if self.first[k] != want:
                print(f"check: evaluation {k} gave {self.first[k]!r}, brute force {want!r}", flush=True)
                failed += 1
        return failed


WORKLOADS = {wl.name: wl for wl in (Demo, McSeeds, Monitor)}
