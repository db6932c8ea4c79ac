"""Per-layer tracing of stlcbf from outside the package.

A Tracer swaps each module-level name that a caller looks up (for example
``stlcbf.param_search.left_limit_state``, which the concave ascent calls) for
a wrapper that counts calls and adds up their busy time, and puts the
original back on exit.  Nothing under ``src/`` is changed.  A function
imported into several modules is wrapped at each of them, so every call
passes through exactly one wrapper.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (span, module whose global the caller looks up, attribute)
SITES = (
    ("left_limit_state", "stlcbf.param_search", "left_limit_state"),
    ("barrier_state@param_search", "stlcbf.param_search", "barrier_state"),
    ("barrier_state@controller", "stlcbf.controller", "barrier_state"),
    ("maximize_r", "stlcbf.config", "maximize_r"),
    ("feasibility_check", "stlcbf.param_search", "feasibility_check"),
    ("ascend", "stlcbf.param_search", "_ascend"),
    ("team_control", "stlcbf.sim", "team_control"),
    ("run", "stlcbf.cli", "run"),
    ("run", "stlcbf.sim", "run"),
    ("write_log_csv", "stlcbf.cli", "write_log_csv"),
    ("log_to_dict", "stlcbf.cli", "log_to_dict"),
    ("write_json", "stlcbf.cli", "_write_json"),
    ("load_json", "stlcbf.cli", "_load_json"),
    ("log_from_dict", "stlcbf.cli", "log_from_dict"),
    ("verify", "stlcbf.cli", "verify"),
    ("verify", "stlcbf.sim", "verify"),
    ("read_signal_csv", "stlcbf.cli", "read_signal_csv"),
    ("read_signal_csv", "stlcbf.sim", "read_signal_csv"),
    ("parse", "stlcbf.config", "parse"),
    ("parse", "stlcbf.cli", "parse"),
    ("parse", "stlcbf.parsing", "parse"),
    ("robustness", "stlcbf.robustness", "robustness"),
    ("robustness", "stlcbf.sim", "robustness"),
    ("robustness", "stlcbf.cli", "robustness"),
    ("run_construct", "stlcbf.cli", "run_construct"),
    ("run_construct", "stlcbf.config", "run_construct"),
    ("build_scenario", "stlcbf.cli", "build_scenario"),
    ("build_scenario", "stlcbf.config", "build_scenario"),
)

# run_construct visits the demo's cliques in sorted name order, so the k-th
# maximize_r call of a construction belongs to CLIQUES[k].
CLIQUES = ("formation", "patrol")

# (metric, unit) for every per-layer metric, in report order
LAYER_METRICS = (
    ("barrier.left_limit_state_calls", "count"),
    ("barrier.left_limit_state_us", "us"),
    ("barrier.barrier_state_calls", "count"),
    ("barrier.barrier_state_us", "us"),
    *((f"param_search.maximize_r_s.{name}", "s") for name in CLIQUES),
    ("param_search.feasibility_checks", "count"),
    ("param_search.feasible_frac", "ratio"),
    ("param_search.ascend_calls", "count"),
    ("param_search.self_s", "s"),
    ("controller.team_control_calls", "count"),
    ("controller.team_control_us", "us"),
    ("controller.self_us", "us"),
    ("sim.run_s", "s"),
    ("sim.step_self_us", "us"),
    ("sim.write_log_csv_s", "s"),
    ("sim.log_to_dict_s", "s"),
    ("cli.write_json_s", "s"),
    ("sim.bytes_written", "bytes"),
    ("cli.load_json_s", "s"),
    ("sim.log_from_dict_s", "s"),
    ("sim.verify_s", "s"),
    ("sim.read_signal_csv_s", "s"),
    ("parsing.parse_calls", "count"),
    ("parsing.parse_us", "us"),
    ("robustness.calls", "count"),
    ("robustness.us_per_call", "us"),
    ("robustness.samples", "count"),
    ("config.run_construct_s", "s"),
    ("config.build_scenario_s", "s"),
    ("trace_overhead_frac", "ratio"),
)

# Metrics that are counts of work; they must repeat exactly for one seed.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes"))


class Tracer:
    """Call counts and busy seconds per span while installed (a context manager)."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.feasible = 0  # feasibility_check reports that came back feasible
        self.samples = 0  # signal samples handed to robustness
        self.maximize_r = []  # seconds of each maximize_r call, in call order
        self._saved = []

    def __enter__(self):
        for span, modname, attr in SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span, fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, span, fn):
        calls, busy, clock = self.calls, self.busy, time.perf_counter
        hook = _HOOKS.get(span)

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                busy[span] += dt
                calls[span] += 1
            if hook is not None:
                hook(self, args, out, dt)
            return out

        return wrapper

    def merged(self, other: "Tracer", factors) -> "Tracer":
        """Sum of two tracers, each one's busy times multiplied by its factor."""
        out = Tracer()
        for t, k in zip((self, other), factors):
            out.calls.update(t.calls)
            for span, s in t.busy.items():
                out.busy[span] += k * s
            out.feasible += t.feasible
            out.samples += t.samples
            out.maximize_r += [k * s for s in t.maximize_r]
        return out


def _on_feasibility(tr, args, report, dt):
    tr.feasible += bool(report.feasible)


def _on_robustness(tr, args, value, dt):
    tr.samples += int(args[1].times.shape[0])


def _on_maximize_r(tr, args, result, dt):
    tr.maximize_r.append(dt)


_HOOKS = {
    "feasibility_check": _on_feasibility,
    "robustness": _on_robustness,
    "maximize_r": _on_maximize_r,
}


def _us(seconds: float, calls: int) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def layer_metrics(tr: Tracer, bytes_written: int) -> dict:
    """Per-layer figures of one traced unit of work, keyed as LAYER_METRICS
    except trace_overhead_frac, which needs untraced repeats as well."""
    c, b = tr.calls, tr.busy
    barrier_calls = c["barrier_state@param_search"] + c["barrier_state@controller"]
    barrier_busy = b["barrier_state@param_search"] + b["barrier_state@controller"]
    steps = c["team_control"]
    m = {
        "barrier.left_limit_state_calls": c["left_limit_state"],
        "barrier.left_limit_state_us": _us(b["left_limit_state"], c["left_limit_state"]),
        "barrier.barrier_state_calls": barrier_calls,
        "barrier.barrier_state_us": _us(barrier_busy, barrier_calls),
    }
    for k, name in enumerate(CLIQUES):
        m[f"param_search.maximize_r_s.{name}"] = sum(tr.maximize_r[k :: len(CLIQUES)], 0.0)
    m.update({
        "param_search.feasibility_checks": c["feasibility_check"],
        "param_search.feasible_frac": (
            tr.feasible / c["feasibility_check"] if c["feasibility_check"] else 0.0
        ),
        "param_search.ascend_calls": c["ascend"],
        "param_search.self_s": (
            b["maximize_r"] - b["left_limit_state"] - b["barrier_state@param_search"]
        ),
        "controller.team_control_calls": steps,
        "controller.team_control_us": _us(b["team_control"], steps),
        "controller.self_us": _us(b["team_control"] - b["barrier_state@controller"], steps),
        "sim.run_s": b["run"],
        "sim.step_self_us": _us(b["run"] - b["team_control"], steps),
        "sim.write_log_csv_s": b["write_log_csv"],
        "sim.log_to_dict_s": b["log_to_dict"],
        "cli.write_json_s": b["write_json"],
        "sim.bytes_written": bytes_written,
        "cli.load_json_s": b["load_json"],
        "sim.log_from_dict_s": b["log_from_dict"],
        "sim.verify_s": b["verify"],
        "sim.read_signal_csv_s": b["read_signal_csv"],
        "parsing.parse_calls": c["parse"],
        "parsing.parse_us": _us(b["parse"], c["parse"]),
        "robustness.calls": c["robustness"],
        "robustness.us_per_call": _us(b["robustness"], c["robustness"]),
        "robustness.samples": tr.samples,
        "config.run_construct_s": b["run_construct"],
        "config.build_scenario_s": b["build_scenario"],
    })
    return m
