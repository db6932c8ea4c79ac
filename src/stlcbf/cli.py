"""Command line pipeline: construct -> simulate -> verify, plus a standalone
robustness monitor and a packaged demo scenario.

Exit codes: 0 pass, 1 task infeasible or verification failed, 2 usage or
config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import (
    LOG_DOC_FORMAT,
    LOG_DOC_VERSION,
    ConfigError,
    _read_json,
    build_agents,
    build_cliques,
    build_scenario,
    clique_formulas,
    config_hash,
    load_config,
    run_construct,
)
from .controller import Team
from .demo import demo_config
from .parsing import parse
from .robustness import robustness
from .sim import log_from_dict, log_to_dict, read_signal_csv, run, verify, write_log_csv

__all__ = ["main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load_json(path, expected_format=None):
    doc = _read_json(path, path)
    if expected_format is not None and not (isinstance(doc, dict) and doc.get("format") == expected_format):
        raise ConfigError(f"{path}: expected a {expected_format!r} document")
    return doc


def _write_json(path, doc) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _construct(cfg, out):
    """Construct, write the barrier document to out and print a summary;
    returns the document, or None if a clique is infeasible."""
    t0 = time.perf_counter()
    doc = run_construct(cfg)
    elapsed = time.perf_counter() - t0
    _write_json(out, doc)
    for name, entry in sorted(doc["cliques"].items()):
        if entry["feasible"]:
            print(f"clique {name}: r_star={entry['r_star']:.6g} kappa={entry['kappa']:.6g}")
        else:
            print(f"clique {name}: INFEASIBLE (r_star={entry['r_star']:.6g})")
    print(f"construction took {elapsed:.2f} s; wrote {out}")
    return doc if all(e["feasible"] for e in doc["cliques"].values()) else None


def cmd_construct(args) -> int:
    return EXIT_PASS if _construct(load_config(args.config), args.out) else EXIT_FAIL


def _simulate(cfg, doc, outdir, *, seed=None) -> int:
    scenario, formulas, r_stars = build_scenario(cfg, doc, seed=seed)
    t0 = time.perf_counter()
    log = run(scenario)
    elapsed = time.perf_counter() - t0

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "trajectory.csv"
    sha256 = write_log_csv(log, csv_path)
    log_doc = {
        "format": LOG_DOC_FORMAT,
        "version": LOG_DOC_VERSION,
        "config_hash": config_hash(cfg),
        "barrier_doc": doc,
        "log": log_to_dict(log, csv_path.name, sha256),
    }
    _write_json(outdir / "log.json", log_doc)

    if not log.completed:
        for ev in log.events:
            if ev["kind"] in ("qp_infeasible", "disturbance_bound"):
                step = int(round(ev["t"] / log.dt))
                print(f"simulation aborted at step {step} (t={ev['t']:.4g}): {ev['detail']}")
        print(f"wrote {csv_path} and {outdir / 'log.json'}")
        return EXIT_FAIL

    report = verify(log, formulas, scenario.cliques, r_stars)["cliques"]
    for name, entry in sorted(report.items()):
        print(f"clique {name}: min_b={entry['min_barrier']:.6g} rho={entry['rho']:.6g} "
              f"(r_star={entry['r_star']:.6g})")
    print(f"simulation took {elapsed:.2f} s; wrote {csv_path} and {outdir / 'log.json'}")
    return EXIT_PASS


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    doc = _load_json(args.barriers)
    return _simulate(cfg, doc, args.out, seed=args.seed)


def _verify_from_docs(cfg, log_doc, directory) -> int:
    """Verify the run that a log document and the trajectory CSV it names in
    directory record."""
    if log_doc.get("version") != LOG_DOC_VERSION:
        raise ConfigError(
            f"log document version {log_doc.get('version')!r} is not {LOG_DOC_VERSION}; re-run simulate"
        )
    if log_doc.get("config_hash") != config_hash(cfg):
        raise ConfigError("log was produced from a different config (hash mismatch)")
    cliques, r_stars = build_cliques(cfg, log_doc.get("barrier_doc"))
    log = log_from_dict(log_doc.get("log"), directory, Team(cliques, build_agents(cfg)))
    report = verify(log, clique_formulas(cfg), cliques, r_stars)
    print(json.dumps(report, indent=2))
    return EXIT_PASS if report["passed"] else EXIT_FAIL


def cmd_verify(args) -> int:
    log_doc = _load_json(args.log, expected_format=LOG_DOC_FORMAT)
    cfg = load_config(args.config)
    return _verify_from_docs(cfg, log_doc, Path(args.log).parent)


def cmd_monitor(args) -> int:
    layout, signal = read_signal_csv(args.signal)
    formula = parse(args.formula, layout)
    value = robustness(formula, signal, t=args.at)
    print(repr(value))
    return EXIT_PASS


def cmd_demo(args) -> int:
    cfg = demo_config()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "config.json", cfg)
    print(f"wrote {outdir / 'config.json'}")
    doc = _construct(cfg, outdir / "barriers.json")
    if doc is None:
        return EXIT_FAIL
    status = _simulate(cfg, doc, outdir, seed=args.seed)
    if status != EXIT_PASS:
        return status
    log_doc = _load_json(outdir / "log.json", expected_format=LOG_DOC_FORMAT)
    return _verify_from_docs(cfg, log_doc, outdir)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, not argparse's usage line and exit
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stlcbf",
        description="Compile temporal tasks into control barrier functions, "
        "simulate the resulting feedback law, and verify the outcome.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="offline parameter search; writes a barrier document")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("-o", "--out", default="barriers.json", help="barrier document path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("simulate", help="closed-loop run; writes trajectory CSV and log JSON")
    p.add_argument("config", help="scenario config (JSON)")
    p.add_argument("barriers", help="barrier document from construct")
    p.add_argument("--seed", type=int, default=None, help="noise seed override")
    p.add_argument("-o", "--out", default="out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="independent robustness check of a logged run")
    p.add_argument("log", help="log JSON from simulate")
    p.add_argument("config", help="scenario config (JSON)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("monitor", help="robustness of a formula on a logged signal CSV")
    p.add_argument("formula", help="task formula text")
    p.add_argument("signal", help="signal CSV with t and x<id>_<k> columns")
    p.add_argument("--at", type=float, default=0.0, help="evaluation time (default 0)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("demo", help="run the packaged four-agent scenario end to end")
    p.add_argument("-o", "--out", default="demo_out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="noise seed override")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    # ConfigError, ParseError and FormulaError are ValueErrors
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # pragma: no cover - crash path
        import traceback

        traceback.print_exc()
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
