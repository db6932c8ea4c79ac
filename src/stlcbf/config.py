"""Scenario config documents and the offline/online pipeline glue.

A scenario config is a single JSON object:

    {
      "agents": {"<id>": {"dim": n,
                          "drift": "zero" | {"kind": "affine", "A": [[..]], "b": [..]},
                          "input": "identity" | {"matrix": [[..]]}}},
      "cliques": {"<name>": {"members": [ids...],
                             "formula": "<task text>",
                             "coupling_bound": C}},
      "initial_states": {"<id>": [..]},
      "coupling": {"kind": "none" | "saturating_attraction",
                   "attractions": {"<id>": [[gain, target_id], ...]}},
      "secondary": {"kind": "none" | "pairwise_repulsion", "group": [ids...],
                    "gain": g, "softening": s, "known": false},
      "noise": {"bound": w, "distribution": "uniform_ball" | "adversarial" | "none",
                "seed": s},
      "sim": {"dt": dt},
      "search": {"delta": d, "eta_grid": [..], "r_max": r, "kappa_cap": k}
    }

The search section sets only these four SearchConfig fields; any other key is
refused, as the rest of the search policy is fixed in param_search.

Barrier documents produced by construction embed a hash of the producing
config so mismatched construct/simulate pipelines fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .barrier import barrier_to_dict, barrier_from_dict
from .controller import AgentModel, Clique
from .formula import normalize
from .parsing import parse
from .param_search import SearchConfig, maximize_r
from .predicates import StateLayout, finite_number, is_finite_number
from .sim import CouplingSpec, NoiseSpec, Scenario, SecondaryControlSpec

__all__ = [
    "ConfigError",
    "load_config",
    "validate_config",
    "config_hash",
    "canonical_json",
    "clique_formulas",
    "build_agents",
    "build_search_config",
    "run_construct",
    "build_cliques",
    "build_scenario",
]

BARRIER_DOC_FORMAT = "stlcbf-barriers"
LOG_DOC_FORMAT = "stlcbf-log"
LOG_DOC_VERSION = 2  # the log section links the trajectory CSV by sha256


class ConfigError(ValueError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("agents", "cliques", "initial_states"):
        if key not in cfg:
            raise ConfigError(f"config is missing the {key!r} section")
    for key in ("agents", "cliques", "initial_states", "coupling", "secondary", "noise", "sim"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
    seen = set()
    for name, cl in cfg["cliques"].items():
        if not isinstance(cl, dict) or "members" not in cl or "formula" not in cl:
            raise ConfigError(f"clique {name!r} needs members and formula")
        if not isinstance(cl["formula"], str):
            raise ConfigError(f"clique {name!r} formula must be a string")
        if not isinstance(cl["members"], (list, tuple)):
            raise ConfigError(f"clique {name!r} members must be a list of agent ids")
        bound = cl.get("coupling_bound", 0.0)
        if not (is_finite_number(bound) and bound >= 0.0):
            raise ConfigError(f"clique {name!r} coupling_bound must be a finite number >= 0")
        for i in cl["members"]:
            if str(i) not in cfg["agents"]:
                raise ConfigError(f"clique {name!r} member {i} is not a declared agent")
            if i in seen:
                raise ConfigError(f"agent {i} appears in more than one clique")
            seen.add(i)
    for i in cfg["agents"]:
        try:
            agent_id = int(i)
        except ValueError:
            raise ConfigError(f"agent key {i!r} must be an integer id") from None
        if agent_id not in seen:
            raise ConfigError(f"agent {i} belongs to no clique")
        if i not in cfg["initial_states"]:
            raise ConfigError(f"agent {i} has no initial state")
        if not isinstance(cfg["agents"][i], dict):
            raise ConfigError(f"agent {i} must be a JSON object")
        dim = cfg["agents"][i].get("dim")
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ConfigError(f"agent {i} needs a positive integer dim")
        x0 = cfg["initial_states"][i]
        if not isinstance(x0, (list, tuple)):
            raise ConfigError(f"agent {i} initial state must be a list of numbers")
        if len(x0) != dim:
            raise ConfigError(f"agent {i} initial state has wrong dimension")
        if not all(is_finite_number(v) for v in x0):
            raise ConfigError(f"agent {i} initial state must hold finite numbers")
    _check_dynamics(cfg)
    _dynamics_specs(cfg, build_agents(cfg))
    build_search_config(cfg)
    return cfg


def _check_dynamics(cfg: dict) -> None:
    """The coupling, secondary, noise and sim fields that build_scenario reads."""
    agents, sec, noise = cfg["agents"], cfg.get("secondary", {}), cfg.get("noise", {})
    pulls = cfg.get("coupling", {}).get("attractions", {})
    if not isinstance(pulls, dict):
        raise ConfigError("coupling attractions must be a JSON object keyed by agent id")
    for i, lst in pulls.items():
        if not (i in agents and isinstance(lst, list) and all(
                isinstance(p, list) and len(p) == 2 and is_finite_number(p[0]) and str(p[1]) in agents
                for p in lst)):
            raise ConfigError(f"coupling attractions {i!r}: {lst!r} is not a declared agent's list "
                              "of [finite gain, declared agent id] pulls")
    group = sec.get("group", [])
    if not (isinstance(group, list) and all(str(i) in agents for i in group)):
        raise ConfigError(f"secondary group must be a list of declared agent ids, got {group!r}")
    if not isinstance(sec.get("known", False), bool):
        raise ConfigError(f"secondary known must be true or false, got {sec['known']!r}")
    seed = noise.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"noise seed must be an integer, got {seed!r}")
    for name, v, rule, ok in (
        ("secondary gain", sec.get("gain", 1.0), "", lambda v: True),
        ("secondary softening", sec.get("softening", 0.01), " > 0", lambda v: v > 0.0),
        ("noise bound", noise.get("bound", 0.0), " >= 0", lambda v: v >= 0.0),
        ("sim dt", cfg.get("sim", {}).get("dt", 0.005), " > 0", lambda v: v > 0.0),
    ):
        if not (is_finite_number(v) and ok(v)):
            raise ConfigError(f"{name} must be a finite number{rule}, got {v!r}")


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}") from None
    return validate_config(cfg)


def clique_layouts(cfg: dict) -> dict:
    out = {}
    for name, cl in cfg["cliques"].items():
        ids = tuple(int(i) for i in cl["members"])
        dims = tuple(cfg["agents"][str(i)]["dim"] for i in ids)
        out[name] = StateLayout(ids=ids, dims=dims)
    return out


def clique_formulas(cfg: dict) -> dict:
    layouts = clique_layouts(cfg)
    return {name: parse(cfg["cliques"][name]["formula"], layouts[name]) for name in layouts}


def _finite_array(agent, spec: dict, key: str, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(spec.get(key))
    except ValueError:  # ragged nested lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or arr.ndim != ndim or not np.isfinite(arr).all():
        raise ConfigError(f"agent {agent} {what} must be a {ndim}-D list of finite numbers")
    return arr.astype(float)


def _build_drift(agent, spec, dim):
    if spec in (None, "zero"):
        return None
    if isinstance(spec, dict) and spec.get("kind") == "affine":
        A = _finite_array(agent, spec, "A", "drift A", 2)
        b = _finite_array(agent, spec, "b", "drift b", 1)
        if A.shape != (dim, dim) or b.shape != (dim,):
            raise ConfigError(f"agent {agent} affine drift has wrong shape")
        return lambda x, t: A @ x + b
    raise ConfigError(f"agent {agent}: unknown drift spec {spec!r}")


def build_agents(cfg: dict) -> dict:
    agents = {}
    for key, spec in cfg["agents"].items():
        i = int(key)
        dim = spec["dim"]
        input_spec = spec.get("input", "identity")
        input_map = None
        input_dim = dim
        if isinstance(input_spec, dict):
            input_map = _finite_array(i, input_spec, "matrix", "input matrix", 2)
            input_dim = input_map.shape[1]
        elif input_spec != "identity":
            raise ConfigError(f"agent {i}: unknown input map spec {input_spec!r}")
        drift = _build_drift(i, spec.get("drift"), dim)
        try:
            agents[i] = AgentModel(
                agent_id=i, state_dim=dim, input_dim=input_dim, drift=drift, input_map=input_map
            )
        except ValueError as err:  # the input map's shape or rank
            raise ConfigError(f"agent {i} {err}") from None
    return agents


def build_search_config(cfg: dict) -> SearchConfig:
    sc = cfg.get("search", {})
    if not isinstance(sc, dict):
        raise ConfigError("config section 'search' must be a JSON object")
    sc = dict(sc)
    if "eta_grid" in sc:
        if not isinstance(sc["eta_grid"], (list, tuple)):
            raise ConfigError("bad search section: eta_grid must be a list of numbers")
        sc["eta_grid"] = tuple(float(v) if is_finite_number(v) else v for v in sc["eta_grid"])
    try:
        return SearchConfig(**sc)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad search section: {err}") from None


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def run_construct(cfg: dict) -> dict:
    """Offline stage: parameter search per clique; returns the barrier document."""
    layouts = clique_layouts(cfg)
    formulas = clique_formulas(cfg)
    search_cfg = build_search_config(cfg)
    doc = {
        "format": BARRIER_DOC_FORMAT,
        "version": 1,
        "config_hash": config_hash(cfg),
        "cliques": {},
    }
    for name in sorted(cfg["cliques"]):
        layout = layouts[name]
        x0 = np.concatenate(
            [np.asarray(cfg["initial_states"][str(i)], dtype=float) for i in layout.ids]
        )
        units = normalize(formulas[name])
        result = maximize_r(units, x0, search_cfg)
        entry = {
            "feasible": result.feasible,
            "r_star": result.r_star,
            "kappa": result.kappa,
            "witnesses": {repr(float(s)): w.tolist() for s, w in result.witnesses.items()},
            "diagnostics": _jsonable(result.diagnostics),
        }
        if result.barrier is not None:
            entry["barrier"] = barrier_to_dict(result.barrier)
        doc["cliques"][name] = entry
    return doc


def _check_doc(cfg: dict, doc: dict) -> None:
    if not isinstance(doc, dict) or doc.get("format") != BARRIER_DOC_FORMAT:
        raise ConfigError("not a barrier document")
    if doc.get("config_hash") != config_hash(cfg):
        raise ConfigError(
            "barrier document was produced from a different config "
            "(hash mismatch); re-run construction"
        )
    for name, entry in doc["cliques"].items():
        if not entry.get("feasible") or "barrier" not in entry:
            raise ConfigError(f"clique {name!r} has no feasible barrier in the document")


def build_cliques(cfg: dict, doc: dict) -> tuple:
    """Rebuild runtime cliques from a barrier document; returns
    (cliques tuple, r_stars dict)."""
    _check_doc(cfg, doc)
    cliques = []
    r_stars = {}
    for name in sorted(cfg["cliques"]):
        entry = doc["cliques"][name]
        cliques.append(
            Clique(
                name=name,
                members=tuple(int(i) for i in cfg["cliques"][name]["members"]),
                barrier=barrier_from_dict(entry["barrier"]),
                coupling_bound=float(cfg["cliques"][name].get("coupling_bound", 0.0)),
                kappa=finite_number(entry, "kappa", f"clique {name!r} "),
            )
        )
        r_stars[name] = finite_number(entry, "r_star", f"clique {name!r} ")
    return tuple(cliques), r_stars


def _dynamics_specs(cfg: dict, agents: dict, seed: int | None = None) -> tuple:
    """(CouplingSpec, SecondaryControlSpec, NoiseSpec) of a config whose
    fields _check_dynamics has passed; seed overrides the noise seed."""
    coup_cfg = cfg.get("coupling", {"kind": "none"})
    sec_cfg = cfg.get("secondary", {"kind": "none"})
    noise_cfg = cfg.get("noise", {})
    kind = sec_cfg.get("kind", "none")
    try:  # the specs own the lists of kinds
        coupling = CouplingSpec(
            kind=coup_cfg.get("kind", "none"),
            attractions={
                int(i): tuple((float(g), int(tgt)) for g, tgt in pulls)
                for i, pulls in coup_cfg.get("attractions", {}).items()
            },
        )
        secondary = SecondaryControlSpec(
            kind=kind,
            group=tuple(int(i) for i in sec_cfg.get("group", ())),
            gain=float(sec_cfg.get("gain", 1.0)),
            softening=float(sec_cfg.get("softening", 0.01)),
            # a kind without a group has no members to know it
            known=kind == "pairwise_repulsion" and sec_cfg.get("known", False),
        )
        noise = NoiseSpec(
            bound=float(noise_cfg.get("bound", 0.0)),
            distribution=noise_cfg.get("distribution", "uniform_ball"),
            seed=int(seed if seed is not None else noise_cfg.get("seed", 0)),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None
    for i, pulls in coupling.attractions.items():
        for _, tgt in pulls:
            if agents[i].state_dim != agents[tgt].state_dim:
                raise ConfigError(f"agent {i} is pulled toward agent {tgt} of another dimension")
    shapes = {(agents[i].state_dim, agents[i].input_dim) for i in secondary.group}
    if kind == "pairwise_repulsion" and (len(shapes) > 1 or any(n != m for n, m in shapes)):
        raise ConfigError("pairwise repulsion needs group members of one dimension "
                          "with as many inputs as states")
    for name in sorted(cfg["cliques"]) if secondary.known else ():
        members = [int(i) for i in cfg["cliques"][name]["members"]]
        inside = [i for i in members if i in secondary.group]
        if inside and not set(secondary.group) <= set(members):
            raise ConfigError(
                "known secondary control requires the whole group "
                f"inside one clique (agent {inside[0]} in {name!r})"
            )
    return coupling, secondary, noise


def build_scenario(cfg: dict, doc: dict, *, seed: int | None = None, dt: float | None = None):
    """Online stage inputs: (Scenario, formulas, r_stars)."""
    cliques, r_stars = build_cliques(cfg, doc)
    agents = build_agents(cfg)
    coupling, secondary, noise = _dynamics_specs(cfg, agents, seed)
    sim_cfg = cfg.get("sim", {})
    scenario = Scenario(
        agents=agents,
        cliques=cliques,
        x0={int(i): np.asarray(v, dtype=float) for i, v in cfg["initial_states"].items()},
        dt=float(dt if dt is not None else sim_cfg.get("dt", 0.005)),
        coupling=coupling,
        secondary=secondary,
        noise=noise,
    )
    return scenario, clique_formulas(cfg), r_stars
