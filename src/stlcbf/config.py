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
      "search": {"r_max": r}
    }

The search section sets only r_max, the cap on the robustness target; any
other key is refused, as the rest of the search policy (the margin delta,
eta and the controller's gain kappa included) is fixed in param_search.
Every other object refuses a key outside the schema above too (_KEYS), so a
misspelt key is not read as its default.

Config checks the JSON shapes it converts and what construction needs
before any barrier exists; every other value goes as read to the specs,
AgentModel, Clique and Scenario, which own its rule, and their ValueError
becomes a one-line ConfigError.  Construction also refuses a sim dt that
the run's grid rule (sim._grid_steps) refuses for the latest task deadline,
before any search.

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
from .param_search import _check_r_max, maximize_r
from .predicates import StateLayout, doc_object, finite_array, finite_number, is_finite_number
from .sim import CouplingSpec, NoiseSpec, Scenario, SecondaryControlSpec, _check_relations, _grid_steps

__all__ = [
    "ConfigError",
    "load_config",
    "config_hash",
    "clique_formulas",
    "build_agents",
    "run_construct",
    "build_cliques",
    "build_scenario",
]

BARRIER_DOC_FORMAT = "stlcbf-barriers"
LOG_DOC_FORMAT = "stlcbf-log"
LOG_DOC_VERSION = 2  # the log section links the trajectory CSV by sha256


class ConfigError(ValueError):
    pass


# each config object's keys (search's are checked by _search_r_max)
_KEYS = {
    "config": ("agents", "cliques", "initial_states", "coupling", "secondary", "noise", "sim", "search"),
    "agent": ("dim", "drift", "input"),
    "drift": ("kind", "A", "b"),
    "input": ("matrix",),
    "clique": ("members", "formula", "coupling_bound"),
    "coupling": ("kind", "attractions"),
    "secondary": ("kind", "group", "gain", "softening", "known"),
    "noise": ("bound", "distribution", "seed"),
    "sim": ("dt",),
}


def _known_keys(obj: dict, kind: str, what: str) -> None:
    """Refuse, with one line naming what, a key of obj outside _KEYS[kind]."""
    for key in obj:
        if key not in _KEYS[kind]:
            raise ConfigError(f"{what}: unknown key {key!r} (known: {', '.join(_KEYS[kind])})")


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
    _known_keys(cfg, "config", "config")
    for key in _KEYS["config"]:
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"config section {key!r} must be a JSON object")
    for key in ("coupling", "secondary", "noise", "sim"):
        _known_keys(cfg.get(key, {}), key, f"config section {key!r}")
    if not cfg["cliques"]:
        raise ConfigError("config needs at least one clique")
    seen = set()
    for name, cl in cfg["cliques"].items():
        if not isinstance(cl, dict) or "members" not in cl or "formula" not in cl:
            raise ConfigError(f"clique {name!r} needs members and formula")
        _known_keys(cl, "clique", f"clique {name!r}")
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
        _known_keys(cfg["agents"][i], "agent", f"agent {i}")
        for key in ("drift", "input"):
            if isinstance(cfg["agents"][i].get(key), dict):
                _known_keys(cfg["agents"][i][key], key, f"agent {i} {key}")
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
    for i in cfg["initial_states"]:
        if i not in cfg["agents"]:
            raise ConfigError(f"initial_states names agent {i!r}, which is not a declared agent")
    _check_dynamics(cfg)
    _dynamics_specs(cfg, build_agents(cfg))
    _search_r_max(cfg)
    return cfg


def _check_dynamics(cfg: dict) -> None:
    """The JSON shapes of the pulls and the group that _dynamics_specs converts, and sim dt."""
    agents = cfg["agents"]
    pulls = cfg.get("coupling", {}).get("attractions", {})
    if not isinstance(pulls, dict):
        raise ConfigError("coupling attractions must be a JSON object keyed by agent id")
    for i, lst in pulls.items():
        if not (i in agents and isinstance(lst, list) and all(
                isinstance(p, list) and len(p) == 2 and is_finite_number(p[0]) and str(p[1]) in agents
                for p in lst)):
            raise ConfigError(f"coupling attractions {i!r}: {lst!r} is not a declared agent's list "
                              "of [finite gain, declared agent id] pulls")
    group = cfg.get("secondary", {}).get("group", [])
    if not (isinstance(group, list) and all(str(i) in agents for i in group)):
        raise ConfigError(f"secondary group must be a list of declared agent ids, got {group!r}")
    dt = cfg.get("sim", {}).get("dt", 0.005)
    if not (is_finite_number(dt) and dt > 0.0):
        raise ConfigError(f"sim dt must be a finite number > 0, got {dt!r}")


def _read_json(path, what) -> object:
    """The JSON document at path, or a one-line ConfigError naming what."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ConfigError(f"{what} is not valid JSON: {err}") from None


def load_config(path) -> dict:
    return validate_config(_read_json(path, "config"))


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
    arr = finite_array(spec.get(key), ndim)
    if arr is None:
        raise ConfigError(f"agent {agent} {what} must be a {ndim}-D list of finite numbers")
    return arr


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


def _search_r_max(cfg: dict) -> float:
    """The search section's one setting, r_max (inf when absent)."""
    sc = cfg.get("search", {})
    extra = [key for key in sc if key != "r_max"]
    if extra:
        raise ConfigError(f"bad search section: unknown key {extra[0]!r}; r_max is the only search setting")
    r_max = sc.get("r_max", math.inf)
    try:
        _check_r_max(r_max)
    except ValueError as err:
        raise ConfigError(f"bad search section: {err}") from None
    return r_max


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
    r_max = _search_r_max(cfg)
    units = {name: normalize(formulas[name]) for name in cfg["cliques"]}
    deadline, dt = max(u.deadline for us in units.values() for u in us), cfg.get("sim", {}).get("dt", 0.005)
    try:  # the run's grid, checked before any search
        _grid_steps(deadline, dt)
    except ValueError:
        raise ConfigError(f"sim dt {dt!r} must divide the latest task deadline {deadline:g} "
                          "into fewer than 2**53 steps") from None
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
        result = maximize_r(units[name], x0, r_max)
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
    cliques = doc_object(doc.get("cliques"), "cliques")
    for name in cfg["cliques"]:
        if name not in cliques:
            raise ConfigError(f"clique {name!r} is missing from the barrier document")
    for name, entry in cliques.items():
        if not doc_object(entry, f"clique {name!r}").get("feasible") or "barrier" not in entry:
            raise ConfigError(f"clique {name!r} has no feasible barrier in the document")


def build_cliques(cfg: dict, doc: dict) -> tuple:
    """Rebuild runtime cliques from a barrier document; returns
    (cliques tuple, r_stars dict)."""
    _check_doc(cfg, doc)
    cliques = []
    r_stars = {}
    for name in sorted(cfg["cliques"]):
        entry, cl = doc["cliques"][name], cfg["cliques"][name]
        barrier = barrier_from_dict(entry["barrier"])
        kappa = finite_number(entry, "kappa", f"clique {name!r} ")
        try:  # Clique owns the kappa scale rule
            cliques.append(Clique(name=name, members=tuple(int(i) for i in cl["members"]), barrier=barrier,
                                  coupling_bound=float(cl.get("coupling_bound", 0.0)), kappa=kappa))
        except ValueError as err:
            raise ConfigError(f"barrier document: clique {name!r} {err}") from None
        r_stars[name] = finite_number(entry, "r_star", f"clique {name!r} ")
    return tuple(cliques), r_stars


def _dynamics_specs(cfg: dict, agents: dict, seed: int | None = None) -> tuple:
    """(CouplingSpec, SecondaryControlSpec, NoiseSpec) of a config whose
    fields _check_dynamics has passed; seed overrides the noise seed."""
    coup_cfg, sec_cfg, noise_cfg = (cfg.get(key, {}) for key in ("coupling", "secondary", "noise"))
    try:  # the specs own their values' rules, and sim the rules that relate agents and cliques
        coupling = CouplingSpec(
            kind=coup_cfg.get("kind", "none"),
            attractions={
                int(i): tuple((float(g), int(tgt)) for g, tgt in pulls)
                for i, pulls in coup_cfg.get("attractions", {}).items()
            },
        )
        secondary = SecondaryControlSpec(
            kind=sec_cfg.get("kind", "none"),
            group=tuple(int(i) for i in sec_cfg.get("group", ())),
            gain=sec_cfg.get("gain", 1.0),
            softening=sec_cfg.get("softening", 0.01),
            known=sec_cfg.get("known", False),
        )
        noise = NoiseSpec(
            bound=noise_cfg.get("bound", 0.0),
            distribution=noise_cfg.get("distribution", "uniform_ball"),
            seed=seed if seed is not None else noise_cfg.get("seed", 0),
        )
        members = {name: [int(i) for i in cl["members"]] for name, cl in cfg["cliques"].items()}
        _check_relations(agents, members, coupling, secondary)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return coupling, secondary, noise


def build_scenario(cfg: dict, doc: dict, *, seed: int | None = None):
    """Online stage inputs: (Scenario, formulas, r_stars)."""
    cliques, r_stars = build_cliques(cfg, doc)
    agents = build_agents(cfg)
    coupling, secondary, noise = _dynamics_specs(cfg, agents, seed)
    scenario = Scenario(
        agents=agents,
        cliques=cliques,
        x0={int(i): np.asarray(v, dtype=float) for i, v in cfg["initial_states"].items()},
        dt=float(cfg.get("sim", {}).get("dt", 0.005)),
        coupling=coupling,
        secondary=secondary,
        noise=noise,
    )
    return scenario, clique_formulas(cfg), r_stars
