"""Built-in four-agent relocation demo.

Three agents hold a triangle formation while moving across the plane and a
fourth patrols two corner regions; the fourth agent pulls on the formation
(and is pulled back), the formation agents run a pairwise repulsion control
on top of the task law, and every agent sees bounded actuation noise.

Two cliques: "formation" = agents 1-3 (keep formation from the start until
the leader parks in a goal box, passing a staging box) and "patrol" = agent 4
(visit two corners while respecting moving half-plane constraints).
"""

from __future__ import annotations

import copy

__all__ = ["demo_config"]

_FORMATION_TASK = (
    "G[5,10](norm_inf(x1 - [2.5,7]) <= 0.5)"
    " & (norm_inf(x2 - x1 + [1,-1]) <= 0.5 & norm_inf(x3 - x1 + [1,1]) <= 0.5)"
    " U[10,20] (norm_inf(x1 - [8,6]) <= 0.5)"
)

_PATROL_TASK = (
    "F[5,10](norm_inf(x4 - [9,1]) <= 1)"
    " & G[0,10](dot([1,0], x4) - 8 >= 0)"
    " & F[15,20](norm_inf(x4 - [1,1]) <= 1)"
    " & G[10,20](dot([0,-1], x4) + 2 >= 0)"
)

DEMO_CONFIG = {
    "agents": {
        "1": {"dim": 2},
        "2": {"dim": 2},
        "3": {"dim": 2},
        "4": {"dim": 2},
    },
    "cliques": {
        "formation": {
            "members": [1, 2, 3],
            "formula": _FORMATION_TASK,
            "coupling_bound": 2.9,
        },
        "patrol": {
            "members": [4],
            "formula": _PATROL_TASK,
            "coupling_bound": 0.85,
        },
    },
    "initial_states": {
        "1": [0.0, 5.0],
        "2": [-1.0, 6.0],
        "3": [-1.0, 4.0],
        "4": [9.0, 5.0],
    },
    "coupling": {
        "kind": "saturating_attraction",
        "attractions": {
            "1": [[0.5, 4]],
            "2": [[0.5, 4]],
            "3": [[0.5, 4]],
            "4": [[0.25, 1], [0.25, 2]],
        },
    },
    "secondary": {
        "kind": "pairwise_repulsion",
        "group": [1, 2, 3],
        "gain": 1.0,
        "softening": 0.01,
        "known": False,
    },
    "noise": {"bound": 0.1, "distribution": "uniform_ball", "seed": 11},
    "sim": {"dt": 0.005},
    "search": {"r_max": 0.3},
}


def demo_config() -> dict:
    """A fresh copy of the built-in demo scenario config."""
    return copy.deepcopy(DEMO_CONFIG)
