"""Seeded workload inputs.

``make_inputs(workload, seed)`` returns plain JSON data; the program only
ever sees what is built from it.  Seed 0 is the configuration of the
acceptance suite (criteria 3-6) and of ``TestGridBase``.  Other seeds redraw
values but never sizes: points, nodes, n values, orders and battery counts
are the same at every seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("rate_atomic", "rate_grid", "algebra")

BERNOULLI = [[-1.0, 0.5], [1.0, 0.5]]
# criterion 6 skewed base: centered, unit variance, weight 0.2 on the upper atom
SKEWED_SEED0 = [[2.0, 0.2], [-0.5, 0.8]]
RESOLVENT_SEED0 = 20240901


def standard_two_atom(p: float) -> list:
    """Centered unit-variance law with weight p on its upper atom."""
    return [[math.sqrt((1.0 - p) / p), p], [-math.sqrt(p / (1.0 - p)), 1.0 - p]]


def _measure_battery(slot_law: list) -> list:
    """The five laws of ``stein.MEASURE_BATTERY`` with the seeded law in slot 2."""
    return [
        {"type": "semicircle", "mean": 0.0, "variance": 1.0},
        {"type": "atomic", "atoms": BERNOULLI},
        {"type": "atomic", "atoms": slot_law},
        {
            "type": "atomic",
            "atoms": [[-math.sqrt(1.5), 1 / 3], [0.0, 1 / 3], [math.sqrt(1.5), 1 / 3]],
        },
        {"type": "semicircle", "mean": -0.3, "variance": 0.49},
    ]


def make_inputs(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(seed)
    if workload == "rate_atomic":
        # weights below 0.2 push the order-6 generator finite-difference bias
        # of the probe law past its 1e-3 gate
        skewed = SKEWED_SEED0 if seed == 0 else standard_two_atom(round(rng.uniform(0.2, 0.35), 4))
        return {
            "laws": {"bernoulli": BERNOULLI, "skewed": skewed},
            "n_values": [8, 16, 32, 64, 128, 256, 512],
            "n_extend": [1024, 2048, 4096],
            "grid_points": 2001,
            "metrics": ["kol", "tv", "w1"],
            "probe": {"law": "skewed", "order": 6, "nc_count": 9, "nc_mobius": 6},
        }
    if workload == "rate_grid":
        centre, width = (1.2, 0.45) if seed == 0 else (
            round(rng.uniform(1.0, 1.4), 4),
            round(rng.uniform(0.35, 0.55), 4),
        )
        return {
            "nodes": 1601,
            "span": [-3.2, 3.2],
            "centre": centre,
            "width": width,
            "n_values": [8, 16, 32, 64],
            "grid_points": 801,
            "metrics": ["w1"],
            "probe": {"order": 6, "nc_count": 9, "nc_mobius": 6},
        }
    # slot 2 of the battery: the skewed two-atom law 4/13 : 9/13 at seed 0;
    # weights below 0.3 push its order-8 finite-difference bias past 1e-3
    slot = (
        [[1.5, 4 / 13], [-2 / 3, 9 / 13]]
        if seed == 0
        else standard_two_atom(round(rng.uniform(0.3, 0.5), 4))
    )
    return {
        "battery": _measure_battery(slot),
        "stein_order": 8,
        "nc_count": 11,
        "nc_mobius": 7,
        "kreweras": [
            [[1], [2], [3], [4], [5], [6]],
            [[1, 2, 3, 4, 5, 6]],
            [[1, 4], [2, 3], [5, 6]],
            [[1, 2, 5], [3, 4], [6]],
        ],
        "mixed_max_n": 8,
        "moments_order": 12,
        "engine_n": [2, 4, 8],
        "engine_order": 8,
        "expand_max_power": 6,
        "resolvent": {
            "seed": RESOLVENT_SEED0 if seed == 0 else RESOLVENT_SEED0 + seed,
            "count": 50,
            "dim": 6,
        },
    }
