"""Seeded scenario documents the benchmark runs.

Each workload is a packaged preset (or, for ``isp-nested``, a document no
preset covers) reshaped to stress one layer, plus per-user ``weight`` and
``budget`` drawn from the seed.  The draws keep every user entry's total
``weight * budget`` at the preset's value, so the aggregate unclamped demand
-- and with it the solver's path and the amount of work -- is the same for
every seed, while the individual numbers (and so the output bytes) are not.

The program under test only ever sees the generated document bytes.

BENCHMARK.json lists all four, in this order, with the same ``why``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PRESETS = Path(__file__).resolve().parent.parent / "src" / "wifimarket" / "presets"


def _preset(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: Callable[[], dict]


def _sweep_crowd() -> dict:
    doc = _preset("scenario2")
    doc["users"][0]["count"] = 20
    doc["mode"]["user_growth"] = 10  # 20 + 299 * 10 = 3,010 users by step 300
    return doc


def _equilibrium_overload() -> dict:
    doc = _preset("scenario3-high")
    doc["mode"]["ticks"] = 13  # solver iterations per tick grow from ~1.3k to 40k+
    return doc


def _isp_nested() -> dict:
    # No preset runs the nested ISP/provider solvers or a binding plan fee;
    # this document is built here.  ``max_iters`` bounds both solver levels,
    # so it sets the run length: every ISP solve ends unconverged at it.
    ticks = 8
    return {
        "name": "isp-nested",
        "unit": "rate",
        "nodes": ["A", "B", "C"],
        "links": [
            {"id": "AB", "capacity": 100.0, "subscriber_load": 0.0, "price": 5.0},
            {"id": "BC", "capacity": 80.0, "subscriber_load": 0.0, "price": 5.0},
        ],
        "wfps": [
            {"id": "est1", "kind": "establishment", "capacity": 60.0, "min_profit": 2.0},
            {"id": "ind1", "kind": "individual", "quota": 60.0, "unused": 60.0,
             "fee": 20.0, "txn_cap": 8.0, "min_profit": 1.0},
        ],
        "users": [
            {"id": "a", "count": 8, "wfp": "est1", "path": ["AB"],
             "budget": 100.0, "x_min": 0.01, "x_max": 50.0},
            {"id": "b", "count": 8, "wfp": "est1", "path": ["AB", "BC"],
             "budget": 100.0, "x_min": 0.01, "x_max": 50.0},
            {"id": "c", "count": 4, "wfp": "ind1", "path": ["BC"],
             "budget": 100.0, "x_min": 0.01, "x_max": 50.0},
        ],
        "solver": {"sigma0": 0.5, "epsilon": 1e-06, "max_iters": 200},
        "sharing": {"alpha": 1.0, "beta": 2.5},
        "solve_isp": True,
        "lambda0": 0.0,
        "mode": {
            "kind": "equilibrium",
            "ticks": ticks,
            "user_growth": 2,
            "billing_cycle_ticks": 3,
            "subscriber_loads": {
                "AB": [60.0 + 4.0 * (t % 5) for t in range(ticks)],
                "BC": [40.0 + 5.0 * (t % 4) for t in range(ticks)],
            },
        },
    }


def _ceiling_fine() -> dict:
    doc = _preset("iwfp-ceiling")
    doc["mode"]["price_step"] = 0.01  # 10,001 prices x 4 usage levels = 40,004 rows
    return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-crowd",
            "scenario2 at twice the population (3,010 users by step 300): engine step "
            "assembly, per-user utility, few large settlements, a 9k-column CSV",
            _sweep_crowd,
        ),
        Workload(
            "equilibrium-overload",
            "scenario3-high over 13 ticks: almost all time in the provider subgradient "
            "solver; settlement and reports are small",
            _equilibrium_overload,
        ),
        Workload(
            "isp-nested",
            "solve_isp with two congested links: provider solves nested in every ISP "
            "iteration, billing cycles and a binding plan fee",
            _isp_nested,
        ),
        Workload(
            "ceiling-fine",
            "iwfp-ceiling at price_step 0.01: 40k snapshot settlements of two sales each, "
            "a 40k-row CSV and 40k-point SVG",
            _ceiling_fine,
        ),
    )
}


def _expand_and_draw(users: list[dict], rng: random.Random) -> list[dict]:
    """Split counted entries into single users with seeded weight and budget.

    Ids match what the loader's own ``count`` expansion would give.  Within
    each original entry the products ``weight * budget`` average to the
    entry's own product, so aggregate demand does not depend on the seed.
    """
    drawn = []
    for entry in users:
        count = int(entry.get("count", 1))
        weight = float(entry.get("weight", 1.0))
        budget = float(entry.get("budget", 100.0))
        weights = [weight * rng.uniform(0.8, 1.2) for _ in range(count)]
        products = [rng.uniform(0.8, 1.2) for _ in range(count)]
        mean = sum(products) / count
        for i in range(count):
            user = {k: v for k, v in entry.items() if k != "count"}
            if count > 1:
                user["id"] = f"{entry['id']}{i + 1:03d}"
            user["weight"] = weights[i]
            user["budget"] = weight * budget * products[i] / mean / weights[i]
            drawn.append(user)
    return drawn


def generate(name: str, seed: int) -> bytes:
    """The scenario document for one workload and seed, as file bytes."""
    doc = WORKLOADS[name].base()
    rng = random.Random(f"{name}:{seed}")
    doc["seed"] = seed
    doc["users"] = _expand_and_draw(doc["users"], rng)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")
