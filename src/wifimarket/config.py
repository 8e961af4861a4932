"""Scenario configuration: schema, JSON loading, and validation.

A scenario is one JSON document::

    {
      "name": "...", "unit": "rate"|"volume", "seed": 42,
      "nodes": ["A", "B"],
      "links": [{"id": "AB", "capacity": 50, "subscriber_load": 0, "price": 10}],
      "wfps":  [{"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5},
                {"id": "p1", "kind": "individual", "quota": 200, "unused": 200,
                 "fee": 1000, "txn_cap": 10, "price": 31}],
      "users": [{"id": "u", "wfp": "w1", "path": ["AB"], "count": 10, ...}],
      "solver": {"sigma0": 1.0, "epsilon": 1e-6, "max_iters": 100000},
      "sharing": {"alpha": 1.0, "beta": 2.5},
      "mode":   {"kind": "sweep"|"equilibrium"|"quota_sweep"|"ceiling_sweep", ...}
    }

A user entry with ``count`` expands into that many identical profiles with
suffixed ids.  ``validate_scenario`` returns the full list of violations as
strings -- it never raises -- so the CLI can print every problem at once.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .model import LinkState, Topology, Unit, UserProfile, WfpAccount, WfpKind
from .pricing import SolverConfig
from .sharing import SharingParams


#: The largest run :func:`validate_scenario` admits, in user-steps (one user's
#: values at one step): a sweep counts ``count`` x final users, an equilibrium
#: ``ticks`` x final users, a quota sweep ``(usage_steps + 1)`` x the users of
#: individual providers, and a ceiling sweep its price steps x usage levels x
#: the users of individual providers.  Under growth that is an upper bound:
#: the largest benchmark workload counts 903,000 (300 steps x 3,010 users),
#: records 454,500 and keeps about 60 MiB resident.
MAX_USER_STEPS = 2_000_000


class ConfigError(ValueError):
    """Malformed scenario document (wrong shape or not a finite number, not out of range)."""


@dataclass(frozen=True)
class SweepMode:
    """Exogenous price ramp for one side of the market.

    The swept party's price is set to start + t * step at each increment,
    bypassing its solver; the other party still takes one dual step per
    increment.  ``user_growth`` users join at every increment after the first,
    and allocations are either an equal split of provider capacity or each
    user's best response.
    """

    swept_party: str  # "isp" | "wfp"
    start: float
    step: float = 1.0
    count: int = 300
    user_growth: int = 0
    allocation: str = "equal"  # "equal" | "best_response"


@dataclass(frozen=True)
class EquilibriumMode:
    """Tick-driven runs where both sides solve for prices each tick."""

    ticks: int
    user_growth: int = 0
    billing_cycle_ticks: int = 0
    subscriber_loads: dict[str, tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class QuotaSweepMode:
    """Individual-provider sweep over remaining quota at fixed posted prices."""

    usage_steps: int = 20
    txn_volume: float = 10.0


@dataclass(frozen=True)
class CeilingSweepMode:
    """Price sweep repeated at several quota-usage levels (share-ceiling study)."""

    usage_levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    price_start: float = 0.0
    price_stop: float = 100.0
    price_step: float = 1.0
    txn_volume: float = 10.0

    @staticmethod
    def series_label(usage: float) -> str:
        """The series of one usage level, named by its whole percent."""
        return f"usage_{int(round(usage * 100))}"


Mode = SweepMode | EquilibriumMode | QuotaSweepMode | CeilingSweepMode


@dataclass
class ScenarioConfig:
    """Everything a run needs: market population, solver knobs, and the mode.

    ``lambda0`` is the providers' starting price in sweep mode only; the other
    modes solve provider prices exactly, or post them, and ignore it.
    """

    name: str
    unit: Unit = Unit.RATE
    seed: int = 0
    topology: Topology = field(default_factory=Topology)
    wfps: list[WfpAccount] = field(default_factory=list)
    wfp_prices: dict[str, float] = field(default_factory=dict)
    users: list[UserProfile] = field(default_factory=list)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sharing: SharingParams = field(default_factory=SharingParams)
    mode: Mode = field(default_factory=lambda: EquilibriumMode(ticks=1))
    solve_isp: bool = True
    lambda0: float = 0.0
    notes: str = ""


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(raw: Any, name: str, kind: type = float) -> Any:
    """``kind(raw)``; ConfigError naming the field if it does not convert or is not finite."""
    try:
        value = kind(raw)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a finite number, got {raw!r}")


def _parse_user(entry: dict) -> list[UserProfile]:
    base_id = str(_require(entry, "id", "user"))
    where = f"user {base_id!r}"
    count = _number(entry.get("count", 1), f"{where}: count", int)
    if count < 1:
        raise ConfigError(f"{where}: count must be at least 1")
    profile = UserProfile(
        id=base_id,
        weight=_number(entry.get("weight", 1.0), f"{where}: weight"),
        tx_power=_number(entry.get("tx_power", 1.0), f"{where}: tx_power"),
        channel_gain2=_number(entry.get("channel_gain2", 1.0), f"{where}: channel_gain2"),
        noise_var=_number(entry.get("noise_var", 1.0), f"{where}: noise_var"),
        band=_number(entry.get("band", 1.0), f"{where}: band"),
        budget=_number(entry.get("budget", 100.0), f"{where}: budget"),
        x_min=_number(entry.get("x_min", 1e-3), f"{where}: x_min"),
        x_max=_number(entry.get("x_max", 100.0), f"{where}: x_max"),
        path=tuple(entry.get("path", ())),
        wfp=str(entry.get("wfp", "")),
    )
    if count == 1:
        return [profile]
    return [replace(profile, id=f"{base_id}{i:03d}") for i in range(1, count + 1)]


def _parse_mode(entry: dict) -> Mode:
    kind = str(_require(entry, "kind", "mode"))
    if kind == "sweep":
        return SweepMode(
            swept_party=str(_require(entry, "swept_party", "mode")),
            start=_number(_require(entry, "start", "mode"), "mode: start"),
            step=_number(entry.get("step", 1.0), "mode: step"),
            count=_number(entry.get("count", 300), "mode: count", int),
            user_growth=_number(entry.get("user_growth", 0), "mode: user_growth", int),
            allocation=str(entry.get("allocation", "equal")),
        )
    if kind == "equilibrium":
        loads = {
            str(lid): tuple(
                _number(v, f"mode: subscriber_loads[{lid!r}][{i}]") for i, v in enumerate(series)
            )
            for lid, series in entry.get("subscriber_loads", {}).items()
        }
        return EquilibriumMode(
            ticks=_number(_require(entry, "ticks", "mode"), "mode: ticks", int),
            user_growth=_number(entry.get("user_growth", 0), "mode: user_growth", int),
            billing_cycle_ticks=_number(
                entry.get("billing_cycle_ticks", 0), "mode: billing_cycle_ticks", int
            ),
            subscriber_loads=loads,
        )
    if kind == "quota_sweep":
        return QuotaSweepMode(
            usage_steps=_number(entry.get("usage_steps", 20), "mode: usage_steps", int),
            txn_volume=_number(entry.get("txn_volume", 10.0), "mode: txn_volume"),
        )
    if kind == "ceiling_sweep":
        levels = entry.get("usage_levels", (0.0, 0.25, 0.5, 0.75))
        return CeilingSweepMode(
            usage_levels=tuple(
                _number(v, f"mode: usage_levels[{i}]") for i, v in enumerate(levels)
            ),
            price_start=_number(entry.get("price_start", 0.0), "mode: price_start"),
            price_stop=_number(entry.get("price_stop", 100.0), "mode: price_stop"),
            price_step=_number(entry.get("price_step", 1.0), "mode: price_step"),
            txn_volume=_number(entry.get("txn_volume", 10.0), "mode: txn_volume"),
        )
    raise ConfigError(f"mode: unknown kind {kind!r}")


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document.

    Shape problems (missing keys, unknown enum values) and numbers that do not
    convert or are not finite raise ConfigError; out-of-range numbers are left
    for :func:`validate_scenario` to report.
    """
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")

    links = {}
    for entry in doc.get("links", []):
        lid = str(_require(entry, "id", "link"))
        where = f"link {lid}"
        links[lid] = LinkState(
            id=lid,
            capacity=_number(_require(entry, "capacity", where), f"{where}: capacity"),
            subscriber_load=_number(entry.get("subscriber_load", 0.0), f"{where}: subscriber_load"),
            price=_number(entry.get("price", 0.0), f"{where}: price"),
        )
    topology = Topology(nodes=tuple(doc.get("nodes", ())), links=links)

    wfps: list[WfpAccount] = []
    wfp_prices: dict[str, float] = {}
    for entry in doc.get("wfps", []):
        wid = str(_require(entry, "id", "wfp"))
        kind_raw = str(_require(entry, "kind", f"wfp {wid}"))
        try:
            kind = WfpKind(kind_raw)
        except ValueError as exc:
            raise ConfigError(f"wfp {wid}: unknown kind {kind_raw!r}") from exc
        where = f"wfp {wid}"
        quota = _number(entry.get("quota", 0.0), f"{where}: quota")
        wfps.append(
            WfpAccount(
                id=wid,
                kind=kind,
                capacity=_number(entry.get("capacity", 0.0), f"{where}: capacity"),
                quota=quota,
                unused=_number(entry.get("unused", quota), f"{where}: unused"),
                min_profit=_number(entry.get("min_profit", 0.0), f"{where}: min_profit"),
                fee=_number(entry.get("fee", 0.0), f"{where}: fee"),
                settled_share=_number(entry.get("settled_share", 0.0), f"{where}: settled_share"),
                txn_cap=_number(entry.get("txn_cap", 0.0), f"{where}: txn_cap"),
            )
        )
        if "price" in entry:
            wfp_prices[wid] = _number(entry["price"], f"{where}: price")

    users: list[UserProfile] = []
    for entry in doc.get("users", []):
        users.extend(_parse_user(entry))

    solver_doc = doc.get("solver", {})
    # ConfigError is a ValueError: the handlers below also prefix _number's messages
    try:
        solver = SolverConfig(
            sigma0=_number(solver_doc.get("sigma0", 1.0), "sigma0"),
            epsilon=_number(solver_doc.get("epsilon", 1e-6), "epsilon"),
            max_iters=_number(solver_doc.get("max_iters", 100_000), "max_iters", int),
            x_floor=_number(solver_doc.get("x_floor", 1e-6), "x_floor"),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    sharing_doc = doc.get("sharing", {})
    try:
        sharing = SharingParams(
            alpha=_number(sharing_doc.get("alpha", 1.0), "alpha"),
            beta=_number(sharing_doc.get("beta", 2.5), "beta"),
        )
    except ValueError as exc:
        raise ConfigError(f"sharing: {exc}") from exc

    unit_raw = str(doc.get("unit", "rate"))
    try:
        unit = Unit(unit_raw)
    except ValueError as exc:
        raise ConfigError(f"unknown unit {unit_raw!r}") from exc

    return ScenarioConfig(
        name=str(doc.get("name", "scenario")),
        unit=unit,
        seed=_number(doc.get("seed", 0), "seed", int),
        topology=topology,
        wfps=wfps,
        wfp_prices=wfp_prices,
        users=users,
        solver=solver,
        sharing=sharing,
        mode=_parse_mode(_require(doc, "mode", "scenario")),
        solve_isp=bool(doc.get("solve_isp", True)),
        lambda0=_number(doc.get("lambda0", 0.0), "lambda0"),
        notes=str(doc.get("notes", "")),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and parse one scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Collect every constraint violation in the scenario; empty means valid."""
    problems: list[str] = []

    for lid, link in cfg.topology.links.items():
        if link.capacity <= 0.0:
            problems.append(f"link {lid}: capacity must be positive")
        if link.subscriber_load < 0.0:
            problems.append(f"link {lid}: subscriber_load must be non-negative")
        elif link.subscriber_load > link.capacity:
            problems.append(f"link {lid}: subscriber_load exceeds capacity")
        if link.price < 0.0:
            problems.append(f"link {lid}: price must be non-negative")

    wfp_ids = set()
    for w in cfg.wfps:
        if w.id in wfp_ids:
            problems.append(f"wfp {w.id}: duplicate id")
        wfp_ids.add(w.id)
        if w.min_profit < 0.0:
            problems.append(f"wfp {w.id}: min_profit must be non-negative")
        if w.kind is WfpKind.ESTABLISHMENT:
            if w.capacity <= 0.0:
                problems.append(f"wfp {w.id}: capacity must be positive")
        else:
            if w.quota <= 0.0:
                problems.append(f"wfp {w.id}: quota must be positive")
            if not 0.0 <= w.unused <= w.quota:
                problems.append(f"wfp {w.id}: unused must lie in [0, quota]")
            if w.fee < 0.0:
                problems.append(f"wfp {w.id}: fee must be non-negative")
            if w.settled_share < 0.0:
                problems.append(f"wfp {w.id}: settled_share must be non-negative")
            elif w.fee > 0.0 and w.settled_share > w.fee:
                problems.append(f"wfp {w.id}: settled_share exceeds fee")
            if w.txn_cap < 0.0:
                problems.append(f"wfp {w.id}: txn_cap must be non-negative")

    user_ids = set()
    for u in cfg.users:
        if u.id in user_ids:
            problems.append(f"user {u.id}: duplicate id")
        user_ids.add(u.id)
        if u.x_min <= 0.0:
            problems.append(f"user {u.id}: x_min must be positive")
        if u.x_max < u.x_min:
            problems.append(f"user {u.id}: x_max must be at least x_min")
        if u.weight <= 0.0:
            problems.append(f"user {u.id}: weight must be positive")
        if u.budget <= 0.0:
            problems.append(f"user {u.id}: budget must be positive")
        for quantity in ("tx_power", "noise_var", "band"):
            if getattr(u, quantity) <= 0.0:
                problems.append(f"user {u.id}: {quantity} must be positive")
        if u.channel_gain2 < 0.0:
            problems.append(f"user {u.id}: channel_gain2 must be non-negative")
        if not u.wfp:
            problems.append(f"user {u.id}: no wfp to buy from")
        elif u.wfp not in wfp_ids:
            problems.append(f"user {u.id}: unknown wfp {u.wfp!r}")
        for lid in u.path:
            if lid not in cfg.topology.links:
                problems.append(f"user {u.id}: unknown link {lid!r} in path")

    mode = cfg.mode
    if isinstance(mode, SweepMode):
        if mode.swept_party not in ("isp", "wfp"):
            problems.append("mode: swept_party must be 'isp' or 'wfp'")
        if mode.count < 1:
            problems.append("mode: count must be at least 1")
        if mode.step <= 0.0:
            problems.append("mode: step must be positive")
        if mode.user_growth < 0:
            problems.append("mode: user_growth must be non-negative")
        elif mode.user_growth and not cfg.users:
            problems.append("mode: user_growth needs users to clone")
        if mode.allocation not in ("equal", "best_response"):
            problems.append("mode: allocation must be 'equal' or 'best_response'")
    elif isinstance(mode, EquilibriumMode):
        if mode.ticks < 1:
            problems.append("mode: ticks must be at least 1")
        if mode.user_growth < 0:
            problems.append("mode: user_growth must be non-negative")
        elif mode.user_growth and not cfg.users:
            problems.append("mode: user_growth needs users to clone")
        if mode.billing_cycle_ticks < 0:
            problems.append("mode: billing_cycle_ticks must be non-negative")
        for lid, series in mode.subscriber_loads.items():
            if lid not in cfg.topology.links:
                problems.append(f"mode: subscriber_loads for unknown link {lid!r}")
            elif len(series) < mode.ticks:
                problems.append(f"mode: subscriber_loads for {lid!r} shorter than ticks")
    elif isinstance(mode, QuotaSweepMode):
        if mode.usage_steps < 1:
            problems.append("mode: usage_steps must be at least 1")
        if mode.txn_volume <= 0.0:
            problems.append("mode: txn_volume must be positive")
    elif isinstance(mode, CeilingSweepMode):
        if not mode.usage_levels:
            problems.append("mode: usage_levels must not be empty")
        if any(not 0.0 <= lvl < 1.0 for lvl in mode.usage_levels):
            problems.append("mode: usage_levels must lie in [0, 1)")
        if mode.price_step <= 0.0:
            problems.append("mode: price_step must be positive")
        if mode.price_stop < mode.price_start:
            problems.append("mode: price_stop must be at least price_start")
        if mode.txn_volume <= 0.0:
            problems.append("mode: txn_volume must be positive")
        first: dict[str, float] = {}
        for lvl in mode.usage_levels:
            label = mode.series_label(lvl)
            if label in first:
                problems.append(
                    f"mode: usage_levels {first[label]!r} and {lvl!r} share series {label}"
                )
            first.setdefault(label, lvl)
        individual = [w.id for w in cfg.wfps if w.kind is WfpKind.INDIVIDUAL]
        if len(individual) > 1:
            problems.append("mode: a ceiling sweep maps one individual provider, got "
                            + ", ".join(individual))

    if isinstance(mode, QuotaSweepMode):
        for w in cfg.wfps:
            if w.kind is WfpKind.INDIVIDUAL and w.id not in cfg.wfp_prices:
                problems.append(f"wfp {w.id}: posted price required for quota sweeps")

    users_by_wfp: dict[str, int] = {}
    for u in cfg.users:
        users_by_wfp[u.wfp] = users_by_wfp.get(u.wfp, 0) + 1
    if isinstance(mode, (SweepMode, QuotaSweepMode, CeilingSweepMode)):
        for w in cfg.wfps:
            if users_by_wfp.get(w.id, 0) == 0:
                problems.append(f"wfp {w.id}: no users assigned")

    size = _user_steps(cfg, users_by_wfp)
    if size > MAX_USER_STEPS:
        problems.append(
            f"mode: {size:,.0f} user-steps exceed the limit of {MAX_USER_STEPS:,}"
        )

    return problems


def _user_steps(cfg: ScenarioConfig, users_by_wfp: dict[str, int]) -> float:
    """The run's size in user-steps, as :data:`MAX_USER_STEPS` counts them."""
    mode = cfg.mode
    if isinstance(mode, (SweepMode, EquilibriumMode)):
        steps = mode.count if isinstance(mode, SweepMode) else mode.ticks
        return steps * (len(cfg.users) + mode.user_growth * (steps - 1))
    sellers = sum(
        users_by_wfp.get(w.id, 0) for w in cfg.wfps if w.kind is WfpKind.INDIVIDUAL
    )
    if isinstance(mode, QuotaSweepMode):
        return (mode.usage_steps + 1) * sellers
    if mode.price_step <= 0.0:
        return 0.0
    steps = (mode.price_stop - mode.price_start) / mode.price_step + 1.0
    return steps * len(mode.usage_levels) * sellers
