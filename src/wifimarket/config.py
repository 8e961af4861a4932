"""Scenario configuration: schema, JSON loading, and validation.

A scenario is one JSON document::

    {
      "name": "...",
      "links": [{"id": "AB", "capacity": 50, "subscriber_load": 0, "price": 10}],
      "wfps":  [{"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5},
                {"id": "p1", "kind": "individual", "quota": 200, "unused": 200,
                 "fee": 1000, "txn_cap": 10, "price": 31}],
      "users": [{"id": "u", "wfp": "w1", "path": ["AB"], "count": 10, ...}],
      "solver": {"max_iters": 100000},
      "sharing": {"alpha": 1.0, "beta": 2.5},
      "mode":   {"kind": "sweep"|"equilibrium"|"quota_sweep"|"ceiling_sweep", ...}
    }

Every key but the hand-read ones is a field of the dataclass its section builds
(:class:`LinkState`, :class:`WfpAccount`, :class:`UserProfile`, :class:`SharingParams`,
and the sections defined here: the four modes, :class:`SolverConfig`, and
:class:`ScenarioConfig` for ``name`` and ``solve_isp``), which declares its type, default
and rules, which may read the entry's other fields.  Its value must have the field's
type: a JSON number (a whole one for an int; a provider's optional posted ``price``,
None when not given, is one too), a boolean, one of an enum's values, an array for
a tuple (``path``, ``usage_levels``, each load series) or an object for a dict
(``subscriber_loads``), read entry by entry; a string field takes any value's
string.  ``links``, ``wfps`` and ``users`` are arrays of objects, and ``solver``,
``sharing`` and ``mode`` objects; any other shape is a ConfigError.  Read by hand
are only each entry's ``id`` and the mode's ``kind`` (a provider's ``unused``
defaults to its ``quota``).  A user entry with a ``count`` stays one profile,
checked once, whose users the engine copies from it (at most
:data:`MAX_USER_STEPS` users in all).  Keys the schema does not name (such as
``notes``) are ignored, but a sweep's ``solver.sigma0`` or top-level ``lambda0``,
now ``mode.sigma0`` and ``mode.lambda0``, is a ConfigError.  ``validate_scenario``
lists every violation as a string, never raising; an entry's broken field rules
come in field order.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .model import (AT_LEAST_1, NON_NEGATIVE, POSITIVE, LinkState, Rule, UserProfile,
                    WfpAccount, WfpKind, bound, broken_bounds, broken_rule, one_of,
                    refuse_broken_bounds)
from .sharing import SharingParams


#: The largest run :func:`validate_scenario` admits, in user-steps (one user's
#: values at one step): a sweep counts ``count`` x final users, an equilibrium
#: ``ticks`` x final users, a quota sweep ``(usage_steps + 1)`` x the users of
#: individual providers, and a ceiling sweep its price steps x usage levels x
#: the users of individual providers.  Under growth that is an upper bound:
#: the largest benchmark workload counts 903,000 (300 steps x 3,010 users),
#: records 454,500 and peaks at 35.8 MiB resident (BENCH_20.json, x86_64).
MAX_USER_STEPS = 2_000_000
AT_MOST_MAX: Rule = (lambda v, _: v > MAX_USER_STEPS, f"must be at most {MAX_USER_STEPS:,}")


class ConfigError(ValueError):
    """Malformed scenario document (wrong shape, or not a finite number or not a whole one
    for an int field; out of range only for a solver or sharing knob)."""


@dataclass(frozen=True)
class SweepMode:
    """Exogenous price ramp for one side of the market.

    The swept party's price is set to start + t * step at each increment,
    bypassing its solver; the other party still takes one dual step of
    sigma0 / (1 + t) per increment, the providers' price starting from
    ``lambda0``.  ``user_growth`` users join at every increment after the
    first, and allocations are either an equal split of provider capacity or
    each user's best response.
    """

    swept_party: str = bound(one_of("isp", "wfp"))
    start: float = bound(NON_NEGATIVE)
    step: float = bound(POSITIVE, 1.0)
    count: int = bound([AT_LEAST_1, AT_MOST_MAX], 300)
    user_growth: int = bound([NON_NEGATIVE, AT_MOST_MAX], 0)
    allocation: str = bound(one_of("equal", "best_response"), "equal")
    sigma0: float = bound(POSITIVE, 1.0)
    lambda0: float = bound(NON_NEGATIVE, 0.0)


@dataclass(frozen=True)
class EquilibriumMode:
    """Tick-driven runs where both sides solve for prices each tick."""

    ticks: int = bound([AT_LEAST_1, AT_MOST_MAX])
    user_growth: int = bound([NON_NEGATIVE, AT_MOST_MAX], 0)
    billing_cycle_ticks: int = bound(NON_NEGATIVE, 0)
    subscriber_loads: dict[str, tuple[float, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class QuotaSweepMode:
    """Individual-provider sweep over remaining quota at fixed posted prices."""

    usage_steps: int = bound([AT_LEAST_1, AT_MOST_MAX], 20)
    txn_volume: float = bound(POSITIVE, 10.0)


@dataclass(frozen=True)
class CeilingSweepMode:
    """Price sweep repeated at several quota-usage levels (share-ceiling study)."""

    usage_levels: tuple[float, ...] = bound(
        [(lambda v, _: not v, "must not be empty"),
         (lambda v, _: not all(0.0 <= lvl < 1.0 for lvl in v), "must lie in [0, 1)")],
        (0.0, 0.25, 0.5, 0.75))
    price_start: float = 0.0
    price_stop: float = bound((lambda v, m: v < m.price_start, "must be at least price_start"),
                              100.0)
    price_step: float = bound([POSITIVE, (lambda v, m: v > 0 and m.price_count > MAX_USER_STEPS,
                                          f"must give at most {MAX_USER_STEPS:,} prices")], 1.0)
    txn_volume: float = bound(POSITIVE, 10.0)

    @property
    def price_count(self) -> int | float:
        """How many prices the sweep posts: ``price_start + k * price_step`` for
        every k >= 0 that stays within ``price_stop`` (to rounding).  Only an
        invalid mode, with a subnormal step, gives an infinite count."""
        steps = (self.price_stop - self.price_start) / self.price_step
        return math.floor(steps * (1.0 + 1e-12)) + 1 if math.isfinite(steps) else steps

    @staticmethod
    def series_label(usage: float) -> str:
        """The series of one usage level, named by its whole percent."""
        return f"usage_{int(round(usage * 100))}"


Mode = SweepMode | EquilibriumMode | QuotaSweepMode | CeilingSweepMode


@dataclass(frozen=True)
class SolverConfig:
    """``max_iters`` is the ISP solve's budget of load evaluations, and ``x_floor``
    the smallest purchase the engine settles.  (A sweep's dual steps read its mode's
    ``sigma0``; the subgradient oracles take their knobs as keywords.)"""

    max_iters: int = bound([AT_LEAST_1, AT_MOST_MAX], 100_000)
    x_floor: float = bound(POSITIVE, 1e-6)

    __post_init__ = refuse_broken_bounds


@dataclass
class ScenarioConfig:
    """Everything a run needs: market population, solver knobs, and the mode."""

    name: str = "scenario"
    links: dict[str, LinkState] = field(default_factory=dict)
    wfps: list[WfpAccount] = field(default_factory=list)
    users: list[UserProfile] = field(default_factory=list)
    solver: SolverConfig = field(default_factory=SolverConfig)
    sharing: SharingParams = field(default_factory=SharingParams)
    mode: Mode = field(default_factory=lambda: EquilibriumMode(ticks=1))
    solve_isp: bool = True


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _shaped(raw: Any, kind: type, where: str, item: type | None = None) -> Any:
    """``raw`` if it is a ``kind`` (list, dict or bool) and, with ``item`` given, each
    of its entries an ``item``; ConfigError naming ``where`` otherwise."""
    if not isinstance(raw, kind):
        noun = {dict: "an object", list: "an array", bool: "a boolean"}[kind]
        raise ConfigError(f"{where} must be {noun}, got {json.dumps(raw, default=repr):.40}")
    for i, entry in enumerate(raw if item else ()):
        _shaped(entry, item, f"{where}[{i}]")
    return raw


def _number(raw: Any, label: str, kind: type = float) -> Any:
    """``kind(raw)`` for a finite JSON number (not a boolean or a string), a whole
    one for an int; ConfigError naming ``label`` otherwise."""
    try:
        finite = type(raw) in (int, float) and math.isfinite(raw)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ConfigError(f"{label} must be a finite number, got {raw!r:.40}")
    if kind is int and raw != int(raw):
        raise ConfigError(f"{label} must be a whole number, got {raw!r}")
    return kind(raw)


@cache
def _fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, declared type, required) of each field of dataclass ``cls``."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _convert(raw: Any, kind: Any, where: str, name: str) -> Any:
    """``raw`` as a value of the declared type ``kind``: a number (a float for a
    ``float | None`` field), a string, a boolean, an Enum member by value, or entry by
    entry a ``tuple[T, ...]`` from an array or a ``dict[str, T]`` from an object;
    ConfigError naming ``where`` and ``name`` otherwise."""
    label = f"{where}: {name}" if where else name
    origin = get_origin(kind)  # before issubclass below: tuple[float, ...] is no class
    if origin is tuple:
        item, items = get_args(kind)[0], enumerate(_shaped(raw, list, label))
        return tuple(_convert(v, item, where, f"{name}[{i}]") for i, v in items)
    if origin is dict:
        item, items = get_args(kind)[1], _shaped(raw, dict, label).items()
        return {str(k): _convert(v, item, where, f"{name}[{k!r}]") for k, v in items}
    if kind in (int, float, float | None):  # a given optional float is a float
        return _number(raw, label, int if kind is int else float)
    if kind is bool:
        return _shaped(raw, bool, label)
    if issubclass(kind, Enum):
        try:
            return kind(str(raw))
        except ValueError as exc:
            raise ConfigError(f"{where}: unknown {name} {str(raw)!r}") from exc
    return str(raw)


def _build(cls: type, entry: dict, where: str, **given: Any) -> Any:
    """``cls(**given)`` plus each other field that ``entry`` gives, converted in
    field order by :func:`_convert` (a required one must be given; an omitted one
    keeps its default).  ``cls``'s own range checks raise ConfigError."""
    for name, kind, required in _fields(cls):
        if name in given:
            continue
        if name in entry:
            given[name] = _convert(entry[name], kind, where, name)
        elif required:
            _require(entry, name, where)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


#: The mode class of each ``mode.kind``.
_MODES = {"sweep": SweepMode, "equilibrium": EquilibriumMode,
          "quota_sweep": QuotaSweepMode, "ceiling_sweep": CeilingSweepMode}


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document.

    Shape problems (missing keys, values of the wrong JSON type, unknown enum
    values, duplicate link ids, more than :data:`MAX_USER_STEPS` users), numbers
    that do not convert or are not finite, and the first ``solver`` or ``sharing``
    knob out of range (refused when built) raise ConfigError; other out-of-range
    numbers are left for :func:`validate_scenario` to report.
    """
    _shaped(doc, dict, "scenario document")
    links = {}
    for entry in _shaped(doc.get("links", []), list, "links", dict):
        lid = str(_require(entry, "id", "link"))
        if lid in links:
            raise ConfigError(f"link {lid}: duplicate id")
        links[lid] = _build(LinkState, entry, f"link {lid}", id=lid)

    wfps: list[WfpAccount] = []
    for entry in _shaped(doc.get("wfps", []), list, "wfps", dict):
        wid = str(_require(entry, "id", "wfp"))
        if "unused" not in entry and "quota" in entry:  # unused defaults to the quota
            entry = {"unused": entry["quota"], **entry}
        wfps.append(_build(WfpAccount, entry, f"wfp {wid}", id=wid))

    users, room = [], MAX_USER_STEPS
    for entry in _shaped(doc.get("users", []), list, "users", dict):
        uid = str(_require(entry, "id", "user"))
        users.append(user := _build(UserProfile, entry, f"user {uid!r}", id=uid))
        if user.count > room:
            raise ConfigError(f"user {uid!r}: count {user.count:,} makes more than "
                              f"{MAX_USER_STEPS:,} users")
        room -= max(user.count, 0)

    solver = _build(SolverConfig, _shaped(doc.get("solver", {}), dict, "solver"), "solver")
    sharing = _build(SharingParams, _shaped(doc.get("sharing", {}), dict, "sharing"), "sharing")
    entry = _shaped(_require(doc, "mode", "scenario"), dict, "mode")
    if (kind := str(_require(entry, "kind", "mode"))) not in _MODES:
        raise ConfigError(f"mode: unknown kind {kind!r}")
    if kind == "sweep":  # the two knobs a sweep read before they moved into its mode
        for where, key in (("solver: ", "sigma0"), ("", "lambda0")):
            if key in (doc.get("solver", {}) if where else doc):
                raise ConfigError(f"{where}{key} is now mode.{key}")
    mode = _build(_MODES[kind], entry, "mode")
    return _build(ScenarioConfig, doc, "", links=links, wfps=wfps, users=users,
                  solver=solver, sharing=sharing, mode=mode)


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read and parse one scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def validate_scenario(cfg: ScenarioConfig) -> list[str]:
    """Every violation in the scenario; empty means valid.  Entries' own rules are on fields."""
    problems = [f"link {lid}: {wrong}"
                for lid, link in cfg.links.items() for wrong in broken_bounds(link)]

    wfp_ids = set()
    for w in cfg.wfps:
        if w.id in wfp_ids:
            problems.append(f"wfp {w.id}: duplicate id")
        wfp_ids.add(w.id)
        problems.extend(f"wfp {w.id}: {wrong}" for wrong in broken_bounds(w))

    user_ids, users_by_wfp = set(), Counter()
    for u in cfg.users:  # each entry once; users_by_wfp counts its copies, a broken count as 1
        ids = u.ids
        problems.extend(f"user {uid}: duplicate id" for uid in ids if uid in user_ids)
        user_ids.update(ids)
        users_by_wfp[u.wfp] += max(u.count, 1)
        problems.extend(f"user {u.id}: {wrong}" for wrong in broken_bounds(u))
        if not u.wfp:
            problems.append(f"user {u.id}: no wfp to buy from")
        elif u.wfp not in wfp_ids:
            problems.append(f"user {u.id}: unknown wfp {u.wfp!r}")
        for lid in u.path:
            if lid not in cfg.links:
                problems.append(f"user {u.id}: unknown link {lid!r} in path")

    mode = cfg.mode
    problems.extend(f"mode: {wrong}" for wrong in broken_bounds(mode))
    if getattr(mode, "user_growth", 0) > 0 and not cfg.users:
        problems.append("mode: user_growth needs users to clone")
    if isinstance(mode, EquilibriumMode):
        for lid, series in mode.subscriber_loads.items():
            if lid not in cfg.links:
                problems.append(f"mode: subscriber_loads for unknown link {lid!r}")
                continue
            if len(series) < mode.ticks:
                problems.append(f"mode: subscriber_loads for {lid!r} shorter than ticks")
            for tick, load in enumerate(series[: mode.ticks]):
                if wrong := broken_rule(cfg.links[lid], "subscriber_load", load):
                    problems.append(f"mode: subscriber_loads[{lid!r}][{tick}] {wrong}")
    elif isinstance(mode, CeilingSweepMode):
        first: dict[str, float] = {}
        # only levels the field's own rules accept have a series label
        for lvl in () if broken_rule(mode, "usage_levels", mode.usage_levels) else mode.usage_levels:
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
            if w.kind is WfpKind.INDIVIDUAL and w.price is None:
                problems.append(f"wfp {w.id}: posted price required for quota sweeps")

    if isinstance(mode, (SweepMode, QuotaSweepMode, CeilingSweepMode)):
        for w in cfg.wfps:
            if users_by_wfp[w.id] == 0:
                problems.append(f"wfp {w.id}: no users assigned")

    # only a mode whose own fields pass has a size
    if not broken_bounds(mode) and (size := _user_steps(cfg, users_by_wfp)) > MAX_USER_STEPS:
        problems.append(f"mode: {size:,} user-steps exceed the limit of {MAX_USER_STEPS:,}")

    return problems


def _user_steps(cfg: ScenarioConfig, users_by_wfp: Counter) -> float:
    """The run's size in user-steps, as :data:`MAX_USER_STEPS` counts them."""
    mode = cfg.mode
    if isinstance(mode, (SweepMode, EquilibriumMode)):
        steps = mode.count if isinstance(mode, SweepMode) else mode.ticks
        return steps * (sum(users_by_wfp.values()) + mode.user_growth * (steps - 1))
    sellers = sum(users_by_wfp[w.id] for w in cfg.wfps if w.kind is WfpKind.INDIVIDUAL)
    if isinstance(mode, QuotaSweepMode):
        return (mode.usage_steps + 1) * sellers
    return mode.price_count * len(mode.usage_levels) * sellers
