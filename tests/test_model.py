"""Data-model, configuration, and preset tests."""
import copy
import dataclasses
import hashlib
import json
import math
import typing
from functools import reduce
from operator import add

import numpy as np
import pytest
from pins import PINS
from test_sharing import bits

from wifimarket.config import (
    MAX_USER_STEPS,
    CeilingSweepMode,
    ConfigError,
    EquilibriumMode,
    QuotaSweepMode,
    ScenarioConfig,
    SolverConfig,
    SweepMode,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from wifimarket.model import (
    LinkState,
    Population,
    Roster,
    UserProfile,
    UserValues,
    WfpAccount,
    WfpKind,
    broken_bounds,
    effective_capacity,
    fold_sum,
    running_total,
)
from wifimarket.presets import PRESET_NAMES, load_preset, preset_path
from wifimarket.sharing import SharingParams


# --- model basics ----------------------------------------------------------------


def test_effective_capacity_by_kind():
    ew = WfpAccount(id="e", kind=WfpKind.ESTABLISHMENT, capacity=10.0)
    assert effective_capacity(ew) == 10.0
    iw = WfpAccount(id="i", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=30.0)
    assert effective_capacity(iw) == 30.0
    capped = WfpAccount(
        id="i", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=30.0, txn_cap=10.0
    )
    assert effective_capacity(capped) == 10.0


def test_replenished_restores_quota():
    account = WfpAccount(id="i", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=12.5)
    fresh = account.replenished()
    assert fresh.unused == 100.0
    assert account.unused == 12.5  # accounts are immutable snapshots


def test_user_profile_defaults_give_unit_snr_boost():
    user = UserProfile(id="u")
    assert user.snr_factor == pytest.approx(2.0)  # 1 + 1/(1*1)


# --- populations and per-user views -----------------------------------------------------


def test_user_values_is_a_read_only_view_of_a_roster_prefix():
    roster = Roster(["u2", "u10", "u1"])
    view = UserValues(roster, np.array([2.0, 10.0]))
    assert len(view) == 2
    assert list(view) == ["u2", "u10"]
    assert view["u10"] == 10.0 and type(view["u10"]) is float
    assert "u1" not in view  # on the roster, beyond the prefix
    assert "ghost" not in view
    with pytest.raises(KeyError):
        view["u1"]
    assert view == {"u2": 2.0, "u10": 10.0}
    assert view.get("u1", -1.0) == -1.0
    assert repr(view) == "UserValues({'u2': 2.0, 'u10': 10.0})"
    with pytest.raises(TypeError):
        view["u2"] = 3.0  # read-only


def test_user_values_keys_values_and_items_follow_roster_order():
    roster = Roster(["b", "a", "c"])
    view = UserValues(roster, np.array([2.0, 1.0, 3.0]))
    assert list(view) == ["b", "a", "c"]
    assert list(view.values()) == [2.0, 1.0, 3.0]
    assert list(view.items()) == [("b", 2.0), ("a", 1.0), ("c", 3.0)]
    assert all(type(value) is float for value in view.values())
    assert view == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_population_arrays_follow_the_profiles():
    users = [
        UserProfile(id="a", weight=2.0, budget=50.0, tx_power=3.0, wfp="w2", path=("AB",)),
        UserProfile(id="b", x_min=0.5, x_max=7.0, wfp="w1", path=("AB", "BC")),
        UserProfile(id="c", wfp="w2", path=("AB",)),
    ]
    pop = Population.of(users, ["w1", "w2"])
    assert pop.roster.ids == ["a", "b", "c"]
    assert pop.provider.tolist() == [1, 0, 1]
    assert pop.paths == (("AB",), ("AB", "BC"))
    assert pop.path.tolist() == [0, 1, 0]
    assert pop.wb.tolist() == [u.weight * u.budget for u in users]
    assert pop.snr.tolist() == [u.snr_factor for u in users]
    assert pop.x_min.tolist() == [u.x_min for u in users]
    assert pop.x_max.tolist() == [u.x_max for u in users]
    sub = pop.take(np.array([2, 0]))
    assert sub.roster.ids == ["c", "a"]
    assert sub.wb.tolist() == [100.0, 100.0]
    assert sub.paths == pop.paths


# --- document parsing ---------------------------------------------------------------


MINIMAL_DOC = {
    "name": "tiny",
    "nodes": ["A", "B"],
    "links": [{"id": "AB", "capacity": 50, "price": 10}],
    "wfps": [{"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5}],
    "users": [{"id": "u", "wfp": "w1", "path": ["AB"], "count": 3}],
    "mode": {"kind": "equilibrium", "ticks": 2},
}
SWEEP = {"kind": "sweep", "swept_party": "isp", "start": 10}


def test_scenario_from_dict_expands_user_counts():
    """A counted entry stays one profile; its population holds its copies."""
    cfg = scenario_from_dict(MINIMAL_DOC)
    (entry,) = cfg.users
    assert (entry.id, entry.count, entry.wfp) == ("u", 3, "w1")
    assert entry.ids == Population.of(cfg.users).roster.ids == ["u001", "u002", "u003"]
    assert cfg.links["AB"].capacity == 50.0
    assert isinstance(cfg.mode, EquilibriumMode)
    assert validate_scenario(cfg) == []


def test_user_count_clones_differ_from_the_entry_only_in_id():
    entry = {"id": "u", "wfp": "w1", "path": ["AB", "AB"], "weight": 1.5, "tx_power": 2.0,
             "channel_gain2": 0.5, "noise_var": 3.0, "band": 4.0, "budget": 80.0,
             "x_min": 0.25, "x_max": 7.0}
    (single,) = scenario_from_dict({**MINIMAL_DOC, "users": [entry]}).users
    (counted,) = scenario_from_dict({**MINIMAL_DOC, "users": [{**entry, "count": 12}]}).users
    assert counted == dataclasses.replace(single, count=12)
    clones = Population.of([counted])
    copies = Population.of([dataclasses.replace(single, id=f"u{i:03d}") for i in range(1, 13)])
    assert clones.roster.ids == copies.roster.ids and clones.paths == copies.paths
    for name in ("provider", "path", "weight", "budget", "wb", "snr", "x_min", "x_max"):
        assert getattr(clones, name).tobytes() == getattr(copies, name).tobytes(), name


def test_scenario_from_dict_single_user_keeps_plain_id():
    doc = dict(MINIMAL_DOC)
    doc["users"] = [{"id": "solo", "wfp": "w1", "path": ["AB"]}]
    cfg = scenario_from_dict(doc)
    assert [u.id for u in cfg.users] == ["solo"]


def test_scenario_from_dict_reads_posted_prices():
    doc = dict(MINIMAL_DOC)
    doc["wfps"] = [
        {"id": "p1", "kind": "individual", "quota": 200, "fee": 1000, "price": 31}
    ]
    doc["users"] = [{"id": "u", "wfp": "p1", "path": ["AB"]}]
    cfg = scenario_from_dict(doc)
    assert cfg.wfps[0].price == 31.0
    assert cfg.wfps[0].unused == 200.0  # unused defaults to the full quota


def test_scenario_from_dict_rejects_unknown_kind():
    doc = dict(MINIMAL_DOC)
    doc["wfps"] = [{"id": "w1", "kind": "franchise", "capacity": 10}]
    with pytest.raises(ConfigError, match="unknown kind"):
        scenario_from_dict(doc)


def test_scenario_from_dict_requires_mode():
    doc = {k: v for k, v in MINIMAL_DOC.items() if k != "mode"}
    with pytest.raises(ConfigError, match="missing required key"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"mode": dict(SWEEP, sigma0="fast")}, "mode: sigma0 must be a finite number, got 'fast'"),
        ({"mode": dict(SWEEP, lambda0="1")}, "mode: lambda0 must be a finite number, got '1'"),
        ({"mode": dict(SWEEP, lambda0=float("inf"))},
         "mode: lambda0 must be a finite number, got inf"),
        (
            {"mode": {"kind": "equilibrium", "ticks": 2, "subscriber_loads": {"AB": [1, "x"]}}},
            "mode: subscriber_loads['AB'][1] must be a finite number, got 'x'",
        ),
        (
            {"mode": {"kind": "ceiling_sweep", "usage_levels": [0.5, float("nan")]}},
            "mode: usage_levels[1] must be a finite number, got nan",
        ),
        ({"mode": {"kind": "equilibrium", "ticks": 1e400}}, "mode: ticks must be a finite number"),
    ],
)
def test_scenario_from_dict_rejects_non_numbers_and_non_finite(patch, message):
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({**MINIMAL_DOC, **patch})
    assert str(exc.value).startswith(message)


def _mode(cls, mode):
    """A mode section: ``mode`` (its kind and any required string) as the document's mode."""

    def entry(doc):
        doc["mode"] = dict(mode)
        return doc["mode"]

    return cls, "mode", entry, lambda cfg: cfg.mode


#: Each parsed section: its dataclass, the ``where`` its messages name, where its
#: entry sits in a document and where the parsed object sits in the config.
SECTIONS = {
    "link": (LinkState, "link AB", lambda doc: doc["links"][0], lambda cfg: cfg.links["AB"]),
    "wfp": (WfpAccount, "wfp w1", lambda doc: doc["wfps"][0], lambda cfg: cfg.wfps[0]),
    "user": (UserProfile, "user 'u'", lambda doc: doc["users"][0], lambda cfg: cfg.users[0]),
    "solver": (
        SolverConfig, "solver", lambda doc: doc.setdefault("solver", {}), lambda cfg: cfg.solver
    ),
    "sharing": (
        SharingParams, "sharing", lambda doc: doc.setdefault("sharing", {}), lambda cfg: cfg.sharing
    ),
    "scenario": (ScenarioConfig, "", lambda doc: doc, lambda cfg: cfg),
    "sweep": _mode(SweepMode, {"kind": "sweep", "swept_party": "isp"}),
    "equilibrium": _mode(EquilibriumMode, {"kind": "equilibrium"}),
    "quota_sweep": _mode(QuotaSweepMode, {"kind": "quota_sweep"}),
    "ceiling_sweep": _mode(CeilingSweepMode, {"kind": "ceiling_sweep"}),
}


def numeric_fields(cls):
    """(field, int or float) of each numeric field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in dataclasses.fields(cls) if hints[f.name] in (int, float)]


def every_numeric_field_set(section):
    """MINIMAL_DOC with each numeric field of the section set to its default + 1
    (1 where it has none), of the field's type: valid values, none a default."""
    cls, _, entry_of, _ = SECTIONS[section]
    doc = copy.deepcopy(MINIMAL_DOC)
    entry = entry_of(doc)
    for f, kind in numeric_fields(cls):
        entry[f.name] = kind(1 if f.default is dataclasses.MISSING else f.default + 1)
    return doc, entry


PARSED_FIELDS = [
    (section, f.name) for section, (cls, *_) in SECTIONS.items() for f, _ in numeric_fields(cls)
]


def test_parsed_fields_cover_every_section_and_the_three_required_ones():
    assert len(PARSED_FIELDS) == 38
    required = {
        (section, name)
        for section, name in PARSED_FIELDS
        if SECTIONS[section][0].__dataclass_fields__[name].default is dataclasses.MISSING
    }
    assert required == {("link", "capacity"), ("sweep", "start"), ("equilibrium", "ticks")}


@pytest.mark.parametrize("section, name", PARSED_FIELDS)
def test_an_omitted_numeric_field_takes_its_dataclass_default(section, name):
    cls, where, _, parsed_of = SECTIONS[section]
    doc, entry = every_numeric_field_set(section)
    given = dict(entry)
    del entry[name]
    default = cls.__dataclass_fields__[name].default
    if default is dataclasses.MISSING:
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == f"{where}: missing required key {name!r}"
        return
    parsed = parsed_of(scenario_from_dict(doc))
    if (section, name) == ("wfp", "unused"):
        default = given["quota"]  # a plan starts unused
    for f, _ in numeric_fields(cls):
        want = default if f.name == name else given[f.name]
        assert getattr(parsed, f.name) == want and type(getattr(parsed, f.name)) is type(want)


@pytest.mark.parametrize("section, name", PARSED_FIELDS)
def test_a_nan_numeric_field_is_named_in_the_message(section, name):
    _, where, _, _ = SECTIONS[section]
    doc, entry = every_numeric_field_set(section)
    field_name = f"{where}: {name}" if where else name
    for value in (float("nan"), True):  # a JSON boolean is no number either
        entry[name] = value
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == f"{field_name} must be a finite number, got {value!r}"


def test_mode_parsing_covers_all_kinds():
    assert isinstance(
        scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "sweep", "swept_party": "isp", "start": 10}}).mode,
        SweepMode,
    )
    assert isinstance(
        scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "quota_sweep"}}).mode,
        QuotaSweepMode,
    )
    assert isinstance(
        scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "ceiling_sweep"}}).mode,
        CeilingSweepMode,
    )
    with pytest.raises(ConfigError, match="unknown kind"):
        scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "nope"}})


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(MINIMAL_DOC), encoding="utf-8")
    cfg = load_scenario(path)
    assert cfg.name == "tiny"
    assert [(u.id, u.count) for u in cfg.users] == [("u", 3)]


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(path)


def test_keys_outside_the_schema_are_ignored():
    # the presets still carry "unit", "nodes" and "notes", which no run reads
    extra = {"seed": 7, "unit": "parsecs", "nodes": ["A", "B"], "notes": "n", "colour": "blue"}
    cfg = scenario_from_dict({**MINIMAL_DOC, **extra})
    assert cfg == scenario_from_dict(MINIMAL_DOC)
    assert validate_scenario(cfg) == []


# --- validation -------------------------------------------------------------------


def test_validate_reports_every_problem_at_once():
    doc = {
        "name": "broken",
        "links": [{"id": "AB", "capacity": 50, "subscriber_load": 60, "price": 10}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 10}],
        "users": [
            {"id": "u1", "wfp": "w1", "path": ["AB"], "x_min": -1},
            {"id": "u2", "wfp": "ghost", "path": ["ZZ"]},
        ],
        "mode": {"kind": "equilibrium", "ticks": 2},
    }
    problems = validate_scenario(scenario_from_dict(doc))
    assert "link AB: subscriber_load exceeds capacity" in problems
    assert "user u1: x_min must be positive" in problems
    assert "user u2: unknown wfp 'ghost'" in problems
    assert "user u2: unknown link 'ZZ' in path" in problems
    assert len(problems) == 4


def test_validate_duplicate_ids():
    doc = dict(MINIMAL_DOC)
    doc["users"] = [
        {"id": "u1", "wfp": "w1", "path": ["AB"]},
        {"id": "u1", "wfp": "w1", "path": ["AB"]},
    ]
    problems = validate_scenario(scenario_from_dict(doc))
    assert "user u1: duplicate id" in problems


def test_validate_individual_account_constraints():
    doc = dict(MINIMAL_DOC)
    doc["wfps"] = [
        {"id": "p1", "kind": "individual", "quota": 0, "unused": 5, "fee": -1}
    ]
    doc["users"] = [{"id": "u", "wfp": "p1", "path": ["AB"]}]
    problems = validate_scenario(scenario_from_dict(doc))
    assert "wfp p1: quota must be positive" in problems
    assert "wfp p1: unused must lie in [0, quota]" in problems
    assert "wfp p1: fee must be non-negative" in problems


def test_validate_quota_sweep_needs_posted_prices():
    doc = dict(MINIMAL_DOC)
    doc["wfps"] = [{"id": "p1", "kind": "individual", "quota": 200, "fee": 1000}]
    doc["users"] = [{"id": "u", "wfp": "p1", "path": ["AB"]}]
    doc["mode"] = {"kind": "quota_sweep"}
    problems = validate_scenario(scenario_from_dict(doc))
    assert "wfp p1: posted price required for quota sweeps" in problems


def test_validate_refuses_a_negative_posted_price():
    doc = json.loads(preset_path("iwfp-topology").read_text(encoding="utf-8"))
    doc["wfps"][1]["price"] = -30.0
    assert validate_scenario(scenario_from_dict(doc)) == ["wfp iwfp2: price must be non-negative"]
    doc["wfps"][1]["price"] = -0.0
    assert validate_scenario(scenario_from_dict(doc)) == []
    for wfp in doc["wfps"]:
        wfp["price"] = -30.0
    assert validate_scenario(scenario_from_dict(doc)) == [
        f"wfp iwfp{k}: price must be non-negative" for k in range(1, 5)
    ]


def test_validate_sweeps_need_assigned_users():
    doc = dict(MINIMAL_DOC)
    doc["users"] = []
    doc["mode"] = {"kind": "sweep", "swept_party": "isp", "start": 10}
    problems = validate_scenario(scenario_from_dict(doc))
    assert "wfp w1: no users assigned" in problems


def test_validate_subscriber_load_series_length():
    doc = dict(MINIMAL_DOC)
    doc["mode"] = {
        "kind": "equilibrium",
        "ticks": 3,
        "subscriber_loads": {"AB": [1.0, 2.0]},
    }
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("shorter than ticks" in p for p in problems)


def test_validate_checks_the_subscriber_loads_a_run_reads():
    doc = dict(MINIMAL_DOC)  # AB's capacity is 50
    doc["mode"] = {
        "kind": "equilibrium",
        "ticks": 3,
        "subscriber_loads": {"AB": [50.0, -1.0, 55.0, 99.0]},  # tick 3 is never read
    }
    problems = validate_scenario(scenario_from_dict(doc))
    assert problems == [
        "mode: subscriber_loads['AB'][1] must be non-negative",
        "mode: subscriber_loads['AB'][2] exceeds capacity",
    ]


#: A valid document with an establishment and an individual provider, a user of
#: each, and one mode of each kind: the entries the bound cases below edit.
BOUNDED_DOC = {
    "name": "bounded",
    "links": [{"id": "AB", "capacity": 50, "price": 10}],
    "wfps": [
        {"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5},
        {"id": "p1", "kind": "individual", "quota": 200, "fee": 1000, "price": 31},
    ],
    "users": [{"id": "u", "wfp": "w1", "path": ["AB"]}, {"id": "v", "wfp": "p1", "path": ["AB"]}],
    "mode": {"kind": "equilibrium", "ticks": 2},
}
BOUNDED_MODES = {
    "sweep": {"kind": "sweep", "swept_party": "isp", "start": 10},
    "equilibrium": {"kind": "equilibrium", "ticks": 2},
    "quota_sweep": {"kind": "quota_sweep"},
    "ceiling_sweep": {"kind": "ceiling_sweep"},
}
BOUNDED_ENTRIES = {
    "scenario": (ScenarioConfig, lambda doc: doc),
    "link": (LinkState, lambda doc: doc["links"][0]),
    "establishment": (WfpAccount, lambda doc: doc["wfps"][0]),
    "individual": (WfpAccount, lambda doc: doc["wfps"][1]),
    "user": (UserProfile, lambda doc: doc["users"][0]),
    "solver": (SolverConfig, lambda doc: doc.setdefault("solver", {})),
    "sharing": (SharingParams, lambda doc: doc.setdefault("sharing", {})),
    **{kind: (cls, lambda doc: doc["mode"]) for kind, cls in [
        ("sweep", SweepMode), ("equilibrium", EquilibriumMode),
        ("quota_sweep", QuotaSweepMode), ("ceiling_sweep", CeilingSweepMode)]},
}

#: Each rule declared on a field, a value that breaks it, and the one message it
#: gives: a problem, or (solver, sharing) a ConfigError.
BOUND_CASES = [
    ("link", "capacity", 0, "link AB: capacity must be positive"),
    ("link", "subscriber_load", -1, "link AB: subscriber_load must be non-negative"),
    ("link", "subscriber_load", 51, "link AB: subscriber_load exceeds capacity"),
    ("link", "price", -1, "link AB: price must be non-negative"),
    ("establishment", "capacity", 0, "wfp w1: capacity must be positive"),
    ("establishment", "min_profit", -1, "wfp w1: min_profit must be non-negative"),
    ("individual", "quota", 0, "wfp p1: quota must be positive"),
    ("individual", "unused", 201, "wfp p1: unused must lie in [0, quota]"),
    ("individual", "min_profit", -1, "wfp p1: min_profit must be non-negative"),
    ("individual", "fee", -1, "wfp p1: fee must be non-negative"),
    ("individual", "settled_share", -1, "wfp p1: settled_share must be non-negative"),
    ("individual", "settled_share", 1001, "wfp p1: settled_share exceeds fee"),
    ("individual", "txn_cap", -1, "wfp p1: txn_cap must be non-negative"),
    ("individual", "price", -1, "wfp p1: price must be non-negative"),
    ("user", "weight", 0, "user u: weight must be positive"),
    ("user", "tx_power", 0, "user u: tx_power must be positive"),
    ("user", "channel_gain2", -1, "user u: channel_gain2 must be non-negative"),
    ("user", "noise_var", 0, "user u: noise_var must be positive"),
    ("user", "band", 0, "user u: band must be positive"),
    ("user", "budget", 0, "user u: budget must be positive"),
    ("user", "x_min", 0, "user u: x_min must be positive"),
    ("user", "x_max", 5e-4, "user u: x_max must be at least x_min"),
    ("user", "count", 0, "user u: count must be at least 1"),
    ("solver", "max_iters", 0, "solver: max_iters must be at least 1"),
    ("solver", "max_iters", 2_000_001, "solver: max_iters must be at most 2,000,000"),
    ("solver", "x_floor", 0, "solver: x_floor must be positive"),
    ("sharing", "alpha", 0, "sharing: alpha must be positive"),
    ("sharing", "beta", 1, "sharing: beta must exceed 1"),
    ("sweep", "swept_party", "both", "mode: swept_party must be 'isp' or 'wfp'"),
    ("sweep", "start", -1, "mode: start must be non-negative"),
    ("sweep", "step", 0, "mode: step must be positive"),
    ("sweep", "count", 0, "mode: count must be at least 1"),
    ("sweep", "count", 2_000_001, "mode: count must be at most 2,000,000"),
    ("sweep", "user_growth", -1, "mode: user_growth must be non-negative"),
    ("sweep", "user_growth", 2_000_001, "mode: user_growth must be at most 2,000,000"),
    ("sweep", "allocation", "random", "mode: allocation must be 'equal' or 'best_response'"),
    ("sweep", "sigma0", 0, "mode: sigma0 must be positive"),
    ("sweep", "lambda0", -1, "mode: lambda0 must be non-negative"),
    ("equilibrium", "ticks", 0, "mode: ticks must be at least 1"),
    ("equilibrium", "ticks", 2_000_001, "mode: ticks must be at most 2,000,000"),
    ("equilibrium", "user_growth", -1, "mode: user_growth must be non-negative"),
    ("equilibrium", "user_growth", 2_000_001, "mode: user_growth must be at most 2,000,000"),
    ("equilibrium", "billing_cycle_ticks", -1, "mode: billing_cycle_ticks must be non-negative"),
    ("quota_sweep", "usage_steps", 0, "mode: usage_steps must be at least 1"),
    ("quota_sweep", "usage_steps", 2_000_001, "mode: usage_steps must be at most 2,000,000"),
    ("quota_sweep", "txn_volume", 0, "mode: txn_volume must be positive"),
    ("ceiling_sweep", "usage_levels", [], "mode: usage_levels must not be empty"),
    ("ceiling_sweep", "usage_levels", [0.5, 1.0], "mode: usage_levels must lie in [0, 1)"),
    ("ceiling_sweep", "price_stop", -1, "mode: price_stop must be at least price_start"),
    ("ceiling_sweep", "price_step", 0, "mode: price_step must be positive"),
    ("ceiling_sweep", "price_step", 1e-5, "mode: price_step must give at most 2,000,000 prices"),
    ("ceiling_sweep", "txn_volume", 0, "mode: txn_volume must be positive"),
]


def bounded_doc(section):
    """A copy of BOUNDED_DOC, with the section's mode for a mode section, and the
    entry of the section in it."""
    doc = copy.deepcopy(BOUNDED_DOC)
    if section in BOUNDED_MODES:
        doc["mode"] = dict(BOUNDED_MODES[section])
    return doc, BOUNDED_ENTRIES[section][1](doc)


def test_bounded_doc_is_valid_in_every_mode():
    for section in BOUNDED_ENTRIES:
        assert validate_scenario(scenario_from_dict(bounded_doc(section)[0])) == []


def test_bound_cases_cover_every_declared_bound():
    declared = {
        (cls, f.name, text)
        for cls, _ in BOUNDED_ENTRIES.values()
        for f in dataclasses.fields(cls)
        for _, text, _ in f.metadata.get("bound", ())
    }
    assert {(BOUNDED_ENTRIES[section][0], name, message.split(f": {name} ", 1)[1])
            for section, name, _, message in BOUND_CASES} == declared
    assert len(BOUND_CASES) == 52


@pytest.mark.parametrize("section, name, value, message", BOUND_CASES)
def test_one_out_of_range_field_gives_its_one_message(section, name, value, message):
    doc, entry = bounded_doc(section)
    entry[name] = value
    if section in ("solver", "sharing"):  # their dataclasses refuse the value
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict(doc)
        assert str(exc.value) == message
    else:
        assert validate_scenario(scenario_from_dict(doc)) == [message]


def test_a_kind_specific_bound_does_not_hold_the_other_kind():
    doc = copy.deepcopy(BOUNDED_DOC)
    doc["wfps"][0].update(quota=0, fee=-1, settled_share=-1, txn_cap=-1)  # establishment
    doc["wfps"][1].update(capacity=0)  # individual
    assert validate_scenario(scenario_from_dict(doc)) == []
    assert broken_bounds(WfpAccount(id="p", kind=WfpKind.INDIVIDUAL, capacity=-1.0)) == [
        "quota must be positive"
    ]


def test_solver_and_sharing_refuse_the_first_broken_bound():
    for make, text in [
        (lambda: SolverConfig(x_floor=-1.0, max_iters=0), "max_iters must be at least 1"),
        (lambda: SharingParams(beta=1.0), "beta must exceed 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == text


def test_a_user_entrys_faults_follow_field_order():
    doc = copy.deepcopy(BOUNDED_DOC)
    doc["users"][0].update(x_min=0, x_max=-2, weight=0, budget=-1, channel_gain2=-1, band=0)
    assert validate_scenario(scenario_from_dict(doc)) == [
        "user u: weight must be positive",
        "user u: channel_gain2 must be non-negative",
        "user u: band must be positive",
        "user u: budget must be positive",
        "user u: x_min must be positive",
        "user u: x_max must be at least x_min",
    ]


@pytest.mark.parametrize("section, faults, messages", [
    ("individual", dict(quota=0, unused=5, min_profit=-1, fee=10, settled_share=11, txn_cap=-1), [
        "wfp p1: quota must be positive",
        "wfp p1: unused must lie in [0, quota]",
        "wfp p1: min_profit must be non-negative",
        "wfp p1: settled_share exceeds fee",
        "wfp p1: txn_cap must be non-negative",
    ]),
    ("link", dict(capacity=-5, subscriber_load=-1, price=-1), [  # a negative load: one message
        "link AB: capacity must be positive",
        "link AB: subscriber_load must be non-negative",
        "link AB: price must be non-negative",
    ]),
    ("link", dict(capacity=-5, subscriber_load=0, price=-1), [
        "link AB: capacity must be positive",
        "link AB: subscriber_load exceeds capacity",
        "link AB: price must be non-negative",
    ]),
    ("sweep", dict(swept_party="x", step=0, count=0, user_growth=-1, allocation="y"), [
        "mode: swept_party must be 'isp' or 'wfp'",
        "mode: step must be positive",
        "mode: count must be at least 1",
        "mode: user_growth must be non-negative",
        "mode: allocation must be 'equal' or 'best_response'",
    ]),
    ("ceiling_sweep", dict(usage_levels=[1.5, -1], price_start=10, price_stop=5, price_step=0,
                           txn_volume=0), [
        "mode: usage_levels must lie in [0, 1)",
        "mode: price_stop must be at least price_start",
        "mode: price_step must be positive",
        "mode: txn_volume must be positive",
    ]),
])
def test_an_entrys_range_faults_follow_field_order(section, faults, messages):
    doc, entry = bounded_doc(section)
    entry.update(faults)
    assert validate_scenario(scenario_from_dict(doc)) == messages


def test_a_whole_float_is_an_int_and_a_fraction_is_refused():
    cfg = scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "equilibrium", "ticks": 2.0}})
    assert cfg.mode.ticks == 2 and type(cfg.mode.ticks) is int
    for key, value in [("ticks", 2.9), ("ticks", -0.5), ("billing_cycle_ticks", 1e-9)]:
        with pytest.raises(ConfigError) as exc:
            scenario_from_dict({**MINIMAL_DOC, "mode": {"kind": "equilibrium", "ticks": 2, key: value}})
        assert str(exc.value) == f"mode: {key} must be a whole number, got {value!r}"


def test_validate_bounds_the_run_size_without_running():
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"]["price_step"] = 1e-4  # 1,000,001 prices x 4 usage levels x 2 users
    problems = validate_scenario(scenario_from_dict(doc))
    assert problems == [
        f"mode: 8,000,008 user-steps exceed the limit of {MAX_USER_STEPS:,}"
    ]


def test_validate_counts_ceiling_prices_as_the_run_posts_them():
    # 1,000,001 prices, not the unrounded 1,000,001.5, x 1 level x 2 users
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"].update(price_stop=1_000_000.5, usage_levels=[0.0])
    problems = validate_scenario(scenario_from_dict(doc))
    assert problems == [
        f"mode: 2,000,002 user-steps exceed the limit of {MAX_USER_STEPS:,}"
    ]


@pytest.mark.parametrize(
    "mode, users",
    [
        # count x final users, final users = users + growth x (count - 1)
        ({"kind": "sweep", "swept_party": "isp", "start": 1, "count": 1000, "user_growth": 1}, 1001),
        # ticks x final users
        ({"kind": "equilibrium", "ticks": 1000, "user_growth": 1}, 1001),
        # (usage_steps + 1) x users of individual providers
        ({"kind": "quota_sweep", "usage_steps": 999}, 2000),
        # price steps x usage levels x users of individual providers
        ({"kind": "ceiling_sweep", "price_stop": 999, "usage_levels": [0.0, 0.5]}, 1000),
    ],
)
def test_validate_run_size_limit_is_inclusive(mode, users):
    doc = dict(MINIMAL_DOC, mode=mode)
    doc["wfps"] = [{"id": "p1", "kind": "individual", "quota": 200, "fee": 1000, "price": 31}]
    doc["users"] = [{"id": "u", "wfp": "p1", "path": ["AB"], "count": users}]
    assert MAX_USER_STEPS == 2_000_000
    assert validate_scenario(scenario_from_dict(doc)) == []
    doc["users"][0]["count"] = users + 1
    problems = validate_scenario(scenario_from_dict(doc))
    assert len(problems) == 1 and "user-steps exceed the limit" in problems[0]


def test_benchmark_workloads_validate(workloads):
    for name in workloads.WORKLOADS:
        cfg = scenario_from_dict(json.loads(workloads.generate(name, 1)))
        assert validate_scenario(cfg) == [], name


# --- packaged presets ----------------------------------------------------------------


def test_all_presets_load_and_validate():
    assert len(PRESET_NAMES) == 6
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert isinstance(cfg, ScenarioConfig)
        assert validate_scenario(cfg) == [], name


def test_preset_path_exists():
    for name in PRESET_NAMES:
        assert preset_path(name).name == f"{name}.json"


def test_unknown_preset_raises_key_error():
    with pytest.raises(KeyError):
        load_preset("scenario99")


#: The keys of a document that name no dataclass field: read by hand (the parser's
#: ``id`` and ``kind``) or ignored.
HAND_READ_KEYS = {"id", "kind"}
IGNORED_KEYS = {"notes"}
MODE_CLASSES = {"sweep": SweepMode, "equilibrium": EquilibriumMode,
                "quota_sweep": QuotaSweepMode, "ceiling_sweep": CeilingSweepMode}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_preset_key_is_a_field_a_hand_read_key_or_ignored(preset):
    doc = json.loads(preset_path(preset).read_text(encoding="utf-8"))
    sections = [
        (doc, ScenarioConfig),
        (doc.get("solver", {}), SolverConfig),
        (doc.get("sharing", {}), SharingParams),
        (doc["mode"], MODE_CLASSES[doc["mode"]["kind"]]),
        *((entry, LinkState) for entry in doc["links"]),
        *((entry, WfpAccount) for entry in doc["wfps"]),
        *((entry, UserProfile) for entry in doc["users"]),
    ]
    for entry, cls in sections:
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(entry) - fields - HAND_READ_KEYS - IGNORED_KEYS == set(), (preset, cls.__name__)


#: A valid document that sets every non-numeric key: a name that is no string,
#: solve_isp, both provider kinds and a path over two links; EVERY_KEY_MODES gives
#: it one mode of each kind, each with its own non-numeric keys.
EVERY_KEY_DOC = {
    "name": 2017,
    "solve_isp": False,
    "links": [
        {"id": "AB", "capacity": 50, "price": 10},
        {"id": "BC", "capacity": 40.5, "price": 2},
    ],
    "wfps": [
        {"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5},
        {"id": "p1", "kind": "individual", "quota": 200, "unused": 150, "fee": 1000, "price": 31},
    ],
    "users": [
        {"id": "u", "wfp": "w1", "path": ["AB", "BC"], "count": 2, "weight": 1.5},
        {"id": "v", "wfp": "p1", "path": ["BC"], "budget": 80},
    ],
}
EVERY_KEY_MODES = {
    "sweep": {"kind": "sweep", "swept_party": "wfp", "allocation": "best_response", "start": 3},
    "equilibrium": {"kind": "equilibrium", "ticks": 2,
                    "subscriber_loads": {"AB": [1, 2.5], "BC": [0.0, 3]}},
    "quota_sweep": {"kind": "quota_sweep", "usage_steps": 4},
    "ceiling_sweep": {"kind": "ceiling_sweep", "usage_levels": [0, 0.5, 0.9], "price_stop": 20},
}

#: The documents whose parsed config is pinned: each preset and EVERY_KEY_DOC in each
#: mode.  The PARSED_REPR_SHA256 pins are the SHA-256 of ``repr(scenario_from_dict(doc))``
#: of each, as the hand-written parser of the non-numeric keys gave it, with a counted
#: user entry kept as one profile and a posted price on its provider's account.
PARSED_NAMES = (*PRESET_NAMES, *(f"every-key-{kind}" for kind in EVERY_KEY_MODES))


@pytest.mark.parametrize("name", PARSED_NAMES)
def test_the_parsed_config_of_each_pinned_document_is_unchanged(name):
    if name in PRESET_NAMES:
        doc = json.loads(preset_path(name).read_text(encoding="utf-8"))
    else:
        doc = dict(EVERY_KEY_DOC, mode=EVERY_KEY_MODES[name.removeprefix("every-key-")])
    cfg = scenario_from_dict(doc)
    assert validate_scenario(cfg) == []
    assert hashlib.sha256(repr(cfg).encode()).hexdigest() == PINS["PARSED_REPR_SHA256"][name]


def test_an_entrys_shape_faults_follow_field_order():
    """A user's numbers come before its path, an equilibrium's before its loads."""
    user = dict(MINIMAL_DOC["users"][0], path=5, weight="x")
    with pytest.raises(ConfigError, match="^user 'u': weight must be a finite number"):
        scenario_from_dict({**MINIMAL_DOC, "users": [user]})
    mode = {"kind": "equilibrium", "ticks": "x", "subscriber_loads": 5}
    with pytest.raises(ConfigError, match="^mode: ticks must be a finite number"):
        scenario_from_dict({**MINIMAL_DOC, "mode": mode})


# --- summation -------------------------------------------------------------------


def fold(values):
    """0.0 + values[0] + values[1] + ..., in Python floats."""
    return reduce(add, values, 0.0)


def test_running_total_and_fold_sum_are_the_sequential_fold_bit_for_bit():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 17, 128, 1000):
        # magnitudes over 16 decades, so the order of the additions shows
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        assert bits([running_total(values)]) == bits([fold(values.tolist())])
        assert bits([fold_sum(values.tolist())]) == bits([fold(values.tolist())])
        assert type(running_total(values)) is float
    assert running_total(np.array([])) == 0.0 and type(running_total(np.array([]))) is float
    for values in ([-0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [math.inf, 1.0],
                   [math.inf, math.inf], [1.0, math.nan], [-math.inf, -0.0]):
        assert bits([running_total(np.array(values))]) == bits([fold(values)]), values
        assert bits([fold_sum(values)]) == bits([fold(values)]), values
    with np.errstate(invalid="ignore"):  # numpy flags inf - inf; Python's addition does not
        assert math.isnan(running_total(np.array([math.inf, -math.inf])))
    assert bits([running_total(np.array([-0.0]))]) == bits([sum([-0.0])]) == bits([0.0])


def test_running_total_sums_the_columns_of_a_2d_array():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((300, 5)) * 10.0 ** rng.integers(-8, 8, (300, 5))
    values[:, 4] = -0.0
    values[7, 3] = math.inf
    totals = running_total(values)
    assert totals.shape == (5,)
    assert bits(totals) == bits([fold(column) for column in values.T.tolist()])
    assert bits(running_total(np.empty((0, 5)))) == bits([0.0] * 5)
    # a transposed (column-major) array sums the same way
    assert bits(running_total(values.T.copy().T)) == bits(totals)
