"""Data-model, configuration, and preset tests."""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from wifimarket.config import (
    MAX_USER_STEPS,
    CeilingSweepMode,
    ConfigError,
    EquilibriumMode,
    QuotaSweepMode,
    ScenarioConfig,
    SweepMode,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from wifimarket.model import (
    LinkState,
    Population,
    Roster,
    Topology,
    UserProfile,
    UserValues,
    WfpAccount,
    WfpKind,
    effective_capacity,
)
from wifimarket.presets import PRESET_NAMES, load_preset, preset_path


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


def test_topology_link_prices():
    topo = Topology(links={"AB": LinkState(id="AB", capacity=50.0, price=10.0)})
    assert topo.link_prices() == {"AB": 10.0}


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


def test_user_values_order_sets_iteration_order_only():
    roster = Roster(["a", "b", "c"])
    view = UserValues(roster, np.array([1.0, 2.0, 3.0]), order=np.array([1, 0, 2]))
    assert list(view) == ["b", "a", "c"]
    assert list(view.values()) == [2.0, 1.0, 3.0]
    assert list(view.items()) == [("b", 2.0), ("a", 1.0), ("c", 3.0)]
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


def test_scenario_from_dict_expands_user_counts():
    cfg = scenario_from_dict(MINIMAL_DOC)
    assert [u.id for u in cfg.users] == ["u001", "u002", "u003"]
    assert all(u.wfp == "w1" for u in cfg.users)
    assert cfg.topology.links["AB"].capacity == 50.0
    assert isinstance(cfg.mode, EquilibriumMode)
    assert validate_scenario(cfg) == []


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
    assert cfg.wfp_prices == {"p1": 31.0}
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
        ({"solver": {"sigma0": "fast"}}, "solver: sigma0 must be a finite number, got 'fast'"),
        ({"seed": None}, "seed must be a finite number, got None"),
        ({"lambda0": float("inf")}, "lambda0 must be a finite number, got inf"),
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
    assert len(cfg.users) == 3


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(path)


def test_keys_outside_the_schema_are_ignored():
    # the presets still carry "unit", "nodes" and "notes", which no run reads
    extra = {"unit": "parsecs", "nodes": ["A", "B"], "notes": "n", "colour": "blue"}
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


def test_validate_bounds_the_run_size_without_running():
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"]["price_step"] = 1e-9  # 1e11 prices x 4 usage levels x 2 users
    problems = validate_scenario(scenario_from_dict(doc))
    assert problems == [
        f"mode: 800,000,000,008 user-steps exceed the limit of {MAX_USER_STEPS:,}"
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


def test_benchmark_workloads_validate(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
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
