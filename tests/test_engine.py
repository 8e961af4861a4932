"""Scenario-engine tests: sweeps, equilibrium ticks, quota ledgers, determinism."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from settlement_oracle import SETTLEMENT_FIELDS, bits, reference_settle, totals_of
from test_settlement_reference import equilibrium_doc, sweep_doc

from wifimarket.config import CeilingSweepMode, QuotaSweepMode, scenario_from_dict
from wifimarket import engine
from wifimarket.engine import _fold, _utility, run_scenario
from wifimarket.model import Population, UserProfile, fold_sum
from wifimarket.presets import load_preset, preset_path
from wifimarket.pricing import solve_wfp_equilibrium, user_utility
from wifimarket.sharing import SaleTotals, settle_rows, settle_transaction


def make_sweep_doc(**overrides):
    """One establishment provider on one link with a pinned ISP price.

    subscriber_load 40 leaves a residual of exactly the 10 units the provider
    resells, so the ISP's dual step holds its price at 10 throughout.
    """
    doc = {
        "name": "sweep-test",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 50, "subscriber_load": 40, "price": 10}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5}],
        "users": [{"id": "u1", "wfp": "w1", "path": ["AB"]}],
        "mode": {
            "kind": "sweep",
            "swept_party": "wfp",
            "start": 15,
            "step": 7,
            "count": 10,
            "sigma0": 1.0,
        },
    }
    doc.update(overrides)
    return doc


def test_sweep_share_crossover_summary():
    """Frozen crossover: share = 70 * (1 - 100/T) percent with T = 10 * price.

    The posted price ramp 15, 22, 29, 36, ... crosses the 50% line between
    price 29 (45.9%) and price 36 (50.6%), i.e. at increment 3, exactly once.
    """
    ts = run_scenario(scenario_from_dict(make_sweep_doc()))
    assert len(ts.records) == 10
    assert ts.summary["crossover_step"] == 3.0
    assert ts.summary["crossings"] == 1.0
    expected = [70.0 * (1.0 - 100.0 / (10.0 * (15 + 7 * t))) for t in range(10)]
    for rec, pct in zip(ts.records, expected):
        assert rec.wfp_share_pct == pytest.approx(pct, abs=1e-9)


def test_sweep_share_of_exactly_half_is_no_crossover():
    """From price 14 the ramp posts 35 at increment 3, a share of exactly
    70 * (1 - 100/350) = 50%: the provider's share first overtakes at increment 4."""
    doc = make_sweep_doc()
    doc["mode"] = dict(doc["mode"], start=14)
    ts = run_scenario(scenario_from_dict(doc))
    assert ts.records[3].wfp_share_pct == 50.0
    assert ts.summary["crossover_step"] == 4.0
    assert ts.summary["crossings"] == 1.0


@pytest.mark.parametrize("mode", [
    {"kind": "sweep", "swept_party": "wfp", "start": 15, "count": 1, "user_growth": 4},
    {"kind": "equilibrium", "ticks": 1, "user_growth": 4},
], ids=["sweep", "equilibrium"])
def test_a_one_step_run_grows_no_users(mode):
    """Growth clones join from the second step on, so a one-step run holds only the
    document's users: here a counted entry's three."""
    doc = make_sweep_doc(users=[{"id": "u", "wfp": "w1", "path": ["AB"], "count": 3}], mode=mode)
    (rec,) = run_scenario(scenario_from_dict(doc)).records
    assert list(rec.x_by_user) == ["u001", "u002", "u003"]


def test_sweep_never_crossing_reports_minus_one():
    # ramping the ISP price instead keeps the provider's share small throughout
    doc = make_sweep_doc()
    doc["mode"] = {"kind": "sweep", "swept_party": "isp", "start": 10, "step": 1, "count": 20}
    ts = run_scenario(scenario_from_dict(doc))
    assert ts.summary["crossover_step"] == -1.0
    assert ts.summary["crossings"] == 0.0
    assert all(r.isp_share_pct > 50.0 for r in ts.records)


def test_sweep_population_growth():
    doc = make_sweep_doc()
    doc["mode"] = {
        "kind": "sweep", "swept_party": "wfp", "start": 15, "step": 7,
        "count": 4, "user_growth": 2,
    }
    ts = run_scenario(scenario_from_dict(doc))
    assert [len(r.x_by_user) for r in ts.records] == [1, 3, 5, 7]
    # grown users are clones of the base population, never of earlier clones
    assert sorted(ts.records[3].x_by_user) == ["u1"] + [f"u1+{k:05d}" for k in range(1, 7)]


def test_every_step_settles_efficiently():
    for name in ("scenario1", "scenario2"):
        ts = run_scenario(load_preset(name))
        for rec in ts.records:
            assert rec.wfp_share + rec.isp_share == pytest.approx(
                rec.total_value, abs=1e-9
            ), f"{name} step {rec.step}"
            assert rec.wfp_share >= -1e-9
            assert rec.isp_share >= -1e-9


def make_billing_doc(ticks=6, billing_cycle_ticks=3):
    """Two users buying 2 units each per tick from a 40-unit quota.

    Slack quota keeps the dual price at zero, so the final price is the ISP
    floor 1 plus the 2-unit margin; each tick drains 4 units of quota.
    """
    return {
        "name": "billing-test",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 1000, "price": 1}],
        "wfps": [
            {
                "id": "p1", "kind": "individual", "quota": 40,
                "fee": 1e9, "min_profit": 2,
            }
        ],
        "users": [
            {"id": "u", "wfp": "p1", "path": ["AB"], "count": 2,
             "budget": 10, "x_min": 0.01, "x_max": 2},
        ],
        "solve_isp": False,
        "mode": {
            "kind": "equilibrium",
            "ticks": ticks,
            "billing_cycle_ticks": billing_cycle_ticks,
        },
    }


def test_equilibrium_quota_ledger_drains_by_volume():
    """Frozen ledger: contribution = (unused/40) * ln(8) as 4 units drain per tick."""
    ts = run_scenario(scenario_from_dict(make_billing_doc(ticks=3, billing_cycle_ticks=0)))
    ln8 = math.log(8.0)
    for t, rec in enumerate(ts.records):
        omega = (40.0 - 4.0 * t) / 40.0
        assert rec.total_value == pytest.approx(12.0, abs=1e-9)
        assert rec.isp_value == pytest.approx(4.0, abs=1e-9)
        assert rec.wfp_value == pytest.approx(omega * ln8, abs=1e-9)


def test_equilibrium_billing_cycle_replenishes_quota():
    # three-tick cycles: the share pattern repeats after each replenish
    ts = run_scenario(scenario_from_dict(make_billing_doc(ticks=6, billing_cycle_ticks=3)))
    values = [rec.wfp_value for rec in ts.records]
    assert values[0] > values[1] > values[2]  # quota draining
    assert values[3] == pytest.approx(values[0], abs=1e-9)  # replenished
    assert values[4] == pytest.approx(values[1], abs=1e-9)
    assert values[5] == pytest.approx(values[2], abs=1e-9)


def test_a_one_tick_billing_cycle_replenishes_at_tick_one():
    # a 4-unit quota: the two users drain it at tick 0, and it is back at tick 1
    doc = make_billing_doc(ticks=2, billing_cycle_ticks=1)
    doc["wfps"][0]["quota"] = 4
    first, second = run_scenario(scenario_from_dict(doc)).records
    assert first.x_by_user == second.x_by_user == {"u001": 2.0, "u002": 2.0}
    assert first.total_value == second.total_value == pytest.approx(12.0, abs=1e-9)


def test_a_billing_cycle_refills_a_plan_only_after_its_first_tick():
    # the document leaves 2 of the 4 units: the users split those at tick 0
    doc = make_billing_doc(ticks=2, billing_cycle_ticks=1)
    doc["wfps"][0].update(quota=4, unused=2)
    first, second = run_scenario(scenario_from_dict(doc)).records
    assert first.x_by_user == {"u001": 1.0, "u002": 1.0}
    assert second.x_by_user == {"u001": 2.0, "u002": 2.0}


def test_equilibrium_without_a_zero_transaction_step_reports_minus_one():
    ts = run_scenario(load_preset("scenario3-low"))
    assert all(rec.total_value > 0.0 for rec in ts.records)
    assert ts.summary["first_zero_transaction_step"] == -1.0


def test_equilibrium_unaffordable_price_stops_transactions():
    # one user with budget 1 against a floor of 10: buying is a net loss
    doc = {
        "name": "walk-away",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 1000, "price": 10}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 100}],
        "users": [{"id": "u1", "wfp": "w1", "path": ["AB"], "budget": 1}],
        "solve_isp": False,
        "mode": {"kind": "equilibrium", "ticks": 2},
    }
    ts = run_scenario(scenario_from_dict(doc))
    assert ts.summary["first_zero_transaction_step"] == 0.0
    for rec in ts.records:
        assert rec.total_value == 0.0
        assert rec.x_by_user["u1"] == 0.0
        assert rec.mean_utility == 0.0  # non-buyers contribute zero utility


def make_two_rules_doc(mode):
    """One provider, a user who gains by buying and one whose best buy is a net loss."""
    return {
        "name": "two-rules",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 1000, "price": 1}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 5, "min_profit": 1}],
        "users": [
            {"id": "rich", "wfp": "w1", "path": ["AB"]},
            {"id": "poor", "wfp": "w1", "path": ["AB"], "x_min": 2, "budget": 1,
             "weight": 0.01},
        ],
        "solve_isp": False,
        "mode": mode,
    }


def test_walk_away_and_the_mean_utility_differ_by_mode():
    """An equilibrium tick drops a buyer at negative utility and averages over every
    user (the walked-away one counts 0: 1.792 / 2); a sweep step keeps that buyer and
    averages over the buyers (the mean of 1.897 and -59.0)."""
    equilibrium = {"kind": "equilibrium", "ticks": 1}
    rec, = run_scenario(scenario_from_dict(make_two_rules_doc(equilibrium))).records
    assert rec.mean_utility == 0.8958797346140275
    assert rec.x_by_user["poor"] == 0.0
    sweep = {"kind": "sweep", "swept_party": "wfp", "start": 30, "step": 1, "count": 1,
             "allocation": "best_response"}
    rec, = run_scenario(scenario_from_dict(make_two_rules_doc(sweep))).records
    assert rec.mean_utility == -28.544508535751458
    assert rec.x_by_user["poor"] == 2.0


def make_isp_doc():
    """Two providers behind two links whose prices the ISP solves every tick.

    Provider e1 sells to users on AB and on AB+BC, e2 to users on BC; the
    subscriber loads change per tick, so the link prices move.
    """
    return {
        "name": "isp-test",
        "nodes": ["A", "B", "C"],
        "links": [
            {"id": "AB", "capacity": 60, "subscriber_load": 30, "price": 2},
            {"id": "BC", "capacity": 50, "subscriber_load": 30, "price": 2},
        ],
        "wfps": [
            {"id": "e1", "kind": "establishment", "capacity": 20, "min_profit": 2},
            {"id": "e2", "kind": "establishment", "capacity": 15, "min_profit": 1},
        ],
        "users": [
            {"id": "a", "count": 6, "wfp": "e1", "path": ["AB"], "budget": 100},
            {"id": "b", "count": 4, "wfp": "e1", "path": ["AB", "BC"], "budget": 80},
            {"id": "c", "count": 5, "wfp": "e2", "path": ["BC"], "budget": 120},
        ],
        "solver": {"max_iters": 200},
        "solve_isp": True,
        "mode": {
            "kind": "equilibrium",
            "ticks": 3,
            "subscriber_loads": {"AB": [30, 40, 20], "BC": [30, 20, 35]},
        },
    }


def test_equilibrium_with_isp_solve_clears_every_provider():
    cfg = scenario_from_dict(make_isp_doc())
    ts = run_scenario(cfg)
    assert len(ts.records) == 3
    for rec in ts.records:
        assert rec.wfp_share + rec.isp_share == pytest.approx(rec.total_value, abs=1e-9)
        assert rec.total_value > 0.0
        for account in cfg.wfps:
            lam = rec.lambda_by_wfp[account.id]
            assert math.isfinite(lam)
            members = Population.of([u for u in cfg.users if u.wfp == account.id])
            g = np.array([rec.g_by_user[uid] for uid in members.roster.ids])
            again = solve_wfp_equilibrium(account, members, g)
            assert again.converged
            assert again.residual <= 1e-9 * account.capacity
            assert again.lambda_by_wfp[account.id] == lam
    # the ISP solve moved the floors off the document's starting link prices
    assert any(g != 2.0 and g != 4.0 for g in ts.records[0].g_by_user.values())


RUNNER_NAMES = ("run_sweep", "run_equilibrium", "solve_wfp_equilibrium", "solve_isp_prices",
                "settle_transaction", "settle_rows")
ISP_SWEEP = {"kind": "sweep", "swept_party": "isp", "start": 2, "step": 1, "count": 4,
             "sigma0": 0.5}
INDIVIDUAL_E2 = {"id": "e2", "kind": "individual", "quota": 400, "fee": 1e9, "min_profit": 1}


@pytest.mark.parametrize("mode, e2, called, ticks", [
    (None, None, {"run_equilibrium", "solve_wfp_equilibrium", "solve_isp_prices",
                  "settle_rows"}, 3),
    (ISP_SWEEP, None, {"run_sweep", "settle_rows"}, 4),
    (None, INDIVIDUAL_E2, {"run_equilibrium", "solve_wfp_equilibrium", "solve_isp_prices",
                           "settle_rows", "settle_transaction"}, 3),
], ids=["equilibrium", "sweep", "individual"])
def test_runners_reach_each_call_through_the_engine_namespace(monkeypatch, mode, e2, called,
                                                              ticks):
    """The benchmark's tracer replaces these names in ``wifimarket.engine``: a runner
    that held its own reference (a dispatch table, a name captured at import) would
    leave it timing and counting nothing."""
    doc = make_isp_doc()
    doc["mode"] = mode or doc["mode"]
    doc["wfps"][1] = e2 or doc["wfps"][1]
    calls = dict.fromkeys(RUNNER_NAMES, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in RUNNER_NAMES:
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    ts = run_scenario(scenario_from_dict(doc))
    assert {name for name, count in calls.items() if count} == called
    assert len(ts.records) == ticks
    # one kernel call per establishment, one settle_transaction per individual per tick
    assert calls["settle_rows"] == 2 - bool(e2)
    assert calls["settle_transaction"] == ticks * bool(e2)


def test_quota_sweep_series_per_provider():
    ts = run_scenario(load_preset("iwfp-topology"))
    assert list(ts.by_series()) == ["iwfp1", "iwfp2", "iwfp3", "iwfp4"]
    per_series = ts.by_series()
    for label, sub in per_series.items():
        assert len(sub.records) == 21  # usage 0/20 .. 20/20
        assert [r.step for r in sub.records] == list(range(21))
        # fully used plan earns nothing
        assert sub.records[-1].wfp_share == pytest.approx(0.0, abs=1e-9)
    assert set(ts.summary) == {f"max_share_pct.iwfp{i}" for i in (1, 2, 3, 4)}


@pytest.mark.parametrize("mode, labels", [
    ({"kind": "quota_sweep", "usage_steps": 2}, ["p1"]),
    ({"kind": "ceiling_sweep", "usage_levels": [0.0, 0.5], "price_stop": 2},
     ["usage_0", "usage_50"]),
])
def test_snapshot_runs_skip_establishments(mode, labels):
    doc = {
        "links": [{"id": "AB", "capacity": 50, "price": 10}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 10},
                 {"id": "p1", "kind": "individual", "quota": 200, "fee": 1000, "price": 31}],
        "users": [{"id": "u", "wfp": "w1", "path": ["AB"]},
                  {"id": "v", "wfp": "p1", "path": ["AB"]}],
        "mode": mode,
    }
    ts = run_scenario(scenario_from_dict(doc))
    assert [block.series for block in ts.blocks] == labels
    assert list(ts.summary) == [f"max_share_pct.{label}" for label in labels]
    for rec in ts.records:
        assert list(rec.lambda_by_wfp) == ["p1"]
        for users in (rec.g_by_user, rec.final_price_by_user, rec.x_by_user):
            assert list(users) == ["v"]


@pytest.mark.parametrize("preset", ["scenario3-low", "scenario3-high", "scenario1", "scenario2"])
def test_only_equilibrium_runs_report_their_solves_health(monkeypatch, preset):
    results = []
    for name in ("solve_isp_prices", "solve_wfp_equilibrium"):
        solver = getattr(engine, name)
        monkeypatch.setattr(engine, name,
                            lambda *args, solver=solver: results.append(solver(*args)) or results[-1])
    ts = run_scenario(load_preset(preset))
    health = {key: value for key, value in ts.summary.items() if key.startswith("solver.")}
    if not preset.startswith("scenario3"):  # a sweep has no solver
        assert results == [] and health == {}
        return
    assert health == {
        "solver.unconverged": sum(not result.converged for result in results),
        "solver.max_residual": max(result.residual for result in results)}
    assert health["solver.unconverged"] == 0 and health["solver.max_residual"] < 1e-9


def test_ceiling_sweep_series_per_usage_level():
    ts = run_scenario(load_preset("iwfp-ceiling"))
    labels = list(ts.by_series())
    assert labels == ["usage_0", "usage_25", "usage_50", "usage_75"]
    for label in labels:
        assert ts.summary[f"max_share_pct.{label}"] <= 50.0


def test_ceiling_sweep_settles_every_usage_level_in_one_kernel_call(monkeypatch):
    plans = []
    counted = lambda *args: plans.append(args[3].shape) or settle_rows(*args)  # noqa: E731
    monkeypatch.setattr(engine, "settle_rows", counted)
    ts = run_scenario(load_preset("iwfp-ceiling"))
    assert plans == [(4, 1)]  # one unused value per usage level, for all 101 prices
    assert [len(block.steps) for block in ts.blocks] == [101] * 4
    assert len({id(block.maps[2]) for block in ts.blocks}) == 1  # one set of price rows


def test_tick_runs_settle_each_establishment_in_one_kernel_call(monkeypatch):
    batches, one_rows = [], []

    def batch(account, totals, *rest):
        batches.append((account.id, len(totals.revenue)))
        return settle_rows(account, totals, *rest)

    def one_row(account, *rest):
        one_rows.append(account.id)
        return settle_transaction(account, *rest)

    monkeypatch.setattr(engine, "settle_rows", batch)
    monkeypatch.setattr(engine, "settle_transaction", one_row)
    ts = run_scenario(scenario_from_dict(equilibrium_doc()))  # e1 an establishment, p1 not
    assert batches == [("e1", 4)]  # all four ticks of e1 in one call
    assert one_rows == ["p1"] * 4  # p1 tick by tick: its plan state feeds the next tick
    assert len(ts.records) == 4


def left_folds(cells, templates, sizes):
    """What ``_fold`` must return: each tick's fold_sum of each column over its users."""
    return np.array([[fold_sum(cells[templates[j], t, c] for j in range(n))
                      for c in range(cells.shape[2])] for t, n in enumerate(sizes)])


def test_fold_adds_each_column_in_roster_order_not_pairwise():
    # 1e16, 1.0, -1e16, 1.0, ... down each column: numpy's pairwise sum reads otherwise
    column = np.tile([1e16, 1.0, -1e16, 1.0], 4)
    assert bits([np.add.reduce(column)]) != bits([fold_sum(column)])
    cells = column[:, None, None] * np.array([[1.0, 3.0], [-1.0, 0.5], [7.0, 1.0]])  # (16, 3, 2)
    templates, sizes = np.arange(16), [9, 12, 16]  # join groups of 9, 3 and 4 users
    folded = _fold(cells, templates, sizes)
    assert bits(folded.ravel()) == bits(left_folds(cells, templates, sizes).ravel())
    assert bits([folded[2, 0]]) != bits([np.add.reduce(cells[:, 2, 0].copy())])  # pairwise


@pytest.mark.parametrize("seed", range(12))
def test_fold_equals_the_left_fold_on_random_runs(seed):
    rng = np.random.default_rng(seed)
    m, ticks, width = rng.integers(1, 12), rng.integers(1, 9), rng.integers(2, 7)
    shape = (m, ticks, width)
    cells = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 17, shape)
    cells[rng.random(shape) < 0.2] = -0.0  # a fold from 0.0 never keeps a -0.0
    sizes = np.cumsum(rng.integers(0, 6, ticks)) + 1  # some ticks add no users
    templates = rng.integers(0, m, sizes[-1])
    expected = left_folds(cells, templates, sizes)
    assert bits(_fold(cells, templates, sizes).ravel()) == bits(expected.ravel())
    # a Fortran-ordered copy, whose gathered rows numpy need not lay out in C order
    fortran = np.asfortranarray(cells)
    assert bits(_fold(fortran, templates, sizes).ravel()) == bits(expected.ravel())


def test_fold_refuses_one_value_rows():
    # a one-column block's last tick is one value per row, which numpy sums pairwise
    with pytest.raises(ValueError, match="one-value row"):
        _fold(np.ones((16, 1, 1)), np.arange(16), [16])


@pytest.mark.parametrize("make_doc", [sweep_doc, equilibrium_doc], ids=["sweep", "equilibrium"])
def test_tick_run_sums_are_the_per_tick_left_folds(monkeypatch, make_doc):
    """Two establishments and an individual, their users interleaved in the roster, with
    growth: the establishments' sale totals that the tick run settles after its loop,
    and each tick's mean utility, are the per-tick folds over the users in roster order.
    An equilibrium tick averages over every user, counting each walked-away one as 0.0;
    a sweep step averages over its buyers."""
    doc = make_doc()
    doc["wfps"] = [*doc["wfps"], {"id": "e2", "kind": "establishment", "capacity": 15,
                                  "min_profit": 3}]
    doc["users"] = [dict(u, wfp=("p1", "e1", "e2")[i % 3]) for i, u in enumerate(doc["users"])]
    doc["solver"] = dict(doc["solver"], x_floor=1.0)  # some sweep users buy too little
    cfg = scenario_from_dict(doc)
    sales = {}  # each establishment's SaleTotals fields, one row per tick

    def capture(account, totals, *rest):
        sales[account.id] = np.column_stack(list(vars(totals).values()))
        return settle_rows(account, totals, *rest)

    monkeypatch.setattr(engine, "settle_rows", capture)
    records = run_scenario(cfg).records
    assert list(sales) == ["e1", "e2"]
    profile = {uid: u for u in cfg.users for uid in u.ids}  # clones: "<id>+<n>"
    walk_away = make_doc is equilibrium_doc
    for t, rec in enumerate(records):
        users = [(uid, profile[uid.split("+")[0]]) for uid in rec.x_by_user]
        for wfp, rows in sales.items():
            sold = [(x, rec.g_by_user[uid], rec.final_price_by_user[uid])
                    for (uid, user), x in zip(users, rec.x_by_user.values())
                    if user.wfp == wfp and x > 0.0]
            assert bits(rows[t]) == bits(vars(totals_of(*sold)).values())
        utility = [user_utility(rec.x_by_user[uid], rec.final_price_by_user[uid], user)
                   if rec.x_by_user[uid] > 0.0 else 0.0 for uid, user in users]
        counted = [u for x, u in zip(rec.x_by_user.values(), utility) if walk_away or x > 0.0]
        mean = fold_sum(counted) / len(counted) if counted else 0.0
        assert bits([rec.mean_utility]) == bits([mean]), (t, rec.mean_utility, mean)
    x = [v for rec in records for v in rec.x_by_user.values()]
    assert 0.0 in x and any(v > 0.0 for v in x) and len(records[-1].x_by_user) > 30


def zero_utility_doc(**user):
    """One user whose best buy, at the floor price 150 + 50, is x = x_max = 0.5 with a
    utility of exactly 0.0: ln(0.5 * snr 2) = 0 and 1 - 0.5 * 200 / 100 = 0."""
    return {
        "name": "edge",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 100, "price": 150}],
        "wfps": [{"id": "e1", "kind": "establishment", "capacity": 10, "min_profit": 50}],
        "users": [dict({"id": "u", "wfp": "e1", "path": ["AB"], "x_max": 0.5}, **user)],
        "solve_isp": False,
        "mode": {"kind": "equilibrium", "ticks": 2},
    }


def test_walk_away_keeps_a_buyer_whose_utility_is_exactly_zero():
    ts = run_scenario(scenario_from_dict(zero_utility_doc()))
    assert [rec.mean_utility for rec in ts.records] == [0.0, 0.0]
    assert all(rec.x_by_user == {"u": 0.5} for rec in ts.records)
    assert all(rec.total_value == 100.0 for rec in ts.records)


def test_a_sale_worth_less_than_one_is_not_a_zero_transaction():
    cfg = scenario_from_dict(zero_utility_doc(x_max=0.004, tx_power=999.0))
    ts = run_scenario(cfg)
    for rec in ts.records:  # the mean over one user is its utility
        assert rec.total_value == 0.004 * 200.0  # 0.8
        assert rec.mean_utility == user_utility(0.004, 200.0, cfg.users[0]) > 0.0
    assert ts.summary["first_zero_transaction_step"] == -1.0


def preset_doc(name):
    return json.loads(preset_path(name).read_text(encoding="utf-8"))


def test_quota_sweep_settles_nothing_below_x_floor():
    # even shares of 10: iwfp1 3.33, iwfp2 10, iwfp3 1, iwfp4 2.5
    doc = preset_doc("iwfp-topology")
    doc["solver"] = {"x_floor": 3.0}
    by_series = run_scenario(scenario_from_dict(doc)).by_series()
    reference = run_scenario(load_preset("iwfp-topology")).by_series()
    for label in ("iwfp1", "iwfp2"):
        assert by_series[label].records == reference[label].records
    for label in ("iwfp3", "iwfp4"):
        for rec in by_series[label].records:
            assert (rec.total_value, rec.wfp_share, rec.isp_share) == (0.0, 0.0, 0.0)
            assert rec.mean_utility == reference[label].records[rec.step].mean_utility
        assert any(r.total_value > 0.0 for r in reference[label].records)


def test_tick_run_sells_a_purchase_at_x_floor_and_nothing_below():
    # an equal split gives the one user the provider's whole capacity of 10
    for x_floor, sold in ((10.0, True), (math.nextafter(10.0, math.inf), False)):
        ts = run_scenario(scenario_from_dict(make_sweep_doc(solver={"x_floor": x_floor})))
        assert all((r.total_value > 0.0) is sold for r in ts.records)
        assert all(r.x_by_user == {"u1": 10.0 if sold else 0.0} for r in ts.records)


def test_ceiling_sweep_settles_nothing_below_x_floor():
    # two users share each 10-unit transaction: 5 each
    doc = preset_doc("iwfp-ceiling")
    doc["solver"] = {"x_floor": 6.0}
    ts = run_scenario(scenario_from_dict(doc))
    assert len(ts.records) == 404
    assert all(r.total_value == r.wfp_share == r.isp_share == 0.0 for r in ts.records)
    assert all(r.x_by_user == {"u001": 5.0, "u002": 5.0} for r in ts.records)
    doc["solver"]["x_floor"] = 5.0  # a share at the floor is sold
    ts = run_scenario(scenario_from_dict(doc))
    assert ts.records == run_scenario(load_preset("iwfp-ceiling")).records


def test_run_scenario_refuses_an_unsupported_mode():
    cfg = replace(load_preset("scenario1"), mode=object())
    with pytest.raises(TypeError, match="^unsupported mode object$"):
        run_scenario(cfg)


def test_ceiling_sweep_posts_no_price_past_price_stop():
    doc = preset_doc("iwfp-ceiling")
    doc["mode"].update(price_start=0.0, price_stop=100.0, price_step=60.0)
    ts = run_scenario(scenario_from_dict(doc))
    for sub in ts.by_series().values():
        assert [r.lambda_by_wfp["iwfp1"] for r in sub.records] == [0.0, 60.0]


@pytest.mark.parametrize(
    "start, stop, step, count",
    [
        (0.0, 100.0, 1.0, 101),  # the iwfp-ceiling preset
        (0.0, 100.0, 0.01, 10_001),  # the ceiling-fine benchmark workload
        (0.0, 100.0, 60.0, 2),  # 120 would overshoot
        (0.0, 0.3, 0.1, 4),  # 0.3 / 0.1 is 2.9999999999999996
        (5.0, 5.0, 1.0, 1),
    ],
)
def test_ceiling_sweep_price_count(start, stop, step, count):
    mode = CeilingSweepMode(price_start=start, price_stop=stop, price_step=step)
    assert mode.price_count == count


def test_runs_are_deterministic_in_memory():
    first = run_scenario(load_preset("scenario1"))
    second = run_scenario(load_preset("scenario1"))
    assert first.records == second.records
    assert first.summary == second.summary


def capped_ceiling():
    # with nothing settled yet, a 100-unit fee caps the upper part of the price ramp
    doc = preset_doc("iwfp-ceiling")
    doc["wfps"][0]["fee"] = 100.0
    return doc


def unsold_ceiling():
    # two users share each 10-unit transaction: 5 each, below the floor
    doc = preset_doc("iwfp-ceiling")
    doc["solver"] = {"x_floor": 6.0}
    return doc


def small_margined_ceiling():
    # a 0.001-unit transaction, worth less than 1 at every price, and a margin of 5 over
    # the floor of 1, which prices each user above a posted price below 6
    doc = preset_doc("iwfp-ceiling")
    doc["wfps"][0]["min_profit"] = 5.0
    doc["mode"]["txn_volume"] = 0.001
    return doc


@pytest.mark.parametrize(
    "make_doc, cases",
    [
        (lambda: preset_doc("iwfp-ceiling"), ("uncapped",)),
        (capped_ceiling, ("capped", "uncapped")),
        (lambda: preset_doc("iwfp-topology"), ("omega 0", "uncapped")),
        (unsold_ceiling, ("unsold",)),
        (small_margined_ceiling, ("uncapped",)),
    ],
    ids=["ceiling", "ceiling_fee_cap", "quota_sweep", "ceiling_below_x_floor",
         "ceiling_small_margined"],
)
def test_snapshot_steps_match_the_scalar_reference_bit_for_bit(make_doc, cases):
    cfg = scenario_from_dict(make_doc())
    ts = run_scenario(cfg)
    mode = cfg.mode
    seen = {"capped": 0, "uncapped": 0, "omega 0": 0, "unsold": 0}
    for label, sub in ts.by_series().items():
        for rec in sub.records:
            (wid,) = rec.lambda_by_wfp
            account = next(w for w in cfg.wfps if w.id == wid)
            if isinstance(mode, QuotaSweepMode):
                unused = account.quota * (mode.usage_steps - rec.step) / mode.usage_steps
            else:
                usage = next(u for u in mode.usage_levels if mode.series_label(u) == label)
                unused = account.quota * (1.0 - usage)
            uids = list(rec.g_by_user)
            x = [rec.x_by_user[u] for u in uids]
            g = [rec.g_by_user[u] for u in uids]
            prices = [rec.final_price_by_user[u] for u in uids]
            assert prices == [max(rec.lambda_by_wfp[wid], gi + account.min_profit) for gi in g]
            totals = SaleTotals(
                count=len(uids) if x[0] >= cfg.solver.x_floor else 0,
                revenue=sum(xi * p for xi, p in zip(x, prices)),
                isp_revenue=sum(xi * gi for xi, gi in zip(x, g)),
                spread=sum((p - gi) * xi for xi, gi, p in zip(x, g, prices)),
                floor_sum=sum(g),
                volume=sum(x),
            )
            snapshot = replace(account, unused=unused, settled_share=0.0)
            expected, _ = reference_settle(snapshot, totals, cfg.sharing)
            assert bits(getattr(rec, name) for name in SETTLEMENT_FIELDS) == bits(
                getattr(expected, name) for name in SETTLEMENT_FIELDS
            ), (label, rec.step)
            wfp_pct = isp_pct = 0.0
            if expected.total_value > 0.0:
                wfp_pct = 100.0 * expected.wfp_share / expected.total_value
                isp_pct = 100.0 - wfp_pct
            assert bits([rec.wfp_share_pct, rec.isp_share_pct]) == bits([wfp_pct, isp_pct])

            uncapped = 0.5 * expected.wfp_value + 0.5 * (expected.total_value - expected.isp_value)
            seen["capped" if expected.wfp_share < uncapped else "uncapped"] += 1
            seen["omega 0"] += unused == 0.0 and expected.total_value > 0.0
            seen["unsold"] += totals.count == 0
        assert ts.summary[f"max_share_pct.{label}"] == max(r.wfp_share_pct for r in sub.records)
    assert all(seen[key] for key in cases), seen


def clone_crowd(n):
    """``n`` users cycling through five templates, as a run's growth clones do,
    and their purchases: five values per template, two of them one ulp apart.

    Template 0 has SNR factor 1, so its users' log arguments are their x.  On
    some CPUs ``np.log`` rounds ``math.log``'s last bit of 4.98701879604742
    the other way.
    """
    templates = [
        UserProfile(id=f"t{k}", weight=0.5 + k, budget=40.0 + 7.0 * k, tx_power=0.3 * k)
        for k in range(5)
    ]
    users = [replace(templates[i % 5], id=f"u{i}") for i in range(n)]
    x_values = [1.0, math.nextafter(1.0, 2.0), 3.7, 0.45, 4.98701879604742]
    x = np.array([x_values[(i // 5) % 5] for i in range(n)])
    return users, Population.of(users), x


# a population as small as isp-nested's, and hundreds of clones: one log per user
# either way
@pytest.mark.parametrize("n", [34, 391])
def test_utility_equals_the_per_user_formula_bit_for_bit(n):
    users, pop, x = clone_crowd(n)
    prices = 20.0 + np.arange(n) % 9
    got = _utility(pop, slice(0, n), x, prices)
    want = [user_utility(xi, p, u) for xi, p, u in zip(x.tolist(), prices.tolist(), users)]
    assert bits(got) == bits(want)
    # users 0 and 5 share template 0; their log arguments are 1.0 and 1.0 + ulp
    assert x[5] == math.nextafter(x[0], 2.0) and bits(got[[0, 5]]) == bits(want[0:6:5])
    assert got[0] != got[5]


def test_utility_of_a_buyer_subset_with_one_price_row_per_step():
    n = 259
    users, pop, x = clone_crowd(n)
    buyers = np.flatnonzero(np.arange(n) % 3 != 1)
    prices = 15.0 + np.arange(4)[:, None] * 2.5 + (np.arange(len(buyers)) % 7) * 0.1
    got = _utility(pop, buyers, x[buyers], prices)
    assert got.shape == prices.shape
    for row, step_prices in zip(got, prices):
        want = [
            user_utility(x[i], p, users[i])
            for i, p in zip(buyers.tolist(), step_prices.tolist())
        ]
        assert bits(row) == bits(want)


def per_user_row_bytes(ts):
    """The bytes of the buffers behind a run's per-user value and index arrays,
    each base buffer counted once."""
    buffers = {}
    for block in ts.blocks:
        for rows in block.maps[1:]:
            for array in (rows.values, rows.index):
                while array is not None and array.base is not None:
                    array = array.base
                if array is not None:
                    buffers[id(array)] = array.nbytes
    return sum(buffers.values())


def test_sweep_keeps_one_value_per_template_per_step():
    """scenario2's per-user rows hold each step's value once per user entry (one,
    of 10 users), not once per user (227,250 user-steps), plus one template index
    over the roster."""
    cfg = load_preset("scenario2")
    ts = run_scenario(cfg)
    steps, templates = cfg.mode.count, len(cfg.users)
    roster = sum(u.count for u in cfg.users) + cfg.mode.user_growth * (steps - 1)
    assert (templates, roster) == (1, 1_505)
    assert per_user_row_bytes(ts) <= 3 * steps * templates * 8 + roster * 8
    assert sum(len(rec.x_by_user) for rec in ts.records) == 227_250


def test_equilibrium_keeps_one_value_per_template_per_tick():
    """scenario3-high's per-user rows hold each tick's value once per user entry
    (one, of 100 users), not once per user (6,600 user-ticks, 1,100 users by tick
    11), plus one template index over the roster."""
    cfg = load_preset("scenario3-high")
    ts = run_scenario(cfg)
    ticks, templates = cfg.mode.ticks, len(cfg.users)
    roster = sum(u.count for u in cfg.users) + cfg.mode.user_growth * (ticks - 1)
    assert (templates, roster) == (1, 1_100)
    assert per_user_row_bytes(ts) <= 3 * ticks * templates * 8 + roster * 8
    assert sum(len(rec.x_by_user) for rec in ts.records) == 6_600
