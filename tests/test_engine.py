"""Scenario-engine tests: sweeps, equilibrium ticks, quota ledgers, determinism."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from test_sharing import SETTLEMENT_FIELDS, bits, reference_settle

from wifimarket.config import CeilingSweepMode, QuotaSweepMode, scenario_from_dict
from wifimarket.engine import run_scenario
from wifimarket.model import Population
from wifimarket.presets import load_preset, preset_path
from wifimarket.pricing import solve_wfp_equilibrium
from wifimarket.sharing import SaleTotals


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
        "solver": {"sigma0": 1.0},
        "mode": {
            "kind": "sweep",
            "swept_party": "wfp",
            "start": 15,
            "step": 7,
            "count": 10,
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
        "solver": {"sigma0": 0.5, "max_iters": 200},
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
            members = [u for u in cfg.users if u.wfp == account.id]
            g = np.array([rec.g_by_user[u.id] for u in members])
            again = solve_wfp_equilibrium(account, Population.of(members), g)
            assert again.converged
            assert again.residual <= 1e-9 * account.capacity
            assert again.lambda_by_wfp[account.id] == lam
    # the ISP solve moved the floors off the document's starting link prices
    assert any(g != 2.0 and g != 4.0 for g in ts.records[0].g_by_user.values())


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


def test_ceiling_sweep_series_per_usage_level():
    ts = run_scenario(load_preset("iwfp-ceiling"))
    labels = list(ts.by_series())
    assert labels == ["usage_0", "usage_25", "usage_50", "usage_75"]
    for label in labels:
        assert ts.summary[f"max_share_pct.{label}"] <= 50.0


def preset_doc(name):
    return json.loads(preset_path(name).read_text(encoding="utf-8"))


def test_quota_sweep_settles_nothing_below_x_floor():
    # even shares of 10: iwfp1 3.33, iwfp2 10, iwfp3 1, iwfp4 2.5
    doc = preset_doc("iwfp-topology")
    doc["solver"]["x_floor"] = 3.0
    by_series = run_scenario(scenario_from_dict(doc)).by_series()
    reference = run_scenario(load_preset("iwfp-topology")).by_series()
    for label in ("iwfp1", "iwfp2"):
        assert by_series[label].records == reference[label].records
    for label in ("iwfp3", "iwfp4"):
        for rec in by_series[label].records:
            assert (rec.total_value, rec.wfp_share, rec.isp_share) == (0.0, 0.0, 0.0)
            assert rec.mean_utility == reference[label].records[rec.step].mean_utility
        assert any(r.total_value > 0.0 for r in reference[label].records)


def test_ceiling_sweep_settles_nothing_below_x_floor():
    # two users share each 10-unit transaction: 5 each
    doc = preset_doc("iwfp-ceiling")
    doc["solver"]["x_floor"] = 6.0
    ts = run_scenario(scenario_from_dict(doc))
    assert len(ts.records) == 404
    assert all(r.total_value == r.wfp_share == r.isp_share == 0.0 for r in ts.records)
    assert all(r.x_by_user == {"u001": 5.0, "u002": 5.0} for r in ts.records)
    doc["solver"]["x_floor"] = 5.0  # a share at the floor is sold
    ts = run_scenario(scenario_from_dict(doc))
    assert ts.records == run_scenario(load_preset("iwfp-ceiling")).records


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
    doc["solver"]["x_floor"] = 6.0
    return doc


@pytest.mark.parametrize(
    "make_doc, cases",
    [
        (capped_ceiling, ("capped", "uncapped")),
        (lambda: preset_doc("iwfp-topology"), ("omega 0", "uncapped")),
        (unsold_ceiling, ("unsold",)),
    ],
    ids=["ceiling_fee_cap", "quota_sweep", "ceiling_below_x_floor"],
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
            totals = SaleTotals(
                seller=wid,
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
