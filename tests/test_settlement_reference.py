"""Every run mode's settlements against the scalar settlement oracle.

The engine settles each provider from its sales' totals, summed over arrays.
These tests rebuild every step's totals from the record's per-user values
(users buying at least ``x_floor``, folded from 0.0 in roster order), settle
them with ``reference_settle``, which shares no code with the kernel, and
require the record's values and shares to match exactly.  The provider fees
are set high enough never to bind, except in one equilibrium case, where the
individual's fee caps its share from the first tick, next to an establishment
that the engine settles for all ticks at once.
"""
from dataclasses import replace

import pytest
from settlement_oracle import SETTLEMENT_FIELDS, reference_settle, totals_of

from wifimarket.config import EquilibriumMode, QuotaSweepMode, SweepMode, scenario_from_dict
from wifimarket.engine import run_scenario
from wifimarket.presets import load_preset

TWO_PROVIDERS = {
    "name": "reference",
    "nodes": ["A", "B", "C"],
    "links": [
        {"id": "AB", "capacity": 60, "subscriber_load": 30, "price": 2},
        {"id": "BC", "capacity": 50, "subscriber_load": 30, "price": 3},
    ],
    "wfps": [
        {"id": "e1", "kind": "establishment", "capacity": 20, "min_profit": 2},
        {"id": "p1", "kind": "individual", "quota": 400, "fee": 1e9,
         "txn_cap": 12, "min_profit": 1},
    ],
    # Thirty distinct users, so that sums depend on their order, with the
    # providers interleaved: the roster is not grouped by provider.
    "users": [
        {"id": f"u{i}", "wfp": "p1" if i % 2 == 0 else "e1",
         "path": (["AB"], ["AB", "BC"], ["BC"])[(i // 2) % 3],
         "budget": 60.0 + 7.3 * i, "weight": 0.6 + 0.13 * i, "tx_power": 0.1 * (i + 1),
         "x_min": 0.01 * (1 + i % 4), "x_max": 4.0 + i}
        for i in range(30)
    ],
    "solver": {"max_iters": 50},
    "sharing": {"alpha": 1.3, "beta": 2.5},
}


def sweep_doc():
    return dict(TWO_PROVIDERS, mode={
        "kind": "sweep", "swept_party": "wfp", "start": 8, "step": 3, "count": 6,
        "user_growth": 4, "allocation": "best_response", "sigma0": 0.5,
    })


def equilibrium_doc():
    return dict(TWO_PROVIDERS, solve_isp=True, mode={
        "kind": "equilibrium", "ticks": 4, "user_growth": 3,
        "subscriber_loads": {"AB": [30, 40, 20, 35], "BC": [30, 20, 35, 25]},
    })


def binding_fee_doc():
    """The equilibrium with p1's fee at 1.0, which its share reaches at tick 0."""
    doc = equilibrium_doc()
    doc["wfps"] = [doc["wfps"][0], dict(doc["wfps"][1], fee=1.0)]
    return doc


def ceiling_doc():
    doc = load_preset("iwfp-ceiling")
    return replace(doc, mode=replace(doc.mode, price_step=7.0))


def snapshot_account(cfg, rec, wid):
    """A snapshot step's account: the plan drawn down to the step's usage, nothing settled."""
    account = next(w for w in cfg.wfps if w.id == wid)
    mode = cfg.mode
    if isinstance(mode, QuotaSweepMode):
        unused = account.quota * (mode.usage_steps - rec.step) / mode.usage_steps
    else:
        usage = next(u for u in mode.usage_levels if rec.series == f"usage_{round(u * 100)}")
        unused = account.quota * (1.0 - usage)
    return replace(account, unused=unused, settled_share=0.0)


def check_against_reference(cfg):
    ts = run_scenario(cfg)
    provider_of = {uid: u.wfp for u in cfg.users for uid in u.ids}  # clones: "<id>+<n>"
    running = isinstance(cfg.mode, (SweepMode, EquilibriumMode))
    accounts = {w.id: w for w in cfg.wfps}
    for rec in ts.records:
        providers = list(rec.lambda_by_wfp)
        per_provider = []
        for wid in providers:
            account = accounts[wid] if running else snapshot_account(cfg, rec, wid)
            sales = [
                (rec.x_by_user[uid], rec.g_by_user[uid], rec.final_price_by_user[uid])
                for uid in rec.g_by_user
                if provider_of[uid.split("+")[0]] == wid
                and rec.x_by_user[uid] >= cfg.solver.x_floor
            ]
            settlement, updated = reference_settle(account, totals_of(*sales), cfg.sharing)
            per_provider.append(settlement)
            if running:
                accounts[wid] = updated
        for name in SETTLEMENT_FIELDS:
            expected = sum(getattr(s, name) for s in per_provider)
            assert getattr(rec, name) == expected, (rec.series, rec.step, name)
        if rec.total_value > 0.0:
            assert rec.wfp_share_pct == 100.0 * rec.wfp_share / rec.total_value
            assert rec.isp_share_pct == 100.0 - rec.wfp_share_pct
        if running:  # every per-user mapping iterates in roster order
            for mapping in (rec.g_by_user, rec.final_price_by_user, rec.x_by_user):
                assert list(mapping) == roster_prefix(cfg, len(mapping))
    return ts


def roster_prefix(cfg, size):
    """The first ``size`` ids of a run with growth: the document's users, then the
    clones ``<template>+<n>``, cycling through the document's users."""
    ids = [uid for u in cfg.users for uid in u.ids]
    return [*ids, *(f"{ids[k % len(ids)]}+{k + 1:05d}" for k in range(size))][:size]


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda: scenario_from_dict(sweep_doc()),
        lambda: scenario_from_dict(equilibrium_doc()),
        lambda: scenario_from_dict(binding_fee_doc()),
        lambda: load_preset("iwfp-topology"),
        ceiling_doc,
    ],
    ids=["sweep", "equilibrium", "equilibrium_binding_fee", "quota_sweep", "ceiling_sweep"],
)
def test_every_step_matches_the_per_sale_reference(make_cfg):
    ts = check_against_reference(make_cfg())
    assert any(rec.total_value > 0.0 for rec in ts.records)
