"""Every run mode's settlements against the per-sale reference functions.

The engine settles each provider from its sales' totals, summed over arrays.
These tests rebuild every step's SaleRecord list from the record's per-user
values (users buying at least ``x_floor``, in roster order), settle it with
the list-based ``total_revenue``, ``isp_standalone_revenue``,
``ewfp_contribution`` / ``iwfp_contribution`` and ``shapley_split``, and
require the record's values and shares to match exactly.  The provider fees
are set high enough never to bind, so the reference needs no cap.
"""
from dataclasses import replace

import pytest

from wifimarket.config import EquilibriumMode, QuotaSweepMode, SweepMode, scenario_from_dict
from wifimarket.engine import run_scenario
from wifimarket.model import SaleRecord, Settlement, WfpKind
from wifimarket.presets import load_preset
from wifimarket.sharing import (
    CoalitionValues,
    ewfp_contribution,
    isp_standalone_revenue,
    iwfp_contribution,
    shapley_split,
    total_revenue,
)

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
    "solver": {"sigma0": 0.5, "max_iters": 50},
    "sharing": {"alpha": 1.3, "beta": 2.5},
}


def sweep_doc():
    return dict(TWO_PROVIDERS, mode={
        "kind": "sweep", "swept_party": "wfp", "start": 8, "step": 3, "count": 6,
        "user_growth": 4, "allocation": "best_response",
    })


def equilibrium_doc():
    return dict(TWO_PROVIDERS, solve_isp=True, mode={
        "kind": "equilibrium", "ticks": 4, "user_growth": 3,
        "subscriber_loads": {"AB": [30, 40, 20, 35], "BC": [30, 20, 35, 25]},
    })


def ceiling_doc():
    doc = load_preset("iwfp-ceiling")
    return replace(doc, mode=replace(doc.mode, price_step=7.0))


def reference_settlement(sales, account, params):
    """One provider's transaction settled from the list of its sales."""
    if not sales:
        return Settlement(0.0, 0.0, 0.0, 0.0, 0.0)
    total = total_revenue(sales)
    isp_alone = isp_standalone_revenue(sales)
    if account.kind is WfpKind.ESTABLISHMENT:
        wfp_value = ewfp_contribution(sales, params)
    else:
        wfp_value = iwfp_contribution(total, isp_alone, account, params)
    isp_value = isp_alone if wfp_value > 0.0 else total
    return shapley_split(CoalitionValues(total, wfp_value, isp_value))


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
    provider_of = {u.id: u.wfp for u in cfg.users}  # growth clones: "<template>+<n>"
    running = isinstance(cfg.mode, (SweepMode, EquilibriumMode))
    accounts = {w.id: w for w in cfg.wfps}
    for rec in ts.records:
        providers = list(rec.lambda_by_wfp)
        per_provider = []
        for wid in providers:
            account = accounts[wid] if running else snapshot_account(cfg, rec, wid)
            sales = [
                SaleRecord(
                    user=uid,
                    wfp=wid,
                    x=rec.x_by_user[uid],
                    min_price=rec.g_by_user[uid],
                    wfp_price=rec.lambda_by_wfp[wid],
                    final_price=rec.final_price_by_user[uid],
                )
                for uid in rec.g_by_user
                if provider_of[uid.split("+")[0]] == wid
                and rec.x_by_user[uid] >= cfg.solver.x_floor
            ]
            settlement = reference_settlement(sales, account, cfg.sharing)
            per_provider.append(settlement)
            if running:
                ledger = {"settled_share": account.settled_share + settlement.wfp_share}
                if account.kind is WfpKind.INDIVIDUAL:
                    ledger["unused"] = max(account.unused - sum(s.x for s in sales), 0.0)
                accounts[wid] = replace(account, **ledger)
        for name in ("total_value", "wfp_value", "isp_value", "wfp_share", "isp_share"):
            expected = sum(getattr(s, name) for s in per_provider)
            assert getattr(rec, name) == expected, (rec.series, rec.step, name)
        if rec.total_value > 0.0:
            assert rec.wfp_share_pct == 100.0 * rec.wfp_share / rec.total_value
            assert rec.isp_share_pct == 100.0 - rec.wfp_share_pct
        # Prices and allocations iterate provider by provider (the SVG averages
        # the prices in this order), floors in roster order.
        grouped = sorted(
            rec.g_by_user, key=lambda uid: providers.index(provider_of[uid.split("+")[0]])
        )
        assert list(rec.final_price_by_user) == grouped
        assert list(rec.x_by_user) == grouped
    return ts


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda: scenario_from_dict(sweep_doc()),
        lambda: scenario_from_dict(equilibrium_doc()),
        lambda: load_preset("iwfp-topology"),
        ceiling_doc,
    ],
    ids=["sweep", "equilibrium", "quota_sweep", "ceiling_sweep"],
)
def test_every_step_matches_the_per_sale_reference(make_cfg):
    ts = check_against_reference(make_cfg())
    assert any(rec.total_value > 0.0 for rec in ts.records)
