"""Acceptance battery: thirteen gates the package must clear.

Each test prints one `[criterion NN] PASS/FAIL - ...` line (routed past
pytest's capture so the lines always land in the terminal or the tee'd log)
and then asserts, so a red criterion is visible both ways.  Preset runs are
module-scoped fixtures: every scenario executes once no matter how many
criteria inspect it.
"""
import math
import sys

import pytest

from wifimarket.checks import (
    check_additivity,
    check_best_response_grid,
    check_capacity_price_convergence,
    check_efficiency,
    check_isp_floor_guarantee,
    check_oracle_equivalence,
    check_symmetry,
    check_usage_monotone_share,
    check_zero_contribution,
)
from wifimarket.cli import main as cli_main
from wifimarket.engine import run_scenario
from wifimarket.model import SaleRecord, WfpAccount, WfpKind
from wifimarket.presets import load_preset
from wifimarket.sharing import SaleTotals, SharingParams, settle_transaction

SEED = 20260814


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__)
    assert ok, line


@pytest.fixture(scope="module")
def scenario1():
    return run_scenario(load_preset("scenario1"))


@pytest.fixture(scope="module")
def scenario2():
    return run_scenario(load_preset("scenario2"))


@pytest.fixture(scope="module")
def scenario3_low():
    return run_scenario(load_preset("scenario3-low"))


@pytest.fixture(scope="module")
def scenario3_high():
    return run_scenario(load_preset("scenario3-high"))


@pytest.fixture(scope="module")
def topology():
    return run_scenario(load_preset("iwfp-topology"))


@pytest.fixture(scope="module")
def ceiling():
    return run_scenario(load_preset("iwfp-ceiling"))


def test_criterion_01_split_exactness():
    efficiency = check_efficiency(SEED, trials=10_000)
    oracle = check_oracle_equivalence(SEED + 1, trials=10_000)
    ok = efficiency.passed and oracle.passed
    _report(1, ok, f"shares sum to the total and match the ordering oracle "
                   f"on 10000 games ({efficiency.detail}; {oracle.detail})")


def test_criterion_02_symmetry_dummy_additivity():
    symmetry = check_symmetry(SEED + 2, trials=10_000)
    dummy = check_zero_contribution(SEED + 3, trials=10_000)
    additivity = check_additivity(SEED + 4, trials=10_000)
    ok = symmetry.passed and dummy.passed and additivity.passed
    _report(2, ok, "symmetry, zero-contribution, and additivity suites "
                   "pass on 10000 instances each at 1e-9")


def test_criterion_03_isp_never_below_standalone_revenue():
    result = check_isp_floor_guarantee(SEED + 5, trials=10_000)
    _report(3, result.passed, result.detail)


def test_criterion_04_individual_share_monotone_in_usage():
    result = check_usage_monotone_share(SEED + 6, trials=1_000, steps=20)
    _report(4, result.passed, result.detail + "; zero share at zero unused")


def test_criterion_05_best_response_matches_grid_search():
    result = check_best_response_grid(SEED + 7, trials=1_000)
    _report(5, result.passed, result.detail)


def test_criterion_06_desk_scale_price_convergence():
    result = check_capacity_price_convergence()
    _report(6, result.passed, result.detail)


def test_criterion_07_isp_price_sweep_keeps_isp_majority(scenario1):
    records = scenario1.records
    n_ok = len(records) == 300
    isp_majority = all(r.isp_share_pct > 50.0 for r in records)
    wfp_positive = all(r.wfp_share_pct > 0.0 for r in records)
    last50 = [r.wfp_share_pct for r in records[-50:]]
    max_step_change = max(
        abs(b - a) for a, b in zip(last50, last50[1:])
    )
    settled = max_step_change < 0.1
    ok = n_ok and isp_majority and wfp_positive and settled
    _report(
        7, ok,
        f"300 increments, ISP share always > 50%, provider share always > 0, "
        f"largest per-increment change over the last 50 = {max_step_change:.4f} pp",
    )


def test_criterion_08_provider_price_sweep_crosses_once(scenario2):
    records = scenario2.records
    crossings = scenario2.summary["crossings"]
    crossover = int(scenario2.summary["crossover_step"])
    after = records[crossover:] if crossover >= 0 else []
    provider_leads_after = bool(after) and all(
        r.wfp_share_pct > r.isp_share_pct for r in after
    )
    terminal = records[-1].wfp_share_pct
    last50 = [r.wfp_share_pct for r in records[-50:]]
    drift = max(last50) - min(last50)
    ok = (
        crossings == 1.0
        and provider_leads_after
        and 60.0 <= terminal <= 80.0
        and drift < 0.5
    )
    _report(
        8, ok,
        f"shares cross exactly once at increment {crossover}; provider leads "
        f"afterwards; terminal share {terminal:.3f}% in [60, 80]; "
        f"last-50 drift {drift:.4f} pp",
    )


def test_criterion_09_population_growth_regimes(scenario3_low, scenario3_high):
    # slack regime: everything is flat because capacity never binds
    low = scenario3_low.records
    utilities = [r.mean_utility for r in low]
    prices = sorted(
        {p for r in low for p in r.final_price_by_user.values()}
    )
    final_demand = sum(low[-1].x_by_user.values())
    low_ok = (
        max(utilities) - min(utilities) < 1e-9
        and len(prices) == 1
        and abs(prices[0] - 15.0) < 1e-9
        and final_demand < 1000.0
    )

    # growth regime: the provider's relative take rises until users walk away
    high = scenario3_high.records
    first_zero = int(scenario3_high.summary["first_zero_transaction_step"])
    zero_exists = first_zero >= 0 and high[first_zero].total_value == 0.0
    ratios = [
        r.wfp_share / r.isp_share
        for r in high[:first_zero]
        if r.isp_share > 0.0
    ]
    ratio_monotone = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = low_ok and zero_exists and ratio_monotone
    _report(
        9, ok,
        f"slack regime flat (utility range {max(utilities) - min(utilities):.2e}, "
        f"price 15, demand {final_demand:.1f} < 1000); share ratio non-decreasing "
        f"for {len(ratios)} growth ticks; transactions cease at tick {first_zero}",
    )


def test_criterion_10_individual_topology_study(topology):
    by_series = topology.by_series()
    expected_floors = {"iwfp1": 30.0, "iwfp2": 3.0, "iwfp3": 3.0, "iwfp4": 4.0}
    floors_ok = True
    for wid, expected in expected_floors.items():
        for rec in by_series[wid].records:
            floors_ok &= all(g == expected for g in rec.g_by_user.values())
    maxima = {wid: topology.summary[f"max_share_pct.{wid}"] for wid in expected_floors}
    small_ok = all(
        r.wfp_share_pct < 5.0 for r in by_series["iwfp1"].records
    )
    second_largest = all(
        maxima["iwfp2"] > maxima[w] for w in ("iwfp1", "iwfp3", "iwfp4")
    )
    isp_majority = all(r.isp_share_pct > 50.0 for r in topology.records)
    monotone = all(
        b.wfp_share_pct <= a.wfp_share_pct + 1e-9
        for wid in expected_floors
        for a, b in zip(by_series[wid].records, by_series[wid].records[1:])
    )
    ok = floors_ok and small_ok and second_largest and isp_majority and monotone
    _report(
        10, ok,
        f"path floors exactly (30, 3, 3, 4); first provider stays under 5%; "
        f"second is the largest (maxima "
        f"{', '.join(f'{maxima[w]:.2f}%' for w in sorted(maxima))}); ISP keeps "
        f"the majority everywhere; every share non-increasing in usage",
    )


def test_criterion_11_individual_share_ceiling(ceiling):
    labels = ("usage_0", "usage_25", "usage_50", "usage_75")
    by_series = ceiling.by_series()
    peak = max(r.wfp_share_pct for r in ceiling.records)
    cap_ok = peak <= 50.5
    ordered = True
    for fresher, more_used in zip(labels, labels[1:]):
        for a, b in zip(by_series[fresher].records, by_series[more_used].records):
            ordered &= b.wfp_share_pct <= a.wfp_share_pct + 1e-9
    ok = cap_ok and ordered
    _report(
        11, ok,
        f"peak provider share {peak:.3f}% <= 50.5% across the price sweep; "
        f"curves pointwise ordered by usage (least used on top)",
    )


def test_criterion_12_billing_cycle_cap():
    params = SharingParams()
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=100.0, fee=20.0
    )
    cumulative = 0.0
    efficient = True
    shares = []
    for _ in range(3):
        sales = [
            SaleRecord(user=u, wfp="iw", x=5.0, min_price=2.0, wfp_price=4.0, final_price=4.0)
            for u in ("u1", "u2")
        ]
        settlement, account = settle_transaction(account, SaleTotals.of(sales), params)
        cumulative += settlement.wfp_share
        shares.append(settlement.wfp_share)
        efficient &= (
            abs(settlement.wfp_share + settlement.isp_share - settlement.total_value)
            <= 1e-9
        )
    capped = cumulative <= 20.0 + 1e-9 and account.settled_share <= 20.0 + 1e-9
    truncated = abs(shares[1] - 8.502133863223005) <= 1e-9 and shares[2] == 0.0
    ok = capped and efficient and truncated
    _report(
        12, ok,
        f"cumulative provider take {cumulative:.6f} never exceeds the 20-unit fee; "
        f"every transaction (incl. the truncated one) still splits efficiently",
    )


def test_criterion_13_byte_identical_reruns(tmp_path):
    ok = True
    details = []
    for preset in ("scenario1", "iwfp-topology"):
        paths = []
        for attempt in ("first", "second"):
            out = tmp_path / preset / attempt
            code = cli_main(
                ["preset", preset, "--out", str(out), "--formats", "csv",
                 "--seed", "42"]
            )
            ok &= code == 0
            paths.append(out / f"{preset}.csv")
        identical = paths[0].read_bytes() == paths[1].read_bytes()
        ok &= identical
        details.append(f"{preset}: {'identical' if identical else 'DIFFER'}")
    _report(13, ok, f"same seed, byte-identical CSV ({'; '.join(details)})")
