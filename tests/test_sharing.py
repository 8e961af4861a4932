"""Settlement tests: frozen worked examples plus randomized property loops.

The numeric constants below were produced by an independent hand computation
(plain arithmetic on the contribution formulas) and then frozen; the library
must reproduce them bit-for-bit within 1e-9.
"""
import math
import random

import pytest

from wifimarket.model import SaleRecord, WfpAccount, WfpKind
from wifimarket.sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    coalition_map,
    ewfp_contribution,
    isp_standalone_revenue,
    iwfp_contribution,
    settle_transaction,
    shapley_permutation,
    shapley_split,
    total_revenue,
)


def sale(user, x, g, final, wfp="ew"):
    return SaleRecord(
        user=user, wfp=wfp, x=x, min_price=g, wfp_price=final, final_price=final
    )


# --- revenue primitives -------------------------------------------------------


def test_total_revenue_two_sales():
    sales = [sale("u1", 10.0, 10.0, 15.0), sale("u2", 10.0, 90.0, 91.0)]
    assert total_revenue(sales) == pytest.approx(1060.0, abs=1e-9)


def test_isp_standalone_revenue_two_sales():
    sales = [sale("u1", 10.0, 10.0, 15.0), sale("u2", 10.0, 90.0, 91.0)]
    assert isp_standalone_revenue(sales) == pytest.approx(1000.0, abs=1e-9)


def test_empty_sales_are_worth_nothing():
    assert total_revenue([]) == 0.0
    assert isp_standalone_revenue([]) == 0.0


# --- establishment contribution ------------------------------------------------


def test_ewfp_contribution_log_denominator():
    # spread = 60, floor sum = 100, ln(100) > beta -> 60 / ln(100)
    sales = [sale("u1", 10.0, 10.0, 15.0), sale("u2", 10.0, 90.0, 91.0)]
    c = ewfp_contribution(sales, SharingParams())
    assert c == pytest.approx(13.028834457097554, abs=1e-9)


def test_ewfp_contribution_beta_floor():
    # floor sum = 2, ln(2) < beta=2.5 -> spread 10 / 2.5 = 4 exactly
    sales = [sale("u1", 4.0, 2.0, 4.5)]
    c = ewfp_contribution(sales, SharingParams())
    assert c == pytest.approx(4.0, abs=1e-9)


def test_ewfp_contribution_no_sales():
    assert ewfp_contribution([], SharingParams()) == 0.0


def test_ewfp_contribution_rejects_sale_below_floor():
    sales = [sale("u1", 1.0, 10.0, 9.0)]
    with pytest.raises(ValueError):
        ewfp_contribution(sales, SharingParams())


def test_ewfp_contribution_shrinks_as_floors_rise():
    # same spread and volumes, dearer floors -> never a larger credit
    params = SharingParams()
    rng = random.Random(20240814)
    for _ in range(200):
        n = rng.randint(1, 6)
        floors = [rng.uniform(0.2, 10.0) for _ in range(n)]
        spreads = [rng.uniform(0.0, 20.0) for _ in range(n)]
        volumes = [rng.uniform(0.1, 10.0) for _ in range(n)]
        previous = math.inf
        for scale in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            sales = [
                sale(f"u{i}", volumes[i], floors[i] * scale, floors[i] * scale + spreads[i])
                for i in range(n)
            ]
            c = ewfp_contribution(sales, params)
            assert c <= previous + 1e-9
            previous = c


# --- individual contribution ----------------------------------------------------


def test_iwfp_contribution_unused_weighting():
    # omega = 150/200, surplus = 10 -> 0.75 * ln(10)
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=200.0, unused=150.0, fee=1000.0
    )
    c = iwfp_contribution(110.0, 100.0, account, SharingParams())
    assert c == pytest.approx(1.7269388197455344, abs=1e-9)


def test_iwfp_contribution_clamped_to_surplus():
    # alpha=100 makes ln(alpha * 1) = 4.6 > surplus 1 -> clamp to 1
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0, fee=1000.0
    )
    c = iwfp_contribution(11.0, 10.0, account, SharingParams(alpha=100.0))
    assert c == pytest.approx(1.0, abs=1e-9)


def test_iwfp_contribution_negative_log_clamps_to_zero():
    # surplus 0.5 -> ln(0.5) < 0 -> no credit
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0, fee=1000.0
    )
    assert iwfp_contribution(10.5, 10.0, account, SharingParams()) == 0.0


def test_iwfp_contribution_zero_when_plan_used_up():
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=0.0, fee=1000.0
    )
    assert iwfp_contribution(110.0, 100.0, account, SharingParams()) == 0.0


def test_iwfp_contribution_zero_once_fee_is_reached():
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0,
        fee=20.0, settled_share=20.0,
    )
    assert iwfp_contribution(110.0, 100.0, account, SharingParams()) == 0.0


def test_iwfp_contribution_rejects_establishment_account():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=10.0)
    with pytest.raises(ValueError):
        iwfp_contribution(110.0, 100.0, account, SharingParams())


def test_iwfp_contribution_rejects_isp_value_above_total():
    account = WfpAccount(id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0)
    with pytest.raises(ValueError):
        iwfp_contribution(100.0, 110.0, account, SharingParams())


def test_sharing_params_validate():
    with pytest.raises(ValueError):
        SharingParams(alpha=0.0)
    with pytest.raises(ValueError):
        SharingParams(beta=1.0)


# --- the split -----------------------------------------------------------------


def test_shapley_split_simple_numbers():
    split = shapley_split(CoalitionValues(total_value=10.0, wfp_value=4.0, isp_value=6.0))
    assert split.wfp_share == pytest.approx(4.0, abs=1e-9)
    assert split.isp_share == pytest.approx(6.0, abs=1e-9)


def test_shapley_split_matches_permutation_oracle():
    rng = random.Random(99)
    for _ in range(10_000):
        wfp_value = rng.uniform(0.0, 100.0)
        isp_value = rng.uniform(0.0, 100.0)
        total = wfp_value + isp_value + rng.uniform(0.0, 50.0)
        game = CoalitionValues(total, wfp_value, isp_value)
        split = shapley_split(game)
        oracle_w, oracle_i = shapley_permutation(coalition_map(game))
        assert split.wfp_share == pytest.approx(oracle_w, abs=1e-9)
        assert split.isp_share == pytest.approx(oracle_i, abs=1e-9)
        assert split.wfp_share + split.isp_share == pytest.approx(total, abs=1e-9)


def test_shapley_permutation_three_players():
    # the ordering oracle is not limited to two players; glove-game sanity
    value_fn = {
        frozenset(): 0.0,
        frozenset({"a"}): 0.0,
        frozenset({"b"}): 0.0,
        frozenset({"c"}): 0.0,
        frozenset({"a", "b"}): 0.0,
        frozenset({"a", "c"}): 1.0,
        frozenset({"b", "c"}): 1.0,
        frozenset({"a", "b", "c"}): 1.0,
    }
    a, b, c = shapley_permutation(value_fn, players=("a", "b", "c"))
    assert a == pytest.approx(1 / 6, abs=1e-9)
    assert b == pytest.approx(1 / 6, abs=1e-9)
    assert c == pytest.approx(4 / 6, abs=1e-9)


def test_shapley_permutation_missing_subset():
    with pytest.raises(ValueError, match="missing subset"):
        shapley_permutation({frozenset(): 0.0})


# --- settling whole transactions -------------------------------------------------


def test_settle_establishment_transaction_frozen_values():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=100.0)
    sales = [sale("u1", 10.0, 10.0, 15.0), sale("u2", 10.0, 90.0, 91.0)]
    settlement, updated = settle_transaction(account, SaleTotals.of(sales), SharingParams())
    assert settlement.total_value == pytest.approx(1060.0, abs=1e-9)
    assert settlement.wfp_value == pytest.approx(13.028834457097554, abs=1e-9)
    assert settlement.isp_value == pytest.approx(1000.0, abs=1e-9)
    assert settlement.wfp_share == pytest.approx(36.51441722854878, abs=1e-9)
    assert settlement.isp_share == pytest.approx(1023.4855827714513, abs=1e-9)
    assert updated.settled_share == pytest.approx(36.51441722854878, abs=1e-9)


def test_settle_individual_transaction_frozen_values():
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=200.0, unused=150.0, fee=1000.0
    )
    # one sale: volume 10 at final 11 over a floor of 10 -> surplus 10
    sales = [sale("u1", 10.0, 10.0, 11.0, wfp="iw")]
    settlement, updated = settle_transaction(account, SaleTotals.of(sales), SharingParams())
    assert settlement.wfp_value == pytest.approx(1.7269388197455344, abs=1e-9)
    assert settlement.wfp_share == pytest.approx(5.863469409872767, abs=1e-9)
    assert settlement.isp_share == pytest.approx(104.13653059012722, abs=1e-9)
    assert updated.unused == pytest.approx(140.0, abs=1e-9)
    assert updated.settled_share == pytest.approx(5.863469409872767, abs=1e-9)


def test_settle_fee_cap_truncates_and_hands_overflow_to_isp():
    """Three identical transactions against a 20-unit cycle cap.

    Frozen sequence: full share, truncated share landing exactly on the cap,
    then nothing; the ISP absorbs the overflow so every round still sums to
    the transaction total.
    """
    params = SharingParams()
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=100.0, fee=20.0
    )
    rounds = []
    for _ in range(3):
        sales = [sale("u1", 5.0, 2.0, 4.0, wfp="iw"), sale("u2", 5.0, 2.0, 4.0, wfp="iw")]
        settlement, account = settle_transaction(account, SaleTotals.of(sales), params)
        rounds.append(settlement)
        assert settlement.wfp_share + settlement.isp_share == pytest.approx(
            settlement.total_value, abs=1e-9
        )
    assert rounds[0].wfp_share == pytest.approx(11.497866136776995, abs=1e-9)
    assert rounds[0].isp_share == pytest.approx(28.502133863223005, abs=1e-9)
    assert rounds[1].wfp_share == pytest.approx(8.502133863223005, abs=1e-9)
    assert rounds[1].isp_share == pytest.approx(31.49786613677699, abs=1e-9)
    assert rounds[2].wfp_share == pytest.approx(0.0, abs=1e-9)
    assert rounds[2].isp_share == pytest.approx(40.0, abs=1e-9)
    assert account.settled_share == pytest.approx(20.0, abs=1e-9)
    assert account.unused == pytest.approx(70.0, abs=1e-9)


def test_settle_empty_transaction_is_a_no_op():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=10.0)
    settlement, updated = settle_transaction(account, SaleTotals.of([]), SharingParams())
    assert settlement.total_value == 0.0
    assert settlement.wfp_share == 0.0
    assert settlement.isp_share == 0.0
    assert updated == account


def test_settle_rejects_foreign_sales():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=10.0)
    with pytest.raises(ValueError, match="settled against"):
        settle_transaction(
            account, SaleTotals.of([sale("u1", 1.0, 1.0, 2.0, wfp="other")]), SharingParams()
        )


def test_settle_is_efficient_on_random_transactions():
    rng = random.Random(7)
    params = SharingParams()
    for _ in range(2_000):
        kind = rng.choice((WfpKind.ESTABLISHMENT, WfpKind.INDIVIDUAL))
        if kind is WfpKind.ESTABLISHMENT:
            account = WfpAccount(id="w", kind=kind, capacity=rng.uniform(1.0, 100.0))
        else:
            quota = rng.uniform(1.0, 200.0)
            account = WfpAccount(
                id="w", kind=kind, quota=quota,
                unused=rng.uniform(0.0, quota),
                fee=rng.uniform(0.0, 50.0),
            )
        sales = []
        for k in range(rng.randint(1, 5)):
            g = rng.uniform(0.5, 30.0)
            f = g + rng.uniform(0.0, 20.0)
            sales.append(sale(f"u{k}", rng.uniform(0.01, 10.0), g, f, wfp="w"))
        settlement, updated = settle_transaction(account, SaleTotals.of(sales), params)
        assert settlement.wfp_share + settlement.isp_share == pytest.approx(
            settlement.total_value, abs=1e-9
        )
        assert settlement.wfp_share >= -1e-9
        assert settlement.isp_share >= -1e-9
        if account.kind is WfpKind.INDIVIDUAL and account.fee > 0.0:
            assert updated.settled_share <= account.fee + 1e-9
