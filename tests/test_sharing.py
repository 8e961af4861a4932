"""Settlement tests: frozen worked examples plus randomized property loops.

The numeric constants below were produced by an independent hand computation
(plain arithmetic on the contribution formulas) and then frozen; the library
must reproduce them bit-for-bit within 1e-9.
"""
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from wifimarket.model import TOLERANCE, SaleRecord, Settlement, WfpAccount, WfpKind
from wifimarket.sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    coalition_map,
    ewfp_contribution,
    isp_standalone_revenue,
    iwfp_contribution,
    settle_rows,
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


# --- the settlement kernel against the scalar reference --------------------------


def reference_settle(account, totals, params):
    """The scalar settlement that ``settle_rows`` replaced, kept as its oracle.

    Same contract as ``settle_transaction``: one transaction's ``SaleTotals``
    in, the Settlement and the updated account out.
    """
    if totals.seller is not None and totals.seller != account.id:
        raise ValueError(
            f"sale by {totals.seller!r} settled against account {account.id!r}"
        )
    if not totals.count:
        return Settlement(0.0, 0.0, 0.0, 0.0, 0.0), account

    total, isp_alone = totals.revenue, totals.isp_revenue
    if account.kind is WfpKind.ESTABLISHMENT:
        floor_sum = totals.floor_sum
        denom = max(math.log(floor_sum), params.beta) if floor_sum > 0.0 else params.beta
        wfp_value = totals.spread / denom
    else:
        if isp_alone > total + TOLERANCE:
            raise ValueError(
                f"ISP standalone value {isp_alone} exceeds total revenue {total}"
            )
        surplus = total - isp_alone
        if account.fee > 0.0 and account.settled_share >= account.fee - TOLERANCE:
            wfp_value = 0.0
        elif surplus <= 0.0:
            wfp_value = 0.0
        else:
            omega = account.unused / account.quota if account.quota > 0.0 else 0.0
            raw = omega * math.log(params.alpha * surplus)
            wfp_value = min(max(raw, 0.0), surplus)

    isp_value = isp_alone if wfp_value > 0.0 else total
    wfp_share = 0.5 * wfp_value + 0.5 * (total - isp_value)
    isp_share = 0.5 * isp_value + 0.5 * (total - wfp_value)
    settlement = Settlement(wfp_share, isp_share, total, wfp_value, isp_value)

    if account.kind is WfpKind.ESTABLISHMENT:
        return settlement, replace(
            account, settled_share=account.settled_share + settlement.wfp_share
        )
    headroom = max(account.fee - account.settled_share, 0.0)
    if account.fee > 0.0 and settlement.wfp_share > headroom:
        settlement = replace(
            settlement,
            wfp_share=headroom,
            isp_share=settlement.isp_share + (settlement.wfp_share - headroom),
        )
    return settlement, replace(
        account,
        unused=max(account.unused - totals.volume, 0.0),
        settled_share=account.settled_share + settlement.wfp_share,
    )


SETTLEMENT_FIELDS = ("wfp_share", "isp_share", "total_value", "wfp_value", "isp_value")


def bits(values):
    """Exact, sign-of-zero-aware form of floats, for bit-for-bit comparison."""
    return [float(v).hex() for v in values]


def draw_account(rng, kind):
    if kind is WfpKind.ESTABLISHMENT:
        return WfpAccount(id="w", kind=kind, capacity=10.0)
    quota = rng.choice((0.0, rng.uniform(1.0, 300.0), rng.uniform(1.0, 300.0)))
    fee = rng.choice((0.0, rng.uniform(1.0, 60.0), rng.uniform(1.0, 60.0)))
    return WfpAccount(id="w", kind=kind, quota=quota, fee=fee)


def draw_row(rng, account, beta):
    """One transaction's totals and plan state, drawn to reach every branch."""
    count = rng.choice((0, 1, 2, 3, 5))
    floor_sum = rng.choice((
        0.0, -rng.uniform(0.0, 5.0),  # no floor
        rng.uniform(1e-3, math.exp(beta)),  # ln below beta
        rng.uniform(math.exp(beta), 1e4),  # ln above beta
    ))
    isp_revenue = rng.uniform(0.0, 500.0)
    surplus = rng.choice((
        0.0, -0.5 * TOLERANCE,  # no surplus (within the tolerance)
        rng.uniform(0.0, 1.0),  # alpha * surplus mostly below 1
        rng.uniform(0.0, 400.0),
    ))
    spread = rng.uniform(0.0, 200.0)
    volume = rng.uniform(0.0, 50.0)
    unused = rng.choice((0.0, rng.uniform(0.0, account.quota or 10.0)))  # omega 0
    fee = account.fee
    settled_share = rng.choice((
        0.0,
        fee, fee - 0.5 * TOLERANCE,  # the cycle's cap reached
        rng.uniform(0.0, fee),
        max(fee - rng.uniform(0.0, 5.0), 0.0),  # little headroom: the cap binds
    ))
    totals = (count, isp_revenue + surplus, isp_revenue, spread, floor_sum, volume)
    return totals, unused, settled_share


def settle_batch(account, rows, params):
    """The kernel's columns and the reference's settlements of the same rows."""
    totals = SaleTotals("w", *(np.array(column) for column in zip(*(r[0] for r in rows))))
    unused = np.array([r[1] for r in rows])
    settled_share = np.array([r[2] for r in rows])
    columns = settle_rows(account, totals, params, unused, settled_share)
    references = []
    for row_totals, row_unused, row_settled in rows:
        plan = replace(account, unused=row_unused, settled_share=row_settled)
        one = SaleTotals("w", *row_totals)
        expected, expected_account = reference_settle(plan, one, params)
        settlement, updated = settle_transaction(plan, one, params)
        assert bits(vars(settlement).values()) == bits(vars(expected).values())
        assert bits([updated.unused, updated.settled_share]) == bits(
            [expected_account.unused, expected_account.settled_share]
        )
        references.append(expected)
    return columns, references


def test_kernel_matches_the_scalar_reference_bit_for_bit():
    rng = random.Random(20261018)
    seen = dict.fromkeys((
        "count 0", "floor <= 0", "floor < e^beta", "floor > e^beta", "quota 0", "fee 0",
        "cap reached", "cap binds", "surplus <= 0", "alpha * surplus < 1", "omega 0",
        "negative zero",
    ), 0)
    rows_settled = 0
    for batch in range(600):  # batches of 1, 2 and many rows
        kind = rng.choice((WfpKind.ESTABLISHMENT, WfpKind.INDIVIDUAL))
        params = SharingParams(alpha=rng.choice((1.0, 0.4, 3.0)), beta=rng.choice((2.5, 1.2, 5.0)))
        account = draw_account(rng, kind)
        size = (1, 2, rng.randint(3, 30))[batch % 3]
        rows = [draw_row(rng, account, params.beta) for _ in range(size)]
        columns, references = settle_batch(account, rows, params)
        for name in SETTLEMENT_FIELDS:
            assert bits(getattr(columns, name)) == bits(getattr(r, name) for r in references)
        rows_settled += size

        for ((count, revenue, isp_revenue, _, floor_sum, _), unused, settled), ref in zip(
            rows, references
        ):
            if not count:
                seen["count 0"] += 1
                continue
            if kind is WfpKind.ESTABLISHMENT:
                key = "floor <= 0" if floor_sum <= 0.0 else (
                    "floor < e^beta" if math.log(floor_sum) < params.beta else "floor > e^beta"
                )
                seen[key] += 1
                continue
            surplus = revenue - isp_revenue
            seen["quota 0"] += account.quota == 0.0
            seen["fee 0"] += account.fee == 0.0
            seen["cap reached"] += account.fee > 0.0 and settled >= account.fee - TOLERANCE
            uncapped = 0.5 * ref.wfp_value + 0.5 * (ref.total_value - ref.isp_value)
            seen["cap binds"] += ref.wfp_share < uncapped
            seen["surplus <= 0"] += surplus <= 0.0
            seen["alpha * surplus < 1"] += 0.0 < params.alpha * surplus < 1.0
            seen["omega 0"] += unused == 0.0 and account.quota > 0.0
            seen["negative zero"] += math.copysign(1.0, ref.wfp_value) < 0.0
    assert rows_settled >= 2_000
    assert all(seen.values()), seen


def test_kernel_raises_what_the_scalar_settlement_raised():
    params = SharingParams()
    account = WfpAccount(id="w", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0, fee=20.0)
    plan = np.zeros(3)
    # ISP value above the total on the second of three rows
    totals = SaleTotals(
        "w", np.array([1, 1, 1]), np.array([110.0, 100.0, 90.0]),
        np.array([100.0, 110.0, 80.0]), np.zeros(3), np.zeros(3), np.ones(3),
    )
    with pytest.raises(ValueError, match="ISP standalone value 110.0 exceeds total revenue 100.0"):
        settle_rows(account, totals, params, plan, plan)
    with pytest.raises(ValueError, match="exceeds total revenue"):
        settle_transaction(account, SaleTotals("w", 1, 100.0, 110.0, 0.0, 0.0, 1.0), params)
    # ... but not on a row without sales
    quiet = replace(totals, count=np.array([1, 0, 1]))
    assert settle_rows(account, quiet, params, plan, plan).total_value.tolist() == [110.0, 0.0, 90.0]
    # sales by another seller
    foreign = replace(totals, seller="other", count=np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="'other' settled against account 'w'"):
        settle_rows(account, foreign, params, plan, plan)
