"""Settlement tests: frozen worked examples plus randomized property loops.

The numeric constants below were produced by an independent hand computation
(plain arithmetic on the contribution formulas) and then frozen; the library
must reproduce them bit-for-bit within 1e-9.
"""
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from settlement_oracle import SETTLEMENT_FIELDS, bits, reference_settle, totals_of

from wifimarket import sharing
from wifimarket.config import scenario_from_dict
from wifimarket.engine import run_scenario
from wifimarket.model import TOLERANCE, WfpAccount, WfpKind
from wifimarket.sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    coalition_map,
    ewfp_contribution,
    iwfp_contribution,
    settle_rows,
    settle_transaction,
    shapley_permutation,
    shapley_split,
)


NO_SALES = SaleTotals(0, 0.0, 0.0, 0.0, 0.0, 0.0)


# --- revenue sums, as the engine takes them from a step's arrays ----------------


def settle_two_sales(x_floor=1e-6):
    """A one-step best-response sweep's settlement, by Settlement field: one establishment
    sells two boxed users 10 units each, at 15 over a floor of 10 (route AB) and at 91
    over a floor of 90 (route AB, BC); a purchase below ``x_floor`` is cut to zero."""
    boxed = {"wfp": "ew", "x_min": 10, "x_max": 10}
    doc = {
        "links": [{"id": "AB", "capacity": 100, "price": 10},
                  {"id": "BC", "capacity": 100, "price": 80}],
        "wfps": [{"id": "ew", "kind": "establishment", "capacity": 100, "min_profit": 1}],
        "users": [dict(boxed, id="a", path=["AB"]), dict(boxed, id="b", path=["AB", "BC"])],
        "solver": {"x_floor": x_floor},
        "mode": {"kind": "sweep", "swept_party": "wfp", "start": 15, "count": 1,
                 "allocation": "best_response"},
    }
    (rec,) = run_scenario(scenario_from_dict(doc)).records
    return {name: getattr(rec, name) for name in SETTLEMENT_FIELDS}


def test_total_revenue_two_sales():
    assert settle_two_sales()["total_value"] == pytest.approx(1060.0, abs=1e-9)


def test_isp_standalone_revenue_two_sales():
    assert settle_two_sales()["isp_value"] == pytest.approx(1000.0, abs=1e-9)


def test_empty_sales_are_worth_nothing():
    # both shares below the solver's x_floor: nothing is sold
    assert set(settle_two_sales(x_floor=20.0).values()) == {0.0}


# --- establishment contribution ------------------------------------------------


def test_ewfp_contribution_log_denominator():
    # spread = 60, floor sum = 100, ln(100) > beta -> 60 / ln(100)
    totals = totals_of((10.0, 10.0, 15.0), (10.0, 90.0, 91.0))
    c = ewfp_contribution(totals, SharingParams())
    assert c == pytest.approx(13.028834457097554, abs=1e-9)


def test_ewfp_contribution_beta_floor():
    # floor sum = 2, ln(2) < beta=2.5 -> spread 10 / 2.5 = 4 exactly
    c = ewfp_contribution(totals_of((4.0, 2.0, 4.5)), SharingParams())
    assert c == pytest.approx(4.0, abs=1e-9)


def test_ewfp_contribution_no_sales():
    assert ewfp_contribution(NO_SALES, SharingParams()) == 0.0


def test_sale_totals_len_is_the_sale_count():
    assert len(SaleTotals(3, 30.0, 20.0, 10.0, 6.0, 3.0)) == 3
    assert len(NO_SALES) == 0


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
            totals = totals_of(*(
                (volumes[i], floors[i] * scale, floors[i] * scale + spreads[i])
                for i in range(n)
            ))
            c = ewfp_contribution(totals, params)
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


def test_iwfp_contribution_weights_a_plan_of_under_one_unit_alike():
    # omega = 0.375 / 0.5 = 150 / 200, so the same 0.75 * ln(10) as above
    account = WfpAccount(
        id="iw", kind=WfpKind.INDIVIDUAL, quota=0.5, unused=0.375, fee=1000.0
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
    for settled_share in (20.0, 20.0 - TOLERANCE):  # reached to within the tolerance
        account = WfpAccount(
            id="iw", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0,
            fee=20.0, settled_share=settled_share,
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
    totals = totals_of((10.0, 10.0, 15.0), (10.0, 90.0, 91.0))
    settlement, updated = settle_transaction(account, totals, SharingParams())
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
    totals = totals_of((10.0, 10.0, 11.0))
    settlement, updated = settle_transaction(account, totals, SharingParams())
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
        totals = totals_of((5.0, 2.0, 4.0), (5.0, 2.0, 4.0))
        settlement, account = settle_transaction(account, totals, params)
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
    settlement, updated = settle_transaction(account, NO_SALES, SharingParams())
    assert settlement.total_value == 0.0
    assert settlement.wfp_share == 0.0
    assert settlement.isp_share == 0.0
    assert updated == account


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
            sales.append((rng.uniform(0.01, 10.0), g, f))
        settlement, updated = settle_transaction(account, totals_of(*sales), params)
        assert settlement.wfp_share + settlement.isp_share == pytest.approx(
            settlement.total_value, abs=1e-9
        )
        assert settlement.wfp_share >= -1e-9
        assert settlement.isp_share >= -1e-9
        if account.kind is WfpKind.INDIVIDUAL and account.fee > 0.0:
            assert updated.settled_share <= account.fee + 1e-9


# --- the settlement kernel against the scalar reference --------------------------


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
    totals = SaleTotals(*(np.array(column) for column in zip(*(r[0] for r in rows))))
    unused = np.array([r[1] for r in rows])
    settled_share = np.array([r[2] for r in rows])
    columns = settle_rows(account, totals, params, unused, settled_share)
    references = []
    for row_totals, row_unused, row_settled in rows:
        plan = replace(account, unused=row_unused, settled_share=row_settled)
        one = SaleTotals(*row_totals)
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
        np.array([1, 1, 1]), np.array([110.0, 100.0, 90.0]),
        np.array([100.0, 110.0, 80.0]), np.zeros(3), np.zeros(3), np.ones(3),
    )
    with pytest.raises(ValueError, match="ISP standalone value 110.0 exceeds total revenue 100.0"):
        settle_rows(account, totals, params, plan, plan)
    with pytest.raises(ValueError, match="exceeds total revenue"):
        settle_transaction(account, SaleTotals(1, 100.0, 110.0, 0.0, 0.0, 1.0), params)
    # ... but not on a row without sales
    quiet = replace(totals, count=np.array([1, 0, 1]))
    assert settle_rows(account, quiet, params, plan, plan).total_value.tolist() == [110.0, 0.0, 90.0]


def test_an_isp_value_the_tolerance_above_the_total_is_no_surplus_and_no_error():
    account = WfpAccount(id="w", kind=WfpKind.INDIVIDUAL, quota=50.0, unused=50.0, fee=20.0)
    assert iwfp_contribution(1.0, 1.0 + TOLERANCE, account, SharingParams()) == 0.0
    with pytest.raises(ValueError, match="exceeds total revenue"):
        iwfp_contribution(1.0, 1.0 + 2 * TOLERANCE, account, SharingParams())


# --- (S,) sums against L rows of plan state ---------------------------------------


def test_broadcast_kernel_matches_one_call_per_level_bit_for_bit():
    rng = random.Random(20261019)
    seen = dict.fromkeys(
        ("count 0", "cap on some levels only", "negative zero", "column", "shared count 0"), 0)
    for batch in range(300):
        kind = rng.choice((WfpKind.ESTABLISHMENT, WfpKind.INDIVIDUAL))
        params = SharingParams(alpha=rng.choice((1.0, 0.4, 3.0)), beta=rng.choice((2.5, 1.2, 5.0)))
        account = draw_account(rng, kind)
        steps, levels = rng.randint(1, 12), rng.randint(1, 5)
        totals = SaleTotals(*(np.array(column) for column in zip(
            *(draw_row(rng, account, params.beta)[0] for _ in range(steps))
        )))
        plan = [[draw_row(rng, account, params.beta)[1:] for _ in range(steps)]
                for _ in range(levels)]
        unused, settled_share = np.moveaxis(np.array(plan), 2, 0)
        if batch % 3 == 0:  # one plan state per level, every step: an (L, 1) column
            unused, settled_share = unused[:, :1], settled_share[:, :1]
            seen["column"] += 1
        columns = settle_rows(account, totals, params, unused, settled_share)
        # the count and the three price-independent sums as scalars every row shares
        shared = {"count": int(totals.count[0]), "isp_revenue": totals.isp_revenue[0],
                  "floor_sum": totals.floor_sum[0], "volume": totals.volume[0]}
        revenue = shared["isp_revenue"] + (totals.revenue - totals.isp_revenue)
        scalar = settle_rows(account, replace(totals, revenue=revenue, **shared), params,
                             unused, settled_share)
        full = replace(totals, revenue=revenue, **{k: np.full(steps, v) for k, v in shared.items()})
        full = settle_rows(account, full, params, unused, settled_share)
        for name in SETTLEMENT_FIELDS:
            assert getattr(scalar, name).shape == getattr(full, name).shape == (levels, steps)
            assert bits(getattr(scalar, name).ravel()) == bits(getattr(full, name).ravel())
        seen["shared count 0"] += shared["count"] == 0
        if kind is WfpKind.INDIVIDUAL:  # which never reads the spread
            shared["spread"] = 0.0
        unused, settled_share = np.broadcast_arrays(unused, settled_share, totals.count)[:2]
        for level in range(levels):
            one = settle_rows(account, totals, params, unused[level], settled_share[level])
            # 1-D plan state with the shared scalar sums and a revenue column
            one_shared = settle_rows(account, replace(totals, revenue=revenue, **shared), params,
                                     unused[level], settled_share[level])
            for name in SETTLEMENT_FIELDS:
                assert getattr(columns, name).shape == (levels, steps)
                assert bits(getattr(columns, name)[level]) == bits(getattr(one, name))
                assert getattr(one_shared, name).shape == (steps,)
                assert bits(getattr(one_shared, name)) == bits(getattr(full, name)[level])
            seen["negative zero"] += (np.signbit(one.wfp_value) & (totals.count > 0)).any()
        seen["count 0"] += (totals.count == 0).any()
        if kind is WfpKind.INDIVIDUAL and account.fee > 0.0:
            reached = settled_share >= account.fee - TOLERANCE
            seen["cap on some levels only"] += (reached.any(0) & ~reached.all(0)).any()
    assert all(seen.values()), seen


def test_broadcast_kernel_takes_each_log_once(monkeypatch):
    logs = []
    counted = SimpleNamespace(log=lambda v: logs.append(v) or math.log(v))
    monkeypatch.setattr(sharing, "math", counted)
    account = WfpAccount(id="w", kind=WfpKind.INDIVIDUAL, quota=50.0, fee=20.0)
    # surpluses 0.5, 0.25, 40 (no sales) and 0.75 over the ISP's 10
    totals = SaleTotals(np.array([1, 1, 0, 1]), np.array([10.5, 10.25, 50.0, 10.75]),
                        np.full(4, 10.0), np.zeros(4), np.zeros(4), np.ones(4))
    # the first level has reached the fee but at the last step, the second at the first
    settled_share = np.array([[20.0, 20.0, 20.0, 0.0], [20.0, 0.0, 0.0, 0.0]])
    unused = np.array([[50.0], [0.0]])  # the second level's omega is 0
    columns = settle_rows(account, totals, SharingParams(), unused, settled_share)
    assert logs == [0.25, 0.75]  # once each, at the only steps any level earns from
    # omega 0 times a negative log: -0.0, as one level's call returns it
    assert bits(columns.wfp_value.ravel()) == bits([0.0] * 5 + [-0.0, 0.0, -0.0])


def test_broadcast_kernel_raises_once_what_one_level_raises():
    account = WfpAccount(id="w", kind=WfpKind.INDIVIDUAL, quota=50.0, fee=20.0)
    totals = SaleTotals(
        np.array([1, 1, 1]), np.array([110.0, 100.0, 90.0]),
        np.array([100.0, 110.0, 80.0]), np.zeros(3), np.zeros(3), np.ones(3),
    )
    unused = np.array([[50.0], [25.0], [0.0]])
    with pytest.raises(ValueError) as one:
        settle_rows(account, totals, SharingParams(), unused[0], np.zeros(3))
    with pytest.raises(ValueError) as every:
        settle_rows(account, totals, SharingParams(), unused, np.zeros(3))
    with pytest.raises(ValueError) as shared:  # one ISP value that every row shares
        settle_rows(account, replace(totals, isp_revenue=110.0), SharingParams(), unused,
                    np.zeros(3))
    assert str(shared.value) == str(every.value) == str(one.value) == (
        "ISP standalone value 110.0 exceeds total revenue 100.0"
    )
