"""Price-formation tests: utilities, best responses, dual updates, solvers.

Update-rule and utility constants were worked out by hand and frozen; the
exact provider price and the certified link price are cross-checked against
an independent bisection, and the certified link prices against their natural
residuals.
"""
import math
import operator
import random
import warnings
from functools import reduce

import numpy as np
import pytest

from wifimarket.config import SolverConfig, scenario_from_dict
from wifimarket.engine import _link_demand, run_scenario
from wifimarket.model import LinkState, Population, UserProfile, WfpAccount, WfpKind
from wifimarket.pricing import (
    ISP_TOLERANCE,
    isp_link_price_update,
    min_price_for_path,
    solve_isp_prices,
    solve_isp_subgradient,
    solve_wfp_equilibrium,
    solve_wfp_subgradient,
    step_size,
    user_best_response,
    user_utility,
    wfp_price_update,
)


def population(users, g_by_user):
    """The users as a Population, and their ISP floors in roster order."""
    return Population.of(users), np.array([g_by_user[u.id] for u in users], dtype=float)


# --- utilities -----------------------------------------------------------------


def test_snr_factor_from_radio_parameters():
    user = UserProfile(id="u", tx_power=0.05)
    assert user.snr_factor == pytest.approx(1.05, abs=1e-12)


def test_bandwidth_utility_value():
    # At a zero price the cost term is 1: W=2, x=4, snr factor 1.05 -> 2 * ln(4.2) + 1
    user = UserProfile(id="u", weight=2.0, tx_power=0.05)
    assert user_utility(4.0, 0.0, user) == pytest.approx(
        2.8701690505786455 + 1.0, abs=1e-9
    )


def test_bandwidth_utility_requires_positive_x():
    user = UserProfile(id="u")
    with pytest.raises(ValueError):
        user_utility(0.0, 15.0, user)


def test_cost_utility_value():
    # With an SNR factor of 1 and x = 1 the bandwidth term is 0: 1 - 1 * 15 / 100
    user = UserProfile(id="u", channel_gain2=0.0, budget=100.0)
    assert user_utility(1.0, 15.0, user) == pytest.approx(0.85, abs=1e-12)


def test_net_utility_is_the_sum_of_both_terms():
    # 2 * ln(4 * 1.05) + (1 - 4 * 15 / 100)
    user = UserProfile(id="u", weight=2.0, tx_power=0.05, budget=100.0)
    assert user_utility(4.0, 15.0, user) == pytest.approx(
        2.8701690505786455 + 0.4, abs=1e-12
    )


# --- best response ---------------------------------------------------------------


def test_best_response_interior():
    user = UserProfile(id="u", weight=1.0, budget=100.0, x_min=0.01, x_max=50.0)
    assert user_best_response(20.0, user) == pytest.approx(5.0, abs=1e-12)


def test_best_response_clamps_to_box():
    user = UserProfile(id="u", weight=1.0, budget=100.0, x_min=0.5, x_max=50.0)
    assert user_best_response(1000.0, user) == pytest.approx(0.5)  # floor binds
    assert user_best_response(0.5, user) == pytest.approx(50.0)  # ceiling binds


def test_best_response_interior_at_a_price_below_one():
    # weight 1 and budget 1 at a price of 0.5 buy 1 * 1 / 0.5 = 2, inside the box
    user = UserProfile(id="u", weight=1.0, budget=1.0, x_min=0.01, x_max=50.0)
    assert user_best_response(0.5, user) == 2.0


def test_best_response_free_bandwidth_saturates():
    user = UserProfile(id="u", x_min=0.01, x_max=42.0)
    assert user_best_response(0.0, user) == pytest.approx(42.0)


def test_best_response_maximizes_utility_on_random_profiles():
    rng = random.Random(4242)
    for _ in range(200):
        x_min = rng.uniform(0.001, 0.1)
        user = UserProfile(
            id="u",
            weight=rng.uniform(0.5, 2.0),
            budget=rng.uniform(10.0, 200.0),
            x_min=x_min,
            x_max=x_min + rng.uniform(0.5, 10.0),
        )
        price = rng.uniform(0.5, 200.0)
        best = user_best_response(price, user)
        u_best = user_utility(best, price, user)
        for _ in range(25):
            other = rng.uniform(user.x_min, user.x_max)
            assert u_best >= user_utility(other, price, user) - 1e-9


# --- price primitives -------------------------------------------------------------


def test_step_size_diminishes():
    assert step_size(0, 5.0) == pytest.approx(5.0)
    assert step_size(4, 5.0) == pytest.approx(1.0)


def test_wfp_price_update_excess_demand_raises_price():
    # lam=10, sigma=0.5, capacity 10 vs demand 12 -> 11
    assert wfp_price_update(10.0, 0.5, 10.0, 12.0) == pytest.approx(11.0)


def test_wfp_price_update_projects_at_zero():
    assert wfp_price_update(1.0, 1.0, 100.0, 0.0) == 0.0


def test_isp_link_price_update_uses_residual_capacity():
    # capacity 50 minus 20 subscribers leaves 30; load 32 -> 1 + 0.5*2 = 2
    link = LinkState(id="L", capacity=50.0, subscriber_load=20.0)
    assert isp_link_price_update(1.0, 0.5, link, 32.0) == pytest.approx(2.0)


def test_isp_link_price_update_projects_at_zero():
    link = LinkState(id="L", capacity=50.0, subscriber_load=0.0)
    assert isp_link_price_update(0.5, 1.0, link, 10.0) == 0.0


def test_min_price_for_path_sums_link_prices():
    prices = {"AB": 30.0, "CD": 3.0, "BD": 1.0}
    assert min_price_for_path(("AB",), prices) == pytest.approx(30.0)
    assert min_price_for_path(("CD",), prices) == pytest.approx(3.0)
    assert min_price_for_path(("CD", "BD"), prices) == pytest.approx(4.0)
    assert min_price_for_path((), prices) == 0.0


def test_min_price_for_path_unknown_link():
    with pytest.raises(ValueError, match="unknown link"):
        min_price_for_path(("XX",), {"AB": 1.0})


def test_solver_config_validates():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(x_floor=0.0)


# --- provider-side solver ----------------------------------------------------------


def test_wfp_solver_reaches_known_fixed_point():
    # one user, budget 100, floor 15, capacity 5 -> price 20, allocation 5
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0, min_profit=5.0)
    user = UserProfile(id="u0", budget=100.0, x_min=0.01, x_max=50.0)
    result = solve_wfp_equilibrium(account, *population([user], {"u0": 10.0}))
    assert result.converged
    assert result.lambda_by_wfp["ew"] == pytest.approx(20.0, abs=1e-12)
    assert result.x_by_user["u0"] == pytest.approx(5.0, abs=1e-12)
    assert result.final_price_by_user["u0"] == pytest.approx(20.0, abs=1e-12)
    assert result.residual <= 1e-12


def test_wfp_subgradient_oracle_reaches_known_fixed_point():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0, min_profit=5.0)
    user = UserProfile(id="u0", budget=100.0, x_min=0.01, x_max=50.0)
    result = solve_wfp_subgradient(account, *population([user], {"u0": 10.0}), sigma0=5.0,
                                   epsilon=1e-6, max_iters=100_000)
    assert result.converged
    assert result.iterations <= 100_000
    assert result.lambda_by_wfp["ew"] == pytest.approx(20.0, rel=1e-3)
    assert result.x_by_user["u0"] == pytest.approx(5.0, rel=1e-3)
    assert result.residual == pytest.approx(abs(5.0 - result.x_by_user["u0"]))
    # A budget of no iterations takes no step.
    idle = solve_wfp_subgradient(account, *population([user], {"u0": 10.0}), max_iters=0)
    assert (idle.iterations, idle.converged, idle.lambda_by_wfp) == (0, False, {"ew": 0.0})


def test_wfp_solver_slack_capacity_leaves_price_at_floor():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=1000.0, min_profit=5.0)
    users = [UserProfile(id=f"u{i}", budget=100.0, x_min=0.01, x_max=50.0) for i in range(10)]
    g = {u.id: 10.0 for u in users}
    result = solve_wfp_equilibrium(account, *population(users, g))
    assert result.converged
    assert result.lambda_by_wfp["ew"] == 0.0
    assert result.residual == 0.0
    for u in users:
        assert result.final_price_by_user[u.id] == pytest.approx(15.0)
        assert result.x_by_user[u.id] == pytest.approx(100.0 / 15.0, rel=1e-6)


def test_wfp_solver_searches_its_breakpoints_by_bisection():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=100.0, min_profit=1.0)
    users = [UserProfile(id=f"u{i}", budget=20.0 + 7.0 * i, x_min=0.1, x_max=8.0)
             for i in range(60)]
    result = solve_wfp_equilibrium(account, *population(
        users, {u.id: 1.0 + 0.5 * (i % 7) for i, u in enumerate(users)}))
    assert result.converged and sum(result.x_by_user.values()) == pytest.approx(100.0)
    # D(0), one evaluation per halving of the 180 breakpoints, the piece's probe and lam
    assert result.iterations <= 3 + math.ceil(math.log2(3 * len(users)))


def test_wfp_solver_no_users():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0)
    users, g = population([], {})
    for result in (solve_wfp_equilibrium(account, users, g),
                   solve_wfp_subgradient(account, users, g)):
        assert result.converged
        assert result.iterations == 0
        assert result.lambda_by_wfp == {"ew": 0.0}


def test_wfp_solver_individual_capacity_is_remaining_quota():
    """An individual's sellable capacity is its remaining quota (or txn cap).

    Three accounts with the same effective capacity of 5 -- an establishment
    with capacity 5, an individual with 5 left unused, and an individual with
    plenty unused but a 5-unit per-transaction cap -- must land on the same
    price and allocation.
    """
    user = UserProfile(id="u0", budget=100.0, x_min=0.01, x_max=50.0)
    accounts = [
        WfpAccount(id="w", kind=WfpKind.ESTABLISHMENT, capacity=5.0, min_profit=5.0),
        WfpAccount(id="w", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=5.0, min_profit=5.0),
        WfpAccount(
            id="w", kind=WfpKind.INDIVIDUAL, quota=100.0, unused=80.0,
            txn_cap=5.0, min_profit=5.0,
        ),
    ]
    results = [solve_wfp_equilibrium(a, *population([user], {"u0": 10.0})) for a in accounts]
    for result in results:
        assert result.converged
        assert result.lambda_by_wfp["w"] == pytest.approx(20.0, abs=1e-12)
        assert result.x_by_user["u0"] == pytest.approx(5.0, abs=1e-12)
    assert results[0].lambda_by_wfp == results[1].lambda_by_wfp == results[2].lambda_by_wfp


def test_wfp_solver_flags_non_convergence_instead_of_raising():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0, min_profit=5.0)
    user = UserProfile(id="u0", budget=100.0, x_min=0.01, x_max=50.0)
    result = solve_wfp_subgradient(account, *population([user], {"u0": 10.0}), sigma0=5.0,
                                   epsilon=1e-12, max_iters=5)
    assert not result.converged
    assert result.iterations == 5


def test_wfp_solver_slack_capacity_prices_exactly_zero():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=10.0)
    users = [UserProfile(id=f"u{i}", budget=100.0, x_min=0.01, x_max=2.0) for i in range(5)]
    result = solve_wfp_equilibrium(account, *population(users, {u.id: 3.0 for u in users}))
    assert result.lambda_by_wfp["ew"] == 0.0  # demand 5 * 2 meets capacity 10 exactly
    assert result.converged
    assert result.residual == 0.0
    assert result.iterations == 1  # D(0) is the whole solve


def test_wfp_solver_flags_infeasible_minimum_demand():
    # two users who must buy at least 4 each against a capacity of 5
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0)
    users = [
        UserProfile(id="a", budget=100.0, x_min=4.0, x_max=50.0),  # x_min from 25
        UserProfile(id="b", budget=60.0, x_min=4.0, x_max=50.0),  # x_min from 15
    ]
    result = solve_wfp_equilibrium(account, *population(users, {"a": 0.0, "b": 0.0}))
    assert not result.converged
    assert result.residual == pytest.approx(8.0 - 5.0, abs=1e-12)
    assert result.lambda_by_wfp["ew"] == pytest.approx(25.0, abs=1e-12)
    assert result.x_by_user == {"a": 4.0, "b": 4.0}


def test_wfp_solver_flagged_solve_prices_each_user_at_the_larger_of_lambda_and_floor():
    # sum x_min = 1 exceeds the capacity of 0.5; user b's floor 30 + 2 lies above the
    # flagged price of 20, where user a's x_min binds, so b pays its floor
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=0.5, min_profit=2.0)
    users = [
        UserProfile(id="a", budget=10.0, x_min=0.5, x_max=50.0),  # x_min from 20
        UserProfile(id="b", budget=1.0, x_min=0.5, x_max=50.0),  # x_min from 2
    ]
    result = solve_wfp_equilibrium(account, *population(users, {"a": 0.0, "b": 30.0}))
    assert not result.converged
    assert result.lambda_by_wfp["ew"] == 20.0
    assert result.final_price_by_user == {"a": 20.0, "b": 32.0}
    assert result.x_by_user == {"a": 0.5, "b": 0.5}


def test_wfp_solver_flagged_price_is_the_largest_kink_above_its_floor():
    # sum x_min = 1 exceeds the capacity of 0.5.  b is held at x_min from its kink
    # w * b / x_min = 0.6, above its floor 0.2; a's kink of 1.0 equals its floor, which
    # holds a at x_min at any price, so the lowest price holding both is 0.6, not 1.0
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=0.5)
    users = [UserProfile(id="a", budget=0.5, x_min=0.5), UserProfile(id="b", budget=0.3, x_min=0.5)]
    result = solve_wfp_equilibrium(account, *population(users, {"a": 1.0, "b": 0.2}))
    assert not result.converged
    assert result.lambda_by_wfp["ew"] == 0.6
    assert result.final_price_by_user == {"a": 1.0, "b": 0.6}
    assert result.x_by_user == {"a": 0.5, "b": 0.5}


def test_wfp_solver_zero_floor_at_zero_price_saturates_without_warning():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=100.0)
    users = [UserProfile(id=f"u{i}", budget=50.0, x_min=0.01, x_max=3.0) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = solve_wfp_equilibrium(account, *population(users, {u.id: 0.0 for u in users}))
    assert result.lambda_by_wfp["ew"] == 0.0
    assert result.x_by_user == {u.id: 3.0 for u in users}
    assert result.final_price_by_user == {u.id: 0.0 for u in users}


def test_wfp_solver_mixed_clamps_match_bisection_oracle():
    """Users at x_max, at x_min, priced by their floor, and free, at once.

    At the clearing price 10: "cap" buys its x_max 2, "floor" buys x_min 5,
    "dear" pays its floor 40 and buys 2.5, and "free" buys 100 / 10 = 10, so a
    capacity of 19.5 clears exactly there.
    """
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=19.5, min_profit=1.0)
    users = [
        UserProfile(id="cap", budget=100.0, x_min=0.01, x_max=2.0),
        UserProfile(id="floor", budget=10.0, x_min=5.0, x_max=50.0),
        UserProfile(id="dear", budget=100.0, x_min=0.01, x_max=50.0),
        UserProfile(id="free", budget=100.0, x_min=0.01, x_max=50.0),
    ]
    g = {"cap": 2.0, "floor": 0.0, "dear": 39.0, "free": 4.0}

    def demand(lam):
        return sum(
            user_best_response(max(lam, g[u.id] + account.min_profit), u)
            for u in users
        )

    expected = _bisect_fixed_point(demand, account.capacity)
    result = solve_wfp_equilibrium(account, *population(users, g))
    assert expected == pytest.approx(10.0, abs=1e-9)
    assert result.converged
    assert result.lambda_by_wfp["ew"] == pytest.approx(expected, abs=1e-9)
    assert result.x_by_user["cap"] == 2.0
    assert result.x_by_user["floor"] == 5.0
    assert result.x_by_user["dear"] == pytest.approx(2.5, abs=1e-12)
    assert result.x_by_user["free"] == pytest.approx(10.0, abs=1e-9)
    assert result.residual <= 1e-9 * account.capacity


def test_wfp_solver_sums_users_in_roster_order_from_zero():
    """The exact price is its closed form over sequential folds, bit for bit.

    On the clearing piece, lam = sum(w * b of the free users) / (C - sum(x of
    the others)).  Both sums, and the demand in the residual, add the users in
    roster order from 0.0, so 1,200 seeded users give the same bits as
    ``reduce(operator.add, ..., 0.0)``, whatever numpy's pairwise sum gives.
    """
    rng = random.Random(12)
    users = []
    for i in range(1_200):
        x_min = rng.uniform(0.001, 1.0)
        users.append(UserProfile(
            id=f"u{i}",
            weight=rng.uniform(0.5, 2.0),
            budget=rng.uniform(10.0, 200.0),
            x_min=x_min,
            x_max=x_min + rng.uniform(0.5, 10.0),
        ))
    g = {u.id: rng.choice((0.0, rng.uniform(0.0, 30.0))) for u in users}
    capacity = 0.3 * sum(u.x_max for u in users)
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=capacity, min_profit=1.0)
    pop, floors = population(users, g)
    result = solve_wfp_equilibrium(account, pop, floors)
    lam, x = result.lambda_by_wfp["ew"], result.x_by_user.array

    def fold(values):
        return reduce(operator.add, values.tolist(), 0.0)

    free = (floors + account.min_profit < lam) & (x > pop.x_min) & (x < pop.x_max)
    assert 100 < free.sum() < len(users) - 100
    assert lam.hex() == (fold(pop.wb[free]) / (capacity - fold(x[~free]))).hex()
    assert result.residual == abs(capacity - fold(x))


# --- ISP-side solver ----------------------------------------------------------------


def _bisect_fixed_point(demand, residual, lo=0.0, hi=100.0, rounds=200):
    """Independent oracle: price at which link demand equals residual capacity."""
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if demand(mid) > residual:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_isp_solver_matches_bisection_oracle():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}

    def demand_fn(prices):
        return {"L": 60.0 / (1.0 + prices["L"])}

    result = solve_isp_subgradient(links, demand_fn, sigma0=0.5)
    expected = _bisect_fixed_point(lambda g: 60.0 / (1.0 + g), 30.0)
    assert result.converged
    assert expected == pytest.approx(1.0, abs=1e-9)
    assert result.g_by_link["L"] == pytest.approx(expected, rel=1e-2)


def test_isp_solver_default_step_reaches_the_fixed_point():
    # The default sigma0 moves the price; a zero one would stop at once at 0.  Idle link
    # I's price stays 0, which does not stop the solve: the largest move does.
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0),
             "I": LinkState(id="I", capacity=30.0)}
    result = solve_isp_subgradient(links, lambda prices: {"L": 60.0 / (1.0 + prices["L"])})
    assert result.converged
    assert result.g_by_link == pytest.approx({"L": 1.0, "I": 0.0}, abs=1e-6)


def test_isp_solver_without_links_converges_after_one_iteration():
    # No link moves, so the largest price change is 0.0, below any epsilon.
    result = solve_isp_subgradient({}, lambda prices: {})
    assert result.converged
    assert result.iterations == 1
    assert result.g_by_link == {}
    # A budget of no iterations takes no step.
    assert solve_isp_subgradient({}, lambda prices: {}, max_iters=0).iterations == 0


def test_certified_isp_solve_without_links_is_certified_with_no_residual():
    result = solve_isp_prices({}, lambda prices: {})
    assert (result.converged, result.residual, result.g_by_link) == (True, 0.0, {})


def test_isp_solver_stops_only_on_a_move_strictly_below_epsilon():
    # Load 31 on a residual of 30: the first step moves the price by exactly
    # sigma0 = epsilon, which does not stop the solve; the second moves it by half.
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}
    result = solve_isp_subgradient(
        links, lambda prices: {"L": 31.0}, sigma0=1e-6, epsilon=1e-6, max_iters=5)
    assert result.converged
    assert result.iterations == 2
    assert result.g_by_link["L"] == 1e-6 + 0.5e-6


def test_isp_solver_saturated_link_price_rises_monotonically():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}
    observed = []

    def flood(prices):
        observed.append(prices["L"])
        return {"L": 100.0}

    result = solve_isp_subgradient(links, flood, sigma0=0.1, epsilon=1e-9, max_iters=60)
    assert not result.converged
    assert result.iterations == 60
    # demand never meets the residual, so every step pushes the price up
    assert all(b > a for a, b in zip(observed, observed[1:]))


def test_isp_solver_idle_link_price_decays_to_zero():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=5.0)}
    result = solve_isp_subgradient(links, lambda p: {"L": 0.0}, sigma0=1.0)
    assert result.converged
    assert result.g_by_link["L"] == 0.0
    # a link the demand omits carries no provider load
    links = {"L": LinkState(id="L", capacity=0.5, subscriber_load=0.0, price=5.0)}
    result = solve_isp_subgradient(links, lambda p: {}, sigma0=1.0)
    assert result.converged
    assert result.g_by_link["L"] == 0.0


# --- certified ISP solve ---------------------------------------------------------------


def natural_residuals(links, demand_fn, prices):
    """|min(g_l, s_l)| per link, s_l = capacity - subscriber load - WFP load."""
    loads = demand_fn(prices)
    return {
        lid: abs(min(prices[lid], link.capacity - link.subscriber_load - loads.get(lid, 0.0)))
        for lid, link in links.items()
    }


def test_certified_isp_solve_matches_bisection_oracle():
    links = {"L": LinkState(id="L", capacity=25.0, subscriber_load=0.0, price=0.0)}

    def demand_fn(prices):
        return {"L": 60.0 / (1.0 + prices["L"])}

    result = solve_isp_prices(links, demand_fn, max_iters=200)
    expected = _bisect_fixed_point(lambda g: 60.0 / (1.0 + g), 25.0)
    assert expected == pytest.approx(1.4, abs=1e-9)
    assert result.converged
    assert result.g_by_link["L"] == pytest.approx(expected, abs=1e-9)
    assert result.residual <= ISP_TOLERANCE * 25.0
    assert result.residual == natural_residuals(links, demand_fn, result.g_by_link)["L"]
    assert result.iterations <= 20


def test_certified_isp_solve_prices_a_slack_link_at_exactly_zero():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=5.0, price=7.0)}
    seen = []

    def demand_fn(prices):
        seen.append(prices["L"])
        return {"L": 25.0 / (1.0 + prices["L"])}  # 25 fits the residual 25 even at 0

    result = solve_isp_prices(links, demand_fn, max_iters=200)
    assert result.converged
    assert result.g_by_link == {"L": 0.0}
    assert result.residual == 0.0
    assert seen == [7.0, 0.0]  # warm start from the link's price, then s(0) >= 0
    # a link the demand omits carries no provider load
    links = {"L": LinkState(id="L", capacity=0.5, subscriber_load=0.0, price=5.0)}
    result = solve_isp_prices(links, lambda prices: {}, max_iters=200)
    assert result.converged
    assert result.g_by_link == {"L": 0.0}


def test_certified_isp_solve_crosses_a_flat_stretch():
    # The load stays at 50 up to a price of 20, so s_l is flat across the first
    # bracketing steps; the root is 40.
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}

    def demand_fn(prices):
        return {"L": min(50.0, max(70.0 - prices["L"], 0.0))}

    result = solve_isp_prices(links, demand_fn, max_iters=200)
    assert result.converged
    assert result.g_by_link["L"] == pytest.approx(40.0, abs=1e-9)


def test_certified_isp_solve_bisects_onto_a_jump_in_demand():
    # The load jumps from 60 to 0 at a price of 0.3, across the residual of 30, so no
    # price clears.  Once the line search's bracket closes on the jump its secant falls
    # on a bracket end; it bisects until the ends are adjacent floats and keeps the one
    # at the jump.  The next pass starts there and moves no price, so the solve ends
    # flagged, priced at the jump, after the same evaluations whatever its budget.
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}

    def demand_fn(prices):
        return {"L": 60.0 if prices["L"] < 0.3 else 0.0}

    for max_iters in (500, 3_000):
        result = solve_isp_prices(links, demand_fn, max_iters=max_iters)
        assert not result.converged
        assert result.iterations == 213
        assert result.g_by_link["L"] == 0.3
        assert result.residual == 0.3  # |min(g, s)| with s = 30 - 0 at the jump


@pytest.mark.parametrize("start", [0.0, 1.0])
def test_certified_isp_solve_keeps_a_residual_of_exactly_its_tolerance(start):
    # Capacity 1e-9 gives link L a tolerance of 1e-9 (ISP_TOLERANCE * max(C, 1)), and a
    # load of 2e-9 at a price of 1 leaves s = -1e-9 exactly there.  From 0, the line
    # search's first step lands there, within tolerance, and stops short of the root
    # at 2; from 1, only link M is searched.
    links = {"L": LinkState(id="L", capacity=1e-9, price=start),
             "M": LinkState(id="M", capacity=10.0)}

    def demand_fn(prices):
        return {"L": 2e-9 / max(prices["L"], 2e-9), "M": 20.0 / (1.0 + prices["M"])}

    result = solve_isp_prices(links, demand_fn)
    assert result.converged
    assert (result.g_by_link, result.residual) == ({"L": 1.0, "M": 1.0}, 1e-9)


def test_certified_isp_solve_closes_in_on_a_slope_of_exactly_its_tolerance():
    # Capacity 2e-9 gives a tolerance of 1e-9.  From a price of 1, where the load is 0,
    # the line search steps down to 0 (load 1), and its secant lands in [0.5, 1), where a
    # load of 1e-9 leaves s = 1e-9 exactly: within tolerance, so the search ends there.
    links = {"L": LinkState(id="L", capacity=2e-9, price=1.0)}

    def demand_fn(prices):
        g = prices["L"]
        return {"L": 1.0 if g < 0.5 else 1e-9 if g < 1.0 else 0.0}

    result = solve_isp_prices(links, demand_fn)
    assert result.converged
    assert 0.5 <= result.g_by_link["L"] < 1.0
    assert (result.iterations, result.residual) == (3, 1e-9)


@pytest.mark.parametrize("capacity, start, load, price, residual", [
    # tolerance 1e9 * 1e-9 = 1: from 2 the search steps back to 0, where the load
    # leaves s = -1 exactly, a slope of exactly -eps: within tolerance, it stops there
    (1e9, 2.0, lambda g: 1e9 + 1.0 if g == 0.0 else 0.0, 0.0, 1.0),
    # tolerance 1e-9: from 0 the first step forward reaches 1, where no load leaves
    # s = 1e-9 exactly, a slope of exactly eps: it stops there too
    (1e-9, 0.0, lambda g: 1.0 if g < 1.0 else 0.0, 1.0, 1e-9),
], ids=["back_to_zero", "forward_to_one"])
def test_certified_isp_solve_stops_a_step_on_a_slope_of_exactly_its_tolerance(
        capacity, start, load, price, residual):
    links = {"L": LinkState(id="L", capacity=capacity, price=start)}
    result = solve_isp_prices(links, lambda prices: {"L": load(prices["L"])})
    assert result.converged
    assert (result.g_by_link, result.iterations, result.residual) == ({"L": price}, 2, residual)


def test_certified_isp_solve_counts_a_link_seen_at_exactly_minus_its_tolerance_as_clearable():
    # Link L starts at s = 1e-9 - 2e-9 = -1e-9, exactly minus its tolerance: cleared,
    # and so able to clear.  Dropping M's price to 0 raises L's load to 1; L's price
    # then rises 1, 3 (load 1e-9 from 2 on, s = 0) with no probe at an infinite price.
    links = {"L": LinkState(id="L", capacity=1e-9), "M": LinkState(id="M", capacity=10.0,
                                                                     price=1.0)}

    def demand_fn(prices):
        load = 2e-9 if prices["M"] > 0.0 else 1.0 if prices["L"] < 2.0 else 1e-9
        return {"L": load, "M": 0.0}

    result = solve_isp_prices(links, demand_fn)
    assert result.converged
    assert (result.g_by_link, result.iterations) == ({"L": 3.0, "M": 0.0}, 4)


def test_certified_isp_solve_flags_a_spent_budget():
    links = {"L": LinkState(id="L", capacity=25.0, subscriber_load=0.0, price=0.0)}
    calls = []

    def demand_fn(prices):
        calls.append(dict(prices))
        return {"L": 60.0 / (1.0 + prices["L"])}

    result = solve_isp_prices(links, demand_fn, max_iters=3)
    assert not result.converged
    assert result.iterations == len(calls) == 3
    assert math.isfinite(result.g_by_link["L"])
    assert result.residual == natural_residuals(links, demand_fn, result.g_by_link)["L"]


TWO_BINDING_LINKS = {
    "name": "two-binding-links",
    "links": [
        {"id": "AB", "capacity": 60, "subscriber_load": 30, "price": 1},
        {"id": "BC", "capacity": 50, "subscriber_load": 30, "price": 1},
    ],
    "wfps": [
        {"id": "e1", "kind": "establishment", "capacity": 1000, "min_profit": 2},
        {"id": "e2", "kind": "establishment", "capacity": 1000, "min_profit": 1},
    ],
    "users": [
        {"id": "a", "count": 4, "wfp": "e1", "path": ["AB"], "budget": 100},
        {"id": "b", "count": 4, "wfp": "e1", "path": ["AB", "BC"], "budget": 80},
        {"id": "c", "count": 4, "wfp": "e2", "path": ["BC"], "budget": 120},
    ],
    "solve_isp": True,
    "mode": {"kind": "equilibrium", "ticks": 1},
}


def engine_demand(doc):
    """The document's links and the engine's WFP load response over its users."""
    cfg = scenario_from_dict(doc)
    pop = Population.of(cfg.users, [w.id for w in cfg.wfps])
    customers = [pop.take(np.flatnonzero(pop.provider == k)) for k in range(len(cfg.wfps))]
    links = cfg.links
    return cfg, links, _link_demand(links, pop, list(cfg.wfps), customers)


def test_certified_isp_solve_prices_two_binding_links():
    """Both links bind, and the users crossing both pay the sum of their prices."""
    cfg, links, demand_fn = engine_demand(TWO_BINDING_LINKS)
    result = solve_isp_prices(links, demand_fn, max_iters=cfg.solver.max_iters)
    assert cfg.solver.max_iters == SolverConfig().max_iters
    assert result.converged
    assert result.iterations <= 100
    assert all(price > 1.0 for price in result.g_by_link.values())
    residuals = natural_residuals(links, demand_fn, result.g_by_link)
    for lid, link in links.items():
        assert residuals[lid] <= ISP_TOLERANCE * max(link.capacity, 1.0)
    assert result.residual == max(residuals.values())

    record = run_scenario(cfg).records[0]
    ab, bc = result.g_by_link["AB"], result.g_by_link["BC"]
    assert record.g_by_user["a001"] == ab
    assert record.g_by_user["b001"] == ab + bc
    assert record.g_by_user["c001"] == bc


def test_certified_isp_solve_ends_a_joint_move_where_its_first_falling_price_reaches_zero():
    # The first pass prices A at 8, B at 8 and C at about 38.05.  Its joint move, from
    # (20, 10, 0), lowers A by 12 and B by 2, so A reaches 0 at t = 2/3, with B at 20/3;
    # D still falls there, but the move stops, and the next pass prices B at 0 on its own.
    doc = {
        "links": [{"id": "A", "capacity": 50, "price": 20},
                  {"id": "B", "capacity": 50, "price": 10}, {"id": "C", "capacity": 20}],
        "wfps": [{"id": "e", "kind": "establishment", "capacity": 1000}],
        "users": [{"id": "ac", "wfp": "e", "path": ["A", "C"], "budget": 400, "x_min": 1,
                   "x_max": 60},
                  {"id": "bc", "wfp": "e", "path": ["B", "C"], "budget": 400, "x_min": 1,
                   "x_max": 60},
                  {"id": "c", "wfp": "e", "path": ["C"], "budget": 100, "x_min": 1, "x_max": 60}],
        "mode": {"kind": "equilibrium", "ticks": 1},
    }
    _, links, demand_fn = engine_demand(doc)
    calls = []
    result = solve_isp_prices(links, lambda prices: calls.append(prices) or demand_fn(prices))
    assert result.converged
    assert result.g_by_link == pytest.approx({"A": 0.0, "B": 0.0, "C": 45.0})  # 900 / 45 = 20
    joint = [prices["B"] for prices in calls if prices["A"] == 0.0 and 0.0 < prices["B"] < 8.0]
    assert joint == [pytest.approx(20.0 / 3.0)]


def infeasible_docs():
    """A subscriber load above capacity, and crossing users' x_min above the residual."""
    over = dict(TWO_BINDING_LINKS, links=[
        {"id": "AB", "capacity": 60, "subscriber_load": 61, "price": 1},
        {"id": "BC", "capacity": 50, "subscriber_load": 30, "price": 1},
    ])
    floor = dict(TWO_BINDING_LINKS, users=[
        {"id": "a", "count": 4, "wfp": "e1", "path": ["AB"], "budget": 100},
        {"id": "b", "count": 4, "wfp": "e1", "path": ["AB", "BC"], "budget": 80,
         "x_min": 6.0},  # 4 * 6 = 24 > the residual 50 - 30 on BC
        {"id": "c", "count": 4, "wfp": "e2", "path": ["BC"], "budget": 120},
    ])
    return {"subscriber_load": over, "x_min": floor}


@pytest.mark.parametrize("case", ["subscriber_load", "x_min"])
def test_certified_isp_solve_flags_an_infeasible_link(case):
    doc = infeasible_docs()[case]
    cfg, links, demand_fn = engine_demand(doc)
    result = solve_isp_prices(links, demand_fn, max_iters=50)
    assert not result.converged
    assert result.iterations < 50  # stopped at once, not at the budget
    assert all(math.isfinite(price) for price in result.g_by_link.values())
    assert math.isfinite(result.residual) and result.residual > 0.0
    assert result.residual == max(natural_residuals(links, demand_fn, result.g_by_link).values())
