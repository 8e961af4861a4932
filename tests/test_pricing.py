"""Price-formation tests: utilities, best responses, dual updates, solvers.

Update-rule and utility constants were worked out by hand and frozen; the
exact provider price and the link-price fixed point are cross-checked against
an independent bisection.
"""
import math
import random
import warnings

import numpy as np
import pytest

from wifimarket.model import LinkState, Population, UserProfile, WfpAccount, WfpKind
from wifimarket.pricing import (
    SolverConfig,
    final_price,
    isp_link_price_update,
    min_price_for_path,
    solve_isp_prices,
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


def test_final_price_floor_and_margin():
    assert final_price(31.0, 30.0, 0.0) == pytest.approx(31.0)
    assert final_price(10.0, 10.0, 5.0) == pytest.approx(15.0)


def test_step_size_diminishes():
    cfg = SolverConfig(sigma0=5.0)
    assert step_size(0, cfg) == pytest.approx(5.0)
    assert step_size(4, cfg) == pytest.approx(1.0)


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
        SolverConfig(sigma0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


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
    cfg = SolverConfig(sigma0=5.0, epsilon=1e-6, max_iters=100_000)
    result = solve_wfp_subgradient(account, *population([user], {"u0": 10.0}), cfg)
    assert result.converged
    assert result.iterations <= 100_000
    assert result.lambda_by_wfp["ew"] == pytest.approx(20.0, rel=1e-3)
    assert result.x_by_user["u0"] == pytest.approx(5.0, rel=1e-3)
    assert result.residual == pytest.approx(abs(5.0 - result.x_by_user["u0"]))


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


def test_wfp_solver_no_users():
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0)
    result = solve_wfp_equilibrium(account, *population([], {}))
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
    cfg = SolverConfig(sigma0=5.0, epsilon=1e-12, max_iters=5)
    result = solve_wfp_subgradient(account, *population([user], {"u0": 10.0}), cfg)
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
            user_best_response(final_price(lam, g[u.id], account.min_profit), u)
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

    result = solve_isp_prices(links, demand_fn, SolverConfig(sigma0=0.5))
    expected = _bisect_fixed_point(lambda g: 60.0 / (1.0 + g), 30.0)
    assert result.converged
    assert expected == pytest.approx(1.0, abs=1e-9)
    assert result.g_by_link["L"] == pytest.approx(expected, rel=1e-2)


def test_isp_solver_saturated_link_price_rises_monotonically():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=0.0)}
    observed = []

    def flood(prices):
        observed.append(prices["L"])
        return {"L": 100.0}

    result = solve_isp_prices(links, flood, SolverConfig(sigma0=0.1, epsilon=1e-9, max_iters=60))
    assert not result.converged
    assert result.iterations == 60
    # demand never meets the residual, so every step pushes the price up
    assert all(b > a for a, b in zip(observed, observed[1:]))


def test_isp_solver_idle_link_price_decays_to_zero():
    links = {"L": LinkState(id="L", capacity=30.0, subscriber_load=0.0, price=5.0)}
    result = solve_isp_prices(links, lambda p: {"L": 0.0}, SolverConfig(sigma0=1.0))
    assert result.converged
    assert result.g_by_link["L"] == 0.0
