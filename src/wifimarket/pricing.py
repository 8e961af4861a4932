"""Price formation by dual decomposition.

Users maximize a concave net utility, providers price their capacity with a
dual (shadow-price) variable, and the ISP does the same per link.  A
provider's price is solved exactly: its demand curve is piecewise A / lam + B,
so the clearing price comes from a breakpoint search and a closed form, with
the residual of the capacity constraint reported beside it.  The paper's
projected subgradient iteration (step size sigma0 / (1 + t), stopped once the
price moves less than ``epsilon``) is kept as ``solve_wfp_subgradient``, the
oracle the self-checks compare against, and still prices the ISP's links.
Non-convergence is reported in the result, never raised: a flagged result is
data the caller can act on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .model import LinkState, UserProfile, WfpAccount, effective_capacity


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the ISP solver, the sweep's dual steps and the subgradient oracle.

    ``x_floor`` is the smallest purchase the engine settles.
    """

    sigma0: float = 1.0
    epsilon: float = 1e-6
    max_iters: int = 100_000
    x_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be positive")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.x_floor <= 0.0:
            raise ValueError("x_floor must be positive")


@dataclass
class EquilibriumResult:
    """Converged (or flagged) prices and allocations from a solver run."""

    lambda_by_wfp: dict[str, float] = field(default_factory=dict)
    g_by_link: dict[str, float] = field(default_factory=dict)
    x_by_user: dict[str, float] = field(default_factory=dict)
    final_price_by_user: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = False
    # Provider solves: |C - D| at the returned price, or max(D - C, 0) at a
    # zero price.  The ISP loop does not measure it.
    residual: float = math.nan


def user_bandwidth_utility(x: float, user: UserProfile) -> float:
    """weight * ln(x * snr_factor); only defined for positive bandwidth."""
    if x <= 0.0:
        raise ValueError("bandwidth utility requires x > 0")
    return user.weight * math.log(x * user.snr_factor)


def user_cost_utility(x: float, final_price: float, user: UserProfile) -> float:
    """1 - x * final_price / budget: the fraction of budget kept, shifted by 1."""
    return 1.0 - x * final_price / user.budget


def user_utility(x: float, final_price: float, user: UserProfile) -> float:
    """Net utility the user maximizes: bandwidth term plus cost term."""
    return user_bandwidth_utility(x, user) + user_cost_utility(x, final_price, user)


def user_best_response(final_price: float, user: UserProfile) -> float:
    """Utility-maximizing purchase at a posted price.

    The unconstrained optimum is weight * budget / final_price (the SNR factor
    shifts the log but not the argmax); the result is clamped to the user's
    [x_min, x_max] box.  A non-positive price saturates demand at x_max.
    """
    if final_price <= 0.0:
        return user.x_max
    ideal = user.weight * user.budget / final_price
    return min(max(ideal, user.x_min), user.x_max)


def final_price(wfp_price: float, min_price: float, min_profit: float) -> float:
    """What the user pays: the posted price floored at ISP minimum plus margin."""
    return max(wfp_price, min_price + min_profit)


def step_size(t: int, cfg: SolverConfig) -> float:
    """Diminishing subgradient step: sigma0 / (1 + t)."""
    return cfg.sigma0 / (1.0 + t)


def wfp_price_update(
    wfp_price: float, sigma_t: float, capacity: float, demand: float
) -> float:
    """Projected dual step on the provider's capacity constraint.

    Excess demand raises the price, slack capacity lowers it, and the result
    never goes negative.
    """
    return max(wfp_price - sigma_t * (capacity - demand), 0.0)


def isp_link_price_update(
    link_price: float, sigma_t: float, link: LinkState, wfp_load: float
) -> float:
    """Projected dual step on one link's residual-capacity constraint.

    The residual is what the link can spare after its own subscribers; WFP
    load beyond it pushes the price up, slack pulls it toward zero.
    """
    residual = link.capacity - link.subscriber_load
    return max(link_price - sigma_t * (residual - wfp_load), 0.0)


def min_price_for_path(path: Sequence[str], link_prices: Mapping[str, float]) -> float:
    """ISP floor for a user: the sum of link prices along its route."""
    total = 0.0
    for link_id in path:
        if link_id not in link_prices:
            raise ValueError(f"unknown link id {link_id!r} in path")
        total += link_prices[link_id]
    return total


def _allocate(
    lam: float,
    wb: np.ndarray,
    floors: np.ndarray,
    x_min: np.ndarray,
    x_max: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Final prices max(lam, floor) and the users' clamped best responses to them.

    A zero price saturates demand at x_max (w * b / 0 is taken as +inf).
    """
    prices = np.maximum(lam, floors)
    with np.errstate(divide="ignore"):
        return prices, np.clip(wb / prices, x_min, x_max)


def _provider_result(
    account: WfpAccount,
    users: Sequence[UserProfile],
    lam: float,
    prices: np.ndarray,
    x: np.ndarray,
    iterations: int,
    converged: bool,
) -> EquilibriumResult:
    capacity = effective_capacity(account)
    demand = float(x.sum())
    # At a zero price slack capacity is no violation; only excess demand counts.
    residual = abs(capacity - demand) if lam > 0.0 else max(demand - capacity, 0.0)
    return EquilibriumResult(
        lambda_by_wfp={account.id: lam},
        x_by_user={u.id: float(x[i]) for i, u in enumerate(users)},
        final_price_by_user={u.id: float(prices[i]) for i, u in enumerate(users)},
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def _provider_arrays(account, users, g_by_user):
    """Per-user w * b, price floors (ISP floor plus margin), x_min and x_max."""
    return (
        np.array([u.weight * u.budget for u in users]),
        np.array([g_by_user[u.id] + account.min_profit for u in users]),
        np.array([u.x_min for u in users]),
        np.array([u.x_max for u in users]),
    )


def solve_wfp_equilibrium(
    account: WfpAccount,
    users: Sequence[UserProfile],
    g_by_user: Mapping[str, float],
) -> EquilibriumResult:
    """One provider's exact clearing price against fixed ISP floors.

    Demand D(lam) = sum clip(w * b / max(lam, floor), x_min, x_max) is
    continuous, never rises with lam, and between consecutive breakpoints
    {floor, w * b / x_max, w * b / x_min} has the form A / lam + B.  Slack
    capacity (D(0) <= C) prices at 0.  If even sum x_min exceeds C no price
    clears: the result is flagged unconverged at the lowest price that holds
    every user at x_min.  Otherwise a binary search over the sorted
    breakpoints finds the piece where D crosses C, and lam = A / (C - B) on
    it.  ``iterations`` counts demand evaluations, O(log n).
    """
    if not users:
        return EquilibriumResult(
            lambda_by_wfp={account.id: 0.0}, converged=True, residual=0.0
        )

    capacity = effective_capacity(account)
    wb, floors, x_min, x_max = _provider_arrays(account, users, g_by_user)
    evaluations = 0

    def allocate(lam: float) -> tuple[np.ndarray, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return _allocate(lam, wb, floors, x_min, x_max)

    prices, x = allocate(0.0)
    if x.sum() <= capacity:
        return _provider_result(account, users, 0.0, prices, x, evaluations, True)
    if x_min.sum() > capacity:
        kinks = wb / x_min
        lam = float(np.max(kinks, where=kinks > floors, initial=0.0))
        prices = np.maximum(lam, floors)
        return _provider_result(account, users, lam, prices, x_min, evaluations, False)

    # D(breaks[-1]) = sum x_min <= C < D(0): find the first breakpoint at or
    # below capacity, index -1 standing for lam = 0.
    breaks = np.sort(np.concatenate((floors, wb / x_max, wb / x_min)))
    below, above = -1, len(breaks) - 1
    while above - below > 1:
        mid = (below + above) // 2
        if allocate(breaks[mid])[1].sum() > capacity:
            below = mid
        else:
            above = mid
    left = float(breaks[below]) if below >= 0 else 0.0
    right = float(breaks[above])
    # Inside (left, right) no user changes state: the free ones buy
    # w * b / lam, the others a constant.
    probe = 0.5 * (left + right)
    _, x = allocate(probe)
    free = (floors < probe) & (x > x_min) & (x < x_max)
    lam = float(wb[free].sum() / (capacity - x[~free].sum()))
    lam = min(max(lam, left), right)
    prices, x = allocate(lam)
    return _provider_result(account, users, lam, prices, x, evaluations, True)


def solve_wfp_subgradient(
    account: WfpAccount,
    users: Sequence[UserProfile],
    g_by_user: Mapping[str, float],
    cfg: SolverConfig,
    lambda0: float = 0.0,
) -> EquilibriumResult:
    """The paper's provider iteration: the oracle for ``solve_wfp_equilibrium``.

    Synchronous Jacobi iteration: every user best-responds to the current
    final price, then the provider takes one dual step against its sellable
    capacity.  Converged when the price moves less than ``epsilon``.
    """
    if not users:
        return EquilibriumResult(
            lambda_by_wfp={account.id: 0.0}, converged=True, residual=0.0
        )

    capacity = effective_capacity(account)
    wb, floors, x_min, x_max = _provider_arrays(account, users, g_by_user)
    lam = max(lambda0, 0.0)
    converged = False
    iterations = 0
    for t in range(cfg.max_iters):
        _, x = _allocate(lam, wb, floors, x_min, x_max)
        new_lam = wfp_price_update(lam, step_size(t, cfg), capacity, float(x.sum()))
        delta = abs(new_lam - lam)
        lam = new_lam
        iterations = t + 1
        if delta < cfg.epsilon:
            converged = True
            break

    prices, x = _allocate(lam, wb, floors, x_min, x_max)
    return _provider_result(account, users, lam, prices, x, iterations, converged)


def solve_isp_prices(
    links: Mapping[str, LinkState],
    wfp_demand_fn: Callable[[Mapping[str, float]], Mapping[str, float]],
    cfg: SolverConfig,
) -> EquilibriumResult:
    """Per-link minimum prices against an aggregate WFP demand response.

    ``wfp_demand_fn`` maps candidate link prices to the WFP load each link
    would carry; each outer iteration takes one synchronous dual step on every
    link.  Stops when the largest price change is below ``epsilon``, otherwise
    flags non-convergence after ``max_iters``.
    """
    prices = {lid: link.price for lid, link in links.items()}
    converged = False
    iterations = 0
    for t in range(cfg.max_iters):
        loads = wfp_demand_fn(prices)
        sigma = step_size(t, cfg)
        updated = {
            lid: isp_link_price_update(prices[lid], sigma, link, loads.get(lid, 0.0))
            for lid, link in links.items()
        }
        delta = max((abs(updated[lid] - prices[lid]) for lid in prices), default=0.0)
        prices = updated
        iterations = t + 1
        if delta < cfg.epsilon:
            converged = True
            break
    return EquilibriumResult(
        g_by_link=prices, iterations=iterations, converged=converged
    )
