"""Price formation by dual decomposition.

Users maximize a concave net utility, providers price their capacity with a dual
(shadow-price) variable, and the ISP does the same per link.  Both are solved exactly
and certified by a residual reported beside the prices.  A provider's demand curve is
piecewise A / lam + B, so its clearing price comes from a breakpoint search and a
closed form.  The ISP's link prices solve the complementarity problem g >= 0,
s(g) >= 0, g * s(g) = 0 on each link's residual capacity s, link by link, by
bracketing and regula falsi, until the natural residual max |min(g, s(g))| is within
``ISP_TOLERANCE`` of capacity, its keyword budget of ``max_iters`` load evaluations
is spent, or a pass moves no price.  The paper's projected subgradient iterations
(step size sigma0 / (1 + t), stopped once the price moves less than ``epsilon``;
keywords too) are kept as ``solve_wfp_subgradient`` and ``solve_isp_subgradient``,
the oracles the self-checks compare against.  Non-convergence is reported in the
result, never raised: a flagged result is data the caller can act on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .model import (
    LinkState,
    Population,
    UserProfile,
    UserValues,
    WfpAccount,
    effective_capacity,
    fold_sum,
    running_total,
)


# An ISP solve is certified once every link's natural residual
# |min(g_l, s_l(g))| is at most this fraction of max(capacity_l, 1).
ISP_TOLERANCE = 1e-9


@dataclass
class EquilibriumResult:
    """Converged (or flagged) prices and allocations from a solver run."""

    iterations: int
    converged: bool
    lambda_by_wfp: dict[str, float] = field(default_factory=dict)
    g_by_link: dict[str, float] = field(default_factory=dict)
    x_by_user: Mapping[str, float] = field(default_factory=dict)
    final_price_by_user: Mapping[str, float] = field(default_factory=dict)
    # Provider solves: |C - D| at the returned price, or max(D - C, 0) at a
    # zero price.  ISP solves: max over links of |min(g_l, s_l)|, s_l the
    # link's residual capacity minus its WFP load.  The oracles' ISP loop does
    # not measure it.
    residual: float = math.nan


def user_utility(x: float, final_price: float, user: UserProfile) -> float:
    """Net utility the user maximizes (x > 0): the bandwidth term
    weight * ln(x * snr_factor) plus the cost term 1 - x * final_price / budget,
    the fraction of budget kept, shifted by 1."""
    if x <= 0.0:
        raise ValueError("bandwidth utility requires x > 0")
    return user.weight * math.log(x * user.snr_factor) + (1.0 - x * final_price / user.budget)


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


def step_size(t: int, sigma0: float) -> float:
    """Diminishing subgradient step: sigma0 / (1 + t)."""
    return sigma0 / (1.0 + t)


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
    if lam > 0.0 or prices.all():  # lam > 0 first skips prices.all(): a measured fast path
        ideal = wb / prices
    else:
        with np.errstate(divide="ignore"):
            ideal = wb / prices
    return prices, np.minimum(np.maximum(ideal, x_min), x_max)


def _provider_result(
    account: WfpAccount,
    users: Population,
    lam: float,
    prices: np.ndarray,
    x: np.ndarray,
    iterations: int,
    converged: bool,
) -> EquilibriumResult:
    capacity = effective_capacity(account)
    demand = running_total(x)
    # At a zero price slack capacity is no violation; only excess demand counts.
    residual = abs(capacity - demand) if lam > 0.0 else max(demand - capacity, 0.0)
    return EquilibriumResult(
        lambda_by_wfp={account.id: lam},
        x_by_user=UserValues(users.roster, x),
        final_price_by_user=UserValues(users.roster, prices),
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def solve_wfp_equilibrium(
    account: WfpAccount, users: Population, g: np.ndarray
) -> EquilibriumResult:
    """One provider's exact clearing price against fixed ISP floors.

    ``g`` holds the users' ISP floors in roster order (``Population.of``
    builds the users from profiles).  The result's ``x_by_user`` and
    ``final_price_by_user`` are views over the users' roster.

    Demand D(lam) = sum clip(w * b / max(lam, floor), x_min, x_max) is
    continuous, never rises with lam, and between consecutive breakpoints
    {floor, w * b / x_max, w * b / x_min} has the form A / lam + B.  Slack
    capacity (D(0) <= C) prices at 0.  If even sum x_min exceeds C no price
    clears: the result is flagged unconverged at the lowest price that holds
    every user at x_min.  Otherwise a binary search over the sorted
    breakpoints finds the piece where D crosses C, and lam = A / (C - B) on
    it.  ``iterations`` counts demand evaluations, O(log n).
    """
    floors = g + account.min_profit
    if not len(users):
        return _provider_result(account, users, 0.0, floors, floors, 0, True)

    capacity = effective_capacity(account)
    wb, x_min, x_max = users.wb, users.x_min, users.x_max
    evaluations = 0

    def allocate(lam: float) -> tuple[np.ndarray, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        return _allocate(lam, wb, floors, x_min, x_max)

    prices, x = allocate(0.0)
    if running_total(x) <= capacity:
        return _provider_result(account, users, 0.0, prices, x, evaluations, True)
    if running_total(x_min) > capacity:
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
        if running_total(allocate(breaks[mid])[1]) > capacity:
            below = mid
        else:
            above = mid
    left = float(breaks[below])  # below >= 1: no price up to breaks[1] moves a purchase, so D > C
    right = float(breaks[above])
    # Inside (left, right) no user changes state: the free ones buy
    # w * b / lam, the others a constant.
    probe = 0.5 * (left + right)
    _, x = allocate(probe)
    free = (floors < probe) & (x > x_min) & (x < x_max)
    lam = float(np.divide(running_total(wb[free]), capacity - running_total(x[~free])))
    lam = min(max(lam, left), right)
    prices, x = allocate(lam)
    return _provider_result(account, users, lam, prices, x, evaluations, True)


def solve_wfp_subgradient(
    account: WfpAccount, users: Population, g: np.ndarray, *,
    sigma0: float = 1.0, epsilon: float = 1e-6, max_iters: int = 100_000,
) -> EquilibriumResult:
    """The paper's provider iteration: the oracle for ``solve_wfp_equilibrium``.

    Synchronous Jacobi iteration: every user best-responds to the current final
    price, then the provider takes one dual step of sigma0 / (1 + t) against its
    sellable capacity from a zero price, until the price moves less than
    ``epsilon`` (converged) or for at most ``max_iters`` steps.
    """
    floors = g + account.min_profit
    if not len(users):
        return _provider_result(account, users, 0.0, floors, floors, 0, True)

    capacity = effective_capacity(account)
    wb, x_min, x_max = users.wb, users.x_min, users.x_max
    lam = 0.0
    converged = False
    iterations = 0
    for t in range(max_iters):
        _, x = _allocate(lam, wb, floors, x_min, x_max)
        new_lam = wfp_price_update(lam, step_size(t, sigma0), capacity, float(x.sum()))
        delta = abs(new_lam - lam)
        lam = new_lam
        iterations = t + 1
        if delta < epsilon:
            converged = True
            break

    prices, x = _allocate(lam, wb, floors, x_min, x_max)
    return _provider_result(account, users, lam, prices, x, iterations, converged)


def _link_slack(
    links: Mapping[str, LinkState], loads: Mapping[str, float]
) -> dict[str, float]:
    """s_l: each link's residual capacity (capacity - subscriber load) minus its WFP load."""
    return {
        lid: link.capacity - link.subscriber_load - loads.get(lid, 0.0)
        for lid, link in links.items()
    }


def _natural_residual(prices: Mapping[str, float], slack: Mapping[str, float]) -> float:
    """max_l |min(g_l, s_l)|: zero exactly when g >= 0, s >= 0 and g * s = 0."""
    return max((abs(min(prices[lid], s)) for lid, s in slack.items()), default=0.0)


class _Unconverged(Exception):
    """Ends an ISP solve early: its budget is spent, a link cannot clear or a pass moved nothing."""


def solve_isp_prices(
    links: Mapping[str, LinkState],
    wfp_demand_fn: Callable[[Mapping[str, float]], Mapping[str, float]], *,
    max_iters: int = 100_000,
) -> EquilibriumResult:
    """Certified per-link minimum prices against an aggregate WFP demand response.

    ``wfp_demand_fn`` maps link prices to the WFP load each link would carry;
    every call is one load evaluation, and ``max_iters`` is the budget of
    them.  The prices solve the complementarity problem g >= 0, s(g) >= 0,
    g * s(g) = 0, where s_l(g) is link l's residual capacity minus its WFP
    load: the optimality conditions of minimizing, over g >= 0, the dual
    function D, which is convex with gradient s.

    From the links' current ``price``, each pass prices every link in turn
    with the others held: 0 if the link is slack there, else the root of s_l,
    bracketed by steps of max(g_l, 1) that double.  Unless that cleared every
    link, the pass then carries on along its whole move while D falls, which
    prices links that share their users (and so trade price between them a
    little per pass) in one step.  Each of these line searches closes in by
    regula falsi (Illinois), bisecting wherever the secant leaves the
    bracket.  The solve converges once every link's natural residual
    |min(g_l, s_l(g))| is at most ``ISP_TOLERANCE * max(C_l, 1)``;
    ``residual`` is the largest of them and ``iterations`` the evaluations.

    A link whose load exceeds its residual capacity even at an infinite price
    on it (every user crossing it at x_min, or a subscriber load above
    capacity) cannot clear.  When a price has to rise on a link not yet seen
    within tolerance of clearing, ``wfp_demand_fn`` is called once with that
    price at ``math.inf``; if the link still does not clear, the solve returns
    its finite prices at once, flagged unconverged, as it does when the
    budget runs out or a pass moves no price (as on a load that jumps across
    a link's residual capacity), since the next pass would repeat it.
    """
    tol = {lid: ISP_TOLERANCE * max(link.capacity, 1.0) for lid, link in links.items()}
    # Links seen with s_l >= -tol.  No load falls below its crossing users'
    # x_min, so s_l is never larger than at an infinite price: these can clear.
    clearable: set[str] = set()
    evaluations = 0

    def slack(prices: dict[str, float]) -> dict[str, float]:
        nonlocal evaluations
        if evaluations >= max_iters:
            raise _Unconverged
        evaluations += 1
        s = _link_slack(links, wfp_demand_fn(prices))
        clearable.update(lid for lid in links if s[lid] >= -tol[lid])
        return s

    def cleared(prices: dict[str, float], s: dict[str, float]) -> bool:
        return all(abs(min(prices[lid], s[lid])) <= tol[lid] for lid in links)

    def line_search(prices, s, d):
        """Where D stops falling on the segment prices + t * d, -1 <= t <= t_max.

        t_max is where the first falling price reaches 0 (infinite if none
        falls).  D's slope along the segment, the sum of s_l * d_l, never
        falls with t.  From t = 0 it steps to t = -1 if the slope is positive
        (only a coordinate step starts so), else to t = 1 and on by doubling
        steps, until the slope changes sign or the bound is reached, and then
        closes in on its zero.  Returns the prices found and s at them.
        """
        eps = fold_sum(tol[lid] * abs(d[lid]) for lid in links)
        t_max = min((prices[lid] / -d[lid] for lid in links if d[lid] < 0.0), default=math.inf)
        rising = {lid for lid in links if d[lid] > 0.0}

        def at(t):
            point = {
                lid: max(prices[lid] + t * d[lid], 0.0) if d[lid] else prices[lid]
                for lid in links
            }
            s_t = slack(point)
            return t, point, s_t, fold_sum(s_t[lid] * d[lid] for lid in links)

        a = b = (0.0, prices, s, fold_sum(s[lid] * d[lid] for lid in links))
        if a[3] > 0.0:
            a = at(-1.0)
            if a[3] >= -eps:
                return a[1], a[2]
        else:
            b = at(min(1.0, t_max))
            if b[3] < -eps and t_max == math.inf and not clearable >= rising:
                at(t_max)
                if not clearable >= rising:
                    raise _Unconverged  # a link cannot clear
            while b[3] < -eps and b[0] < t_max:
                a, b = b, at(min(3.0 * b[0] - 2.0 * a[0], t_max))
            if b[3] <= eps:
                return b[1], b[2]
        # slope(a) < -eps < eps < slope(b).  Illinois: when the same end moves
        # twice running, the other end's slope is halved.
        (t_a, g_a, s_a, f_a), (t_b, g_b, s_b, f_b) = a, b
        moved = 0
        while True:
            t = t_b - f_b * (t_b - t_a) / (f_b - f_a)
            if not t_a < t < t_b:
                t = 0.5 * (t_a + t_b)
                if not t_a < t < t_b:  # adjacent floats
                    return (g_a, s_a) if -f_a < f_b else (g_b, s_b)
            _, g_t, s_t, f_t = at(t)
            if abs(f_t) <= eps:
                return g_t, s_t
            if f_t < 0.0:
                t_a, g_a, s_a, f_a = t, g_t, s_t, f_t
                f_b *= 0.5 if moved < 0 else 1.0
                moved = -1
            else:
                t_b, g_b, s_b, f_b = t, g_t, s_t, f_t
                f_a *= 0.5 if moved > 0 else 1.0
                moved = 1

    prices = {lid: link.price for lid, link in links.items()}
    s = {}
    converged = False
    try:
        s = slack(prices)
        while not cleared(prices, s):
            start = prices
            for lid in links:
                if abs(min(prices[lid], s[lid])) > tol[lid]:
                    # Steps of max(g_l, 1); t = -1 reaches a price of 0.
                    step = {other: float(other == lid) * max(prices[lid], 1.0) for other in links}
                    prices, s = line_search(prices, s, step)
            if prices == start:  # the next pass would repeat this one
                raise _Unconverged
            move = {lid: prices[lid] - start[lid] if prices[lid] else 0.0 for lid in links}
            if not cleared(prices, s) and fold_sum(s[lid] * move[lid] for lid in links) < 0.0:
                prices, s = line_search(prices, s, move)
        converged = True
    except _Unconverged:
        pass
    return EquilibriumResult(
        g_by_link=prices,
        iterations=evaluations,
        converged=converged,
        residual=_natural_residual(prices, s),
    )


def solve_isp_subgradient(
    links: Mapping[str, LinkState],
    wfp_demand_fn: Callable[[Mapping[str, float]], Mapping[str, float]], *,
    sigma0: float = 1.0, epsilon: float = 1e-6, max_iters: int = 100_000,
) -> EquilibriumResult:
    """The paper's link-price iteration: the oracle for ``solve_isp_prices``.

    ``wfp_demand_fn`` maps candidate link prices to the WFP load each link
    would carry; each outer iteration takes one synchronous dual step of
    ``step_size(t, sigma0)`` on every link, starting from the links' current
    prices.  Stops when the largest price change is below ``epsilon``, otherwise
    flags non-convergence after ``max_iters``.  The residual is not measured.
    """
    prices = {lid: link.price for lid, link in links.items()}
    converged = False
    iterations = 0
    for t in range(max_iters):
        loads = wfp_demand_fn(prices)
        sigma = step_size(t, sigma0)
        updated = {
            lid: isp_link_price_update(prices[lid], sigma, link, loads.get(lid, 0.0))
            for lid, link in links.items()
        }
        delta = max((abs(updated[lid] - prices[lid]) for lid in prices), default=0.0)
        prices = updated
        iterations = t + 1
        if delta < epsilon:
            converged = True
            break
    return EquilibriumResult(
        g_by_link=prices, iterations=iterations, converged=converged
    )
