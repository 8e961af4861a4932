"""Seeded self-checks of the settlement and pricing invariants.

Every suite draws randomized instances from a seeded generator, exercises the
production code paths, and reports one :class:`CheckResult`.  The suites cover
the split's game-theoretic properties (efficiency, symmetry, zero-contribution,
additivity, equal surplus gain, agreement with the ordering-enumeration
oracle), the two revenue guarantees (the ISP never settles below its
standalone take; an individual provider's share never grows with usage), the
shape of the user problem (best response matches a dense grid search, utility
is concave), the exact provider price and the certified ISP link prices
against the subgradient iterations they replaced (which stay as the
oracles), and the provider price on a small instance with a known fixed
point.

A suite is a ``check_*`` function that returns a :class:`CheckResult`.  A
randomized suite is declared as one trial, ``draw(rng, **knobs)``, which returns
a row of statistics; ``@_trials`` makes it the suite ``(seed, trials, **knobs)``,
which folds that many draws from one seeded generator with :func:`_fold` and
passes only if every statistic is at most its bound, which a NaN never is.  The
two suites that are not one trial at a time return ``(passed, detail)`` under
``@_suite(name)``.  ``run_all`` runs the suites in definition order, each with
the next seed drawn from one master seed: one integer reproduces the battery,
and the order fixes the seeds.
"""
from __future__ import annotations

import functools
import inspect
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import _link_demand, _provider_solves
from .model import (
    LinkState,
    Population,
    Settlement,
    UserProfile,
    WfpAccount,
    WfpKind,
    fold_sum,
)
from .pricing import (
    ISP_TOLERANCE,
    _allocate,
    _link_slack,
    _natural_residual,
    solve_isp_prices,
    solve_isp_subgradient,
    solve_wfp_equilibrium,
    solve_wfp_subgradient,
    user_best_response,
)
from .sharing import (
    CoalitionValues,
    SaleTotals,
    SharingParams,
    coalition_map,
    ewfp_contribution,
    settle_rows,
    settle_transaction,
    shapley_permutation,
    shapley_split,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-check suite."""

    name: str
    passed: bool
    detail: str = ""


_SUITES: list[tuple[str, Callable[[int], CheckResult]]] = []


def _suite(name: str) -> Callable[[Callable[..., tuple[bool, str]]], Callable[..., CheckResult]]:
    """Decorator: a check returning ``(passed, detail)`` becomes a suite returning
    ``CheckResult(name, passed, detail)``, appended to :data:`_SUITES`."""

    def register(check: Callable[..., tuple[bool, str]]) -> Callable[..., CheckResult]:
        @functools.wraps(check)
        def suite(*args, **kwargs) -> CheckResult:
            return CheckResult(name, *check(*args, **kwargs))

        _SUITES.append((name, suite))
        return suite

    return register


def _fold(rows, bound=1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Each column's largest statistic, folded from 0.0, and how many of its statistics
    are not at most ``bound`` (a number, or one per column).  ``rows`` holds one row of
    statistics per trial; a NaN is never at most its bound, so it fails its column and
    makes that column's largest statistic NaN."""
    rows = np.array(rows, dtype=float)
    return np.max(rows, axis=0, initial=0.0), np.count_nonzero(~(rows <= bound), axis=0)


def _trials(
    name: str, trials: int, detail: Callable[..., str], bound=1e-9
) -> Callable[[Callable[..., Sequence[float]]], Callable[..., CheckResult]]:
    """Decorator: a one-trial ``draw(rng, **knobs)`` that returns a row of statistics
    becomes the :func:`_suite` ``(seed, trials=<trials>, **knobs)``, with the draw's name,
    docstring and keywords.  It folds ``trials`` draws from one ``random.Random(seed)``
    with :func:`_fold`, passes when no statistic exceeds ``bound`` (a number, or one per
    column), and reports ``detail(trials, worst, violations, **knobs)``."""

    def register(draw: Callable[..., Sequence[float]]) -> Callable[..., CheckResult]:
        head = functools.partial(inspect.Parameter, kind=inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                 annotation="int")
        _, *keywords = inspect.signature(draw).parameters.values()
        signature = inspect.Signature([head("seed"), head("trials", default=trials), *keywords])

        @functools.wraps(draw)
        def check(*args, **kwargs) -> tuple[bool, str]:
            call = signature.bind(*args, **kwargs)  # a TypeError on an unknown keyword
            call.apply_defaults()
            knobs = dict(call.arguments)
            seed, count = knobs.pop("seed"), knobs.pop("trials")
            rng = random.Random(seed)
            worst, violations = _fold([draw(rng, **knobs) for _ in range(count)], bound)
            return not violations.any(), detail(count, worst, violations, **knobs)

        check.__signature__ = signature
        return _suite(name)(check)

    return register


# --- randomized instance generators -----------------------------------------


def random_game(rng: random.Random) -> CoalitionValues:
    """A superadditive two-player game with non-negative standalone values."""
    wfp_value = rng.uniform(0.0, 100.0)
    isp_value = rng.uniform(0.0, 100.0)
    total = wfp_value + isp_value + rng.uniform(0.0, 50.0)
    return CoalitionValues(total_value=total, wfp_value=wfp_value, isp_value=isp_value)


def random_sales(rng: random.Random) -> SaleTotals:
    """The totals of one to eight sales with final prices at or above the ISP
    floor, summed in draw order."""
    sales = []
    for _ in range(rng.randint(1, 8)):
        floor = rng.uniform(0.5, 40.0)
        price = floor + rng.uniform(0.0, 30.0)
        sales.append((rng.uniform(0.01, 20.0), floor, price))
    return SaleTotals(
        count=len(sales),
        revenue=fold_sum(x * price for x, _, price in sales),
        isp_revenue=fold_sum(x * floor for x, floor, _ in sales),
        spread=fold_sum((price - floor) * x for x, floor, price in sales),
        floor_sum=fold_sum(floor for _, floor, _ in sales),
        volume=fold_sum(x for x, _, _ in sales),
    )


# --- split properties --------------------------------------------------------


Splitter = Callable[[CoalitionValues], Settlement]


def _gap(draws: str, gap: str) -> Callable[..., str]:
    """A split property's detail, "<trials> <draws>, <gap> = <worst>".  Its ``split_fn``
    lets a test show that the check rejects a broken splitter."""
    return lambda trials, worst, _, split_fn: f"{trials} {draws}, {gap} = {worst.max():.3g}"


@_trials("settlement-efficiency", 10_000, _gap("random games", "max |share sum - total|"))
def check_efficiency(rng: random.Random, split_fn: Splitter = shapley_split):
    """The two shares of every game must sum to the grand-coalition value."""
    game = random_game(rng)
    split = split_fn(game)
    return (abs(split.wfp_share + split.isp_share - game.total_value),)


@_trials("shapley-oracle-equivalence", 10_000, _gap("random games", "max |closed form - oracle|"))
def check_oracle_equivalence(rng: random.Random, split_fn: Splitter = shapley_split):
    """Closed-form split equals the ordering-enumeration oracle."""
    game = random_game(rng)
    split = split_fn(game)
    oracle_w, oracle_i = shapley_permutation(coalition_map(game))
    return abs(split.wfp_share - oracle_w), abs(split.isp_share - oracle_i)


@_trials("symmetric-standalone-split", 10_000, _gap("symmetric games", "max share gap"))
def check_symmetry(rng: random.Random, split_fn: Splitter = shapley_split):
    """Players with identical standalone values receive identical shares."""
    value = rng.uniform(0.0, 100.0)
    total = 2.0 * value + rng.uniform(0.0, 50.0)
    split = split_fn(CoalitionValues(total, value, value))
    return (abs(split.wfp_share - split.isp_share),)


@_trials("zero-contribution-dummy", 10_000, lambda trials, worst, violations: (
    f"{trials} used-up individual accounts, {violations.sum()} violations, "
    f"max deviation = {worst.max():.3g}"
))
def check_zero_contribution(rng: random.Random) -> tuple[float, float, float]:
    """A provider with nothing to contribute settles at zero; the ISP keeps all.

    Exercised through the full transaction pipeline with individual accounts
    whose plans are fully used up (unused = 0), not just the bare split.
    """
    quota = rng.uniform(1.0, 500.0)
    account = WfpAccount(id="iw", kind=WfpKind.INDIVIDUAL, quota=quota, unused=0.0, fee=1e9)
    settlement, updated = settle_transaction(account, random_sales(rng), SharingParams())
    return (
        abs(settlement.wfp_share),
        abs(settlement.isp_share - settlement.total_value),
        abs(updated.settled_share - account.settled_share),
    )


@_trials("game-additivity", 10_000, _gap("game pairs", "max |split(a+b) - split(a) - split(b)|"))
def check_additivity(rng: random.Random, split_fn: Splitter = shapley_split):
    """Splitting the sum of two games equals summing the two splits."""
    a, b = random_game(rng), random_game(rng)
    combined = CoalitionValues(
        a.total_value + b.total_value, a.wfp_value + b.wfp_value, a.isp_value + b.isp_value
    )
    split_sum, split_a, split_b = map(split_fn, (combined, a, b))
    return (
        abs(split_sum.wfp_share - split_a.wfp_share - split_b.wfp_share),
        abs(split_sum.isp_share - split_a.isp_share - split_b.isp_share),
    )


@_trials("equal-surplus-gain", 10_000, _gap("random games", "max gain asymmetry"))
def check_equal_surplus_gain(rng: random.Random, split_fn: Splitter = shapley_split):
    """Both players gain the same amount over their standalone values."""
    game = random_game(rng)
    split = split_fn(game)
    return (abs((split.wfp_share - game.wfp_value) - (split.isp_share - game.isp_value)),)


# --- revenue guarantees -------------------------------------------------------


@_suite("isp-floor-guarantee")
def check_isp_floor_guarantee(seed: int, trials: int = 10_000) -> tuple[bool, str]:
    """The ISP's settled share never falls below its standalone revenue.

    Holds for establishment transactions because the contribution divides the
    price spread by a denominator greater than one, so the provider can never
    be credited the entire spread.  The transactions settle in one
    :func:`settle_rows` call, one row each.
    """
    rng = random.Random(seed)
    params = SharingParams()
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=100.0)
    rows = [random_sales(rng) for _ in range(trials)]
    totals = SaleTotals(*(np.array(column) for column in zip(*(vars(t).values() for t in rows))))
    settled = settle_rows(account, totals, params, np.zeros(trials), np.zeros(trials))
    (worst,), (violations,) = _fold((totals.isp_revenue - settled.isp_share)[:, None])
    return not violations, (
        f"{trials} establishment transactions, {violations} below the floor, "
        f"worst shortfall = {worst:.3g}"
    )


@_trials("usage-monotone-share", 1_000, lambda trials, _, violations, steps: (
    f"{trials} transactions x {steps + 1} usage levels, "
    f"{violations.sum()} monotonicity violations"
))
def check_usage_monotone_share(rng: random.Random, steps: int = 20) -> np.ndarray:
    """An individual provider's share never grows as its plan gets used.

    Sweeps quota usage from fresh to exhausted in ``steps`` increments for
    each random transaction, all levels settled in one :func:`settle_rows`
    call (one row of sums, one column of plan states); the settled share must
    be non-increasing along the sweep and exactly zero once nothing is unused.
    Its statistics: each usage level's share less the previous one's, then 1.0
    if the fully used plan still has value, else 0.0.
    """
    isp_value = rng.uniform(0.0, 50.0)
    total = isp_value + rng.uniform(0.001, 60.0)
    quota = rng.uniform(1.0, 500.0)
    # One sale of volume 1 at price `total` over an ISP floor of `isp_value`.
    sale = (1, total, isp_value, total - isp_value, isp_value, 1.0)
    totals = SaleTotals(*(np.array([value]) for value in sale))
    account = WfpAccount(id="iw", kind=WfpKind.INDIVIDUAL, quota=quota, unused=quota, fee=1e9)
    unused = np.array([[quota * (steps - k) / steps] for k in range(steps + 1)])
    settled = settle_rows(account, totals, SharingParams(), unused, np.zeros(1))
    shares = settled.wfp_share[:, 0]
    return np.append(shares[1:] - shares[:-1], settled.wfp_value[-1, 0] != 0.0)


@_trials("floor-discount-monotone", 1_000, lambda trials, _, violations: (
    f"{trials} spread-preserving floor sweeps, {violations.sum()} increases"
))
def check_floor_discount_monotone(rng: random.Random) -> list[float]:
    """For a fixed price spread, dearer ISP floors never raise the credit.

    The establishment contribution divides the spread by max(ln(floor sum),
    beta); scaling every floor up while holding the spread fixed must leave
    the contribution flat or lower.  Its statistics: each scale's contribution
    less the previous one's (-inf for the first).
    """
    n = rng.randint(1, 6)
    floors = [rng.uniform(0.2, 10.0) for _ in range(n)]
    spreads = [rng.uniform(0.0, 20.0) for _ in range(n)]
    volumes = [rng.uniform(0.1, 10.0) for _ in range(n)]
    previous, found = math.inf, []
    for scale in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        prices = [floors[i] * scale + spreads[i] for i in range(n)]
        floor_sum = fold_sum(floors[i] * scale for i in range(n))
        spread = fold_sum((prices[i] - floors[i] * scale) * volumes[i] for i in range(n))
        # revenue, isp_revenue and volume are not read by the contribution
        totals = SaleTotals(n, 0.0, 0.0, spread, floor_sum, 0.0)
        contribution = ewfp_contribution(totals, SharingParams())
        found.append(contribution - previous)
        previous = contribution
    return found


# --- user problem and price formation ----------------------------------------


@_trials("best-response-grid", 1_000, lambda trials, worst, violations: (
    f"{trials} gridded boxes, max |closed form - grid argmax| = "
    f"{worst[0]:.3g} (scalar), {worst[1:3].max():.3g} (_allocate), "
    f"{violations[3]} concavity violations"
), bound=(1e-3, 1e-3, 1e-3, 1e-12))
def check_best_response_grid(rng: random.Random) -> list[float]:
    """Closed-form best response agrees with a dense grid search.

    Each trial grids the user's purchase box at one ten-thousandth of its
    width (boxes are at most 10 wide, so the grid is at least as fine as the
    1e-3 acceptance gap) and also verifies the gridded utility is concave via
    its second differences.  Both forms are checked: the scalar
    ``user_best_response`` and the solvers' array clamp ``_allocate``, with
    the price once as the provider's and once as the user's floor.  Its
    statistics: |scalar - grid argmax|, |_allocate - grid argmax| for each
    price role, and the largest second difference of the gridded utility.
    """
    x_min = rng.uniform(0.001, 0.1)
    width = rng.uniform(0.5, 10.0)
    user = UserProfile(id="u", weight=rng.uniform(0.5, 2.0), budget=rng.uniform(10.0, 200.0),
                       tx_power=rng.uniform(0.01, 2.0), x_min=x_min, x_max=x_min + width)
    price = rng.uniform(0.5, 200.0)
    grid = np.linspace(user.x_min, user.x_max, 10_001)
    utilities = user.weight * np.log(grid * user.snr_factor) + 1.0 - grid * price / user.budget
    grid_best = float(grid[int(np.argmax(utilities))])
    found = [abs(user_best_response(price, user) - grid_best)]
    wb, lo, hi = (np.array([v]) for v in (user.weight * user.budget, x_min, user.x_max))
    for lam, floor in ((price, 0.0), (0.0, price)):
        _, x = _allocate(lam, wb, np.array([floor]), lo, hi)
        found.append(abs(float(x[0]) - grid_best))
    return [*found, float(np.diff(utilities, n=2).max())]


@_trials("exact-vs-subgradient", 100, lambda trials, worst, violations: (
    f"{trials} random providers, {violations[0]} violations, "
    f"max residual / max(C, 1) = {worst[1]:.3g}"
), bound=(0.0, math.inf))
def check_exact_vs_subgradient(rng: random.Random) -> tuple[bool, float]:
    """The exact provider price clears capacity at least as well as the oracle.

    Random feasible instances of one to twenty users (capacity between
    sum x_min and 1.1 * sum x_max, some floors zero): the exact solve must
    meet the capacity constraint to 1e-9 * max(C, 1) and never leave a larger
    residual than the paper's subgradient iteration on the same instance.
    Its statistics: whether the exact solve fails, and its residual /
    max(C, 1).
    """
    users, g = [], []
    for i in range(rng.randint(1, 20)):
        x_min = rng.uniform(0.001, 1.0)
        users.append(UserProfile(id=f"u{i}", weight=rng.uniform(0.5, 2.0),
                                 budget=rng.uniform(10.0, 200.0), x_min=x_min,
                                 x_max=x_min + rng.uniform(0.5, 10.0)))
        g.append(rng.choice((0.0, rng.uniform(0.0, 30.0))))
    low, high = fold_sum(u.x_min for u in users), 1.1 * fold_sum(u.x_max for u in users)
    capacity = rng.uniform(low, high)
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=capacity,
                         min_profit=rng.uniform(0.0, 5.0))
    pop, g = Population.of(users), np.array(g)
    exact = solve_wfp_equilibrium(account, pop, g)
    oracle = solve_wfp_subgradient(account, pop, g, max_iters=1_000)
    scaled = exact.residual / max(capacity, 1.0)
    ok = exact.converged and scaled <= 1e-9 and exact.residual <= oracle.residual
    return not ok, scaled


def random_network(
    rng: random.Random,
) -> tuple[dict[str, LinkState], list[WfpAccount], list[UserProfile]]:
    """One to three links, one to three establishments, one to five users each.

    Every user routes over a random non-empty set of links.  Each link's
    residual capacity lies between its crossing users' sum of x_min and 1.1
    times their sum of x_max (so some links bind and some do not, and every
    link can clear); its price starts anywhere in [0, 20].
    """
    link_ids = [f"L{k}" for k in range(rng.randint(1, 3))]
    accounts, users = [], []
    for k in range(rng.randint(1, 3)):
        accounts.append(
            WfpAccount(
                id=f"e{k}",
                kind=WfpKind.ESTABLISHMENT,
                capacity=rng.uniform(5.0, 200.0),
                min_profit=rng.uniform(0.0, 5.0),
            )
        )
        for i in range(rng.randint(1, 5)):
            x_min = rng.uniform(0.001, 0.1)
            users.append(
                UserProfile(
                    id=f"u{k}.{i}",
                    wfp=f"e{k}",
                    path=tuple(rng.sample(link_ids, rng.randint(1, len(link_ids)))),
                    weight=rng.uniform(0.5, 2.0),
                    budget=rng.uniform(10.0, 200.0),
                    x_min=x_min,
                    x_max=x_min + rng.uniform(0.5, 10.0),
                )
            )
    links = {}
    for lid in link_ids:
        crossing = [u for u in users if lid in u.path]
        low, high = fold_sum(u.x_min for u in crossing), 1.1 * fold_sum(u.x_max for u in crossing)
        subscriber_load = rng.uniform(0.0, 50.0)
        links[lid] = LinkState(
            id=lid,
            capacity=subscriber_load + rng.uniform(low, high),
            subscriber_load=subscriber_load,
            price=rng.uniform(0.0, 20.0),
        )
    return links, accounts, users


@_trials("isp-exact-vs-subgradient", 30, lambda trials, worst, violations: (
    f"{trials} random networks, {violations[0]} violations, max residual / "
    f"max(C, 1) = {worst[1]:.3g}, at most {worst[2]:.0f} load evaluations"
), bound=(0.0, math.inf, math.inf))
def check_isp_exact_vs_subgradient(rng: random.Random) -> tuple[bool, float, int]:
    """The certified link prices clear every link at least as well as the oracle.

    On random networks (see :func:`random_network`), with the engine's WFP
    load response, the certified ISP solve must converge with every link's
    natural residual |min(g_l, s_l)| within ``ISP_TOLERANCE * max(C_l, 1)``,
    and its residual must never exceed that of the paper's subgradient
    iteration on the same instance.  Its statistics: whether the certified
    solve fails, its largest residual / max(C_l, 1), and its load evaluations.
    """
    links, accounts, users = random_network(rng)
    pop = Population.of(users, [a.id for a in accounts])
    customers = [pop.take(np.flatnonzero(pop.provider == k)) for k in range(len(accounts))]
    demand = _link_demand(links, pop, customers, _provider_solves(accounts, customers))
    exact = solve_isp_prices(links, demand, max_iters=1_000)  # the largest seen is ~300
    oracle = solve_isp_subgradient(links, demand, max_iters=200)
    slack = _link_slack(links, demand(exact.g_by_link))
    scaled = np.max([
        abs(min(exact.g_by_link[lid], s)) / max(links[lid].capacity, 1.0)
        for lid, s in slack.items()
    ])
    oracle_residual = _natural_residual(
        oracle.g_by_link, _link_slack(links, demand(oracle.g_by_link))
    )
    ok = exact.converged and scaled <= ISP_TOLERANCE and exact.residual <= oracle_residual
    return not ok, scaled, exact.iterations


@_suite("capacity-price-convergence")
def check_capacity_price_convergence(seed: int = 0) -> tuple[bool, str]:
    """The capacity price reaches its known fixed point, exactly and by iteration.

    One user (budget 100, box [0.01, 50]) against a capacity of 5 and a floor
    of 15 clears at a price of 20 selling exactly 5.  The exact solve must hit
    both with a residual of at most 1e-9; the subgradient oracle must converge
    within its iteration budget and land within 0.1% of both figures.  The
    instance is fixed, so ``seed`` is ignored.
    """
    account = WfpAccount(
        id="ew", kind=WfpKind.ESTABLISHMENT, capacity=5.0, min_profit=5.0
    )
    users = Population.of([UserProfile(id="u0", budget=100.0, x_min=0.01, x_max=50.0)])
    g = np.array([10.0])
    exact = solve_wfp_equilibrium(account, users, g)
    exact_ok = (
        exact.converged
        and abs(exact.lambda_by_wfp["ew"] - 20.0) <= 1e-9
        and abs(exact.x_by_user["u0"] - 5.0) <= 1e-9
        and exact.residual <= 1e-9
    )
    result = solve_wfp_subgradient(account, users, g, sigma0=5.0)
    lam = result.lambda_by_wfp["ew"]
    x = result.x_by_user["u0"]
    rel_lam = abs(lam - 20.0) / 20.0
    rel_x = abs(x - 5.0) / 5.0
    return exact_ok and result.converged and rel_lam <= 1e-3 and rel_x <= 1e-3, (
        f"exact price {exact.lambda_by_wfp['ew']:.9g}, allocation "
        f"{exact.x_by_user['u0']:.9g}, residual {exact.residual:.2e}; "
        f"subgradient converged={result.converged} after {result.iterations} "
        f"iterations, price {lam:.6f} (rel err {rel_lam:.2e}), "
        f"allocation {x:.6f} (rel err {rel_x:.2e})"
    )


# --- entry point --------------------------------------------------------------

def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite with per-suite seeds derived from ``seed``."""
    master = random.Random(seed)
    results = []
    for name, suite in _SUITES:
        try:
            results.append(suite(master.randrange(2**32)))
        except Exception as exc:  # a crash is a failed check, not a crash of the CLI
            results.append(CheckResult(name=name, passed=False, detail=f"raised {exc!r}"))
    return results
