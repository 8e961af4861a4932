"""Seeded self-checks of the settlement and pricing invariants.

Every suite draws randomized instances from a seeded generator, exercises the
production code paths, and reports one :class:`CheckResult`.  The suites cover
the split's game-theoretic properties (efficiency, symmetry, zero-contribution,
additivity, equal surplus gain, agreement with the ordering-enumeration
oracle), the two revenue guarantees (the ISP never settles below its
standalone take; an individual provider's share never grows with usage), the
shape of the user problem (best response matches a dense grid search, utility
is concave), the exact provider price against the subgradient iteration it
replaced (which stays as the oracle), and both on a small instance with a
known fixed point.

``run_all`` executes everything with seeds derived from one master seed, so a
single integer reproduces the entire battery.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .model import Population, SaleRecord, Settlement, UserProfile, WfpAccount, WfpKind
from .pricing import (
    SolverConfig,
    _allocate,
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
    isp_standalone_revenue,
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


# --- randomized instance generators -----------------------------------------


def random_game(rng: random.Random) -> CoalitionValues:
    """A superadditive two-player game with non-negative standalone values."""
    wfp_value = rng.uniform(0.0, 100.0)
    isp_value = rng.uniform(0.0, 100.0)
    total = wfp_value + isp_value + rng.uniform(0.0, 50.0)
    return CoalitionValues(total_value=total, wfp_value=wfp_value, isp_value=isp_value)


def random_sales(rng: random.Random, wfp_id: str) -> list[SaleRecord]:
    """One to eight sales with final prices at or above the ISP floor."""
    sales = []
    for k in range(rng.randint(1, 8)):
        floor = rng.uniform(0.5, 40.0)
        posted = floor + rng.uniform(0.0, 30.0)
        sales.append(
            SaleRecord(
                user=f"u{k}",
                wfp=wfp_id,
                x=rng.uniform(0.01, 20.0),
                min_price=floor,
                wfp_price=posted,
                final_price=posted,
            )
        )
    return sales


# --- split properties --------------------------------------------------------


def check_efficiency(
    seed: int,
    trials: int = 10_000,
    split_fn: Callable[[CoalitionValues], Settlement] = shapley_split,
) -> CheckResult:
    """The two shares of every game must sum to the grand-coalition value.

    ``split_fn`` is injectable so the test suite can verify the check itself
    rejects a broken splitter.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        game = random_game(rng)
        split = split_fn(game)
        worst = max(worst, abs(split.wfp_share + split.isp_share - game.total_value))
    return CheckResult(
        name="settlement-efficiency",
        passed=worst <= 1e-9,
        detail=f"{trials} random games, max |share sum - total| = {worst:.3g}",
    )


def check_oracle_equivalence(seed: int, trials: int = 10_000) -> CheckResult:
    """Closed-form split equals the ordering-enumeration oracle."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        game = random_game(rng)
        split = shapley_split(game)
        oracle_w, oracle_i = shapley_permutation(coalition_map(game))
        worst = max(
            worst,
            abs(split.wfp_share - oracle_w),
            abs(split.isp_share - oracle_i),
        )
    return CheckResult(
        name="shapley-oracle-equivalence",
        passed=worst <= 1e-9,
        detail=f"{trials} random games, max |closed form - oracle| = {worst:.3g}",
    )


def check_symmetry(seed: int, trials: int = 10_000) -> CheckResult:
    """Players with identical standalone values receive identical shares."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        value = rng.uniform(0.0, 100.0)
        total = 2.0 * value + rng.uniform(0.0, 50.0)
        split = shapley_split(CoalitionValues(total, value, value))
        worst = max(worst, abs(split.wfp_share - split.isp_share))
    return CheckResult(
        name="symmetric-standalone-split",
        passed=worst <= 1e-9,
        detail=f"{trials} symmetric games, max share gap = {worst:.3g}",
    )


def check_zero_contribution(seed: int, trials: int = 10_000) -> CheckResult:
    """A provider with nothing to contribute settles at zero; the ISP keeps all.

    Exercised through the full transaction pipeline with individual accounts
    whose plans are fully used up (unused = 0), not just the bare split.
    """
    rng = random.Random(seed)
    params = SharingParams()
    violations = 0
    worst = 0.0
    for _ in range(trials):
        quota = rng.uniform(1.0, 500.0)
        account = WfpAccount(
            id="iw",
            kind=WfpKind.INDIVIDUAL,
            quota=quota,
            unused=0.0,
            fee=1e9,
        )
        sales = random_sales(rng, "iw")
        settlement, updated = settle_transaction(account, SaleTotals.of(sales), params)
        gap = max(
            abs(settlement.wfp_share),
            abs(settlement.isp_share - settlement.total_value),
            abs(updated.settled_share - account.settled_share),
        )
        worst = max(worst, gap)
        if gap > 1e-9:
            violations += 1
    return CheckResult(
        name="zero-contribution-dummy",
        passed=violations == 0,
        detail=(
            f"{trials} used-up individual accounts, {violations} violations, "
            f"max deviation = {worst:.3g}"
        ),
    )


def check_additivity(seed: int, trials: int = 10_000) -> CheckResult:
    """Splitting the sum of two games equals summing the two splits."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        a = random_game(rng)
        b = random_game(rng)
        combined = CoalitionValues(
            a.total_value + b.total_value,
            a.wfp_value + b.wfp_value,
            a.isp_value + b.isp_value,
        )
        split_sum = shapley_split(combined)
        split_a = shapley_split(a)
        split_b = shapley_split(b)
        worst = max(
            worst,
            abs(split_sum.wfp_share - split_a.wfp_share - split_b.wfp_share),
            abs(split_sum.isp_share - split_a.isp_share - split_b.isp_share),
        )
    return CheckResult(
        name="game-additivity",
        passed=worst <= 1e-9,
        detail=f"{trials} game pairs, max |split(a+b) - split(a) - split(b)| = {worst:.3g}",
    )


def check_equal_surplus_gain(seed: int, trials: int = 10_000) -> CheckResult:
    """Both players gain the same amount over their standalone values."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        game = random_game(rng)
        split = shapley_split(game)
        gain_w = split.wfp_share - game.wfp_value
        gain_i = split.isp_share - game.isp_value
        worst = max(worst, abs(gain_w - gain_i))
    return CheckResult(
        name="equal-surplus-gain",
        passed=worst <= 1e-9,
        detail=f"{trials} random games, max gain asymmetry = {worst:.3g}",
    )


# --- revenue guarantees -------------------------------------------------------


def check_isp_floor_guarantee(seed: int, trials: int = 10_000) -> CheckResult:
    """The ISP's settled share never falls below its standalone revenue.

    Holds for establishment transactions because the contribution divides the
    price spread by a denominator greater than one, so the provider can never
    be credited the entire spread.
    """
    rng = random.Random(seed)
    params = SharingParams()
    account = WfpAccount(id="ew", kind=WfpKind.ESTABLISHMENT, capacity=100.0)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        sales = random_sales(rng, "ew")
        settlement, _ = settle_transaction(account, SaleTotals.of(sales), params)
        shortfall = isp_standalone_revenue(sales) - settlement.isp_share
        worst = max(worst, shortfall)
        if shortfall > 1e-9:
            violations += 1
    return CheckResult(
        name="isp-floor-guarantee",
        passed=violations == 0,
        detail=(
            f"{trials} establishment transactions, {violations} below the floor, "
            f"worst shortfall = {worst:.3g}"
        ),
    )


def check_usage_monotone_share(
    seed: int, trials: int = 1_000, steps: int = 20
) -> CheckResult:
    """An individual provider's share never grows as its plan gets used.

    Sweeps quota usage from fresh to exhausted in ``steps`` increments for
    each random transaction, settled by :func:`settle_transaction`; the
    settled share must be non-increasing along the sweep and exactly zero
    once nothing is unused.
    """
    rng = random.Random(seed)
    params = SharingParams()
    violations = 0
    for _ in range(trials):
        isp_value = rng.uniform(0.0, 50.0)
        total = isp_value + rng.uniform(0.001, 60.0)
        quota = rng.uniform(1.0, 500.0)
        # One sale of volume 1 at price `total` over an ISP floor of `isp_value`.
        totals = SaleTotals("iw", 1, total, isp_value, total - isp_value, isp_value, 1.0)
        base = WfpAccount(
            id="iw", kind=WfpKind.INDIVIDUAL, quota=quota, unused=quota, fee=1e9
        )
        previous = math.inf
        for k in range(steps + 1):
            account = replace(base, unused=quota * (steps - k) / steps)
            settlement, _ = settle_transaction(account, totals, params)
            if settlement.wfp_share > previous + 1e-9:
                violations += 1
            previous = settlement.wfp_share
        if settlement.wfp_value != 0.0:  # the sweep ends with the plan fully used
            violations += 1
    return CheckResult(
        name="usage-monotone-share",
        passed=violations == 0,
        detail=(
            f"{trials} transactions x {steps + 1} usage levels, "
            f"{violations} monotonicity violations"
        ),
    )


def check_floor_discount_monotone(seed: int, trials: int = 1_000) -> CheckResult:
    """For a fixed price spread, dearer ISP floors never raise the credit.

    The establishment contribution divides the spread by max(ln(floor sum),
    beta); scaling every floor up while holding the spread fixed must leave
    the contribution flat or lower.
    """
    rng = random.Random(seed)
    params = SharingParams()
    violations = 0
    for trial in range(trials):
        n = rng.randint(1, 6)
        floors = [rng.uniform(0.2, 10.0) for _ in range(n)]
        spreads = [rng.uniform(0.0, 20.0) for _ in range(n)]
        volumes = [rng.uniform(0.1, 10.0) for _ in range(n)]
        previous = math.inf
        for scale in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            sales = [
                SaleRecord(
                    user=f"u{i}",
                    wfp="ew",
                    x=volumes[i],
                    min_price=floors[i] * scale,
                    wfp_price=floors[i] * scale + spreads[i],
                    final_price=floors[i] * scale + spreads[i],
                )
                for i in range(n)
            ]
            contribution = ewfp_contribution(sales, params)
            if contribution > previous + 1e-9:
                violations += 1
            previous = contribution
    return CheckResult(
        name="floor-discount-monotone",
        passed=violations == 0,
        detail=f"{trials} spread-preserving floor sweeps, {violations} increases",
    )


# --- user problem and price formation ----------------------------------------


def check_best_response_grid(seed: int, trials: int = 1_000) -> CheckResult:
    """Closed-form best response agrees with a dense grid search.

    Each trial grids the user's purchase box at one ten-thousandth of its
    width (boxes are at most 10 wide, so the grid is at least as fine as the
    1e-3 acceptance gap) and also verifies the gridded utility is concave via
    its second differences.  Both forms are checked: the scalar
    ``user_best_response`` and the solvers' array clamp ``_allocate``, with
    the price once as the provider's and once as the user's floor.
    """
    rng = random.Random(seed)
    worst_gap = worst_array_gap = 0.0
    concavity_violations = 0
    for _ in range(trials):
        x_min = rng.uniform(0.001, 0.1)
        width = rng.uniform(0.5, 10.0)
        user = UserProfile(
            id="u",
            weight=rng.uniform(0.5, 2.0),
            budget=rng.uniform(10.0, 200.0),
            tx_power=rng.uniform(0.01, 2.0),
            x_min=x_min,
            x_max=x_min + width,
        )
        price = rng.uniform(0.5, 200.0)
        grid = np.linspace(user.x_min, user.x_max, 10_001)
        utilities = (
            user.weight * np.log(grid * user.snr_factor)
            + 1.0
            - grid * price / user.budget
        )
        grid_best = float(grid[int(np.argmax(utilities))])
        response = user_best_response(price, user)
        worst_gap = max(worst_gap, abs(response - grid_best))
        wb, lo, hi = (np.array([v]) for v in (user.weight * user.budget, x_min, user.x_max))
        for lam, floor in ((price, 0.0), (0.0, price)):
            _, x = _allocate(lam, wb, np.array([floor]), lo, hi)
            worst_array_gap = max(worst_array_gap, abs(float(x[0]) - grid_best))
        if float(np.diff(utilities, n=2).max()) > 1e-12:
            concavity_violations += 1
    return CheckResult(
        name="best-response-grid",
        passed=max(worst_gap, worst_array_gap) <= 1e-3 and concavity_violations == 0,
        detail=(
            f"{trials} gridded boxes, max |closed form - grid argmax| = "
            f"{worst_gap:.3g} (scalar), {worst_array_gap:.3g} (_allocate), "
            f"{concavity_violations} concavity violations"
        ),
    )


def check_exact_vs_subgradient(seed: int, trials: int = 100) -> CheckResult:
    """The exact provider price clears capacity at least as well as the oracle.

    Random feasible instances of one to twenty users (capacity between
    sum x_min and 1.1 * sum x_max, some floors zero): the exact solve must
    meet the capacity constraint to 1e-9 * max(C, 1) and never leave a larger
    residual than the paper's subgradient iteration on the same instance.
    """
    rng = random.Random(seed)
    cfg = SolverConfig(sigma0=1.0, max_iters=1_000)
    worst = 0.0
    violations = 0
    for _ in range(trials):
        users, g = [], []
        for i in range(rng.randint(1, 20)):
            x_min = rng.uniform(0.001, 1.0)
            users.append(
                UserProfile(
                    id=f"u{i}",
                    weight=rng.uniform(0.5, 2.0),
                    budget=rng.uniform(10.0, 200.0),
                    x_min=x_min,
                    x_max=x_min + rng.uniform(0.5, 10.0),
                )
            )
            g.append(rng.choice((0.0, rng.uniform(0.0, 30.0))))
        capacity = rng.uniform(
            sum(u.x_min for u in users), 1.1 * sum(u.x_max for u in users)
        )
        account = WfpAccount(
            id="ew",
            kind=WfpKind.ESTABLISHMENT,
            capacity=capacity,
            min_profit=rng.uniform(0.0, 5.0),
        )
        pop, g = Population.of(users), np.array(g)
        exact = solve_wfp_equilibrium(account, pop, g)
        oracle = solve_wfp_subgradient(account, pop, g, cfg)
        scaled = exact.residual / max(capacity, 1.0)
        worst = max(worst, scaled)
        if not exact.converged or scaled > 1e-9 or exact.residual > oracle.residual:
            violations += 1
    return CheckResult(
        name="exact-vs-subgradient",
        passed=violations == 0,
        detail=(
            f"{trials} random providers, {violations} violations, "
            f"max residual / max(C, 1) = {worst:.3g}"
        ),
    )


def check_capacity_price_convergence() -> CheckResult:
    """The capacity price reaches its known fixed point, exactly and by iteration.

    One user (budget 100, box [0.01, 50]) against a capacity of 5 and a floor
    of 15 clears at a price of 20 selling exactly 5.  The exact solve must hit
    both with a residual of at most 1e-9; the subgradient oracle must converge
    within its iteration budget and land within 0.1% of both figures.
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
    cfg = SolverConfig(sigma0=5.0, epsilon=1e-6, max_iters=100_000)
    result = solve_wfp_subgradient(account, users, g, cfg)
    lam = result.lambda_by_wfp["ew"]
    x = result.x_by_user["u0"]
    rel_lam = abs(lam - 20.0) / 20.0
    rel_x = abs(x - 5.0) / 5.0
    return CheckResult(
        name="capacity-price-convergence",
        passed=exact_ok and result.converged and rel_lam <= 1e-3 and rel_x <= 1e-3,
        detail=(
            f"exact price {exact.lambda_by_wfp['ew']:.9g}, allocation "
            f"{exact.x_by_user['u0']:.9g}, residual {exact.residual:.2e}; "
            f"subgradient converged={result.converged} after {result.iterations} "
            f"iterations, price {lam:.6f} (rel err {rel_lam:.2e}), "
            f"allocation {x:.6f} (rel err {rel_x:.2e})"
        ),
    )


# --- entry point --------------------------------------------------------------

_SEEDED_SUITES: Sequence[tuple[str, Callable[[int], CheckResult]]] = (
    ("settlement-efficiency", check_efficiency),
    ("shapley-oracle-equivalence", check_oracle_equivalence),
    ("symmetric-standalone-split", check_symmetry),
    ("zero-contribution-dummy", check_zero_contribution),
    ("game-additivity", check_additivity),
    ("equal-surplus-gain", check_equal_surplus_gain),
    ("isp-floor-guarantee", check_isp_floor_guarantee),
    ("usage-monotone-share", check_usage_monotone_share),
    ("floor-discount-monotone", check_floor_discount_monotone),
    ("best-response-grid", check_best_response_grid),
    ("exact-vs-subgradient", check_exact_vs_subgradient),
)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite with per-suite seeds derived from ``seed``."""
    master = random.Random(seed)
    results = []
    for name, suite in _SEEDED_SUITES:
        suite_seed = master.randrange(2**32)
        try:
            results.append(suite(suite_seed))
        except Exception as exc:  # a crash is a failed check, not a crash of the CLI
            results.append(CheckResult(name=name, passed=False, detail=f"raised {exc!r}"))
    try:
        results.append(check_capacity_price_convergence())
    except Exception as exc:
        results.append(
            CheckResult(
                name="capacity-price-convergence",
                passed=False,
                detail=f"raised {exc!r}",
            )
        )
    return results
