"""Scenario engine: turns a ScenarioConfig into a per-step TimeSeries.

Four run shapes:

* sweep        -- one side's price ramps exogenously; the other side takes one
                  dual step per increment (used for the provider/ISP share
                  studies on establishment providers),
* equilibrium  -- both sides solve for prices every tick, users join over
                  time, individual quotas deplete and replenish per billing
                  cycle,
* quota sweep  -- individual providers settled at fixed posted prices while
                  remaining quota walks from full to empty,
* ceiling sweep -- a posted-price ramp repeated at several usage levels to map
                  the largest share an individual provider can reach.

Every runner builds its population once, as parallel arrays over one roster: each
user entry's ``count`` copies of it, then the growth clones cycling through those
users, so each step uses a prefix.  It settles each provider from its sales' totals,
and keeps the steps as columns (:class:`~wifimarket.model.StepBlock`).  Sweep and
equilibrium runs share one tick loop, ``_run_ticks``; each passes only its price rule
(a generator of each tick's prices: the sweep's ramp and dual step, the equilibrium's
solves) and walk-away, which also sets whom the mean utility counts.  The loop settles
an individual provider inside it, one ``settle_transaction`` per tick, since its plan
feeds the next tick; an establishment has no plan, so all its ticks settle after it in
one :func:`~wifimarket.sharing.settle_rows` call.  It keeps one one-row block per tick,
its per-user rows holding one value per template (user entry), which its copies and
clones read.  The quota and ceiling sweeps pass ``_snapshots`` only each provider's
series; it settles a provider's in one ``settle_rows`` call, one block per series.
Per-user float sums (settlement totals, means, demand), like the price solves' in
:mod:`~wifimarket.pricing`, are each the sequential left fold 0.0 + v[0] + v[1] + ...
over the users in roster order, whatever the Python or numpy version: by
:func:`~wifimarket.model.running_total`, or, for a tick run's establishment sales and
mean utility, after the loop by ``_fold``, one join group per slow-axis reduce.
Step records are built only when read.

Runs are deterministic functions of the config: same document, same series.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping

import numpy as np

from .config import (
    CeilingSweepMode,
    EquilibriumMode,
    QuotaSweepMode,
    ScenarioConfig,
    SweepMode,
)
from .model import (
    SCALAR_FIELDS,
    KeyedRows,
    Population,
    Roster,
    Settlement,
    StepBlock,
    TimeSeries,
    WfpAccount,
    WfpKind,
    effective_capacity,
    running_total,
)
from .pricing import (
    isp_link_price_update,
    min_price_for_path,
    solve_isp_prices,
    solve_wfp_equilibrium,
    step_size,
    user_utility,  # noqa: F401 -- re-exported: the scalar form of _utility
    wfp_price_update,
)
from .sharing import SaleTotals, settle_rows, settle_transaction


#: Columns of StepBlock.scalars.
_TOTAL, _WFP_PCT = SCALAR_FIELDS.index("total_value"), SCALAR_FIELDS.index("wfp_share_pct")


def _scalars(settled: Settlement, utility) -> np.ndarray:
    """Each step's scalar fields: its settlement (one row per step), the two share
    percentages computed from it, and its mean utility."""
    total = settled.total_value
    sold = total > 0.0
    wfp_pct = np.divide(100.0 * settled.wfp_share, total, out=np.zeros(len(total)), where=sold)
    isp_pct = np.where(sold, 100.0 - wfp_pct, 0.0)
    return np.column_stack((
        total, settled.wfp_value, settled.isp_value,
        settled.wfp_share, settled.isp_share, wfp_pct, isp_pct, utility,
    ))


def _population(cfg: ScenarioConfig, clones: int) -> tuple[Population, np.ndarray, np.ndarray]:
    """The document's users, each entry's ``count`` copies, then ``clones`` growth clones
    cycling through them; each user's template (its entry's number) and each one's first user."""
    base = Population.of(cfg.users, [w.id for w in cfg.wfps])
    n = len(base)
    cycle = np.arange(n + clones) % n
    ids = base.roster.ids + [f"{base.roster.ids[k % n]}+{k + 1:05d}" for k in range(clones)]
    templates = np.repeat(np.arange(len(cfg.users)), [u.count for u in cfg.users])[cycle]
    return base.take(cycle, ids), templates, np.flatnonzero(np.diff(templates[:n], prepend=-1))


def _floors(pop: Population, link_prices: Mapping[str, float]) -> np.ndarray:
    """Each user's ISP floor: one path sum per distinct route."""
    by_path = np.array([min_price_for_path(p, link_prices) for p in pop.paths], dtype=float)
    return by_path[pop.path]


def _utility(pop: Population, idx, x: np.ndarray, prices) -> np.ndarray:
    """``user_utility`` of the users at ``idx`` (x > 0); ``prices`` may hold one
    row of the users' prices per step.  The log term is ``math.log`` of each
    user's x * snr, as in ``user_utility``."""
    logs = np.array([math.log(v) for v in (x * pop.snr[idx]).tolist()])
    return pop.weight[idx] * logs + (1.0 - x * prices / pop.budget[idx])


def _link_loads(
    links, pop: Population, path: np.ndarray, x: np.ndarray
) -> dict[str, float]:
    """WFP load per link: each user's x, in the order given, once per crossing."""
    loads = {}
    for lid in links:
        crossings = np.array([p.count(lid) for p in pop.paths], dtype=np.intp)
        loads[lid] = running_total(np.repeat(x, crossings[path]))
    return loads


def _link_demand(
    links, pop: Population, accounts: list[WfpAccount], customers: list[Population]
):
    """The WFP load per link as a function of link prices.

    ``customers[k]`` are ``accounts[k]``'s users, taken from ``pop``.  Each
    call floors every user at its path's price, solves every provider exactly
    against those floors, and sums the purchases over the links, provider by
    provider.  An infinite price on a link holds every user crossing it at
    x_min.
    """
    path = np.concatenate([users.path for users in customers])

    def wfp_demand(prices: Mapping[str, float]) -> dict[str, float]:
        x = [
            solve_wfp_equilibrium(account, users, _floors(users, prices))
            .x_by_user.array
            for account, users in zip(accounts, customers)
        ]
        return _link_loads(links, pop, path, np.concatenate(x))

    return wfp_demand


def _fold(cells: np.ndarray, templates: np.ndarray, sizes) -> np.ndarray:
    """Each tick's column totals: row t folds ``cells[templates[j], t]`` over the first
    ``sizes[t]`` users j from 0.0 in roster order, bit for bit, by one ``np.add.reduce`` per
    join group (the users who join at tick s; the first row of their block, ticks s and
    later, also holds the running totals).  numpy adds a block's rows one by one, summing
    pairwise only along the fast axis, which is the reduced one if a row holds one value.
    """
    if cells.shape[-1] < 2:
        raise ValueError("a one-value row would be summed pairwise, not in roster order")
    totals = np.zeros(cells.shape[1:])
    for s, (start, end) in enumerate(zip([0, *sizes], sizes)):
        if end > start:
            block = np.ascontiguousarray(cells[templates[start:end], s:])  # a fresh C-order copy
            block[0] += totals[s:]
            np.add.reduce(block, axis=0, out=totals[s:])
    return totals


def _run_ticks(cfg: ScenarioConfig, ticks: int, growth: int, price_rule, *,
               walk_away: bool) -> tuple[TimeSeries, np.ndarray]:
    """The tick loop of sweep and equilibrium runs; returns the series and its scalars.

    Tick t runs the first ``sizes[t]`` users, ``growth`` more each tick.  The generator
    ``price_rule(pop, first, accounts, sizes)`` yields each tick's lambdas (provider order)
    and its templates' g, final prices and x (template k's are its first user's, ``first[k]``;
    each user reads its template's, in roster order), and is sent back the tick's purchases
    per user.  ``walk_away``: a buyer whose best buy is a net loss does not buy, and the mean
    utility is over every user (a non-buyer 0); without it, the mean is over the buyers.
    An individual's plan state feeds the next tick, so it settles tick by tick, updating
    ``accounts``; an establishment has none, so its ticks settle after the loop, in one
    ``settle_rows`` call.  Each settles from its users' sale cells folded in roster order.
    """
    m, x_floor = len(cfg.users), cfg.solver.x_floor  # user j copies entry templates[j]
    pop, templates, first = _population(cfg, growth * max(ticks - 1, 0))
    sizes = [len(pop) - growth * t for t in reversed(range(ticks))]
    accounts = list(cfg.wfps)  # the settlements and the price rule update it in place
    paid = np.zeros((len(accounts), ticks, 5))  # each provider's Settlement row per tick
    # per template and tick: SaleTotals' fields, utility and whether the mean counts it
    sale_cells, utility_cells = np.zeros((m, ticks, 6)), np.zeros((m, ticks, 2))
    rule = price_rule(pop, first, accounts, sizes)
    lambdas, rows, bought = [], [], None
    for t, n in enumerate(sizes):
        lam, g, prices, x = rule.send(bought)
        index, provider = templates[:n], pop.provider[:n]
        x[x < x_floor] = 0.0  # too little to sell: no purchase
        utility, buyers = np.zeros(m), np.flatnonzero(x > 0.0)
        utility[buyers] = _utility(pop, first[buyers], x[buyers], prices[buyers])
        if walk_away:  # individual rationality: not buying beats a net loss
            x[utility < 0.0] = utility[utility < 0.0] = 0.0
        bought, sold = x[index], x > 0.0
        sale_cells[:, t] = np.where(sold, (sold, x * prices, x * g, (prices - g) * x, g, x), 0.0).T
        for k, account in enumerate(accounts):
            if account.kind is WfpKind.INDIVIDUAL:
                count, *sums = running_total(sale_cells[index[provider == k], t]).tolist()
                split, accounts[k] = settle_transaction(account, SaleTotals(int(count), *sums),
                                                        cfg.sharing)
                paid[k, t] = list(vars(split).values())
        utility_cells[:, t, 0], utility_cells[:, t, 1] = utility, sold | walk_away
        rows.append(tuple(KeyedRows(pop.roster, row[None], index) for row in (g, prices, x)))
        lambdas.append(lam)

    for k, account in enumerate(accounts):
        if account.kind is WfpKind.ESTABLISHMENT:
            mine = np.flatnonzero(pop.provider == k)
            totals = SaleTotals(*_fold(sale_cells, templates[mine], np.searchsorted(mine, sizes)).T)
            split = settle_rows(account, totals, cfg.sharing, *np.zeros((2, ticks)))
            paid[k] = np.transpose(list(vars(split).values()))
    utility, counted = _fold(utility_cells, templates, sizes).T
    means = np.divide(utility, counted, out=np.zeros(ticks), where=counted > 0.0)
    providers = Roster([w.id for w in cfg.wfps])
    scalars = _scalars(Settlement(*running_total(paid).T), means)  # added in provider order
    lambda_rows, index = np.array(lambdas, dtype=float), np.arange(ticks)
    blocks = [
        StepBlock("run", index[t : t + 1], scalars[t : t + 1],
                  (KeyedRows(providers, lambda_rows[t : t + 1]), *users))
        for t, users in enumerate(rows)
    ]
    return TimeSeries(cfg.name, blocks), scalars


def run_sweep(cfg: ScenarioConfig) -> TimeSeries:
    """Exogenous price ramp on one side of the market.

    Per increment: set the swept price, grow the population, allocate
    bandwidth (equal split of provider capacity, or best response), settle one
    transaction per provider, then let the non-swept party take a single
    projected dual step against this increment's demand.  The summary reports
    where the provider's share first overtakes the ISP's and how often the two
    shares cross.
    """
    mode = cfg.mode
    assert isinstance(mode, SweepMode)

    def ramp(pop: Population, first: np.ndarray, accounts: list[WfpAccount], sizes: list[int]):
        tpl = pop.take(first)  # the templates' own population
        margin = np.array([a.min_profit for a in accounts])[tpl.provider]
        lam = np.full(len(accounts), mode.lambda0, dtype=float)  # provider order
        link_prices = {lid: link.price for lid, link in cfg.links.items()}
        for t, n in enumerate(sizes):
            swept_price = mode.start + t * mode.step
            provider = pop.provider[:n]
            if mode.swept_party == "isp":
                link_prices = {lid: swept_price for lid in link_prices}
            else:
                lam[:] = swept_price

            g = _floors(tpl, link_prices)
            prices = np.maximum(lam[tpl.provider], g + margin)
            if mode.allocation == "equal":
                members = np.bincount(provider, minlength=len(accounts)).tolist()
                share = [effective_capacity(a) / max(k, 1) for a, k in zip(accounts, members)]
                x = np.array(share)[tpl.provider]
            else:
                with np.errstate(divide="ignore"):
                    ideal = tpl.wb / prices
                x = np.minimum(np.maximum(ideal, tpl.x_min), tpl.x_max)
            user_x = yield lam.tolist(), g, prices, x

            # One dual step for the party that is not being swept.
            sigma = step_size(t, mode.sigma0)
            if mode.swept_party == "isp":
                for k, account in enumerate(accounts):
                    demand = running_total(user_x[provider == k])
                    lam[k] = wfp_price_update(lam[k], sigma, effective_capacity(account), demand)
            else:
                loads = _link_loads(link_prices, pop, pop.path[:n], user_x)
                link_prices = {
                    lid: isp_link_price_update(link_prices[lid], sigma, cfg.links[lid], loads[lid])
                    for lid in link_prices
                }

    ts, scalars = _run_ticks(cfg, mode.count, mode.user_growth, ramp, walk_away=False)
    above = scalars[:, _WFP_PCT] > 50.0
    ts.summary["crossover_step"] = float(above.argmax() if above.any() else -1)
    ts.summary["crossings"] = float(np.count_nonzero(above[1:] != above[:-1]))
    return ts


def run_equilibrium(cfg: ScenarioConfig) -> TimeSeries:
    """Tick-driven run where prices come out of the dual solvers.

    Per tick: refresh exogenous subscriber loads, solve the ISP's certified
    link prices from the last tick's (when ``solve_isp`` is on; a flagged
    solve's prices are used as they are), solve every provider's exact
    clearing price against the resulting floors, drop users whose best
    response would leave them worse off than not buying, settle, and let
    individual accounts deplete.  Quotas replenish every
    ``billing_cycle_ticks`` ticks.  The summary counts the ISP and provider
    solves that end unconverged (``solver.unconverged``) and keeps the
    largest residual of any solve (``solver.max_residual``).
    """
    mode = cfg.mode
    assert isinstance(mode, EquilibriumMode)
    health = {"solver.unconverged": 0.0, "solver.max_residual": 0.0}

    def flag(result):
        """``result``, counted into the run's solver health."""
        health["solver.unconverged"] += not result.converged
        health["solver.max_residual"] = max(health["solver.max_residual"], result.residual)
        return result

    def solve(pop: Population, first: np.ndarray, accounts: list[WfpAccount], sizes: list[int]):
        links = dict(cfg.links)
        link_prices = {lid: link.price for lid, link in links.items()}
        for tick, n in enumerate(sizes):
            if (
                mode.billing_cycle_ticks > 0
                and tick > 0
                and tick % mode.billing_cycle_ticks == 0
            ):
                accounts[:] = [
                    a.replenished() if a.kind is WfpKind.INDIVIDUAL else a for a in accounts
                ]
            for lid, series in mode.subscriber_loads.items():
                links[lid] = replace(links[lid], subscriber_load=series[tick])

            provider = pop.provider[:n]
            members = [np.flatnonzero(provider == k) for k in range(len(accounts))]
            customers = [pop.take(idx) for idx in members]

            if cfg.solve_isp and links:
                demand = _link_demand(links, pop, accounts, customers)
                outer = flag(solve_isp_prices(links, demand, max_iters=cfg.solver.max_iters))
                link_prices = outer.g_by_link
                links = {
                    lid: replace(link, price=link_prices[lid]) for lid, link in links.items()
                }

            g = _floors(pop, link_prices)[:n]
            lambda_by_wfp = {}
            prices, x = np.empty(n), np.empty(n)
            for account, users, idx in zip(accounts, customers, members):
                inner = flag(solve_wfp_equilibrium(account, users, g[idx]))
                lambda_by_wfp[account.id] = inner.lambda_by_wfp[account.id]
                prices[idx] = inner.final_price_by_user.array
                x[idx] = inner.x_by_user.array
            # A copy's solve repeats its template's first user's bit for bit: keep those.
            yield list(lambda_by_wfp.values()), g[first], prices[first], x[first]

    ts, scalars = _run_ticks(cfg, mode.ticks, mode.user_growth, solve, walk_away=True)
    first_zero = np.flatnonzero(scalars[:, _TOTAL] <= 0.0)
    ts.summary["first_zero_transaction_step"] = float(first_zero[0] if len(first_zero) else -1)
    ts.summary.update(health)
    return ts


def _snapshots(cfg: ScenarioConfig, series, with_utility: bool) -> TimeSeries:
    """Each individual provider's fixed-price snapshots: one transaction of ``txn_volume``,
    split evenly over its users, per step and series, settled in one :func:`settle_rows`
    call.  ``series(account)`` gives its series' labels, the (L, S) or (L, 1) plan states
    and the S posted prices.

    Step k of series l settles the provider at posted price ``posted[k]`` with
    ``unused[l, k]`` (``unused[l, 0]`` at every step of an (L, 1) array) left on its
    plan and nothing settled yet.  The steps' sale totals are summed once, user by user
    in roster order, with a spread of 0.0, which only an establishment's contribution
    reads.  Each series is one block, and its largest provider share percentage goes to
    the summary; the blocks share their price and allocation rows.  Shares below the
    solver's ``x_floor`` are not sold: such a step settles nothing.
    """
    ts = TimeSeries(name=cfg.name)
    pop = Population.of(cfg.users, [w.id for w in cfg.wfps])
    link_prices = {lid: link.price for lid, link in cfg.links.items()}
    for k, account in enumerate(cfg.wfps):
        if account.kind is not WfpKind.INDIVIDUAL:
            continue
        labels, unused, posted = series(account)
        users = pop.take(np.flatnonzero(pop.provider == k))
        g = _floors(users, link_prices)
        n, steps = len(users), len(posted)
        x = np.full(n, cfg.mode.txn_volume / n)
        prices = np.maximum(posted[:, None], g + account.min_profit)
        # running_total's fold over users, as one vector add per user: a cumsum
        # across a few users for each of thousands of steps costs more
        revenue = np.zeros(steps)
        for j in range(n):
            revenue = revenue + x[j] * prices[:, j]
        isp_revenue, floor_sum, volume = running_total(np.column_stack((x * g, g, x)))
        count = n if x[0] >= cfg.solver.x_floor else 0  # one for all steps, as are three sums
        totals = SaleTotals(count, revenue, isp_revenue, 0.0, floor_sum, volume)
        settled = vars(settle_rows(account, totals, cfg.sharing, unused, np.zeros(steps))).values()
        utility = np.zeros(steps)
        if with_utility:
            utility = running_total(_utility(users, slice(0, n), x, prices).T) / n
        lambdas = KeyedRows(Roster([account.id]), posted[:, None])
        g_rows, x_rows = (KeyedRows(users.roster, np.broadcast_to(v, prices.shape)) for v in (g, x))
        maps = (lambdas, g_rows, KeyedRows(users.roster, prices), x_rows)
        for row, label in enumerate(labels):  # each series is one row of the (L, S) columns
            scalars = _scalars(Settlement(*(column[row] for column in settled)), utility)
            ts.blocks.append(StepBlock(label, np.arange(steps), scalars, maps))
            ts.summary[f"max_share_pct.{label}"] = scalars[:, _WFP_PCT].max().item()
    return ts


def run_iwfp_topology(cfg: ScenarioConfig) -> TimeSeries:
    """Individual providers settled at fixed prices as their quota drains.

    For each provider, remaining quota walks from full to empty in
    ``usage_steps`` equal decrements; every level is settled independently (a
    snapshot, not a running ledger) so the series isolates how the unused
    fraction alone moves the split.  One series per provider.
    """
    mode = cfg.mode
    assert isinstance(mode, QuotaSweepMode)
    left = mode.usage_steps - np.arange(mode.usage_steps + 1)
    return _snapshots(cfg, lambda account: (
        [account.id], (account.quota * left / mode.usage_steps)[None],
        np.full(len(left), account.price)), True)


def run_iwfp_ceiling(cfg: ScenarioConfig) -> TimeSeries:
    """Posted-price ramp at several usage levels for a single individual provider.

    Each usage level is one series; the summary records the largest provider
    share observed per level -- the ceiling the settlement allows.
    """
    mode = cfg.mode
    assert isinstance(mode, CeilingSweepMode)
    posted = mode.price_start + np.arange(mode.price_count) * mode.price_step
    labels = [mode.series_label(usage) for usage in mode.usage_levels]
    left = 1.0 - np.array(mode.usage_levels)[:, None]
    return _snapshots(cfg, lambda account: (labels, account.quota * left, posted), False)


def run_scenario(cfg: ScenarioConfig) -> TimeSeries:
    """Dispatch on the configured mode."""
    mode = cfg.mode
    if isinstance(mode, SweepMode):
        return run_sweep(cfg)
    if isinstance(mode, EquilibriumMode):
        return run_equilibrium(cfg)
    if isinstance(mode, QuotaSweepMode):
        return run_iwfp_topology(cfg)
    if isinstance(mode, CeilingSweepMode):
        return run_iwfp_ceiling(cfg)
    raise TypeError(f"unsupported mode {type(mode).__name__}")
