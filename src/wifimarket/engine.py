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

Every runner builds its population once, as parallel arrays over one roster
(growth clones are appended to it, so each step uses a prefix), computes each
step on those arrays, settles each provider from its sales' totals, and
records per-user values as read-only views of the step's arrays.  Sums run
over Python floats in the order of the per-sale reference functions, so the
figures do not depend on numpy's summation order.

Settlement goes through the one kernel, :func:`~wifimarket.sharing.settle_rows`.
The sweep and equilibrium runners settle each provider once per step through
its one-row case, ``settle_transaction``, since each step's accounts depend on
the last; the quota and ceiling sweeps settle independent snapshots, so each
whole series settles in one kernel call.  All four build their step records in
one :func:`_records` call per series, from the settlements as columns.

Runs are deterministic functions of the config: same document, same series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    Population,
    Settlement,
    UserValues,
    WfpAccount,
    WfpKind,
    effective_capacity,
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
from .sharing import SaleTotals, SharingParams, settle_rows, settle_transaction


@dataclass
class StepRecord:
    """Everything observed at one step of a run.

    The per-user fields are read-only id -> float mappings; a run fills them
    with :class:`~wifimarket.model.UserValues` views.
    """

    series: str
    step: int
    lambda_by_wfp: dict[str, float] = field(default_factory=dict)
    g_by_user: Mapping[str, float] = field(default_factory=dict)
    final_price_by_user: Mapping[str, float] = field(default_factory=dict)
    x_by_user: Mapping[str, float] = field(default_factory=dict)
    total_value: float = 0.0
    wfp_value: float = 0.0
    isp_value: float = 0.0
    wfp_share: float = 0.0
    isp_share: float = 0.0
    wfp_share_pct: float = 0.0
    isp_share_pct: float = 0.0
    mean_utility: float = 0.0


@dataclass
class TimeSeries:
    """Ordered step records plus run-level summary figures."""

    name: str
    records: list[StepRecord] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)

    def by_series(self) -> dict[str, "TimeSeries"]:
        """Split a multi-series run into one TimeSeries per label."""
        split: dict[str, TimeSeries] = {}
        for rec in self.records:
            sub = split.get(rec.series)
            if sub is None:
                sub = split[rec.series] = TimeSeries(name=f"{self.name}:{rec.series}")
            sub.records.append(rec)
        return split


def _records(series: str, steps, settled: Settlement) -> tuple[list[StepRecord], np.ndarray]:
    """A series' step records, numbered from 0, and their provider shares (%).

    ``steps`` yields each step's lambda dict, (g, final price, x) views and
    mean utility; ``settled`` holds the steps' settlements as columns, one
    row per step, from which the two share percentages are computed.
    """
    total = settled.total_value
    sold = total > 0.0
    wfp_pct = np.divide(100.0 * settled.wfp_share, total, out=np.zeros(len(total)), where=sold)
    isp_pct = np.where(sold, 100.0 - wfp_pct, 0.0)
    fields = np.column_stack((
        total, settled.wfp_value, settled.isp_value,
        settled.wfp_share, settled.isp_share, wfp_pct, isp_pct,
    )).tolist()
    records = [
        StepRecord(series, k, lambda_by_wfp, *views, *row, mean_utility)
        for k, ((lambda_by_wfp, views, mean_utility), row) in enumerate(zip(steps, fields))
    ]
    return records, wfp_pct


def _columns(rows: list[list[float]]) -> Settlement:
    """Per-step settlements (lists in Settlement field order) as columns."""
    return Settlement(*np.reshape(np.array(rows, dtype=float), (-1, 5)).T)


def _population(cfg: ScenarioConfig, clones: int = 0) -> Population:
    """The document's users, then ``clones`` growth clones cycling through them."""
    base = Population.of(cfg.users, [w.id for w in cfg.wfps])
    if not clones:
        return base
    n = len(cfg.users)
    templates = np.concatenate((np.arange(n), np.arange(clones) % n))
    ids = base.roster.ids + [
        f"{cfg.users[k % n].id}+{k + 1:05d}" for k in range(clones)
    ]
    return base.take(templates, ids)


def _floors(pop: Population, link_prices: Mapping[str, float], n: int) -> np.ndarray:
    """ISP floors of the first ``n`` users: one path sum per distinct route."""
    by_path = np.array([min_price_for_path(p, link_prices) for p in pop.paths], dtype=float)
    return by_path[pop.path[:n]]


def _utility(pop: Population, idx, x: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """``user_utility`` of the users at ``idx`` (x > 0), with ``math.log`` per user;
    ``prices`` may hold one row of the users' prices per step."""
    logs = np.array([math.log(v) for v in (x * pop.snr[idx]).tolist()])
    return pop.weight[idx] * logs + (1.0 - x * prices / pop.budget[idx])


def _mean(values: np.ndarray) -> float:
    return sum(values.tolist()) / len(values) if len(values) else 0.0


def _running_total(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., added one at a time."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _link_loads(
    links, pop: Population, path: np.ndarray, x: np.ndarray
) -> dict[str, float]:
    """WFP load per link: each user's x, in the order given, once per crossing."""
    loads = {}
    for lid in links:
        crossings = np.array([p.count(lid) for p in pop.paths], dtype=np.intp)
        loads[lid] = _running_total(np.repeat(x, crossings[path]))
    return loads


def _settle(
    accounts: list[WfpAccount],
    provider: np.ndarray,
    g: np.ndarray,
    prices: np.ndarray,
    x: np.ndarray,
    sharing: SharingParams,
    x_floor: float,
) -> list[float]:
    """Settle one transaction per provider (users buying at least ``x_floor``).

    ``accounts`` is updated in place; the payouts come back summed, provider
    by provider, in Settlement field order.
    """
    sold = x >= x_floor
    revenue, isp_revenue, spread = x * prices, x * g, (prices - g) * x
    combined = [0.0] * 5
    for k, account in enumerate(accounts):
        sel = np.flatnonzero(sold & (provider == k))
        totals = SaleTotals(
            seller=account.id,
            count=len(sel),
            revenue=sum(revenue[sel].tolist()),
            isp_revenue=sum(isp_revenue[sel].tolist()),
            spread=sum(spread[sel].tolist()),
            floor_sum=sum(g[sel].tolist()),
            volume=sum(x[sel].tolist()),
        )
        settlement, accounts[k] = settle_transaction(account, totals, sharing)
        combined = [a + b for a, b in zip(combined, vars(settlement).values())]
    return combined


def _provider_order(provider: np.ndarray, providers: int):
    """Positions grouped provider by provider (roster order within each), or None for one."""
    return np.argsort(provider, kind="stable") if providers > 1 else None


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

    pop = _population(cfg, mode.user_growth * max(mode.count - 1, 0))
    accounts = list(cfg.wfps)
    margin = np.array([a.min_profit for a in accounts])
    lambda_by_wfp = {w.id: cfg.lambda0 for w in cfg.wfps}
    link_prices = cfg.topology.link_prices()
    ts = TimeSeries(name=cfg.name)
    steps, settled = [], []

    for t in range(mode.count):
        swept_price = mode.start + t * mode.step
        n = len(cfg.users) + mode.user_growth * t
        provider = pop.provider[:n]
        if mode.swept_party == "isp":
            link_prices = {lid: swept_price for lid in link_prices}
        else:
            lambda_by_wfp = {wid: swept_price for wid in lambda_by_wfp}

        g = _floors(pop, link_prices, n)
        lam = np.array([lambda_by_wfp[a.id] for a in accounts])
        prices = np.maximum(lam[provider], g + margin[provider])
        if mode.allocation == "equal":
            members = np.bincount(provider, minlength=len(accounts)).tolist()
            share = [effective_capacity(a) / max(m, 1) for a, m in zip(accounts, members)]
            x = np.array(share)[provider]
        else:
            with np.errstate(divide="ignore"):
                ideal = pop.wb[:n] / prices
            x = np.minimum(np.maximum(ideal, pop.x_min[:n]), pop.x_max[:n])

        settled.append(
            _settle(accounts, provider, g, prices, x, cfg.sharing, cfg.solver.x_floor)
        )
        buyers = np.flatnonzero(x > 0.0)
        order = _provider_order(provider, len(accounts))
        views = (
            UserValues(pop.roster, g),
            UserValues(pop.roster, prices, order),
            UserValues(pop.roster, x, order),
        )
        utility = _utility(pop, buyers, x[buyers], prices[buyers])
        steps.append((dict(lambda_by_wfp), views, _mean(utility)))

        # One dual step for the party that is not being swept.
        sigma = step_size(t, cfg.solver)
        if mode.swept_party == "isp":
            for k, account in enumerate(accounts):
                demand = sum(x[provider == k].tolist())
                lambda_by_wfp[account.id] = wfp_price_update(
                    lambda_by_wfp[account.id], sigma, effective_capacity(account), demand
                )
        else:
            loads = _link_loads(link_prices, pop, pop.path[:n], x)
            link_prices = {
                lid: isp_link_price_update(
                    link_prices[lid], sigma, cfg.topology.links[lid], loads[lid]
                )
                for lid in link_prices
            }

    ts.records, _ = _records("run", steps, _columns(settled))
    _summarize_crossover(ts)
    return ts


def _summarize_crossover(ts: TimeSeries) -> None:
    pcts = [r.wfp_share_pct for r in ts.records]
    crossings = sum(
        1 for i in range(1, len(pcts)) if (pcts[i - 1] > 50.0) != (pcts[i] > 50.0)
    )
    first_above = next((i for i, v in enumerate(pcts) if v > 50.0), -1)
    ts.summary["crossover_step"] = float(first_above)
    ts.summary["crossings"] = float(crossings)


def run_equilibrium(cfg: ScenarioConfig) -> TimeSeries:
    """Tick-driven run where prices come out of the dual solvers.

    Per tick: refresh exogenous subscriber loads, re-solve ISP link prices
    (when ``solve_isp`` is on), solve every provider's exact clearing price
    against the resulting floors, drop users whose best response
    would leave them worse off than not buying, settle, and let individual
    accounts deplete.  Quotas replenish every ``billing_cycle_ticks`` ticks.
    """
    mode = cfg.mode
    assert isinstance(mode, EquilibriumMode)

    pop = _population(cfg, mode.user_growth * max(mode.ticks - 1, 0))
    accounts = list(cfg.wfps)
    links = dict(cfg.topology.links)
    link_prices = {lid: link.price for lid, link in links.items()}
    x_floor = cfg.solver.x_floor
    ts = TimeSeries(name=cfg.name)
    steps, settled = [], []

    for tick in range(mode.ticks):
        n = len(cfg.users) + mode.user_growth * tick
        if (
            mode.billing_cycle_ticks > 0
            and tick > 0
            and tick % mode.billing_cycle_ticks == 0
        ):
            accounts = [
                a.replenished() if a.kind is WfpKind.INDIVIDUAL else a for a in accounts
            ]
        for lid, series in mode.subscriber_loads.items():
            links[lid] = replace(links[lid], subscriber_load=series[tick])

        provider = pop.provider[:n]
        members = [np.flatnonzero(provider == k) for k in range(len(accounts))]
        customers = [pop.take(idx) for idx in members]

        if cfg.solve_isp and links:
            major = np.concatenate(members)

            def wfp_demand(prices: dict[str, float]) -> dict[str, float]:
                g = _floors(pop, prices, n)
                x = [
                    solve_wfp_equilibrium(account, users, g[idx]).x_by_user.array
                    for account, users, idx in zip(accounts, customers, members)
                ]
                return _link_loads(links, pop, pop.path[major], np.concatenate(x))

            outer = solve_isp_prices(links, wfp_demand, cfg.solver)
            link_prices = outer.g_by_link
            links = {
                lid: replace(link, price=link_prices[lid]) for lid, link in links.items()
            }

        g = _floors(pop, link_prices, n)
        lambda_by_wfp = {}
        prices, x = np.empty(n), np.empty(n)
        for account, users, idx in zip(accounts, customers, members):
            inner = solve_wfp_equilibrium(account, users, g[idx])
            lambda_by_wfp[account.id] = inner.lambda_by_wfp[account.id]
            prices[idx] = inner.final_price_by_user.array
            x[idx] = inner.x_by_user.array
        # Individual rationality: a user whose best buy is still a net loss
        # walks away, so the step records no transaction for it.
        utility = _utility(pop, slice(0, n), x, prices)
        x[(utility < 0.0) | (x < x_floor)] = 0.0

        settled.append(_settle(accounts, provider, g, prices, x, cfg.sharing, x_floor))
        order = _provider_order(provider, len(accounts))
        views = (
            UserValues(pop.roster, g),
            UserValues(pop.roster, prices, order),
            UserValues(pop.roster, x, order),
        )
        mean_utility = _mean(np.where(x > 0.0, utility, 0.0))
        steps.append((lambda_by_wfp, views, mean_utility))

    ts.records, _ = _records("run", steps, _columns(settled))
    first_zero = next((r.step for r in ts.records if r.total_value <= 0.0), -1)
    ts.summary["first_zero_transaction_step"] = float(first_zero)
    return ts


def _snapshots(
    series: str,
    account: WfpAccount,
    unused: np.ndarray,
    posted: list[float],
    users: Population,
    g: np.ndarray,
    cfg: ScenarioConfig,
    with_utility: bool,
) -> tuple[list[StepRecord], float]:
    """One fixed-price transaction of ``txn_volume``, split evenly, per step.

    Step k settles ``account`` with ``unused[k]`` left on its plan and nothing
    settled yet (a snapshot) at posted price ``posted[k]``.  The sale totals
    of all steps are summed at once, user by user in roster order, and the
    whole series settles in one :func:`settle_rows` call.  ``txn_volume``
    comes from the mode; shares below the solver's ``x_floor`` are not sold,
    so such a step settles nothing.  Returns the records and the largest
    provider share percentage among them.
    """
    n, steps = len(users), len(posted)
    x = np.full(n, cfg.mode.txn_volume / n)
    prices = np.maximum(np.array(posted)[:, None], g + account.min_profit)
    revenue, spread = x[0] * prices[:, 0], (prices[:, 0] - g[0]) * x[0]
    for j in range(1, n):
        revenue = revenue + x[j] * prices[:, j]
        spread = spread + (prices[:, j] - g[j]) * x[j]
    totals = SaleTotals(
        seller=account.id,
        count=np.full(steps, n if x[0] >= cfg.solver.x_floor else 0),
        revenue=revenue,
        isp_revenue=np.full(steps, sum((x * g).tolist())),
        spread=spread,
        floor_sum=np.full(steps, sum(g.tolist())),
        volume=np.full(steps, sum(x.tolist())),
    )
    settled = settle_rows(account, totals, cfg.sharing, unused, np.zeros(steps))
    utility = [0.0] * steps
    if with_utility:
        utility = [_mean(row) for row in _utility(users, slice(0, n), x, prices)]
    g_view, x_view = UserValues(users.roster, g), UserValues(users.roster, x)
    views = ((g_view, UserValues(users.roster, row), x_view) for row in prices)
    records, wfp_pct = _records(
        series, zip(({account.id: price} for price in posted), views, utility), settled
    )
    return records, wfp_pct.max().item()


def _individual_providers(cfg: ScenarioConfig):
    """Each individual provider with its users and their ISP floors."""
    pop = _population(cfg)
    link_prices = cfg.topology.link_prices()
    for k, account in enumerate(cfg.wfps):
        if account.kind is WfpKind.INDIVIDUAL:
            users = pop.take(np.flatnonzero(pop.provider == k))
            yield account, users, _floors(users, link_prices, len(users))


def run_iwfp_topology(cfg: ScenarioConfig) -> TimeSeries:
    """Individual providers settled at fixed prices as their quota drains.

    For each provider, remaining quota walks from full to empty in
    ``usage_steps`` equal decrements; every level is settled independently (a
    snapshot, not a running ledger) so the series isolates how the unused
    fraction alone moves the split.  One series per provider.
    """
    mode = cfg.mode
    assert isinstance(mode, QuotaSweepMode)

    ts = TimeSeries(name=cfg.name)
    levels = range(mode.usage_steps + 1)
    for account, users, g in _individual_providers(cfg):
        unused = np.array(
            [account.quota * (mode.usage_steps - k) / mode.usage_steps for k in levels]
        )
        posted = [cfg.wfp_prices[account.id]] * len(unused)
        records, ts.summary[f"max_share_pct.{account.id}"] = _snapshots(
            account.id, account, unused, posted, users, g, cfg, True
        )
        ts.records += records
    return ts


def run_iwfp_ceiling(cfg: ScenarioConfig) -> TimeSeries:
    """Posted-price ramp at several usage levels for a single individual provider.

    Each usage level is one series; the summary records the largest provider
    share observed per level -- the ceiling the settlement allows.
    """
    mode = cfg.mode
    assert isinstance(mode, CeilingSweepMode)

    ts = TimeSeries(name=cfg.name)
    steps = mode.price_count
    posted = [mode.price_start + k * mode.price_step for k in range(steps)]
    for account, users, g in _individual_providers(cfg):
        for usage in mode.usage_levels:
            label = mode.series_label(usage)
            unused = np.full(steps, account.quota * (1.0 - usage))
            records, ts.summary[f"max_share_pct.{label}"] = _snapshots(
                label, account, unused, posted, users, g, cfg, False
            )
            ts.records += records
    return ts


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
