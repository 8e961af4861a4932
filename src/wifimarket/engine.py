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
from .sharing import SaleTotals, SharingParams, settle_transaction


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

    def series_labels(self) -> list[str]:
        labels: list[str] = []
        for rec in self.records:
            if rec.series not in labels:
                labels.append(rec.series)
        return labels

    def by_series(self) -> dict[str, "TimeSeries"]:
        """Split a multi-series run into one TimeSeries per label."""
        split: dict[str, TimeSeries] = {}
        for rec in self.records:
            sub = split.get(rec.series)
            if sub is None:
                sub = split[rec.series] = TimeSeries(name=f"{self.name}:{rec.series}")
            sub.records.append(rec)
        return split


def _record(
    series: str,
    step: int,
    lambda_by_wfp: dict[str, float],
    views: tuple[UserValues, UserValues, UserValues],
    settlement: Settlement,
    mean_utility: float,
) -> StepRecord:
    """The step record of one settled step; ``views`` are g, final price and x."""
    wfp_pct = isp_pct = 0.0
    if settlement.total_value > 0.0:
        wfp_pct = 100.0 * settlement.wfp_share / settlement.total_value
        isp_pct = 100.0 - wfp_pct
    g, prices, x = views
    return StepRecord(
        series=series,
        step=step,
        lambda_by_wfp=lambda_by_wfp,
        g_by_user=g,
        final_price_by_user=prices,
        x_by_user=x,
        total_value=settlement.total_value,
        wfp_value=settlement.wfp_value,
        isp_value=settlement.isp_value,
        wfp_share=settlement.wfp_share,
        isp_share=settlement.isp_share,
        wfp_share_pct=wfp_pct,
        isp_share_pct=isp_pct,
        mean_utility=mean_utility,
    )


def _combine(settlements: list[Settlement]) -> Settlement:
    return Settlement(
        wfp_share=sum(s.wfp_share for s in settlements),
        isp_share=sum(s.isp_share for s in settlements),
        total_value=sum(s.total_value for s in settlements),
        wfp_value=sum(s.wfp_value for s in settlements),
        isp_value=sum(s.isp_value for s in settlements),
    )


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
    """``user_utility`` of the users at ``idx`` (x > 0), with ``math.log`` per user."""
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
) -> Settlement:
    """Settle one transaction per provider (users buying at least ``x_floor``).

    ``accounts`` is updated in place; the payouts come back combined.
    """
    sold = x >= x_floor
    revenue, isp_revenue, spread = x * prices, x * g, (prices - g) * x
    settlements = []
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
        settlements.append(settlement)
    return _combine(settlements)


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

        combined = _settle(
            accounts, provider, g, prices, x, cfg.sharing, cfg.solver.x_floor
        )
        buyers = np.flatnonzero(x > 0.0)
        order = _provider_order(provider, len(accounts))
        views = (
            UserValues(pop.roster, g),
            UserValues(pop.roster, prices, order),
            UserValues(pop.roster, x, order),
        )
        utility = _utility(pop, buyers, x[buyers], prices[buyers])
        ts.records.append(
            _record("run", t, dict(lambda_by_wfp), views, combined, _mean(utility))
        )

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
    first_zero = -1

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

        combined = _settle(accounts, provider, g, prices, x, cfg.sharing, x_floor)
        if combined.total_value <= 0.0 and first_zero < 0:
            first_zero = tick
        order = _provider_order(provider, len(accounts))
        views = (
            UserValues(pop.roster, g),
            UserValues(pop.roster, prices, order),
            UserValues(pop.roster, x, order),
        )
        mean_utility = _mean(np.where(x > 0.0, utility, 0.0))
        ts.records.append(_record("run", tick, lambda_by_wfp, views, combined, mean_utility))

    ts.summary["first_zero_transaction_step"] = float(first_zero)
    return ts


def _snapshots(
    series: str,
    accounts: list[WfpAccount],
    posted: list[float],
    users: Population,
    g: np.ndarray,
    txn_volume: float,
    sharing: SharingParams,
    with_utility: bool,
) -> list[StepRecord]:
    """One fixed-price transaction of ``txn_volume``, split evenly, per step.

    Step k settles ``accounts[k]`` (snapshots of one provider) at posted
    price ``posted[k]``.  The sale totals of all steps are summed at once,
    user by user in roster order.
    """
    n = len(users)
    x = np.full(n, txn_volume / n)
    prices = np.maximum(np.array(posted)[:, None], g + accounts[0].min_profit)
    revenue, spread = x[0] * prices[:, 0], (prices[:, 0] - g[0]) * x[0]
    for j in range(1, n):
        revenue = revenue + x[j] * prices[:, j]
        spread = spread + (prices[:, j] - g[j]) * x[j]
    fixed = dict(
        count=n,
        isp_revenue=sum((x * g).tolist()),
        floor_sum=sum(g.tolist()),
        volume=sum(x.tolist()),
    )
    g_view, x_view = UserValues(users.roster, g), UserValues(users.roster, x)
    records = []
    steps = zip(accounts, posted, prices, revenue.tolist(), spread.tolist())
    for k, (account, price, row, rev, spr) in enumerate(steps):
        totals = SaleTotals(seller=account.id, revenue=rev, spread=spr, **fixed)
        settlement, _ = settle_transaction(account, totals, sharing)
        mean_utility = _mean(_utility(users, slice(0, n), x, row)) if with_utility else 0.0
        views = (g_view, UserValues(users.roster, row), x_view)
        records.append(_record(series, k, {account.id: price}, views, settlement, mean_utility))
    return records


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
        snapshots = [
            replace(
                account,
                unused=account.quota * (mode.usage_steps - k) / mode.usage_steps,
                settled_share=0.0,
            )
            for k in levels
        ]
        posted = [cfg.wfp_prices[account.id]] * len(snapshots)
        records = _snapshots(
            account.id, snapshots, posted, users, g, mode.txn_volume, cfg.sharing, True
        )
        ts.records += records
        ts.summary[f"max_share_pct.{account.id}"] = max(r.wfp_share_pct for r in records)
    return ts


def run_iwfp_ceiling(cfg: ScenarioConfig) -> TimeSeries:
    """Posted-price ramp at several usage levels for a single individual provider.

    Each usage level is one series; the summary records the largest provider
    share observed per level -- the ceiling the settlement allows.
    """
    mode = cfg.mode
    assert isinstance(mode, CeilingSweepMode)

    ts = TimeSeries(name=cfg.name)
    steps = int(round((mode.price_stop - mode.price_start) / mode.price_step)) + 1
    posted = [mode.price_start + k * mode.price_step for k in range(steps)]
    for account, users, g in _individual_providers(cfg):
        for usage in mode.usage_levels:
            label = mode.series_label(usage)
            unused = account.quota * (1.0 - usage)
            snapshot = replace(account, unused=unused, settled_share=0.0)
            records = _snapshots(
                label, [snapshot] * steps, posted, users, g, mode.txn_volume, cfg.sharing, False
            )
            ts.records += records
            ts.summary[f"max_share_pct.{label}"] = max(r.wfp_share_pct for r in records)
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
