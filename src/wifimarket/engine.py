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

Runs are deterministic functions of the config: same document, same series.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .config import (
    CeilingSweepMode,
    EquilibriumMode,
    QuotaSweepMode,
    ScenarioConfig,
    SweepMode,
)
from .model import (
    LinkState,
    SaleRecord,
    Settlement,
    UserProfile,
    WfpAccount,
    WfpKind,
    effective_capacity,
)
from .pricing import (
    final_price,
    isp_link_price_update,
    min_price_for_path,
    solve_isp_prices,
    solve_wfp_equilibrium,
    step_size,
    user_utility,
    wfp_price_update,
)
from .sharing import settle_transaction


@dataclass
class StepRecord:
    """Everything observed at one step of a run."""

    series: str
    step: int
    lambda_by_wfp: dict[str, float] = field(default_factory=dict)
    g_by_user: dict[str, float] = field(default_factory=dict)
    final_price_by_user: dict[str, float] = field(default_factory=dict)
    x_by_user: dict[str, float] = field(default_factory=dict)
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
            split.setdefault(rec.series, TimeSeries(name=f"{self.name}:{rec.series}"))
            split[rec.series].records.append(rec)
        return split


def _share_percentages(settlement: Settlement) -> tuple[float, float]:
    if settlement.total_value <= 0.0:
        return 0.0, 0.0
    wfp_pct = 100.0 * settlement.wfp_share / settlement.total_value
    return wfp_pct, 100.0 - wfp_pct


def _combine(settlements: list[Settlement]) -> Settlement:
    return Settlement(
        wfp_share=sum(s.wfp_share for s in settlements),
        isp_share=sum(s.isp_share for s in settlements),
        total_value=sum(s.total_value for s in settlements),
        wfp_value=sum(s.wfp_value for s in settlements),
        isp_value=sum(s.isp_value for s in settlements),
    )


def _grow_users(
    users: list[UserProfile], base: list[UserProfile], how_many: int, counter: int
) -> int:
    """Append clones of the base population, cycling through it for templates."""
    for _ in range(how_many):
        template = base[counter % len(base)]
        counter += 1
        users.append(replace(template, id=f"{template.id}+{counter:05d}"))
    return counter


def _g_for_users(
    users: list[UserProfile], link_prices: dict[str, float]
) -> dict[str, float]:
    return {u.id: min_price_for_path(u.path, link_prices) for u in users}


def _settle_step(
    accounts: dict[str, WfpAccount],
    users: list[UserProfile],
    g_by_user: dict[str, float],
    lambda_by_wfp: dict[str, float],
    x_by_user: dict[str, float],
    sharing,
    x_floor: float,
) -> tuple[Settlement, dict[str, WfpAccount]]:
    """Settle one transaction per provider; returns combined payout."""
    settlements = []
    for wid, account in accounts.items():
        sales = []
        for u in users:
            if u.wfp != wid:
                continue
            x = x_by_user.get(u.id, 0.0)
            if x < x_floor:
                continue
            g = g_by_user[u.id]
            lam = lambda_by_wfp[wid]
            sales.append(
                SaleRecord(
                    user=u.id,
                    wfp=wid,
                    x=x,
                    min_price=g,
                    wfp_price=lam,
                    final_price=final_price(lam, g, account.min_profit),
                )
            )
        settlement, accounts[wid] = settle_transaction(account, sales, sharing)
        settlements.append(settlement)
    return _combine(settlements), accounts


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

    users = list(cfg.users)
    accounts = {w.id: w for w in cfg.wfps}
    lambda_by_wfp = {w.id: cfg.lambda0 for w in cfg.wfps}
    link_prices = cfg.topology.link_prices()
    growth_counter = 0
    ts = TimeSeries(name=cfg.name)

    for t in range(mode.count):
        swept_price = mode.start + t * mode.step
        if t > 0 and mode.user_growth:
            growth_counter = _grow_users(
                users, cfg.users, mode.user_growth, growth_counter
            )

        if mode.swept_party == "isp":
            link_prices = {lid: swept_price for lid in link_prices}
        else:
            lambda_by_wfp = {wid: swept_price for wid in lambda_by_wfp}

        g_by_user = _g_for_users(users, link_prices)
        price_by_user = {}
        x_by_user = {}
        members = {wid: [u for u in users if u.wfp == wid] for wid in accounts}
        for wid, account in accounts.items():
            for u in members[wid]:
                price_by_user[u.id] = final_price(
                    lambda_by_wfp[wid], g_by_user[u.id], account.min_profit
                )
            if mode.allocation == "equal":
                share = effective_capacity(account) / max(len(members[wid]), 1)
                for u in members[wid]:
                    x_by_user[u.id] = share
            else:
                for u in members[wid]:
                    ideal = u.weight * u.budget / price_by_user[u.id]
                    x_by_user[u.id] = min(max(ideal, u.x_min), u.x_max)

        combined, accounts = _settle_step(
            accounts, users, g_by_user, lambda_by_wfp, x_by_user,
            cfg.sharing, cfg.solver.x_floor,
        )
        wfp_pct, isp_pct = _share_percentages(combined)
        utilities = [
            user_utility(x_by_user[u.id], price_by_user[u.id], u)
            for u in users
            if x_by_user[u.id] > 0.0
        ]
        ts.records.append(
            StepRecord(
                series="run",
                step=t,
                lambda_by_wfp=dict(lambda_by_wfp),
                g_by_user=g_by_user,
                final_price_by_user=price_by_user,
                x_by_user=x_by_user,
                total_value=combined.total_value,
                wfp_value=combined.wfp_value,
                isp_value=combined.isp_value,
                wfp_share=combined.wfp_share,
                isp_share=combined.isp_share,
                wfp_share_pct=wfp_pct,
                isp_share_pct=isp_pct,
                mean_utility=sum(utilities) / len(utilities) if utilities else 0.0,
            )
        )

        # One dual step for the party that is not being swept.
        sigma = step_size(t, cfg.solver)
        if mode.swept_party == "isp":
            for wid, account in accounts.items():
                demand = sum(x_by_user[u.id] for u in members[wid])
                lambda_by_wfp[wid] = wfp_price_update(
                    lambda_by_wfp[wid], sigma, effective_capacity(account), demand
                )
        else:
            loads = {lid: 0.0 for lid in link_prices}
            for u in users:
                for lid in u.path:
                    loads[lid] += x_by_user[u.id]
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

    users = list(cfg.users)
    accounts = {w.id: w for w in cfg.wfps}
    links = dict(cfg.topology.links)
    link_prices = {lid: link.price for lid, link in links.items()}
    growth_counter = 0
    ts = TimeSeries(name=cfg.name)
    first_zero = -1

    for tick in range(mode.ticks):
        if tick > 0 and mode.user_growth:
            growth_counter = _grow_users(
                users, cfg.users, mode.user_growth, growth_counter
            )
        if (
            mode.billing_cycle_ticks > 0
            and tick > 0
            and tick % mode.billing_cycle_ticks == 0
        ):
            accounts = {
                wid: (a.replenished() if a.kind is WfpKind.INDIVIDUAL else a)
                for wid, a in accounts.items()
            }
        for lid, series in mode.subscriber_loads.items():
            links[lid] = replace(links[lid], subscriber_load=series[tick])

        members = {wid: [u for u in users if u.wfp == wid] for wid in accounts}

        if cfg.solve_isp and links:

            def wfp_demand(prices: dict[str, float]) -> dict[str, float]:
                loads = {lid: 0.0 for lid in links}
                for wid, account in accounts.items():
                    g_by_user = _g_for_users(members[wid], prices)
                    inner = solve_wfp_equilibrium(account, members[wid], g_by_user)
                    for u in members[wid]:
                        for lid in u.path:
                            loads[lid] += inner.x_by_user[u.id]
                return loads

            outer = solve_isp_prices(links, wfp_demand, cfg.solver)
            link_prices = outer.g_by_link
            links = {
                lid: replace(link, price=link_prices[lid]) for lid, link in links.items()
            }

        g_by_user = _g_for_users(users, link_prices)
        lambda_by_wfp = {}
        price_by_user: dict[str, float] = {}
        x_by_user: dict[str, float] = {}
        for wid, account in accounts.items():
            inner = solve_wfp_equilibrium(account, members[wid], g_by_user)
            lambda_by_wfp[wid] = inner.lambda_by_wfp[wid]
            for u in members[wid]:
                price = inner.final_price_by_user[u.id]
                x = inner.x_by_user[u.id]
                price_by_user[u.id] = price
                # Individual rationality: a user whose best buy is still a net
                # loss walks away, so the step records no transaction for it.
                if user_utility(x, price, u) < 0.0 or x < cfg.solver.x_floor:
                    x_by_user[u.id] = 0.0
                else:
                    x_by_user[u.id] = x

        combined, accounts = _settle_step(
            accounts, users, g_by_user, lambda_by_wfp, x_by_user,
            cfg.sharing, cfg.solver.x_floor,
        )
        wfp_pct, isp_pct = _share_percentages(combined)
        utilities = [
            user_utility(x_by_user[u.id], price_by_user[u.id], u)
            if x_by_user[u.id] > 0.0
            else 0.0
            for u in users
        ]
        if combined.total_value <= 0.0 and first_zero < 0:
            first_zero = tick
        ts.records.append(
            StepRecord(
                series="run",
                step=tick,
                lambda_by_wfp=lambda_by_wfp,
                g_by_user=g_by_user,
                final_price_by_user=price_by_user,
                x_by_user=x_by_user,
                total_value=combined.total_value,
                wfp_value=combined.wfp_value,
                isp_value=combined.isp_value,
                wfp_share=combined.wfp_share,
                isp_share=combined.isp_share,
                wfp_share_pct=wfp_pct,
                isp_share_pct=isp_pct,
                mean_utility=sum(utilities) / len(utilities) if utilities else 0.0,
            )
        )

    ts.summary["first_zero_transaction_step"] = float(first_zero)
    return ts


def _settle_snapshot(
    account: WfpAccount,
    users: list[UserProfile],
    posted_price: float,
    g_by_user: dict[str, float],
    txn_volume: float,
    sharing,
) -> tuple[Settlement, dict[str, float], dict[str, float]]:
    """One fixed-price transaction of ``txn_volume`` split across the users."""
    x_each = txn_volume / len(users)
    sales = [
        SaleRecord(
            user=u.id,
            wfp=account.id,
            x=x_each,
            min_price=g_by_user[u.id],
            wfp_price=posted_price,
            final_price=final_price(posted_price, g_by_user[u.id], account.min_profit),
        )
        for u in users
    ]
    settlement, _ = settle_transaction(account, sales, sharing)
    prices = {s.user: s.final_price for s in sales}
    volumes = {s.user: s.x for s in sales}
    return settlement, prices, volumes


def run_iwfp_topology(cfg: ScenarioConfig) -> TimeSeries:
    """Individual providers settled at fixed prices as their quota drains.

    For each provider, remaining quota walks from full to empty in
    ``usage_steps`` equal decrements; every level is settled independently (a
    snapshot, not a running ledger) so the series isolates how the unused
    fraction alone moves the split.  One series per provider.
    """
    mode = cfg.mode
    assert isinstance(mode, QuotaSweepMode)

    link_prices = cfg.topology.link_prices()
    ts = TimeSeries(name=cfg.name)
    for account in cfg.wfps:
        if account.kind is not WfpKind.INDIVIDUAL:
            continue
        users = [u for u in cfg.users if u.wfp == account.id]
        g_by_user = _g_for_users(users, link_prices)
        posted = cfg.wfp_prices[account.id]
        for k in range(mode.usage_steps + 1):
            unused = account.quota * (mode.usage_steps - k) / mode.usage_steps
            snapshot = replace(account, unused=unused, settled_share=0.0)
            settlement, price_by_user, x_by_user = _settle_snapshot(
                snapshot, users, posted, g_by_user, mode.txn_volume, cfg.sharing
            )
            wfp_pct, isp_pct = _share_percentages(settlement)
            utilities = [
                user_utility(x_by_user[u.id], price_by_user[u.id], u) for u in users
            ]
            ts.records.append(
                StepRecord(
                    series=account.id,
                    step=k,
                    lambda_by_wfp={account.id: posted},
                    g_by_user=g_by_user,
                    final_price_by_user=price_by_user,
                    x_by_user=x_by_user,
                    total_value=settlement.total_value,
                    wfp_value=settlement.wfp_value,
                    isp_value=settlement.isp_value,
                    wfp_share=settlement.wfp_share,
                    isp_share=settlement.isp_share,
                    wfp_share_pct=wfp_pct,
                    isp_share_pct=isp_pct,
                    mean_utility=sum(utilities) / len(utilities) if utilities else 0.0,
                )
            )
        shares = [r.wfp_share_pct for r in ts.records if r.series == account.id]
        ts.summary[f"max_share_pct.{account.id}"] = max(shares)
    return ts


def run_iwfp_ceiling(cfg: ScenarioConfig) -> TimeSeries:
    """Posted-price ramp at several usage levels for a single individual provider.

    Each usage level is one series; the summary records the largest provider
    share observed per level -- the ceiling the settlement allows.
    """
    mode = cfg.mode
    assert isinstance(mode, CeilingSweepMode)

    link_prices = cfg.topology.link_prices()
    providers = [w for w in cfg.wfps if w.kind is WfpKind.INDIVIDUAL]
    ts = TimeSeries(name=cfg.name)
    steps = int(round((mode.price_stop - mode.price_start) / mode.price_step)) + 1
    for account in providers:
        users = [u for u in cfg.users if u.wfp == account.id]
        g_by_user = _g_for_users(users, link_prices)
        for usage in mode.usage_levels:
            label = f"usage_{int(round(usage * 100))}"
            unused = account.quota * (1.0 - usage)
            snapshot = replace(account, unused=unused, settled_share=0.0)
            for k in range(steps):
                posted = mode.price_start + k * mode.price_step
                settlement, price_by_user, x_by_user = _settle_snapshot(
                    snapshot, users, posted, g_by_user, mode.txn_volume, cfg.sharing
                )
                wfp_pct, isp_pct = _share_percentages(settlement)
                ts.records.append(
                    StepRecord(
                        series=label,
                        step=k,
                        lambda_by_wfp={account.id: posted},
                        g_by_user=g_by_user,
                        final_price_by_user=price_by_user,
                        x_by_user=x_by_user,
                        total_value=settlement.total_value,
                        wfp_value=settlement.wfp_value,
                        isp_value=settlement.isp_value,
                        wfp_share=settlement.wfp_share,
                        isp_share=settlement.isp_share,
                        wfp_share_pct=wfp_pct,
                        isp_share_pct=isp_pct,
                        mean_utility=0.0,
                    )
                )
            level_shares = [r.wfp_share_pct for r in ts.records if r.series == label]
            ts.summary[f"max_share_pct.{label}"] = max(level_shares)
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
