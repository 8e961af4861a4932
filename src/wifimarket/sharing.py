"""Revenue settlement between a Wi-Fi provider and the ISP.

Each transaction is a two-player cooperative game.  The grand coalition earns
the revenue actually collected from users; each player's standalone value is
what the market would credit to that player alone:

* together:      v({w,i}) = sum_s x_s * final_price_s
* ISP alone:     v({i})   = sum_s x_s * min_price_s   (its cost-covering take)
* WFP alone:     v({w})   = a contribution function that differs by provider
                 kind (see :func:`ewfp_contribution` / :func:`iwfp_contribution`)

The payout is the two-player Shapley value of that game, computed in closed
form by :func:`shapley_split`; :func:`shapley_permutation` is the independent
ordering-enumeration oracle used to cross-check it.  If the provider
contributes nothing, the ISP keeps the whole transaction.

All of it needs five sums over a transaction's sales, so
:func:`settle_transaction` takes them as :class:`SaleTotals`; the
list-of-sales functions (:func:`total_revenue`, :func:`ewfp_contribution`, ...)
are the per-sale reference the totals are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .model import TOLERANCE, SaleRecord, Settlement, WfpAccount, WfpKind


@dataclass(frozen=True)
class SharingParams:
    """Knobs of the two contribution functions.

    ``alpha`` scales the surplus inside the individual provider's log;
    ``beta`` (> 1) floors the establishment denominator so the contribution
    never exceeds the price spread it is derived from.
    """

    alpha: float = 1.0
    beta: float = 2.5

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.beta <= 1.0:
            raise ValueError("beta must exceed 1")


@dataclass(frozen=True)
class CoalitionValues:
    """Characteristic function of the two-player settlement game."""

    total_value: float
    wfp_value: float
    isp_value: float


@dataclass(frozen=True)
class SaleTotals:
    """The sums one transaction settles from, with its seller and sale count.

    ``revenue`` = sum x * final_price, ``isp_revenue`` = sum x * min_price,
    ``spread`` = sum (final_price - min_price) * x, ``floor_sum`` = sum
    min_price and ``volume`` = sum x.  ``len()`` is the number of sales.
    """

    seller: str | None
    count: int
    revenue: float
    isp_revenue: float
    spread: float
    floor_sum: float
    volume: float

    def __len__(self) -> int:
        return self.count

    @classmethod
    def of(cls, sales: Sequence[SaleRecord]) -> "SaleTotals":
        """Totals of a list of sales, summed in list order.

        Raises ValueError if the sales come from more than one provider or
        any is priced below the ISP floor.
        """
        sellers = {s.wfp for s in sales}
        if len(sellers) > 1:
            raise ValueError(f"sales from several providers {sorted(sellers)!r}")
        for s in sales:
            _check_floor(s)
        return cls(
            seller=sellers.pop() if sellers else None,
            count=len(sales),
            revenue=total_revenue(sales),
            isp_revenue=isp_standalone_revenue(sales),
            spread=sum((s.final_price - s.min_price) * s.x for s in sales),
            floor_sum=sum(s.min_price for s in sales),
            volume=sum(s.x for s in sales),
        )


def _check_floor(sale: SaleRecord) -> None:
    if sale.final_price < sale.min_price - TOLERANCE:
        raise ValueError(
            f"sale to {sale.user!r} priced below the ISP minimum "
            f"({sale.final_price} < {sale.min_price})"
        )


def _discounted_spread(spread: float, floor_sum: float, params: SharingParams) -> float:
    """The spread divided by max(ln(floor_sum), beta) (beta alone for no floor)."""
    denom = max(math.log(floor_sum), params.beta) if floor_sum > 0.0 else params.beta
    return spread / denom


def total_revenue(sales: Sequence[SaleRecord]) -> float:
    """Revenue of the grand coalition: sum of volume times final price."""
    return sum(s.x * s.final_price for s in sales)


def isp_standalone_revenue(sales: Sequence[SaleRecord]) -> float:
    """What the ISP earns on its own: volume times its minimum price."""
    return sum(s.x * s.min_price for s in sales)


def ewfp_contribution(sales: Sequence[SaleRecord], params: SharingParams) -> float:
    """Establishment provider's standalone value.

    The provider is credited the price spread it created, discounted by the
    (log of the) total ISP floor across the sales:

        sum_s (final_price_s - min_price_s) * x_s / max(ln(g_w), beta)

    with g_w = sum_s min_price_s.  The denominator always exceeds 1, so the
    contribution never exceeds the raw spread -- which is what keeps the ISP's
    settled share at or above its standalone revenue.

    Raises ValueError if any sale is priced below the ISP floor.
    """
    if not sales:
        return 0.0
    for s in sales:
        _check_floor(s)
    spread = sum((s.final_price - s.min_price) * s.x for s in sales)
    return _discounted_spread(spread, sum(s.min_price for s in sales), params)


def iwfp_contribution(
    total_value: float,
    isp_value: float,
    account: WfpAccount,
    params: SharingParams,
) -> float:
    """Individual provider's standalone value.

    The individual is rewarded for leaving quota on the table: with
    omega = unused / quota, the raw contribution is

        omega * ln(alpha * (total_value - isp_value))

    clamped into [0, total_value - isp_value].  It is zero once the billing
    cycle's cap is reached (settled_share >= fee), when the plan is fully
    used, or when the transaction carries no surplus over the ISP floor.

    Raises ValueError if isp_value exceeds total_value.
    """
    if account.kind is not WfpKind.INDIVIDUAL:
        raise ValueError(f"account {account.id!r} is not an individual provider")
    if isp_value > total_value + TOLERANCE:
        raise ValueError(
            f"ISP standalone value {isp_value} exceeds total revenue {total_value}"
        )
    if account.fee > 0.0 and account.settled_share >= account.fee - TOLERANCE:
        return 0.0
    surplus = total_value - isp_value
    if surplus <= 0.0:
        return 0.0
    omega = account.unused / account.quota if account.quota > 0.0 else 0.0
    raw = omega * math.log(params.alpha * surplus)
    return min(max(raw, 0.0), surplus)


def shapley_split(values: CoalitionValues) -> Settlement:
    """Closed-form two-player Shapley split of the settlement game.

    Each player gets its standalone value half the time and its marginal
    contribution to the other half the time:

        wfp_share = v({w})/2 + (v({w,i}) - v({i}))/2
        isp_share = v({i})/2 + (v({w,i}) - v({w}))/2

    The two shares always sum to the grand-coalition value.
    """
    wfp_share = 0.5 * values.wfp_value + 0.5 * (values.total_value - values.isp_value)
    isp_share = 0.5 * values.isp_value + 0.5 * (values.total_value - values.wfp_value)
    return Settlement(
        wfp_share=wfp_share,
        isp_share=isp_share,
        total_value=values.total_value,
        wfp_value=values.wfp_value,
        isp_value=values.isp_value,
    )


def shapley_permutation(
    value_fn: Mapping[frozenset, float],
    players: Iterable[str] = ("w", "i"),
) -> tuple[float, ...]:
    """Shapley value by enumerating player orderings (the definition).

    ``value_fn`` maps every subset of ``players`` (as frozensets) to a value.
    Each player's payoff is its marginal contribution averaged over all
    orderings.  Exponential in the player count -- meant as the oracle the
    closed-form split is verified against, not as the production path.

    Raises ValueError when a required subset is missing.
    """
    roster = tuple(players)
    totals = {p: 0.0 for p in roster}
    orderings = list(permutations(roster))
    for order in orderings:
        seated: set[str] = set()
        for player in order:
            before = frozenset(seated)
            after = frozenset(seated | {player})
            if before not in value_fn or after not in value_fn:
                missing = before if before not in value_fn else after
                raise ValueError(f"characteristic function missing subset {set(missing)!r}")
            totals[player] += value_fn[after] - value_fn[before]
            seated.add(player)
    return tuple(totals[p] / len(orderings) for p in roster)


def coalition_map(values: CoalitionValues) -> dict[frozenset, float]:
    """The explicit subset-to-value map of a two-player settlement game."""
    return {
        frozenset(): 0.0,
        frozenset({"w"}): values.wfp_value,
        frozenset({"i"}): values.isp_value,
        frozenset({"w", "i"}): values.total_value,
    }


def settle_transaction(
    account: WfpAccount,
    totals: SaleTotals,
    params: SharingParams,
) -> tuple[Settlement, WfpAccount]:
    """Settle one transaction and return the payout plus the updated account.

    Builds the coalition values for the account's kind from the sale
    ``totals`` (``SaleTotals.of(sales)`` for a list), splits them with
    :func:`shapley_split`, and -- for individual providers -- enforces the
    billing-cycle cap: any amount above the remaining headroom
    (fee - settled_share) is truncated and handed to the ISP, so the shares
    still sum to the transaction total.  When the provider contributes nothing
    the ISP keeps everything.

    Individual accounts come back with ``unused`` reduced by the volume sold
    and ``settled_share`` grown by the payout; the input account is untouched.
    """
    if totals.seller is not None and totals.seller != account.id:
        raise ValueError(
            f"sale by {totals.seller!r} settled against account {account.id!r}"
        )
    if not totals.count:
        return Settlement(0.0, 0.0, 0.0, 0.0, 0.0), account

    total, isp_alone = totals.revenue, totals.isp_revenue
    if account.kind is WfpKind.ESTABLISHMENT:
        wfp_value = _discounted_spread(totals.spread, totals.floor_sum, params)
    else:
        wfp_value = iwfp_contribution(total, isp_alone, account, params)

    # A provider that contributes nothing leaves the whole pot with the ISP.
    isp_value = isp_alone if wfp_value > 0.0 else total
    settlement = shapley_split(CoalitionValues(total, wfp_value, isp_value))

    if account.kind is WfpKind.ESTABLISHMENT:
        return settlement, replace(
            account, settled_share=account.settled_share + settlement.wfp_share
        )
    headroom = max(account.fee - account.settled_share, 0.0)
    if account.fee > 0.0 and settlement.wfp_share > headroom:
        settlement = replace(
            settlement,
            wfp_share=headroom,
            isp_share=settlement.isp_share + (settlement.wfp_share - headroom),
        )
    return settlement, replace(
        account,
        unused=max(account.unused - totals.volume, 0.0),
        settled_share=account.settled_share + settlement.wfp_share,
    )
