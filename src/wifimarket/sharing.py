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

All of it needs five sums over a transaction's sales (:class:`SaleTotals`).
The arithmetic exists once, in :func:`settle_rows`: one kernel that settles
one provider's transactions row by row, from columns of those sums and of the
plan state each row is settled against.  The snapshot modes settle a whole
series in one call; :func:`settle_transaction` is the kernel's one-row case
plus the account update, and the two contribution functions are its
contribution on one row.  The list-of-sales functions (:func:`total_revenue`,
:func:`ewfp_contribution`, ...) are the per-sale reference the totals are
checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Iterable, Mapping, Sequence

import numpy as np

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
    For :func:`settle_rows` the numeric fields are columns, one entry per
    transaction.
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
    floor_sum = sum(s.min_price for s in sales)
    return _establishment_values(np.array([spread]), np.array([floor_sum]), params).item()


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
    row = np.array([total_value, isp_value, account.unused, account.settled_share])[:, None]
    return _individual_values(*row, account, params).item()


def _logs(values: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``math.log`` of each value where ``where`` holds, 0 elsewhere: libm's log,
    which a SIMD ``np.log`` need not match in the last bit."""
    return np.array(
        [math.log(v) if w else 0.0 for v, w in zip(values.tolist(), where.tolist())],
        dtype=float,
    )


def _establishment_values(
    spread: np.ndarray, floor_sum: np.ndarray, params: SharingParams
) -> np.ndarray:
    """Each row's spread / max(ln(floor_sum), beta) (beta alone for no floor:
    its log reads 0, below beta > 1)."""
    return spread / np.maximum(_logs(floor_sum, floor_sum > 0.0), params.beta)


def _individual_values(
    total: np.ndarray,
    isp_value: np.ndarray,
    unused: np.ndarray,
    settled_share: np.ndarray,
    account: WfpAccount,
    params: SharingParams,
) -> np.ndarray:
    """Each row's :func:`iwfp_contribution`, against the plan's quota and fee and
    the row's ``unused`` and ``settled_share``."""
    over = isp_value > total + TOLERANCE
    if np.count_nonzero(over):
        k = over.argmax()
        raise ValueError(
            f"ISP standalone value {isp_value[k].item()} exceeds total revenue "
            f"{total[k].item()}"
        )
    surplus = total - isp_value
    earning = surplus > 0.0
    if account.fee > 0.0:
        earning &= ~(settled_share >= account.fee - TOLERANCE)
    omega = unused / account.quota if account.quota > 0.0 else np.zeros(len(total))
    raw = omega * _logs(params.alpha * surplus, earning)
    # Clamped into [0, surplus]; as with Python's max(raw, 0.0), a raw of -0.0
    # (omega 0 times a negative log) stays -0.0, which np.maximum would not keep.
    raw = np.where(0.0 > raw, 0.0, raw)
    return np.where(earning, np.minimum(raw, surplus), 0.0)


def shapley_split(values: CoalitionValues) -> Settlement:
    """Closed-form two-player Shapley split of the settlement game.

    Each player gets its standalone value half the time and its marginal
    contribution to the other half the time:

        wfp_share = v({w})/2 + (v({w,i}) - v({i}))/2
        isp_share = v({i})/2 + (v({w,i}) - v({w}))/2

    The two shares always sum to the grand-coalition value.  The values may
    be arrays, split element by element.
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


#: The numeric fields of SaleTotals: the columns of a batch of transactions.
_COLUMNS = ("count", "revenue", "isp_revenue", "spread", "floor_sum", "volume")


def settle_rows(
    account: WfpAccount,
    totals: SaleTotals,
    params: SharingParams,
    unused: np.ndarray,
    settled_share: np.ndarray,
) -> Settlement:
    """Settle one transaction per row for one provider: a Settlement of columns.

    Row k is the transaction whose sums are entry k of the ``totals`` columns,
    settled against ``account``'s id, kind, quota and fee with ``unused[k]``
    and ``settled_share[k]`` as the plan's state (the account's own two are not
    read).  Per row it builds the coalition values for the account's kind,
    hands the ISP everything when the provider contributes nothing, splits
    them with :func:`shapley_split`, and -- for an individual provider with a
    fee -- enforces the billing-cycle cap: any payout above the headroom
    (fee - settled_share) is truncated and handed to the ISP, so the shares
    still sum to the transaction total.  A row without sales settles to zero.

    Raises ValueError if the sales are another provider's, or if an
    individual's row has an ISP value above its revenue.
    """
    if totals.seller is not None and totals.seller != account.id:
        raise ValueError(
            f"sale by {totals.seller!r} settled against account {account.id!r}"
        )
    live = np.flatnonzero(totals.count)
    if len(live) < len(totals.count):
        # Rows without sales settle to zero; the others settle as a batch of their own.
        sold = replace(totals, **{name: getattr(totals, name)[live] for name in _COLUMNS})
        part = settle_rows(account, sold, params, unused[live], settled_share[live])
        columns = np.zeros((5, len(totals.count)))
        columns[:, live] = list(vars(part).values())
        return Settlement(*columns)
    total, isp_alone = totals.revenue, totals.isp_revenue
    if account.kind is WfpKind.ESTABLISHMENT:
        wfp_value = _establishment_values(totals.spread, totals.floor_sum, params)
    else:
        wfp_value = _individual_values(total, isp_alone, unused, settled_share, account, params)

    # A provider that contributes nothing leaves the whole pot with the ISP.
    isp_value = np.where(wfp_value > 0.0, isp_alone, total)
    split = shapley_split(CoalitionValues(total, wfp_value, isp_value))
    if account.kind is WfpKind.ESTABLISHMENT or not account.fee > 0.0:
        return split
    headroom = np.maximum(account.fee - settled_share, 0.0)
    capped = split.wfp_share > headroom
    return Settlement(
        wfp_share=np.where(capped, headroom, split.wfp_share),
        isp_share=np.where(capped, split.isp_share + (split.wfp_share - headroom), split.isp_share),
        total_value=total,
        wfp_value=wfp_value,
        isp_value=isp_value,
    )


def settle_transaction(
    account: WfpAccount,
    totals: SaleTotals,
    params: SharingParams,
) -> tuple[Settlement, WfpAccount]:
    """Settle one transaction and return the payout plus the updated account.

    The one-row case of :func:`settle_rows`, settled against the account's own
    ``unused`` and ``settled_share``; ``totals`` holds the transaction's sums
    (``SaleTotals.of(sales)`` for a list).  Individual accounts come back with
    ``unused`` reduced by the volume sold and ``settled_share`` grown by the
    payout, establishments with the payout added to ``settled_share``; a
    transaction without sales returns the account itself.  The input account
    is untouched.
    """
    unused, settled_share, *sums = np.array([
        account.unused, account.settled_share, totals.count, totals.revenue,
        totals.isp_revenue, totals.spread, totals.floor_sum, totals.volume,
    ])[:, None]
    columns = settle_rows(account, SaleTotals(totals.seller, *sums), params, unused, settled_share)
    settlement = Settlement(*[column.item() for column in vars(columns).values()])
    if not totals.count:
        return settlement, account
    ledger = {"settled_share": account.settled_share + settlement.wfp_share}
    if account.kind is WfpKind.INDIVIDUAL:
        ledger["unused"] = max(account.unused - totals.volume, 0.0)
    return settlement, replace(account, **ledger)
