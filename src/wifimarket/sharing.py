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

All of it needs five sums over a transaction's sales, and a transaction reaches this
module only as those sums (:class:`SaleTotals`); the engine adds them in roster order
from 0.0.  The arithmetic exists once, in :func:`settle_rows`: one kernel that settles
one provider's transactions row by row, from columns of those sums and of the plan
state each row is settled against, or from (S,) sums against L rows of plan state,
(L, S) at once.  ``revenue`` is a column, one entry per row (as is an establishment's
``spread``); any other sum may be a scalar every row shares.  A row without sales
settles to zero on zeroed sums.  The snapshot modes settle all of a provider's series
in one call, and the tick runs all of an establishment's ticks; :func:`settle_transaction`,
the kernel's one-row case plus the account update, settles an individual's tick, and the
two contribution functions are its contribution on one row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Iterable, Mapping

import numpy as np

from .model import (ABOVE_1, POSITIVE, TOLERANCE, Settlement, WfpAccount, WfpKind, bound,
                    refuse_broken_bounds)


@dataclass(frozen=True)
class SharingParams:
    """Knobs of the two contribution functions.

    ``alpha`` scales the surplus inside the individual provider's log;
    ``beta`` (> 1) floors the establishment denominator so the contribution
    never exceeds the price spread it is derived from.
    """

    alpha: float = bound(POSITIVE, 1.0)
    beta: float = bound(ABOVE_1, 2.5)

    __post_init__ = refuse_broken_bounds


@dataclass(frozen=True)
class CoalitionValues:
    """Characteristic function of the two-player settlement game."""

    total_value: float
    wfp_value: float
    isp_value: float


@dataclass(frozen=True)
class SaleTotals:
    """The sums one transaction settles from, with its sale count.

    ``revenue`` = sum x * final_price (v({w,i})), ``isp_revenue`` = sum x * min_price
    (v({i})), ``spread`` = sum (final_price - min_price) * x, ``floor_sum`` = sum
    min_price and ``volume`` = sum x, each over the transaction's sales; ``len()`` is the
    sale count.  For :func:`settle_rows`, ``revenue`` (and an establishment's ``spread``)
    is a column, one entry per transaction; any other field may be a scalar all share.
    """

    count: int
    revenue: float
    isp_revenue: float
    spread: float
    floor_sum: float
    volume: float

    def __len__(self) -> int:
        return self.count


def ewfp_contribution(totals: SaleTotals, params: SharingParams) -> float:
    """Establishment provider's standalone value.

    The provider is credited the price spread it created, discounted by the
    (log of the) total ISP floor across the sales:

        sum_s (final_price_s - min_price_s) * x_s / max(ln(g_w), beta)

    with g_w = sum_s min_price_s.  The denominator always exceeds 1, so the
    contribution never exceeds the raw spread -- which is what keeps the ISP's
    settled share at or above its standalone revenue.
    """
    spread, floor_sum = np.array([totals.spread]), np.array([totals.floor_sum])
    return _establishment_values(spread, floor_sum, params).item()


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
    logs, (at,) = np.zeros(values.shape), where.nonzero()  # a mask index: +0.3 MiB peak RSS
    logs[at] = list(map(math.log, values[at].tolist()))
    return logs


def _establishment_values(
    spread: np.ndarray, floor_sum: np.ndarray, params: SharingParams
) -> np.ndarray:
    """Each row's spread / max(ln(floor_sum), beta) (beta alone for no floor:
    its log reads 0, below beta > 1); a ``floor_sum`` every row shares is logged once."""
    floor_sum = np.atleast_1d(floor_sum)
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
    the row's ``unused`` and ``settled_share``, which may broadcast the (S,) sums
    to (L, S)."""
    over = isp_value > total + TOLERANCE
    if np.count_nonzero(over):
        k, (isp_value, total) = over.argmax(), np.broadcast_arrays(isp_value, total)
        raise ValueError(
            f"ISP standalone value {isp_value[k].item()} exceeds total revenue "
            f"{total[k].item()}"
        )
    surplus = total - isp_value
    earning = surplus > 0.0
    if account.fee > 0.0:
        earning = earning & ~(settled_share >= account.fee - TOLERANCE)
    omega = unused / account.quota if account.quota > 0.0 else np.zeros(unused.shape)
    # One log per row of sums, taken where any row of plan state earns from it
    raw = omega * _logs(params.alpha * surplus, earning if earning.ndim == 1 else earning.any(0))
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


def settle_rows(
    account: WfpAccount,
    totals: SaleTotals,
    params: SharingParams,
    unused: np.ndarray,
    settled_share: np.ndarray,
) -> Settlement:
    """Settle one transaction per row for one provider: a Settlement of columns.

    Row k is the transaction whose sums are entry k of the ``totals`` columns, settled
    against ``account``'s kind, quota and fee with ``unused[k]`` and ``settled_share[k]``
    as the plan's state (the account's own two are not read).  ``revenue`` is a column,
    one entry per row (as is an establishment's ``spread``); any other sum may be a
    scalar every row shares.  The plan-state arrays may instead broadcast against the
    (S,) sums to (L, S): entry (l, k) then settles row k's sums against plan state
    (l, k), the columns are (L, S), and each equals what L one-dimensional calls would
    return, bit for bit, with each sum's log taken once.  Per row it builds the
    coalition values for the account's kind, hands the ISP everything when the provider
    contributes nothing, splits them with :func:`shapley_split`, and -- for an
    individual provider with a fee -- enforces the billing-cycle cap: any payout above
    the headroom (fee - settled_share) is truncated and handed to the ISP, so the shares
    still sum to the transaction total.  A row without sales settles to zero on the
    same arithmetic: its sums are zeroed first.

    Raises ValueError if an individual's row has an ISP value above its
    revenue.
    """
    if not np.all(totals.count):  # zero unsold rows' sums; a mask on every call costs more
        totals = SaleTotals(*(np.where(totals.count > 0, v, 0.0) for v in vars(totals).values()))
    total, isp_alone = totals.revenue, totals.isp_revenue
    if account.kind is WfpKind.ESTABLISHMENT:
        wfp_value = _establishment_values(totals.spread, totals.floor_sum, params)
    else:
        wfp_value = _individual_values(total, isp_alone, unused, settled_share, account, params)
    # broadcasting 1-D plan state too would give the same bits: a measured fast path
    if unused.ndim > 1 or settled_share.ndim > 1:  # L rows of plan state: (L, S) columns
        total, isp_alone, wfp_value, *_ = np.broadcast_arrays(
            total, isp_alone, wfp_value, unused, settled_share)

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
    ``unused`` and ``settled_share``; ``totals`` holds the transaction's sums.
    Individual accounts come back with ``unused`` reduced by the volume sold
    and ``settled_share`` grown by the payout, establishments with the payout
    added to ``settled_share``; a transaction without sales returns the
    account itself.  The input account is untouched.
    """
    unused, settled_share, *sums = np.array(
        [account.unused, account.settled_share, *vars(totals).values()]
    )[:, None]
    columns = settle_rows(account, SaleTotals(*sums), params, unused, settled_share)
    settlement = Settlement(*[column.item() for column in vars(columns).values()])
    if not totals.count:
        return settlement, account
    ledger = {"settled_share": account.settled_share + settlement.wfp_share}
    if account.kind is WfpKind.INDIVIDUAL:
        ledger["unused"] = max(account.unused - totals.volume, 0.0)
    return settlement, replace(account, **ledger)
