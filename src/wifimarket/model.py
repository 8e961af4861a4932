"""Core value types for the secondary Wi-Fi bandwidth market.

The market has three kinds of actors:

* users, who buy wireless bandwidth from a Wi-Fi provider,
* Wi-Fi providers (WFPs), who resell spare capacity -- either an
  establishment operating dedicated access points, or an individual
  reselling the unused part of a metered data plan,
* the ISP, which owns the backhaul links and quotes a minimum sale
  price per unit of bandwidth routed over each link.

Everything in this module is a plain value object.  Operations elsewhere
return updated copies instead of mutating shared state, and scenario
validation reports violations as data (strings) rather than raising, so a
bad config can be diagnosed in full rather than one field at a time.

A run holds its users as a :class:`Population` (parallel arrays over one
:class:`Roster` of ids), and reports per-user values as :class:`UserValues`,
read-only id -> float views of one array over that roster.
"""
from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

#: Absolute tolerance for monetary and price comparisons.
TOLERANCE = 1e-9


class WfpKind(Enum):
    """Establishments sell dedicated capacity; individuals resell a data plan."""

    ESTABLISHMENT = "establishment"
    INDIVIDUAL = "individual"


@dataclass(frozen=True)
class UserProfile:
    """A bandwidth buyer.

    ``weight`` scales the log term of the bandwidth utility, ``budget`` is the
    maximum willingness to pay per transaction, and ``x_min``/``x_max`` bound
    the bandwidth the user may buy.  ``tx_power``, ``channel_gain2``,
    ``noise_var`` and ``band`` shape the SNR factor inside the log utility;
    they shift the utility level but never the best response.
    """

    id: str
    weight: float = 1.0
    tx_power: float = 1.0
    channel_gain2: float = 1.0
    noise_var: float = 1.0
    band: float = 1.0
    budget: float = 100.0
    x_min: float = 1e-3
    x_max: float = 100.0
    path: tuple[str, ...] = ()
    wfp: str = ""

    @property
    def snr_factor(self) -> float:
        """1 + P |c|^2 / (noise * band); multiplies x inside the log utility."""
        return 1.0 + self.tx_power * self.channel_gain2 / (self.noise_var * self.band)


@dataclass(frozen=True)
class WfpAccount:
    """A Wi-Fi provider's standing state.

    Establishment accounts use ``capacity`` (sellable bandwidth per step).
    Individual accounts use the data-plan fields: ``quota`` is the plan size,
    ``unused`` the remaining volume, ``fee`` the monthly subscription fee that
    caps what the individual may earn per billing cycle, ``settled_share`` the
    revenue already settled against that cap this cycle, and ``txn_cap`` the
    largest volume sellable in one transaction.  ``min_profit`` is the margin
    the provider adds on top of the ISP's minimum price when quoting users.
    """

    id: str
    kind: WfpKind
    capacity: float = 0.0
    quota: float = 0.0
    unused: float = 0.0
    min_profit: float = 0.0
    fee: float = 0.0
    settled_share: float = 0.0
    txn_cap: float = 0.0

    def replenished(self) -> "WfpAccount":
        """Fresh billing cycle: quota restored, settled share reset."""
        return replace(self, unused=self.quota, settled_share=0.0)


def effective_capacity(account: WfpAccount) -> float:
    """Bandwidth the account can actually sell right now.

    Establishments sell up to ``capacity``; individuals up to the smaller of
    the remaining quota and the per-transaction cap (when one is set).
    """
    if account.kind is WfpKind.ESTABLISHMENT:
        return account.capacity
    if account.txn_cap > 0.0:
        return min(account.unused, account.txn_cap)
    return account.unused


@dataclass(frozen=True)
class LinkState:
    """One backhaul link: capacity, exogenous subscriber load, and the ISP's
    current minimum sale price for WFP traffic crossing it."""

    id: str
    capacity: float
    subscriber_load: float = 0.0
    price: float = 0.0


@dataclass
class Topology:
    """The ISP's network: the links WFP traffic is routed over."""

    links: dict[str, LinkState] = field(default_factory=dict)

    def link_prices(self) -> dict[str, float]:
        return {lid: link.price for lid, link in self.links.items()}


@dataclass(frozen=True)
class SaleRecord:
    """One user's purchase within a transaction.

    ``min_price`` is the ISP's per-unit floor along the user's path,
    ``wfp_price`` the provider's posted price, and ``final_price`` what the
    user actually pays per unit: max(wfp_price, min_price + min_profit), so it
    never drops below the ISP floor.
    """

    user: str
    wfp: str
    x: float
    min_price: float
    wfp_price: float
    final_price: float


@dataclass(frozen=True)
class Settlement:
    """Outcome of settling one transaction between a WFP and the ISP.

    ``wfp_share``/``isp_share`` are the payouts (they always sum to
    ``total_value``); ``wfp_value``/``isp_value`` are the standalone coalition
    values the split was computed from.
    """

    wfp_share: float
    isp_share: float
    total_value: float
    wfp_value: float
    isp_value: float


class Roster:
    """User ids in run order, and each id's position: the keys views share."""

    def __init__(self, ids: Sequence[str]) -> None:
        self.ids = list(ids)

    @cached_property
    def position(self) -> dict[str, int]:
        return {uid: i for i, uid in enumerate(self.ids)}


class UserValues(Mapping):
    """Read-only id -> float view of a float64 array over a roster prefix.

    ``array[i]`` is the value of ``roster.ids[i]``, and the view holds the
    first ``len(array)`` ids.  ``order`` (positions) sets the iteration order;
    by default it is roster order.
    """

    __slots__ = ("roster", "array", "order")

    def __init__(self, roster: Roster, array: np.ndarray, order: np.ndarray | None = None):
        self.roster, self.array, self.order = roster, array, order

    def __getitem__(self, uid: str) -> float:
        i = self.roster.position[uid]
        if i >= len(self.array):
            raise KeyError(uid)
        return float(self.array[i])

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        ids = self.roster.ids
        if self.order is None:
            return iter(ids[: len(self.array)])
        return map(ids.__getitem__, self.order.tolist())

    def ordered(self) -> list[float]:
        """The values as floats, in iteration order."""
        return (self.array if self.order is None else self.array[self.order]).tolist()

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"UserValues({dict(self.items())!r})"


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping.ordered())


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.ordered())


#: Per-user arrays of a Population, in field order.
_USER_ARRAYS = ("provider", "path", "weight", "budget", "wb", "snr", "x_min", "x_max")


@dataclass(frozen=True, eq=False)
class Population:
    """Users as parallel arrays over one roster.

    ``provider`` and ``path`` index ``providers`` and ``paths`` (each distinct
    route once); ``wb`` is weight * budget and ``snr`` the SNR factor.
    """

    roster: Roster
    providers: tuple[str, ...]
    paths: tuple[tuple[str, ...], ...]
    provider: np.ndarray
    path: np.ndarray
    weight: np.ndarray
    budget: np.ndarray
    wb: np.ndarray
    snr: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray

    @classmethod
    def of(cls, users: Sequence[UserProfile], providers: Sequence[str] | None = None) -> "Population":
        """Arrays of ``users``; ``providers`` fixes the provider numbering (default: first seen)."""
        if providers is None:
            providers = dict.fromkeys(u.wfp for u in users)
        provider_index = {wid: k for k, wid in enumerate(providers)}
        paths = tuple(dict.fromkeys(u.path for u in users))
        path_index = {p: k for k, p in enumerate(paths)}
        return cls(
            roster=Roster([u.id for u in users]),
            providers=tuple(providers),
            paths=paths,
            provider=np.array([provider_index[u.wfp] for u in users], dtype=np.intp),
            path=np.array([path_index[u.path] for u in users], dtype=np.intp),
            weight=np.array([u.weight for u in users], dtype=float),
            budget=np.array([u.budget for u in users], dtype=float),
            wb=np.array([u.weight * u.budget for u in users], dtype=float),
            snr=np.array([u.snr_factor for u in users], dtype=float),
            x_min=np.array([u.x_min for u in users], dtype=float),
            x_max=np.array([u.x_max for u in users], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.roster.ids)

    def take(self, idx: np.ndarray, ids: Sequence[str] | None = None) -> "Population":
        """The users at positions ``idx``, under ``ids`` (default: their own)."""
        if ids is None:
            ids = [self.roster.ids[i] for i in idx.tolist()]
        arrays = {name: getattr(self, name)[idx] for name in _USER_ARRAYS}
        return replace(self, roster=Roster(ids), **arrays)
