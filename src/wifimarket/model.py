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
bad config can be diagnosed in full rather than one field at a time (rules:
:func:`bound` declares them on a field, :func:`broken_bounds` checks them).

A run holds its users as a :class:`Population` (parallel arrays over one
:class:`Roster` of ids), and reports per-user values as :class:`UserValues`,
read-only id -> float views of one array over that roster.  Its result is a
:class:`TimeSeries` of :class:`StepBlock` columns, whose per-user rows hold a
value per template, as sweep and equilibrium runs keep them, or per user
(:class:`KeyedRows`); the :class:`StepRecord` of each step is built from them,
and a template row gathered, when first read.
"""
from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from functools import cache, cached_property
from itertools import chain, groupby, repeat
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

#: Absolute tolerance for monetary and price comparisons.
TOLERANCE = 1e-9

#: A field's rule: the test its value fails (given it and its object), and the message.
Rule = tuple[Callable[[Any, Any], bool], str]
POSITIVE: Rule = (lambda v, _: v <= 0.0, "must be positive")
NON_NEGATIVE: Rule = (lambda v, _: v < 0.0, "must be non-negative")
AT_LEAST_1: Rule = (lambda v, _: v < 1, "must be at least 1")
ABOVE_1: Rule = (lambda v, _: v <= 1.0, "must exceed 1")


def one_of(*choices: str) -> Rule:
    """The rule that a value is one of ``choices``."""
    return (lambda v, _: v not in choices, "must be " + " or ".join(map(repr, choices)))


def bound(rules: Rule | list[Rule], default: Any = MISSING, kind: WfpKind | None = None) -> Any:
    """A dataclass field held to ``rules`` (one or a list), whose tests also get the
    instance; with a ``kind``, only an instance of that ``kind`` is held to them."""
    rules = [rules] if isinstance(rules, tuple) else rules
    return field(default=default, metadata={"bound": [(*rule, kind) for rule in rules]})


@cache
def _bounds(cls: type, kind: Any) -> tuple[tuple[str, Callable[[Any, Any], bool], str], ...]:
    """(field, test, text) of each rule on ``cls`` that holds an instance of ``kind``."""
    return tuple((f.name, breaks, text) for f in fields(cls)
                 for breaks, text, held in f.metadata.get("bound", ()) if held in (None, kind))


def broken_rule(obj: Any, name: str, value: Any) -> str:
    """The text of the first rule on ``obj``'s field ``name`` that ``value`` breaks ('' if none)."""
    return next((text for at, breaks, text in _bounds(type(obj), getattr(obj, "kind", None))
                 if at == name and breaks(value, obj)), "")


def broken_bounds(obj: Any) -> list[str]:
    """``"<field> <rule>"`` for each rule that :func:`bound` declared on a field of
    dataclass ``obj`` and the field's value breaks, in field order."""
    rules = _bounds(type(obj), getattr(obj, "kind", None))
    return [f"{name} {text}" for name, breaks, text in rules if breaks(getattr(obj, name), obj)]


def refuse_broken_bounds(obj: Any) -> None:
    """A ``__post_init__`` that raises ValueError with the first of :func:`broken_bounds`."""
    if problems := broken_bounds(obj):
        raise ValueError(problems[0])


class WfpKind(Enum):
    """Establishments sell dedicated capacity; individuals resell a data plan."""

    ESTABLISHMENT = "establishment"
    INDIVIDUAL = "individual"


@dataclass(frozen=True)
class UserProfile:
    """A bandwidth buyer, or ``count`` identical ones (their ids are :attr:`ids`).

    ``weight`` scales the log term of the bandwidth utility, ``budget`` is the
    maximum willingness to pay per transaction, and ``x_min``/``x_max`` bound
    the bandwidth the user may buy.  ``tx_power``, ``channel_gain2``,
    ``noise_var`` and ``band`` shape the SNR factor inside the log utility;
    they shift the utility level but never the best response.
    """

    id: str
    weight: float = bound(POSITIVE, 1.0)
    tx_power: float = bound(POSITIVE, 1.0)
    channel_gain2: float = bound(NON_NEGATIVE, 1.0)
    noise_var: float = bound(POSITIVE, 1.0)
    band: float = bound(POSITIVE, 1.0)
    budget: float = bound(POSITIVE, 100.0)
    x_min: float = bound(POSITIVE, 1e-3)
    x_max: float = bound((lambda v, u: v < u.x_min, "must be at least x_min"), 100.0)
    path: tuple[str, ...] = ()
    wfp: str = ""
    count: int = bound(AT_LEAST_1, 1)

    @property
    def ids(self) -> list[str]:
        """Its own id for one user, else ``<id>001``, ``<id>002``, ... (one per user)."""
        copies = [f"{self.id}{i:03d}" for i in range(1, self.count + 1)]
        return [self.id] if self.count == 1 else copies

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
    the provider adds on top of the ISP's minimum price when quoting users, and
    ``price`` the posted price a quota sweep settles at (None if not posted).
    """

    id: str
    kind: WfpKind
    capacity: float = bound(POSITIVE, 0.0, WfpKind.ESTABLISHMENT)
    quota: float = bound(POSITIVE, 0.0, WfpKind.INDIVIDUAL)
    unused: float = bound((lambda v, w: not 0.0 <= v <= w.quota, "must lie in [0, quota]"), 0.0,
                          WfpKind.INDIVIDUAL)
    min_profit: float = bound(NON_NEGATIVE, 0.0)
    fee: float = bound(NON_NEGATIVE, 0.0, WfpKind.INDIVIDUAL)
    settled_share: float = bound([NON_NEGATIVE, (lambda v, w: 0.0 < w.fee < v, "exceeds fee")], 0.0,
                                 WfpKind.INDIVIDUAL)
    txn_cap: float = bound(NON_NEGATIVE, 0.0, WfpKind.INDIVIDUAL)
    price: float | None = bound((lambda v, _: v is not None and v < 0.0, "must be non-negative"),
                                None)

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
    capacity: float = bound(POSITIVE)
    subscriber_load: float = bound(  # a negative load is only reported as negative
        [NON_NEGATIVE, (lambda v, link: 0.0 <= v and v > link.capacity, "exceeds capacity")], 0.0)
    price: float = bound(NON_NEGATIVE, 0.0)


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

    ``array[i]`` is the value of ``roster.ids[i]``, and the view holds (and
    iterates, in roster order) the first ``len(array)`` ids.
    """

    __slots__ = ("roster", "array")

    def __init__(self, roster: Roster, array: np.ndarray):
        self.roster, self.array = roster, array

    def __getitem__(self, uid: str) -> float:
        i = self.roster.position[uid]
        if i >= len(self.array):
            raise KeyError(uid)
        return float(self.array[i])

    def __len__(self) -> int:
        return len(self.array)

    def __iter__(self):
        return iter(self.roster.ids[: len(self.array)])

    def values(self) -> ValuesView:
        return _Values(self)

    def items(self) -> ItemsView:
        return _Items(self)

    def __repr__(self) -> str:
        return f"UserValues({dict(self.items())!r})"


def fold_sum(values: Iterable[float]) -> float:
    """0.0 + values[0] + values[1] + ..., added one at a time in Python floats.

    The engine, the reports and both price solves sum floats this way, not
    with builtin ``sum``, which adds in this order only before Python 3.12
    (it is compensated from 3.12 on), nor with numpy's pairwise ``sum``.
    :func:`running_total` is the same fold over an array.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def running_total(values: np.ndarray):
    """:func:`fold_sum` of a float64 array, by one ``cumsum``, bit for bit.

    A float for 1-D ``values``; for 2-D, an array of each column's total.  The
    0.0 added to the last partial sum stands for the fold's start: a partial
    sum can only be -0.0 while every term so far is -0.0.  Unlike Python's
    addition, numpy warns on inf - inf and on overflow.
    """
    if values.ndim > 1:
        return values.cumsum(0)[-1] + 0.0 if len(values) else np.zeros(values.shape[1:])
    return float(values.cumsum()[-1]) + 0.0 if len(values) else 0.0


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping.array.tolist())


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.array.tolist())


#: Per-user arrays of a Population, in field order.
_USER_ARRAYS = ("provider", "path", "weight", "budget", "wb", "snr", "x_min", "x_max")


@dataclass(frozen=True, eq=False)
class Population:
    """Users as parallel arrays over one roster.

    ``provider`` is each user's provider number (see :meth:`of`) and ``path``
    indexes ``paths`` (each distinct route once); ``wb`` is weight * budget and
    ``snr`` the SNR factor.
    """

    roster: Roster
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
        """Arrays of the profiles' users; ``providers`` numbers providers (default: as seen)."""
        roster = Roster([uid for u in users for uid in u.ids])
        users = [u for u in users for _ in range(u.count)]
        if providers is None:
            providers = dict.fromkeys(u.wfp for u in users)
        provider_index = {wid: k for k, wid in enumerate(providers)}
        paths = tuple(dict.fromkeys(u.path for u in users))
        path_index = {p: k for k, p in enumerate(paths)}
        return cls(
            roster=roster,
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


class StepRecord(NamedTuple):
    """Everything observed at one step of a run.

    The mapping fields are read-only id -> float mappings; a run's records
    hold :class:`UserValues` views in the per-user ones.
    """

    series: str
    step: int
    lambda_by_wfp: Mapping[str, float] = MappingProxyType({})
    g_by_user: Mapping[str, float] = MappingProxyType({})
    final_price_by_user: Mapping[str, float] = MappingProxyType({})
    x_by_user: Mapping[str, float] = MappingProxyType({})
    total_value: float = 0.0
    wfp_value: float = 0.0
    isp_value: float = 0.0
    wfp_share: float = 0.0
    isp_share: float = 0.0
    wfp_share_pct: float = 0.0
    isp_share_pct: float = 0.0
    mean_utility: float = 0.0


#: The mapping fields of a StepRecord, then its scalar fields, in field order.
MAP_ATTRS = ("lambda_by_wfp", "g_by_user", "final_price_by_user", "x_by_user")
SCALAR_FIELDS = StepRecord._fields[2 + len(MAP_ATTRS):]


class KeyedRows(NamedTuple):
    """One mapping field over a block's steps: float64 row ``values[i]`` is step i's
    mapping of ``roster.ids[:n]``, in roster order.

    With an ``index`` (one template column per user), the row covers the first
    ``len(index)`` ids and the value of ``roster.ids[j]`` is ``values[i, index[j]]``:
    sweep and equilibrium runs keep one column per user entry, whose users and growth
    clones share its values.
    """

    roster: Roster
    values: np.ndarray
    index: np.ndarray | None = None

    @property
    def width(self) -> int:
        """How many ids each row covers."""
        return self.values.shape[1] if self.index is None else len(self.index)


class StepBlock(NamedTuple):
    """Consecutive steps of one series as columns: ``steps`` has one entry per step,
    ``scalars`` one row of :data:`SCALAR_FIELDS` per step, ``maps`` the :data:`MAP_ATTRS`."""

    series: str
    steps: np.ndarray
    scalars: np.ndarray
    maps: tuple[KeyedRows, ...]

    def records(self) -> Iterator[StepRecord]:
        """The block's step records; per-user fields are views of its rows."""
        lam, *users = self.maps
        lambdas = [dict(zip(lam.roster.ids, row)) for row in lam.values.tolist()]
        views = [  # one view for all the steps of a row every step shares
            [UserValues(m.roster, m.values[0])] * len(m.values)
            if m.index is None and m.values.strides[0] == 0
            else [UserValues(m.roster, row if m.index is None else row[m.index])
                  for row in m.values] for m in users
        ]
        return map(StepRecord, repeat(self.series), self.steps.tolist(), lambdas, *views,
                   *self.scalars.T.tolist())


def _layout(rec: StepRecord):
    """What consecutive records share in one block: series, and per mapping field its
    keys, or a view's roster and length."""
    return rec.series, *(
        (id(m.roster), len(m.array)) if type(m) is UserValues else tuple(m)
        for m in map(rec.__getattribute__, MAP_ATTRS)
    )


def _keyed_rows(mappings: tuple[Mapping[str, float], ...]) -> KeyedRows:
    """One block's rows of a field, from mappings that share their layout."""
    first = mappings[0]
    if type(first) is UserValues:
        return KeyedRows(first.roster, np.array([m.array for m in mappings]))
    return KeyedRows(Roster(list(first)), np.array([list(m.values()) for m in mappings], float))


@dataclass
class TimeSeries:
    """A run's steps as :class:`StepBlock` columns, plus run-level summary figures."""

    name: str
    blocks: list[StepBlock] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)

    @classmethod
    def of(cls, name: str, records: Iterable[StepRecord]) -> "TimeSeries":
        """The series of ``records``; a dict field becomes a view of its values over its keys."""
        ts = cls(name)
        for _, run in groupby(records, _layout):
            series, steps, *columns = zip(*run)  # field by field
            maps = tuple(map(_keyed_rows, columns[: len(MAP_ATTRS)]))
            scalars = np.array(columns[len(MAP_ATTRS) :], dtype=float).T
            ts.blocks.append(StepBlock(series[0], np.array(steps, dtype=np.int64), scalars, maps))
        return ts

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        """The step records, built from the blocks when first read."""
        return tuple(chain.from_iterable(block.records() for block in self.blocks))

    def by_series(self) -> dict[str, "TimeSeries"]:
        """Split a multi-series run into one TimeSeries per label."""
        split: dict[str, TimeSeries] = {}
        for block in self.blocks:
            label = block.series
            split.setdefault(label, TimeSeries(f"{self.name}:{label}")).blocks.append(block)
        return split
