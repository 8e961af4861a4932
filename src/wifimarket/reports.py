"""Run outputs: CSV serialization and self-contained SVG line charts.

CSV is the canonical artifact: one row per step, header names matching the
step-record fields, every float printed with 9 significant digits so a file
written from the same config is byte-identical run to run.  Per-entity values
(provider prices, per-user floors/prices/allocations) flatten into dotted
columns like ``lambda.wfp1`` or ``x.u003``.  Per-user views
(:class:`~wifimarket.model.UserValues`) are formatted straight from their
arrays: a long view formats each of its distinct values (by bit pattern) once,
since growth clones repeat a handful of values across thousands of users.
Rows are written as joined text; only the header and the series labels go
through :mod:`csv` quoting, as numbers never need it.

The SVG writer draws three stacked panels -- shares, price, utility -- with
one polyline per plotted series and no dependency on any plotting library.
"""
from __future__ import annotations

import csv
import io
from operator import attrgetter
from pathlib import Path

import numpy as np

from .engine import StepRecord, TimeSeries
from .model import Roster, UserValues, distinct, fold_sum

#: Scalar step-record fields, in emission order.
SCALAR_FIELDS = (
    "total_value",
    "wfp_value",
    "isp_value",
    "wfp_share",
    "isp_share",
    "wfp_share_pct",
    "isp_share_pct",
    "mean_utility",
)

#: Mapping-valued step-record fields and their CSV column prefixes.
MAP_FIELDS = (
    ("lambda_by_wfp", "lambda"),
    ("g_by_user", "g"),
    ("final_price_by_user", "final_price"),
    ("x_by_user", "x"),
)

NUMBER_FORMAT = "%.9g"


def format_value(value: float) -> str:
    """Decimal with 9 significant digits -- the one number format of every report."""
    return NUMBER_FORMAT % value


def _column_plan(ts: TimeSeries) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The CSV header, and ``(attr, keys)`` per map field: the run's keys, sorted as strings.

    One pass over the records per field; a mapping that is the previous
    record's adds nothing and is skipped.
    """
    header, plan = ["series", "step", *SCALAR_FIELDS], []
    for attr, prefix in MAP_FIELDS:
        keys: set[str] = set()
        prefixes: dict[Roster, int] = {}  # the longest view of each roster
        last = None
        for mapping in map(attrgetter(attr), ts.records):
            if mapping is last:
                continue
            last = mapping
            if type(mapping) is UserValues:
                roster, n = mapping.roster, len(mapping.array)
                if n > prefixes.get(roster, 0):
                    prefixes[roster] = n
            else:
                keys.update(mapping)
        for roster, n in prefixes.items():
            keys.update(roster.ids[:n])
        keys = sorted(keys)
        header += [f"{prefix}.{key}" for key in keys]
        plan.append((attr, keys))
    return header, plan


#: Views at least this long are formatted by distinct value; a shorter one
#: formats every cell, as sorting it would cost more than it saves.
DISTINCT_MIN_LEN = 128


def _view_text(keys: list[str]):
    """Formats views against ``keys`` as one comma-joined text, ``""`` where a key is absent.

    Each roster's key positions are computed once.  Consecutive records
    sharing a view share its text.
    """
    positions: dict[Roster, tuple[list[int], np.ndarray]] = {}
    last, text = None, ""

    def joined(view: UserValues) -> str:
        nonlocal last, text
        if view is not last:
            roster, n = view.roster, len(view.array)
            if roster not in positions:
                where, absent = roster.position, len(roster.ids)
                at = [where.get(key, absent) for key in keys]
                positions[roster] = at, np.array(at, dtype=np.intp)
            at, at_array = positions[roster]
            if n < DISTINCT_MIN_LEN:
                values = view.array.tolist()
                cells = [NUMBER_FORMAT % values[i] if i < n else "" for i in at]
            else:
                values, slot = distinct(view.array)
                texts = [NUMBER_FORMAT % v for v in values.tolist()]
                slots = np.full(len(roster.ids) + 1, len(values))  # past the prefix: ""
                slots[:n] = slot
                cells = np.array([*texts, ""], dtype=object)[slots[at_array]].tolist()
            last, text = view, ",".join(cells)
        return text

    return joined


def _csv_field(text: str) -> str:
    """``text`` as :mod:`csv` writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[: -len(",\r\n")]


def csv_header(ts: TimeSeries) -> list[str]:
    return _column_plan(ts)[0]


def write_csv(ts: TimeSeries, path: str | Path) -> None:
    header, plan = _column_plan(ts)
    fields = [(attrgetter(attr), keys, _view_text(keys)) for attr, keys in plan if keys]
    scalars = attrgetter(*SCALAR_FIELDS)
    scalar_text = ",".join([NUMBER_FORMAT] * len(SCALAR_FIELDS))
    labels: dict[str, str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for rec in ts.records:
            label = labels.get(rec.series)
            if label is None:
                label = labels[rec.series] = _csv_field(rec.series)
            row = [label, str(rec.step), scalar_text % scalars(rec)]
            for get, keys, view_text in fields:
                mapping = get(rec)
                if type(mapping) is UserValues:
                    row.append(view_text(mapping))
                else:
                    row += [NUMBER_FORMAT % mapping[key] if key in mapping else "" for key in keys]
            fh.write(",".join(row) + "\r\n")


def read_csv(path: str | Path) -> TimeSeries:
    """Parse a CSV written by :func:`write_csv` back into a TimeSeries."""
    ts = TimeSeries(name=Path(path).stem)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cells_by_attr = [(attr, [(i, name[len(prefix) + 1:]) for i, name in enumerate(header)
                                 if name.startswith(f"{prefix}.")]) for attr, prefix in MAP_FIELDS]
        for row in reader:
            scalars = dict(zip(SCALAR_FIELDS, map(float, row[2:])))
            rec = StepRecord(series=row[0], step=int(row[1]), **scalars)
            for attr, cells in cells_by_attr:
                getattr(rec, attr).update((key, float(row[i])) for i, key in cells if row[i])
            ts.records.append(rec)
    return ts


# --- SVG -------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
    "#9467bd", "#8c564b", "#17becf", "#7f7f7f",
)

_PANEL_W = 880
_PANEL_H = 240
_MARGIN = 48


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as XML entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _mean(mapping) -> float:
    """Mean of a mapping's values, summed in its iteration order from 0.0."""
    values = mapping.ordered() if type(mapping) is UserValues else list(mapping.values())
    return fold_sum(values) / len(values) if values else 0.0


def _panel(title: str, curves: dict[str, list[tuple[float, float]]], y_offset: int) -> list[str]:
    parts = [
        f'<g transform="translate({_MARGIN},{y_offset})">',
        f'<rect x="0" y="0" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="none" stroke="#cccccc"/>',
        f'<text x="4" y="-6" font-size="13" font-family="sans-serif">{escape(title)}</text>',
    ]
    drawable = {label: pts for label, pts in curves.items() if len(pts) >= 2}
    lo = hi = None
    for pts in drawable.values():
        ys = [p[1] for p in pts]
        lo = min(ys) if lo is None else min(lo, min(ys))
        hi = max(ys) if hi is None else max(hi, max(ys))
    if lo is not None:
        parts.append(
            f'<text x="{_PANEL_W + 4}" y="10" font-size="10" '
            f'font-family="sans-serif">{format_value(hi)}</text>'
        )
        parts.append(
            f'<text x="{_PANEL_W + 4}" y="{_PANEL_H}" font-size="10" '
            f'font-family="sans-serif">{format_value(lo)}</text>'
        )
    for idx, (label, pts) in enumerate(drawable.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        # scale against the shared panel range so curves stay comparable
        xs = [p[0] for p in pts]
        x_lo, x_hi = min(xs), max(xs)
        x_span = (x_hi - x_lo) or 1.0
        y_span = ((hi - lo) if (hi is not None and hi != lo) else 1.0)
        scaled = [
            (
                (x - x_lo) / x_span * _PANEL_W,
                _PANEL_H - (y - lo) / y_span * _PANEL_H,
            )
            for x, y in pts
        ]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in scaled)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"><title>{escape(label)}</title></polyline>'
        )
        parts.append(
            f'<text x="{4 + 130 * idx}" y="{_PANEL_H + 16}" font-size="11" '
            f'font-family="sans-serif" fill="{color}">{escape(label)}</text>'
        )
    parts.append("</g>")
    return parts


def write_svg(ts: TimeSeries, path: str | Path) -> None:
    """Render shares-, price- and utility-vs-step line charts into one SVG."""
    share_curves: dict[str, list[tuple[float, float]]] = {}
    price_curves: dict[str, list[tuple[float, float]]] = {}
    utility_curves: dict[str, list[tuple[float, float]]] = {}
    for label, sub in ts.by_series().items():
        suffix = f" [{label}]" if label else ""
        share_curves[f"wfp{suffix}"] = [
            (r.step, r.wfp_share_pct) for r in sub.records
        ]
        share_curves[f"isp{suffix}"] = [
            (r.step, r.isp_share_pct) for r in sub.records
        ]
        price_curves[f"mean final price{suffix}"] = [
            (r.step, _mean(r.final_price_by_user)) for r in sub.records
        ]
        utility_curves[f"mean utility{suffix}"] = [
            (r.step, r.mean_utility) for r in sub.records
        ]

    total_h = 3 * (_PANEL_H + 70) + _MARGIN
    total_w = _PANEL_W + 2 * _MARGIN + 60
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
        f'<text x="{_MARGIN}" y="20" font-size="15" font-family="sans-serif">'
        f"{escape(ts.name)}</text>",
    ]
    offset = 44
    for title, curves in (
        ("revenue share (%)", share_curves),
        ("price", price_curves),
        ("mean user utility", utility_curves),
    ):
        parts.extend(_panel(title, curves, offset))
        offset += _PANEL_H + 70
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
