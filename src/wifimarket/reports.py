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
one polyline per plotted series and no dependency on any plotting library;
a sorted, finite polyline is drawn by its M4 points per pixel column (:func:`_m4`).
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

    One pass over the records per field; a view of the previous view's roster
    and no longer than the prefix recorded for it adds nothing and is skipped.
    """
    header, plan = ["series", "step", *SCALAR_FIELDS], []
    for attr, prefix in MAP_FIELDS:
        keys: set[str] = set()
        prefixes: dict[Roster, int] = {}  # the longest view of each roster
        roster, longest = None, 0  # the previous view's, and its roster's prefix
        for mapping in map(attrgetter(attr), ts.records):
            if type(mapping) is not UserValues:
                keys.update(mapping)
            elif mapping.roster is not roster or len(mapping.array) > longest:
                roster = mapping.roster
                longest = prefixes[roster] = max(len(mapping.array), prefixes.get(roster, 0))
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


def _first_extreme(values: np.ndarray, extreme) -> float:
    """``min(values.tolist())`` with ``extreme`` np.fmin, or ``max`` with np.fmax, bit for bit:
    a leading NaN, else the first value equal to the extreme of the others."""
    at = 0 if np.isnan(values[0]) else np.argmax(values == extreme.reduce(values))
    return float(values[at])


def _m4(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Which points M4 keeps: the first, last, lowest and highest of each pixel column.

    ``px`` is sorted and finite; a point's column is ``min(floor(px), W - 1)``.
    """
    col = np.minimum(px.astype(np.intp), _PANEL_W - 1)
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    keep = np.zeros(len(col), dtype=bool)
    keep[starts] = keep[np.append(starts[1:] - 1, len(col) - 1)] = True
    for reduce in (np.minimum, np.maximum):
        extreme = np.repeat(reduce.reduceat(py, starts), np.diff(starts, append=len(col)))
        hit = np.flatnonzero(py == extreme)
        keep[hit[np.diff(col[hit], prepend=-1) != 0]] = True
    return keep


def _panel(title: str, curves: dict[str, tuple[np.ndarray, np.ndarray]], y_offset: int) -> list[str]:
    parts = [
        f'<g transform="translate({_MARGIN},{y_offset})">',
        f'<rect x="0" y="0" width="{_PANEL_W}" height="{_PANEL_H}" '
        'fill="none" stroke="#cccccc"/>',
        f'<text x="4" y="-6" font-size="13" font-family="sans-serif">{escape(title)}</text>',
    ]
    drawable = {label: xy for label, xy in curves.items() if len(xy[0]) >= 2}
    if drawable:  # the range is builtin min and max over every drawable value
        lo = min(_first_extreme(ys, np.fmin) for _, ys in drawable.values())
        hi = max(_first_extreme(ys, np.fmax) for _, ys in drawable.values())
        parts += [f'<text x="{_PANEL_W + 4}" y="{y}" font-size="10" '
                  f'font-family="sans-serif">{format_value(value)}</text>'
                  for y, value in ((10, hi), (_PANEL_H, lo))]
    with np.errstate(all="ignore"):  # overflow is inf, inf - inf NaN, as in Python floats
        for idx, (label, (xs, ys)) in enumerate(drawable.items()):
            color = _PALETTE[idx % len(_PALETTE)]
            # scale against the shared panel range so curves stay comparable
            x_lo = xs.min()
            x_span = (xs.max() - x_lo) or 1.0
            y_span = (hi - lo) if hi != lo else 1.0
            px = (xs - x_lo) / x_span * _PANEL_W
            py = _PANEL_H - (ys - lo) / y_span * _PANEL_H
            if np.isfinite(px).all() and np.isfinite(py).all() and (px[1:] >= px[:-1]).all():
                keep = _m4(px, py)
                px, py = px[keep], py[keep]
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
            parts += [
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"><title>{escape(label)}</title></polyline>',
                f'<text x="{4 + 130 * idx}" y="{_PANEL_H + 16}" font-size="11" '
                f'font-family="sans-serif" fill="{color}">{escape(label)}</text>',
            ]
    parts.append("</g>")
    return parts


_PLOTTED = tuple(map(attrgetter, ("step", "wfp_share_pct", "isp_share_pct", "mean_utility")))


def write_svg(ts: TimeSeries, path: str | Path) -> None:
    """Render shares-, price- and utility-vs-step line charts into one SVG."""
    panels: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {
        "revenue share (%)": {}, "price": {}, "mean user utility": {}}
    share_curves, price_curves, utility_curves = panels.values()
    for label, sub in ts.by_series().items():
        suffix = f" [{label}]" if label else ""
        step, wfp, isp, utility = (np.fromiter(map(get, sub.records), float) for get in _PLOTTED)
        share_curves[f"wfp{suffix}"] = step, wfp
        share_curves[f"isp{suffix}"] = step, isp
        means = np.fromiter((_mean(r.final_price_by_user) for r in sub.records), float)
        price_curves[f"mean final price{suffix}"] = step, means
        utility_curves[f"mean utility{suffix}"] = step, utility

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
    for title, curves in panels.items():
        parts.extend(_panel(title, curves, offset))
        offset += _PANEL_H + 70
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")
