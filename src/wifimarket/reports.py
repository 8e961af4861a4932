"""Run outputs: CSV serialization and self-contained SVG line charts.

CSV is the canonical artifact: one row per step, header names matching the
step-record fields, every float printed with 9 significant digits so a file
written from the same config is byte-identical run to run.  Per-entity values
(provider prices, per-user floors/prices/allocations) flatten into dotted
columns like ``lambda.wfp1`` or ``x.u003``.

The SVG writer draws three stacked panels -- shares, price, utility -- with
one polyline per plotted series and no dependency on any plotting library.
"""
from __future__ import annotations

import csv
from pathlib import Path
from xml.sax.saxutils import escape

from .engine import StepRecord, TimeSeries

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
    """The CSV header, and ``(attr, keys)`` per map field: the run's keys, sorted as strings."""
    header, plan = ["series", "step", *SCALAR_FIELDS], []
    for attr, prefix in MAP_FIELDS:
        keys = sorted(set().union(*(getattr(rec, attr) for rec in ts.records)))
        header += [f"{prefix}.{key}" for key in keys]
        plan.append((attr, keys))
    return header, plan


def csv_header(ts: TimeSeries) -> list[str]:
    return _column_plan(ts)[0]


def write_csv(ts: TimeSeries, path: str | Path) -> None:
    header, plan = _column_plan(ts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in ts.records:
            row = [rec.series, str(rec.step)]
            row += [NUMBER_FORMAT % getattr(rec, name) for name in SCALAR_FIELDS]
            for attr, keys in plan:
                mapping = getattr(rec, attr)
                row += [NUMBER_FORMAT % mapping[key] if key in mapping else "" for key in keys]
            writer.writerow(row)


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


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


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
            (r.step, _mean(r.final_price_by_user.values())) for r in sub.records
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
