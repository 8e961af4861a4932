"""Run outputs: CSV serialization and self-contained SVG line charts.

CSV is the canonical artifact: one row per step, header names matching the
step-record fields, every float printed with 9 significant digits so a file
written from the same config is byte-identical run to run.  Per-entity values
(provider prices, per-user floors/prices/allocations) flatten into dotted
columns like ``lambda.wfp1`` or ``x.u003``.  Both writers read a run's
:class:`~wifimarket.model.StepBlock` columns, never its step records.  A
block is written :data:`_CHUNK_ROWS` rows at a time, each chunk one ``%`` over its
row template repeated once per row; a per-user row that holds one value per
template (a sweep's or an equilibrium run's) is written as runs instead: each
stretch of consecutive columns that read one template's value is that value's text
repeated, since the sorted header puts growth clones beside their template.
Consecutive blocks with as many steps and the same map rows (a ceiling run's series)
are formatted as one group: the cells they share -- the map cells, and each step or
scalar column with the same bits in every block -- once, into one template of rows
per chunk that the group keeps, then each block's label and own cells into it.
Only the header and the series labels go through :mod:`csv` quoting.

The SVG writer draws three stacked panels -- shares, price, utility -- with
one polyline per plotted series and no dependency on any plotting library;
a sorted, finite polyline is drawn by its M4 points per pixel column (:func:`_m4`).
A curve with the same bits as one already drawn in its panel reuses its coordinates,
found by a hash of its bits and confirmed by comparing them (no copy of its bytes is
kept); a one-block series plots column views of its block's scalars.
"""
from __future__ import annotations

import csv
import io
from itertools import groupby
from pathlib import Path

import numpy as np

from .model import MAP_ATTRS, SCALAR_FIELDS, KeyedRows, StepBlock, StepRecord, TimeSeries
from .model import running_total

#: Mapping-valued step-record fields and their CSV column prefixes.
MAP_FIELDS = tuple(zip(MAP_ATTRS, ("lambda", "g", "final_price", "x")))

NUMBER_FORMAT = "%.9g"

#: Rows per ``%``: a block's CSV text is formatted and written this many rows at a time.
_CHUNK_ROWS = 2048


def format_value(value: float) -> str:
    """Decimal with 9 significant digits -- the one number format of every report."""
    return NUMBER_FORMAT % value


def _column_plan(ts: TimeSeries) -> tuple[list[str], list[tuple[list[str], dict]]]:
    """The CSV header, and per mapping field its keys, sorted as strings, with a cache
    of each roster's positions of them; fields with the same keys share one pair.

    A field's keys are each roster's ids up to the longest row a block holds of it.
    """
    header, plan, shared = ["series", "step", *SCALAR_FIELDS], [], {}
    for j, (_, prefix) in enumerate(MAP_FIELDS):
        longest = {}  # each roster's longest row
        for rows in (block.maps[j] for block in ts.blocks):
            longest[rows.roster] = max(rows.width, longest.get(rows.roster, 0))
        keys = sorted(set().union(*(roster.ids[:n] for roster, n in longest.items())))
        header += [f"{prefix}.{key}" for key in keys]
        plan.append(shared.setdefault(tuple(keys), (keys, {})))
    return header, plan


def _runs(index: np.ndarray, at: np.ndarray) -> list[tuple[int, int]]:
    """The cells at roster positions ``at`` of a row with template ``index``, as runs:
    (template column, length) pairs, each a maximal stretch of cells that read one
    column, with column -1 for the blank past the row or of an absent key."""
    take = np.append(index, -1)[np.minimum(at, len(index))]
    cut = np.flatnonzero(take[1:] != take[:-1])  # each run's last cell, but the last run's
    ends = [*(cut + 1).tolist(), len(take)]
    lengths = [end - start for start, end in zip([0, *ends], ends)]
    return list(zip([*take[cut].tolist(), take[-1].item()], lengths))


def _template_text(values: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """Each row of template columns ``values`` as one column of comma-joined text: per
    run of :func:`_runs`, its template's text repeated, the blank ``""`` for column -1."""
    texts = ([*map((NUMBER_FORMAT + ",").__mod__, row), ","] for row in values.tolist())
    return np.array([["".join([t[k] * n for k, n in runs])[:-1]] for t in texts], dtype=object)


def _block_cells(block: StepBlock, plan: list[tuple[list[str], dict]],
                 rows: slice) -> tuple[list, np.ndarray]:
    """A block's row template without its label, and the cells of its steps ``rows``:
    one row per step, the step and scalar columns first, each with its one template entry.

    ``plan`` caches each roster's position of every key of a field (``len(roster.ids)``
    for a key it lacks).  The maps that share an index and positions (a sweep's or an
    equilibrium run's g, final price and x) share their runs.
    """
    template = ["%d"] + [NUMBER_FORMAT] * len(SCALAR_FIELDS)
    columns, runs = [block.steps[rows, None], block.scalars[rows]], {}
    for (roster, values, index), (keys, known) in zip(block.maps, plan):
        if roster not in known:
            where, absent = roster.position, len(roster.ids)
            known[roster] = np.array([where.get(key, absent) for key in keys], dtype=np.intp)
        at, n = known[roster], values.shape[1]
        if index is not None and len(at):
            pair = id(index), id(at)
            runs[pair] = runs.get(pair) or _runs(index, at)
            template.append("%s")
            columns.append(_template_text(values[rows], runs[pair]))
        elif values.strides[0] == 0:  # one row every step shares: format it into the template
            row = values[0].tolist()
            template += [NUMBER_FORMAT % row[i] if i < n else "" for i in at.tolist()]
        else:
            template += [NUMBER_FORMAT if i < n else "" for i in at.tolist()]
            columns.append(values[rows][:, at[at < n]])
    return template, np.concatenate(columns, axis=1)


def _rows(template: list[str], cells: np.ndarray) -> str:
    """One ``%`` over the row ``template`` repeated once per row of ``cells``."""
    return ((",".join(template) + "\r\n") * len(cells)) % tuple(cells.ravel().tolist())


def _own_columns(blocks: list[StepBlock]) -> np.ndarray:
    """Which step and scalar columns do not hold the same bits in every block."""
    lead = blocks[0]
    own = np.zeros(1 + len(SCALAR_FIELDS), dtype=bool)
    for block in blocks[1:]:
        own[0] |= (block.steps != lead.steps).any()
        own[1:] |= (block.scalars.view(np.int64) != lead.scalars.view(np.int64)).any(axis=0)
    return own


def _label(block: StepBlock) -> str:
    """``block``'s series as :mod:`csv` writes it in a row, each ``%`` doubled for a template."""
    buf = io.StringIO()
    csv.writer(buf).writerow((block.series, ""))
    return buf.getvalue()[: -len(",\r\n")].replace("%", "%%")


def write_csv(ts: TimeSeries, path: str | Path) -> None:
    header, plan = _column_plan(ts)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for _, run in groupby(ts.blocks, lambda block: (len(block.steps), *map(id, block.maps))):
            blocks = list(run)
            chunks = [slice(start, start + _CHUNK_ROWS)
                      for start in range(0, len(blocks[0].steps), _CHUNK_ROWS)]
            if len(blocks) == 1:
                for rows in chunks:
                    template, cells = _block_cells(blocks[0], plan, rows)
                    fh.write(_rows([_label(blocks[0]), *template], cells))
                continue
            # blocks that share their map rows: format the cells they share once per chunk,
            # into a template of rows with a NUL for the label (str.replace finds it faster
            # than a %s among the own cells' formats) and a format for each own cell
            own, shared = _own_columns(blocks), []
            for rows in chunks:
                template, cells = _block_cells(blocks[0], plan, rows)
                marked = [f"%{entry}" if mine else entry for entry, mine in zip(template, own)]
                row = ["\0", *marked, *template[len(own):]]
                shared.append(_rows(row, np.delete(cells, np.flatnonzero(own), axis=1)))
            for block in blocks:
                label = _label(block)
                for rows, text in zip(chunks, shared):
                    part = np.column_stack((block.steps[rows], block.scalars[rows]))[:, own]
                    fh.write(text.replace("\0", label) % tuple(part.ravel().tolist()))


def read_csv(path: str | Path) -> TimeSeries:
    """Parse a CSV written by :func:`write_csv` back into a TimeSeries."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        cells_by_field = [[(i, name[len(prefix) + 1:]) for i, name in enumerate(header)
                           if name.startswith(f"{prefix}.")] for _, prefix in MAP_FIELDS]
        for row in reader:
            maps = [{key: float(row[i]) for i, key in cells if row[i]} for cells in cells_by_field]
            scalars = map(float, row[2 : 2 + len(SCALAR_FIELDS)])
            records.append(StepRecord(row[0], int(row[1]), *maps, *scalars))
    return TimeSeries.of(Path(path).stem, records)


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


def _means(rows: KeyedRows) -> np.ndarray:
    """Each row's mean: its values in roster order, folded from 0.0 as by ``fold_sum``."""
    _, values, index = rows
    if index is not None:  # one 1-D gather per row
        return np.array([running_total(row[index]) for row in values]) / max(len(index), 1)
    return running_total(values.T) / max(values.shape[1], 1)


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


def _once(cache: dict, arrays: tuple[np.ndarray, ...], make):
    """``make()``, once per distinct bits of ``arrays``: ``cache`` keeps each result under a
    hash of each array's bytes (freed after the lookup), and a hit counts if the bits match."""
    entries = cache.setdefault(tuple(hash(a.tobytes()) for a in arrays), [])
    for kept, value in entries:
        if all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(kept, arrays)):
            return value
    entries.append((arrays, make()))
    return entries[-1][1]


def _coords(xs: np.ndarray, ys: np.ndarray, lo: float, hi: float) -> str:
    """A curve's polyline points, scaled against the panel's value range ``lo``..``hi``
    so curves stay comparable; M4-decimated when sorted and finite."""
    x_lo = xs.min()
    x_span = (xs.max() - x_lo) or 1.0
    y_span = (hi - lo) if hi != lo else 1.0
    px = (xs - x_lo) / x_span * _PANEL_W
    py = _PANEL_H - (ys - lo) / y_span * _PANEL_H
    if np.isfinite(px).all() and np.isfinite(py).all() and (px[1:] >= px[:-1]).all():
        keep = _m4(px, py)
        px, py = px[keep], py[keep]
    return ("%.2f,%.2f " * len(px))[:-1] % tuple(np.column_stack((px, py)).flat)


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
    drawn = {}  # each distinct curve's coordinate text, by a hash of its bits
    with np.errstate(all="ignore"):  # overflow is inf, inf - inf NaN, as in Python floats
        for idx, (label, (xs, ys)) in enumerate(drawable.items()):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = _once(drawn, (xs, ys), lambda: _coords(xs, ys, lo, hi))
            parts += [
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"><title>{escape(label)}</title></polyline>',
                f'<text x="{4 + 130 * idx}" y="{_PANEL_H + 16}" font-size="11" '
                f'font-family="sans-serif" fill="{color}">{escape(label)}</text>',
            ]
    parts.append("</g>")
    return parts


_PLOTTED = [SCALAR_FIELDS.index(f) for f in ("wfp_share_pct", "isp_share_pct", "mean_utility")]


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` end to end; a single array is itself, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def write_svg(ts: TimeSeries, path: str | Path) -> None:
    """Render shares-, price- and utility-vs-step line charts into one SVG."""
    panels: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {
        "revenue share (%)": {}, "price": {}, "mean user utility": {}}
    share_curves, price_curves, utility_curves = panels.values()
    steps, means = {}, {}  # each distinct step array cast; each price rows' means
    for label, sub in ts.by_series().items():
        suffix = f" [{label}]" if label else ""
        ints = _joined([block.steps for block in sub.blocks])
        step = _once(steps, (ints,), lambda: ints.astype(float))
        scalars = _joined([block.scalars for block in sub.blocks])
        wfp, isp, utility = (scalars[:, k] for k in _PLOTTED)  # column views
        share_curves[f"wfp{suffix}"] = step, wfp
        share_curves[f"isp{suffix}"] = step, isp
        if (rows := tuple(id(block.maps[2]) for block in sub.blocks)) not in means:
            with np.errstate(all="ignore"):  # overflow is inf, inf - inf NaN, as in Python floats
                means[rows] = _joined([_means(block.maps[2]) for block in sub.blocks])
        price_curves[f"mean final price{suffix}"] = step, means[rows]
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
