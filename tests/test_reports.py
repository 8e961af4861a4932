"""Report tests: CSV round-trip fidelity, number formatting, SVG structure."""
import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from pins import PINS

import wifimarket
import wifimarket.reports as reports
from wifimarket.config import scenario_from_dict
from wifimarket.model import KeyedRows, Roster, StepBlock, StepRecord, TimeSeries, UserValues
from wifimarket.model import fold_sum
from wifimarket.pricing import user_utility
from wifimarket.presets import PRESET_NAMES, load_preset, preset_path
from wifimarket.engine import run_scenario
from wifimarket.reports import (
    MAP_FIELDS,
    SCALAR_FIELDS,
    _column_plan,
    _means,
    _runs,
    escape,
    format_value,
    read_csv,
    write_csv,
    write_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"

#: Row lengths from here on are "long": the writer once formatted such rows without a
#: template index by distinct value, and the tests below keep rows on both sides of it.
LONG_ROW = 128


def small_series():
    return TimeSeries.of("unit", [
        StepRecord(
            series="run",
            step=0,
            lambda_by_wfp={"w1": 15.0},
            g_by_user={"u1": 10.0, "u2": 10.5},
            final_price_by_user={"u1": 15.0, "u2": 15.5},
            x_by_user={"u1": 1.0, "u2": 2.0},
            total_value=46.0,
            wfp_value=4.0,
            isp_value=31.0,
            wfp_share=9.5,
            isp_share=36.5,
            wfp_share_pct=20.652173913,
            isp_share_pct=79.347826087,
            mean_utility=1.2345,
        ),
        StepRecord(
            series="run",
            step=1,
            lambda_by_wfp={"w1": 16.0},
            g_by_user={"u1": 10.0},  # u2 left: its columns must come back empty
            final_price_by_user={"u1": 16.0},
            x_by_user={"u1": 1.0 / 3.0},
            total_value=16.0 / 3.0,
            wfp_value=1.0,
            isp_value=10.0 / 3.0,
            wfp_share=1.5,
            isp_share=16.0 / 3.0 - 1.5,
            wfp_share_pct=28.125,
            isp_share_pct=71.875,
            mean_utility=-0.5,
        ),
    ])


def test_format_value_nine_significant_digits():
    assert format_value(1.0 / 3.0) == "0.333333333"
    assert format_value(1234567891.0) == "1.23456789e+09"
    assert format_value(150.0) == "150"
    assert format_value(0.000123456789123) == "0.000123456789"
    assert format_value(5e-324) == "4.94065646e-324"
    assert format_value(np.float32(0.1)) == "0.100000001"
    assert format_value(True) == "1"


def test_csv_header_layout():
    header = _column_plan(small_series())[0]
    assert header[:2] == ["series", "step"]
    assert header[2:10] == [
        "total_value", "wfp_value", "isp_value", "wfp_share", "isp_share",
        "wfp_share_pct", "isp_share_pct", "mean_utility",
    ]
    assert header[10:] == [
        "lambda.w1", "g.u1", "g.u2",
        "final_price.u1", "final_price.u2", "x.u1", "x.u2",
    ]


def test_csv_round_trip(tmp_path):
    ts = small_series()
    path = tmp_path / "unit.csv"
    write_csv(ts, path)
    back = read_csv(path)
    assert len(back.records) == 2
    for original, parsed in zip(ts.records, back.records):
        assert parsed.series == original.series
        assert parsed.step == original.step
        assert parsed.total_value == pytest.approx(original.total_value, rel=1e-8)
        assert parsed.wfp_share == pytest.approx(original.wfp_share, rel=1e-8)
        assert parsed.mean_utility == pytest.approx(original.mean_utility, rel=1e-8)
        assert set(parsed.x_by_user) == set(original.x_by_user)
        for uid, x in original.x_by_user.items():
            assert parsed.x_by_user[uid] == pytest.approx(x, rel=1e-8, abs=1e-9)
    # the second record must not have resurrected u2 from empty cells
    assert "u2" not in back.records[1].g_by_user


def pinned_series():
    return TimeSeries.of("pinned", [
        StepRecord(
            series="base",
            step=0,
            lambda_by_wfp={"w1": 15.0},
            # inserted u2 first: the columns must still sort as strings, u10 before u2
            g_by_user={"u2": 10.0, "u10": -0.0},
            final_price_by_user={"u2": np.float64(15.5), "u10": 16},
            x_by_user={"u2": 0.25, "u10": 1e-310},
            total_value=46.0,
            wfp_value=float("nan"),
            isp_value=float("inf"),
            wfp_share=9.5,
            isp_share=36,
            wfp_share_pct=20.6521739,
            isp_share_pct=79.3478261,
            mean_utility=-0.0,
        ),
        StepRecord(
            series="base",
            step=1,
            lambda_by_wfp={"w1": 16.0},
            g_by_user={"u10": 2.0},  # u2 absent here and back in the next record
            final_price_by_user={"u10": 17.0},
            x_by_user={"u10": 0.5},
            total_value=8.5,
            wfp_value=1.0,
            isp_value=2.0,
            wfp_share=3.25,
            isp_share=5.25,
            wfp_share_pct=38.2352941,
            isp_share_pct=61.7647059,
            mean_utility=-1.5,
        ),
        StepRecord(
            series='peak, "high"',
            step=0,
            lambda_by_wfp={"w1": np.float64(1234567890.0)},
            g_by_user={"u2": 11.0, "u10": 3.0},
            final_price_by_user={"u2": 18.0, "u10": 19.0},
            x_by_user={"u2": 1.0, "u10": 2.0},
            mean_utility=0.000123456789,
        ),
    ])


PINNED_CSV = (
    "series,step,total_value,wfp_value,isp_value,wfp_share,isp_share,wfp_share_pct,"
    "isp_share_pct,mean_utility,lambda.w1,g.u10,g.u2,final_price.u10,final_price.u2,"
    "x.u10,x.u2\r\n"
    "base,0,46,nan,inf,9.5,36,20.6521739,79.3478261,-0,15,-0,10,16,15.5,1e-310,0.25\r\n"
    "base,1,8.5,1,2,3.25,5.25,38.2352941,61.7647059,-1.5,16,2,,17,,0.5,\r\n"
    '"peak, ""high""",0,0,0,0,0,0,0,0,0.000123456789,1.23456789e+09,3,11,19,18,2,1\r\n'
)


def same_number(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_csv_bytes_are_pinned_and_read_back(tmp_path):
    ts = pinned_series()
    path = tmp_path / "pinned.csv"
    write_csv(ts, path)
    assert path.read_bytes().decode("utf-8") == PINNED_CSV
    assert_reads_back(ts, path)


def assert_reads_back(ts, path):
    """``read_csv(path)`` gives back every value of ``ts``'s records, bit for bit but NaNs."""
    back = read_csv(path)
    assert len(back.records) == len(ts.records)
    for original, parsed in zip(ts.records, back.records):
        assert (parsed.series, parsed.step) == (original.series, original.step)
        for name in SCALAR_FIELDS:
            assert same_number(getattr(parsed, name), getattr(original, name)), name
        for attr, _ in MAP_FIELDS:
            want, have = getattr(original, attr), getattr(parsed, attr)
            assert set(have) == set(want), attr
            assert all(same_number(have[key], want[key]) for key in want), attr


def reference_write_csv(ts, path):
    """The writer before distinct-value formatting: csv.writer, one format per cell."""
    header = _column_plan(ts)[0]
    keys = [
        (attr, [name[len(prefix) + 1:] for name in header if name.startswith(f"{prefix}.")])
        for attr, prefix in MAP_FIELDS
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in ts.records:
            row = [rec.series, str(rec.step)]
            row += [format_value(getattr(rec, name)) for name in SCALAR_FIELDS]
            for attr, names in keys:
                mapping = getattr(rec, attr)
                row += [format_value(mapping[key]) if key in mapping else "" for key in names]
            writer.writerow(row)


def assert_matches_reference(ts, tmp_path):
    write_csv(ts, tmp_path / "new.csv")
    reference_write_csv(ts, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def special_values(n):
    """``n`` float64s mixing signed zeros, NaNs of three bit patterns, infinities,
    the smallest subnormal and a few repeated ordinary values."""
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    specials = [0.0, -0.0, np.nan, -np.nan, nan_payload, np.inf, -np.inf, 5e-324, -5e-324,
                1.0 / 3.0, 1.0 / 3.0, 2.5, 2.5, 2.5, 1e300]
    return np.array([specials[(7 * i) % len(specials)] for i in range(n)])


def view_run(lengths, roster_size, label="run"):
    """One record per view length, each UserValues over a prefix of one shared roster."""
    roster = Roster([f"u{i}" for i in range(roster_size)])  # sorts u10 before u2
    values = special_values(roster_size)
    records = []
    for step, n in enumerate(lengths):
        view = UserValues(roster, values[:n])
        records.append(StepRecord(
            series=label, step=step, lambda_by_wfp={"w1": float(step)},
            g_by_user=view, final_price_by_user=UserValues(roster, values[:n] + 1.0),
            x_by_user=view, total_value=float(n), mean_utility=-0.0,
        ))
    return TimeSeries.of("views", records)


def test_csv_views_with_special_values_match_reference(tmp_path):
    long = max(LONG_ROW, 200)
    ts = view_run([long, long, 5, LONG_ROW - 1, LONG_ROW, long], long)
    write_csv(ts, tmp_path / "new.csv")
    text = (tmp_path / "new.csv").read_text(encoding="utf-8")
    for cell in ("nan", "inf", "-inf", "-0", "4.94065646e-324", "0.333333333", "2.5"):
        assert f",{cell}," in text
    assert_matches_reference(ts, tmp_path)


def test_csv_view_shorter_than_its_roster_leaves_blank_cells(tmp_path):
    roster_size = 3 * LONG_ROW + 20
    ts = view_run([LONG_ROW + 10, 2, roster_size, LONG_ROW], roster_size)
    write_csv(ts, tmp_path / "new.csv")
    rows = (tmp_path / "new.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows[1].split(",")) == len(rows[0].split(","))
    assert ",," in rows[1] and ",," in rows[2]
    assert_matches_reference(ts, tmp_path)


def test_csv_map_field_without_keys_adds_no_cell(tmp_path):
    ts = TimeSeries.of("views", [
        rec._replace(lambda_by_wfp={}, g_by_user=UserValues(rec.x_by_user.roster, np.empty(0)))
        for rec in view_run([LONG_ROW, 3], LONG_ROW).records
    ])
    write_csv(ts, tmp_path / "new.csv")
    lines = (tmp_path / "new.csv").read_text(encoding="utf-8").splitlines()
    assert not any(name.startswith(("lambda.", "g.")) for name in lines[0].split(","))
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)
    assert_matches_reference(ts, tmp_path)


@pytest.mark.parametrize("label", ['peak, "high"', "two\nlines", "", " padded ", '50% "off", 5%d'])
def test_csv_series_label_is_quoted_as_csv_quotes_it(tmp_path, label):
    ts = view_run([LONG_ROW, 1], LONG_ROW, label=label)
    assert_matches_reference(ts, tmp_path)


def test_csv_growth_sweep_with_two_providers_matches_reference(tmp_path):
    user = {"path": ["AB"], "budget": 100.0, "x_min": 0.01, "x_max": 50.0}
    doc = {
        "name": "two-provider-growth",
        "nodes": ["A", "B"],
        "links": [{"id": "AB", "capacity": 600.0, "price": 10.0}],
        "wfps": [
            {"id": "w1", "kind": "establishment", "capacity": 1000.0, "min_profit": 5.0},
            {"id": "w2", "kind": "establishment", "capacity": 300.0, "min_profit": 2.0},
        ],
        "users": [
            dict(user, id="a", count=6, wfp="w1", weight=1.0),
            dict(user, id="b", count=4, wfp="w2", weight=2.0),
            dict(user, id="c", count=3, wfp="w2", weight=0.5, x_max=2.0),
        ],
        "mode": {"kind": "sweep", "swept_party": "wfp", "start": 15.0, "step": 1.0,
                 "count": 40, "user_growth": 7, "allocation": "best_response", "lambda0": 15.0},
    }
    ts = run_scenario(scenario_from_dict(doc))
    assert len(ts.records[-1].x_by_user) >= 2 * LONG_ROW
    assert_matches_reference(ts, tmp_path)


def test_csv_blocks_that_share_map_rows_format_their_shared_cells_once(tmp_path, monkeypatch):
    # four blocks that share one maps tuple, as engine._snapshots builds them; every
    # value has at most 9 significant digits, so that it reads back as it was
    rng, n = np.random.default_rng(23), 7
    roster, providers = Roster(["u1", "u2", "u3"]), Roster(["w1"])

    def draw(*shape):
        return rng.integers(-4000, 4000, shape) / 8

    prices = draw(n, 3)
    prices[1, 0], prices[2, 1], prices[3, 2] = math.nan, math.inf, -0.0
    g, x = np.array([1.0, -0.0, 2.5]), np.full(3, 0.375)
    maps = (KeyedRows(providers, draw(n, 1)), KeyedRows(roster, np.broadcast_to(g, (n, 3))),
            KeyedRows(roster, prices), KeyedRows(roster, np.broadcast_to(x, (n, 3))))
    shared = draw(n, len(SCALAR_FIELDS))
    shared[1:4, 0] = math.nan, math.inf, -math.inf  # total_value: shared, NaN and infinities
    blocks = []
    for k, label in enumerate(['50% "off", 5%d', "a,b", "plain", ""]):
        scalars = shared.copy()
        scalars[:, [1, 5]] = draw(n, 2)  # wfp_value and wfp_share_pct: each block's own
        scalars[0, 7] = -0.0 if k == 0 else 0.0  # mean_utility: equal, but not in bits
        blocks.append(StepBlock(label, np.arange(n), scalars, maps))
    blocks[-1].scalars[4, 2] += 0.5  # isp_value: one row differs
    # two blocks with their own map rows that differ only in their steps
    steps_only = tuple(KeyedRows(rows.roster, rows.values.copy()) for rows in maps)
    blocks += [StepBlock(label, np.arange(n) + k * n, shared, steps_only)
               for k, label in enumerate(["a,b", "steps"])]
    # two neighbours that share broadcast map rows but differ in row count
    flat = tuple(KeyedRows(rows.roster, np.broadcast_to(rows.values[0], (5, rows.values.shape[1])))
                 for rows in maps)
    blocks += [StepBlock(label, np.arange(count), shared[:count], flat)
               for label, count in (("five", 5), ("three", 3))]
    ts = TimeSeries("shared", blocks)
    seen = []
    own_columns = reports._own_columns
    monkeypatch.setattr(reports, "_own_columns",
                        lambda group: seen.append(own_columns(group)) or seen[-1])
    assert_matches_reference(ts, tmp_path)
    # step, then total_value ... mean_utility
    assert [own.tolist() for own in seen] == [[0, 0, 1, 1, 0, 0, 1, 0, 1], [1] + [0] * 8]
    assert_reads_back(ts, tmp_path / "new.csv")


def chunked_series(n):
    """Two blocks of ``n`` steps that share their map rows, then a block of ``n`` steps alone."""
    rng = np.random.default_rng(n)
    roster, providers = Roster(["u1", "u2"]), Roster(["w1"])

    def draw(*shape):
        return rng.integers(-4000, 4000, shape) / 8

    maps = (KeyedRows(providers, draw(n, 1)), KeyedRows(roster, draw(n, 2)),
            KeyedRows(roster, draw(n, 2)), KeyedRows(roster, draw(n, 2)))
    blocks = [StepBlock(label, np.arange(n), draw(n, len(SCALAR_FIELDS)), maps)
              for label in ("50%s", "b")]
    alone = tuple(KeyedRows(rows.roster, rows.values.copy()) for rows in maps)
    blocks.append(StepBlock("alone", np.arange(n), blocks[0].scalars, alone))
    return TimeSeries(f"chunks-{n}", blocks)


@pytest.mark.parametrize("rows", [1, 3, reports._CHUNK_ROWS])
def test_csv_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(reports, "_CHUNK_ROWS", rows)
    for name in ("iwfp-ceiling", "iwfp-topology", "scenario1"):
        write_csv(run_scenario(load_preset(name)), tmp_path / "preset.csv")
        csv_sha = hashlib.sha256((tmp_path / "preset.csv").read_bytes()).hexdigest()
        assert csv_sha == PINS["PRESET_OUTPUTS"][name]["csv"], name
    for n in (rows, rows + 1):  # a whole number of chunks, and one row more
        assert_matches_reference(chunked_series(n), tmp_path)
    test_csv_blocks_that_share_map_rows_format_their_shared_cells_once(tmp_path, monkeypatch)


def long_ceiling_series():
    """Two ceiling series of 5,001 steps each: three CSV chunks per block."""
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"].update(price_step=0.02, usage_levels=[0.0, 0.5])
    ts = run_scenario(scenario_from_dict(doc))
    assert [len(block.steps) for block in ts.blocks] == [5001, 5001]
    return ts


def traced_peak(write, ts, path):
    """The ``tracemalloc`` peak, in bytes, of one ``write(ts, path)``."""
    tracemalloc.start()
    try:
        write(ts, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_a_blocks_length(tmp_path):
    # formatting a whole block at once peaked at 2.40 MiB here, in chunks at 1.19 MiB
    # (Python 3.11)
    assert traced_peak(write_csv, long_ceiling_series(), tmp_path / "fine.csv") < 1.5 * 2**20


def test_svg_writer_keeps_no_whole_run_copy(tmp_path):
    # copying each series' plotted curves and keeping each curve's bytes as its cache key
    # peaked at 1,247 KiB here; column views and hashed keys at 669 KiB (Python 3.11)
    assert traced_peak(write_svg, long_ceiling_series(), tmp_path / "fine.svg") < 2**20


@pytest.mark.parametrize("collide", [False, True])
def test_svg_curves_share_coordinates_only_when_their_bits_match(monkeypatch, collide):
    if collide:  # every hash equal: each cache lookup is decided by comparing the bits
        monkeypatch.setattr(reports, "hash", lambda _: 0, raising=False)
    drawn = []
    monkeypatch.setattr(reports, "_coords", lambda *args: drawn.append(args) or str(len(drawn)))
    xs, ys = np.arange(4.0), np.array([0.0, 2.0, 1.0, 3.0])
    negative = ys.copy()
    negative[0] = -0.0  # one bit apart, equal as floats
    nan = np.array([np.nan, 2.0, 1.0, 3.0])
    curves = {"a": (xs, ys), "same": (xs.copy(), ys.copy()), "sign": (xs, negative),
              "nan": (xs, nan), "same nan": (xs, nan.copy()), "longer": (np.arange(5.0), np.append(ys, 3.0))}
    with np.errstate(invalid="ignore"):
        points = [part.split('points="')[1].split('"')[0]
                  for part in reports._panel("t", curves, 0) if part.startswith("<polyline")]
    assert points == ["1", "1", "2", "3", "3", "4"]
    assert len(drawn) == 4


def test_escape_matches_saxutils():
    text = "a <b> & c && <<>> 'q' \"d\""
    assert escape(text) == sax_escape(text)


def test_import_loads_no_network_modules():
    code = (
        "import sys, wifimarket; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'email', 'ssl') "
        "if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wifimarket.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_csv_round_trip_full_run(tmp_path):
    ts = run_scenario(load_preset("iwfp-topology"))
    path = tmp_path / "topology.csv"
    write_csv(ts, path)
    back = read_csv(path)
    assert len(back.records) == len(ts.records)
    for original, parsed in zip(ts.records, back.records):
        assert parsed.series == original.series
        assert parsed.wfp_share_pct == pytest.approx(original.wfp_share_pct, rel=1e-8, abs=1e-9)
        assert set(parsed.g_by_user) == set(original.g_by_user)


def test_csv_bytes_are_deterministic(tmp_path):
    ts = run_scenario(load_preset("scenario1"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ts, a)
    write_csv(ts, b)
    assert a.read_bytes() == b.read_bytes()


def test_svg_is_well_formed_with_one_polyline_per_series(tmp_path):
    ts = small_series()
    path = tmp_path / "unit.svg"
    write_svg(ts, path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f".//{SVG_NS}polyline")
    # one series -> wfp share, isp share, mean price, mean utility
    assert len(polylines) == 4
    for poly in polylines:
        points = poly.attrib["points"].split()
        assert len(points) == 2  # two steps -> two vertices
        for pair in points:
            x, y = pair.split(",")
            float(x), float(y)


def test_svg_escapes_labels(tmp_path):
    ts = small_series()
    ts.name = "a <b> & c"
    path = tmp_path / "escaped.svg"
    write_svg(ts, path)
    root = ET.parse(path).getroot()  # parse fails if escaping is broken
    texts = [el.text for el in root.findall(f".//{SVG_NS}text")]
    assert "a <b> & c" in texts


def test_svg_multi_series_run(tmp_path):
    ts = run_scenario(load_preset("iwfp-ceiling"))
    path = tmp_path / "ceiling.svg"
    write_svg(ts, path)
    root = ET.parse(path).getroot()
    polylines = root.findall(f".//{SVG_NS}polyline")
    # four usage series -> 4 share pairs + 4 price + 4 utility curves
    assert len(polylines) == 16


def reference_panels(ts):
    """Each panel's per-point drawing as write_svg did it point by point.

    Per panel: the range labels ``(hi, lo)`` (None without a drawable curve) and,
    per drawable curve, its pixel coordinates and ``f"{px:.2f},{py:.2f}"`` texts.
    """
    shares, prices, utilities = {}, {}, {}
    for label, sub in ts.by_series().items():
        suffix = f" [{label}]" if label else ""
        shares[f"wfp{suffix}"] = [(r.step, r.wfp_share_pct) for r in sub.records]
        shares[f"isp{suffix}"] = [(r.step, r.isp_share_pct) for r in sub.records]
        prices[f"mean final price{suffix}"] = [
            (r.step, fold_sum(list(r.final_price_by_user.values())) / len(r.final_price_by_user)
             if len(r.final_price_by_user) else 0.0)
            for r in sub.records
        ]
        utilities[f"mean utility{suffix}"] = [(r.step, r.mean_utility) for r in sub.records]
    panels = []
    for curves in (shares, prices, utilities):
        drawable = {label: pts for label, pts in curves.items() if len(pts) >= 2}
        lo = hi = None
        for pts in drawable.values():
            ys = [p[1] for p in pts]
            lo = min(ys) if lo is None else min(lo, min(ys))
            hi = max(ys) if hi is None else max(hi, max(ys))
        drawn = {}
        for label, pts in drawable.items():
            xs = [p[0] for p in pts]
            x_lo, x_hi = min(xs), max(xs)
            x_span = (x_hi - x_lo) or 1.0
            y_span = (hi - lo) if hi != lo else 1.0
            scaled = [((x - x_lo) / x_span * 880, 240 - (y - lo) / y_span * 240) for x, y in pts]
            drawn[label] = scaled, [f"{px:.2f},{py:.2f}" for px, py in scaled]
        panels.append((None if lo is None else (format_value(hi), format_value(lo)), drawn))
    return panels


def drawn_panels(path):
    """Per panel of an SVG file: its range labels and each polyline's point texts."""
    panels = []
    for group in ET.parse(path).getroot().findall(f"{SVG_NS}g"):
        labels = [t.text for t in group.findall(f"{SVG_NS}text") if t.attrib["x"] == "884"]
        polylines = {
            poly.find(f"{SVG_NS}title").text: poly.attrib["points"].split(" ")
            for poly in group.findall(f"{SVG_NS}polyline")
        }
        panels.append((tuple(labels) or None, polylines))
    return panels


def curve_run(values, steps=None, label="run"):
    """One record per value: the value is every plotted field, and the one price of a view."""
    roster = Roster(["u1"])
    prices = np.array(values, dtype=float).reshape(-1, 1)
    steps = range(len(values)) if steps is None else steps
    return TimeSeries.of("curve", [
        StepRecord(
            series=label, step=step, final_price_by_user=UserValues(roster, row),
            wfp_share_pct=value, isp_share_pct=100.0 - value, mean_utility=-value,
        )
        for step, value, row in zip(steps, values, prices)
    ])


def assert_drawn_point_for_point(ts, tmp_path):
    write_svg(ts, tmp_path / "out.svg")
    want = [(labels, {k: texts for k, (_, texts) in drawn.items()})
            for labels, drawn in reference_panels(ts)]
    assert drawn_panels(tmp_path / "out.svg") == want


@pytest.mark.parametrize("first", [[math.nan, 1.0, 2.0], [0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]],
                         ids=["nan first", "zero first", "negative zero first"])
def test_svg_short_curves_match_the_per_point_reference(tmp_path, first):
    rng = np.random.default_rng(11)
    records = [
        *curve_run([*first, *rng.normal(50.0, 20.0, 60).tolist(), 3, -0.0], label="first").records,
        *curve_run([math.nan, *rng.random(40).tolist()], label="nan first").records,
        *curve_run([-0.0, 0.0, *rng.random(40).tolist()], label="").records,
    ]
    roster = Roster([f"u{i}" for i in range(4)])
    for i, rec in enumerate(records):
        if i % 5 == 0:
            prices = {"a": np.float64(15.5), "b": 16, "c": rng.random()}
            records[i] = rec._replace(final_price_by_user=prices)
        elif i % 5 in (1, 2):
            prices = UserValues(roster, np.array([1e16, -1e16, 1.0, 1.0]) * i)
            records[i] = rec._replace(final_price_by_user=prices)
    # consecutive records may share one mapping object: each still has its own mean
    shared = {"a": 1.0, "b": 2.5}
    records[10:12] = [rec._replace(final_price_by_user=shared) for rec in records[10:12]]
    records.append(StepRecord(series="one point", step=0, mean_utility=1e300))
    # a copy of a series under a new label, and one whose first share is 0.0, not -0.0
    unlabelled = [rec for rec in records if rec.series == ""]
    records += [rec._replace(series="copy") for rec in unlabelled]
    records += [rec._replace(series="signed zero") for rec in unlabelled]
    records[-len(unlabelled)] = records[-len(unlabelled)]._replace(wfp_share_pct=0.0)
    assert_drawn_point_for_point(TimeSeries.of("curve", records), tmp_path)


@pytest.mark.parametrize("case", ["two per column", "nan", "inf", "unsorted steps"])
def test_svg_curve_without_decimation_is_drawn_point_for_point(tmp_path, case):
    # 1,760 points are 0.5003 px apart: no pixel column holds three
    n = 1760 if case == "two per column" else 5000
    values = np.random.default_rng(5).normal(0.0, 1.0, n).cumsum()
    steps = None
    if case in ("nan", "inf"):
        values[n // 3] = math.nan if case == "nan" else math.inf
    elif case == "unsorted steps":
        steps = [*range(n // 2, n), *range(n // 2)]
    assert_drawn_point_for_point(curve_run(values.tolist(), steps), tmp_path)


def test_svg_m4_keeps_each_pixel_columns_first_last_lowest_and_highest(tmp_path):
    rng = np.random.default_rng(7)
    n = 20_000
    values = rng.normal(0.0, 1.0, n).cumsum() + rng.normal(0.0, 5.0, n)
    ts = curve_run(values.tolist())
    write_svg(ts, tmp_path / "out.svg")
    for (labels, drawn), (want_labels, full) in zip(drawn_panels(tmp_path / "out.svg"),
                                                   reference_panels(ts)):
        assert labels == want_labels
        assert drawn.keys() == full.keys()
        for label, points in drawn.items():
            scaled, texts = full[label]
            assert len(points) <= 4 * 880 < n
            # the drawn points are the reference's in order: match each to its position
            at, kept = 0, []
            for point in points:
                at = texts.index(point, at)
                kept.append(at)
                at += 1
            columns = {}
            for i, (px, _) in enumerate(scaled):
                columns.setdefault(min(math.floor(px), 879), []).append(i)
            in_column = {col: [] for col in columns}
            for i in kept:
                in_column[min(math.floor(scaled[i][0]), 879)].append(i)
            for col, every in columns.items():
                shown = in_column[col]
                assert shown[0] == every[0] and shown[-1] == every[-1], (label, col)
                for extreme in (min, max):
                    assert (extreme(scaled[i][1] for i in shown)
                            == extreme(scaled[i][1] for i in every)), (label, col)


def compensated_sum(values, start=0):
    """Builtin ``sum`` as Python 3.12 computes it over floats: Neumaier-compensated."""
    total, compensation = start, 0.0
    for value in values:
        if type(total) is not float or type(value) is not float:
            total += value
            continue
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_compensated_sum_is_the_python_312_sum():
    assert compensated_sum([0.1] * 10) == 1.0
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, 2, 3]) == 6
    assert math.isinf(compensated_sum([math.inf, 1.0]))


def test_mean_of_a_mapping_is_the_sequential_fold_under_either_sum(monkeypatch):
    monkeypatch.setattr(wifimarket.reports, "sum", compensated_sum, raising=False)

    def mean(mapping):
        (block,) = TimeSeries.of("m", [StepRecord("run", 0, final_price_by_user=mapping)]).blocks
        return _means(block.maps[2]).item()

    roster = Roster([f"u{i}" for i in range(10)])
    for mapping in (UserValues(roster, np.full(10, 0.1)), {f"u{i}": 0.1 for i in range(10)}):
        assert mean(mapping) == 0.9999999999999999 / 10
    # a view sums in roster order: 1e16 - 1e16 first, then 1 + 1; or 1 + 1e16 + 1 - 1e16
    values = np.array([1e16, -1e16, 1.0, 1.0])
    views = [UserValues(roster, values), UserValues(roster, values[[2, 0, 3, 1]]),
             UserValues(roster, values[[2, 3, 0]]), UserValues(roster, values[:0]), {}]
    assert [mean(view) for view in views] == [0.5, 0.0, (1e16 + 2.0) / 3, 0.0, 0.0]


# The PRESET_OUTPUTS pins are the SHA-256 of each preset's CSV and SVG, written by
# the code before per-user values became array views; the array engine must reproduce
# them byte for byte.  Python 3.12 made builtin sum() of floats compensated; the
# outputs must not depend on which sum the interpreter has.
@pytest.mark.parametrize(
    "name, summation",
    [pytest.param(name, "builtin", id=name) for name in sorted(PRESET_NAMES)]
    + [
        pytest.param(name, "compensated", id=f"{name}-compensated-sum")
        for name in sorted(PRESET_NAMES)
    ],
)
def test_preset_outputs_are_pinned(tmp_path, monkeypatch, name, summation):
    if summation == "compensated":
        for module in (wifimarket.engine, wifimarket.reports):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    ts = run_scenario(load_preset(name))
    write_csv(ts, tmp_path / "out.csv")
    write_svg(ts, tmp_path / "out.svg")
    pinned = PINS["PRESET_OUTPUTS"][name]
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == pinned["csv"]
    assert hashlib.sha256((tmp_path / "out.svg").read_bytes()).hexdigest() == pinned["svg"]


def record_digest(records):
    """SHA-256 over float.hex of every scalar, lambda and per-user value (with its id,
    in iteration order) of ``records``."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(f"{rec.series}\n{rec.step}\n".encode())
        for name in SCALAR_FIELDS:
            digest.update(f"{float(getattr(rec, name)).hex()}\n".encode())
        for attr, _ in MAP_FIELDS:
            for key, value in getattr(rec, attr).items():
                digest.update(f"{key}={float(value).hex()}\n".encode())
            digest.update(b";\n")
    return digest.hexdigest()


# The PRESET_RECORDS pins are each preset's record_digest, as the engine built its
# records eagerly, one StepRecord per step, before a run's steps became blocks of columns.
@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_preset_records_are_pinned_bit_for_bit(name):
    ts = run_scenario(load_preset(name))
    assert record_digest(ts.records) == PINS["PRESET_RECORDS"][name]
    assert ts.records is ts.records  # built once, on first read


def outputs(ts, directory):
    directory.mkdir()
    write_csv(ts, directory / "out.csv")
    write_svg(ts, directory / "out.svg")
    return (directory / "out.csv").read_bytes(), (directory / "out.svg").read_bytes()


def perturbed(value):
    """Another valid value of a preset knob: the other boolean, three times a number
    (7 for a zero), or a string with a suffix."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return 3 * value if value else 7.0
    return f"{value}-perturbed"


@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_every_knob_a_preset_sets_moves_its_outputs(tmp_path, name):
    """Each top-level value but ``notes``, each ``solver`` and ``sharing`` key and a
    sweep's ``mode.sigma0`` or ``mode.lambda0`` that the preset sets, perturbed alone,
    changes some CSV or SVG byte: the preset sets no knob its run never reads."""
    doc = json.loads(preset_path(name).read_text(encoding="utf-8"))
    knobs = [(doc, key) for key, value in doc.items()
             if key != "notes" and not isinstance(value, (dict, list))]
    knobs += [(doc[section], key) for section in ("solver", "sharing") for key in doc.get(section, {})]
    knobs += [(doc["mode"], key) for key in ("sigma0", "lambda0") if key in doc["mode"]]
    assert len(knobs) >= 2 + (doc["mode"]["kind"] == "sweep")
    base = outputs(run_scenario(scenario_from_dict(doc)), tmp_path / "base")
    for k, (section, key) in enumerate(knobs):
        value, section[key] = section[key], perturbed(section[key])
        assert outputs(run_scenario(scenario_from_dict(doc)), tmp_path / str(k)) != base, key
        section[key] = value


def assert_rebuilt_from_records_writes_the_same_bytes(ts, tmp_path):
    rebuilt = TimeSeries.of(ts.name, ts.records)
    assert outputs(rebuilt, tmp_path / "rebuilt") == outputs(ts, tmp_path / "original")


def ceiling_at(price_step):
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"]["price_step"] = price_step
    return scenario_from_dict(doc)


@pytest.mark.parametrize("name", [*sorted(PRESET_NAMES), "iwfp-ceiling at price_step 0.05"])
def test_series_rebuilt_from_its_records_writes_the_same_bytes(tmp_path, name):
    cfg = ceiling_at(0.05) if name.endswith("0.05") else load_preset(name)
    assert_rebuilt_from_records_writes_the_same_bytes(run_scenario(cfg), tmp_path)


def hand_built_records():
    """Dict fields whose keys come and go (or change at the same count), records
    sharing one dict, a label holding ``%``, ``,`` and ``"``, views that share a roster
    (one block while their length holds), and a one-step series."""
    shared = {"u1": 2.0, "u2": -0.0}
    label = '50% "off", 5%d'
    records = [
        StepRecord(label, step, lambda_by_wfp={"w1": 10.0 + step}, g_by_user=shared,
                   final_price_by_user=shared, x_by_user={"u1": 0.5, "u2": float(step)},
                   total_value=float(step), wfp_share_pct=step / 3, mean_utility=math.nan)
        for step in range(5)
    ]
    records[2] = records[2]._replace(
        lambda_by_wfp={"w1": 12.0, "w2": 3}, g_by_user={"u2": np.float64(1.5)},
        final_price_by_user={"u3": 7, "u1": math.inf})
    records[3] = records[3]._replace(x_by_user={"u1": 0.5, "u3": 3.0})
    # summed in roster order the first view's mean is 1/3 and the second's 0
    roster, prices = Roster(["u0", "u1", "u2"]), np.array([1e16, -1e16, 1.0])
    records += [StepRecord("views", step, final_price_by_user=UserValues(roster, values))
                for step, values in enumerate([prices, prices[[2, 0, 1]], prices[:2]])]
    records.append(StepRecord("one step", 0, x_by_user={"u9": 1e-310}, mean_utility=-math.inf))
    return records


def test_hand_built_series_writes_what_its_records_hold(tmp_path):
    records = hand_built_records()
    ts = TimeSeries.of("hand <built>", records)
    assert [len(block.steps) for block in ts.blocks] == [2, 1, 1, 1, 2, 1, 1]
    assert record_digest(ts.records) == record_digest(records)
    assert_rebuilt_from_records_writes_the_same_bytes(ts, tmp_path)
    assert_matches_reference(ts, tmp_path)
    assert_drawn_point_for_point(ts, tmp_path)
    with pytest.raises(AttributeError):
        ts.records[0].step = 5


def shape_pins(ts, csv_bytes, svg_bytes):
    """A run's record digest and its outputs' SHA-256, keyed as the shape pins are."""
    return {"records": record_digest(ts.records), "csv": hashlib.sha256(csv_bytes).hexdigest(),
            "svg": hashlib.sha256(svg_bytes).hexdigest()}


def sweep_shape(shape):
    """A seeded sweep document with growth that no preset covers: ``two-provider``
    (two providers, 262 users by the last step, interleaved in the roster), ``equal``
    (an equal split, with an individual provider whose plan runs dry) or ``isp`` (the
    ISP's price swept, the providers taking dual steps)."""
    rng = random.Random(f"sweep-{shape}")
    wfps = [{"id": "w1", "kind": "establishment", "capacity": 900.0, "min_profit": 5.0},
            {"id": "w2", "kind": "establishment", "capacity": 250.0, "min_profit": 2.0}]
    if shape == "equal":
        wfps[1] = {"id": "w2", "kind": "individual", "quota": 63.0, "unused": 63.0,
                   "fee": 40.0, "txn_cap": 9.0, "min_profit": 1.0}
    users = [
        {"id": uid, "count": count, "wfp": wfp, "path": path,
         "weight": round(rng.uniform(0.5, 2.0), 3), "budget": round(rng.uniform(50, 150), 1),
         "tx_power": 0.05, "x_min": 0.01, "x_max": rng.choice([2.0, 50.0])}
        for uid, count, wfp, path in [("a", 5, "w1", ["AB"]), ("b", 3, "w2", ["AB", "BC"]),
                                      ("c", 4, "w1", ["AB", "BC"]), ("d", 2, "w2", ["BC"])]
    ]
    swept = "isp" if shape == "isp" else "wfp"
    return scenario_from_dict({
        "name": f"sweep-{shape}",
        "links": [{"id": "AB", "capacity": 700.0, "price": 10.0},
                  {"id": "BC", "capacity": 400.0, "subscriber_load": 50.0, "price": 4.0}],
        "wfps": wfps,
        "users": users,
        "mode": {"kind": "sweep", "swept_party": swept, "start": 8.0 if swept == "isp" else 12.0,
                 "step": 0.5, "count": 32, "user_growth": 8,
                 "allocation": "equal" if shape == "equal" else "best_response",
                 "sigma0": 0.05, "lambda0": 12.0},
    })


#: The sweep_shape documents.  The SWEEP_SHAPES pins are each one's record digest,
#: CSV SHA-256 and SVG SHA-256.  The output hashes were computed while every user's
#: values were still computed and kept per user, clones included.  The record digests
#: were taken again when prices and x stopped listing users provider by provider:
#: with each mapping's keys sorted, the records hold the same bits as before.
SWEEP_SHAPE_NAMES = ("two-provider", "equal", "isp")


@pytest.mark.parametrize("shape", sorted(SWEEP_SHAPE_NAMES))
def test_sweep_shapes_are_pinned_and_rebuilt_from_records(tmp_path, shape):
    ts = run_scenario(sweep_shape(shape))
    csv_bytes, svg_bytes = outputs(ts, tmp_path / "run")
    assert shape_pins(ts, csv_bytes, svg_bytes) == PINS["SWEEP_SHAPES"][shape]
    assert outputs(TimeSeries.of(ts.name, ts.records), tmp_path / "rebuilt") == (csv_bytes, svg_bytes)


def equilibrium_shape(shape):
    """A seeded equilibrium document with growth that no preset covers: an establishment
    and an individual provider (fee, transaction cap, billing cycles), per-tick subscriber
    loads, and templates that walk away (utility < 0) at some ticks but not others.
    ``isp`` solves the ISP's link prices (148 users by the last tick); ``crowd`` holds
    them fixed and grows to 456 users, until every template walks away."""
    rng = random.Random(f"equilibrium-{shape}")
    ticks = 12
    users = [
        {"id": uid, "count": count, "wfp": wfp, "path": path,
         "weight": round(rng.uniform(0.5, 2.0), 3), "budget": budget or round(rng.uniform(50, 150), 1),
         "tx_power": 0.05, "x_min": 0.01, "x_max": rng.choice([2.0, 50.0])}
        for uid, count, wfp, path, budget in [
            ("a", 5, "est", ["AB"], None), ("b", 3, "ind", ["AB", "BC"], None),
            ("c", 4, "est", ["AB", "BC"], None), ("d", 2, "ind", ["BC"], None),
            ("e", 2, "est", ["BC"], 12.0)]
    ]
    return scenario_from_dict({
        "name": f"equilibrium-{shape}",
        "links": [{"id": "AB", "capacity": 300.0, "price": 5.0},
                  {"id": "BC", "capacity": 200.0, "price": 4.0}],
        "wfps": [{"id": "est", "kind": "establishment", "capacity": 120.0, "min_profit": 2.0},
                 {"id": "ind", "kind": "individual", "quota": 90.0, "unused": 90.0,
                  "fee": 30.0, "txn_cap": 12.0, "min_profit": 1.0}],
        "users": users,
        "solver": {"max_iters": 400},
        "solve_isp": shape == "isp",
        "mode": {"kind": "equilibrium", "ticks": ticks, "user_growth": 12 if shape == "isp" else 40,
                 "billing_cycle_ticks": 4,
                 "subscriber_loads": {"AB": [150.0 + 20.0 * (t % 5) for t in range(ticks)],
                                      "BC": [100.0 + 15.0 * (t % 4) for t in range(ticks)]}},
    })


#: The equilibrium_shape documents.  The EQUILIBRIUM_SHAPES pins are each one's record
#: digest, CSV SHA-256 and SVG SHA-256.  The output hashes were computed while every
#: user's solve, utility and rows were kept per user; the record digests were taken
#: again as for SWEEP_SHAPE_NAMES.
EQUILIBRIUM_SHAPE_NAMES = ("isp", "crowd")


@pytest.mark.parametrize("shape", sorted(EQUILIBRIUM_SHAPE_NAMES))
def test_equilibrium_shapes_are_pinned_and_rebuilt_from_records(tmp_path, monkeypatch, shape):
    walked_away = []  # per tick, the first users of the templates whose utility is negative
    utility = wifimarket.engine._utility

    def spy(pop, idx, x, prices):
        found = utility(pop, idx, x, prices)
        walked_away.append({pop.roster.ids[i] for i in idx[found < 0.0]})
        return found

    monkeypatch.setattr(wifimarket.engine, "_utility", spy)
    ts = run_scenario(equilibrium_shape(shape))
    csv_bytes, svg_bytes = outputs(ts, tmp_path / "run")
    assert shape_pins(ts, csv_bytes, svg_bytes) == PINS["EQUILIBRIUM_SHAPES"][shape]
    assert outputs(TimeSeries.of(ts.name, ts.records), tmp_path / "rebuilt") == (csv_bytes, svg_bytes)
    # some template walks away at one tick and buys at another
    assert set.union(*walked_away) - set.intersection(*walked_away)
    assert all(rec.x_by_user[uid] == 0.0 for rec, gone in zip(ts.records, walked_away)
               for uid in gone)


def test_benchmark_workloads_write_their_pinned_bytes(tmp_path, workloads):
    """Each workload's seed-1 document, run in-process.  The WORKLOAD_OUTPUTS pins are
    each CSV, and the SVGs of sweep-crowd (3,010 users), equilibrium-overload and
    isp-nested, as written before their sums, logs and chart coordinates became array
    operations; ceiling-fine's SVG is its M4-decimated chart: the first, last, lowest
    and highest point of each pixel column."""
    found = {}
    for name in workloads.WORKLOADS:
        cfg = scenario_from_dict(json.loads(workloads.generate(name, 1)))
        written = outputs(run_scenario(cfg), tmp_path / name)
        found[name] = {kind: hashlib.sha256(data).hexdigest()
                       for kind, data in zip(("csv", "svg"), written)}
    assert found == PINS["WORKLOAD_OUTPUTS"]


def test_sweep_buys_nothing_below_x_floor():
    """An individual provider's equal split of a plan run dry leaves a rounding residue
    (about 1e-16 per user): a purchase below x_floor, which is neither settled, nor
    recorded, nor counted in the mean utility."""
    cfg = sweep_shape("equal")
    cfg = replace(cfg, wfps=[cfg.wfps[0], replace(cfg.wfps[1], quota=60.0, unused=60.0)])
    ts = run_scenario(cfg)
    x_floor = cfg.solver.x_floor
    assert not [x for rec in ts.records for x in rec.x_by_user.values() if 0.0 < x < x_floor]
    rec, profiles = ts.records[7], {uid: user for user in cfg.users for uid in user.ids}
    utility = [user_utility(rec.x_by_user[uid], rec.final_price_by_user[uid],
                            profiles[uid.split("+")[0]])
               for uid in rec.g_by_user if rec.x_by_user[uid] >= x_floor]
    assert rec.mean_utility == fold_sum(utility) / len(utility)
    assert rec.mean_utility > -2.0  # -15.85 when the residues counted as purchases


def test_template_rows_write_what_their_records_hold(tmp_path):
    """Hand-built blocks of three steps whose per-user rows hold one value per
    template, with a template index over part of a longer roster: special values,
    and indexes shorter and longer than LONG_ROW."""
    rng = np.random.default_rng(5)
    roster, providers = Roster([f"u{i}" for i in range(300)]), Roster(["w1"])
    blocks = []
    for k, n in enumerate((5, LONG_ROW + 12, 290)):
        index = rng.integers(0, 6, n)
        values = special_values(18 + k)[k:].reshape(3, 6)
        maps = (KeyedRows(providers, np.full((3, 1), float(k))), KeyedRows(roster, values, index),
                KeyedRows(roster, values + 1.0, index), KeyedRows(roster, values[::-1], index))
        scalars = np.arange(3.0 * len(SCALAR_FIELDS)).reshape(3, -1) + k
        blocks.append(StepBlock("run", np.arange(3 * k, 3 * k + 3), scalars, maps))
    ts = TimeSeries("templates", blocks)
    assert [len(rec.x_by_user) for rec in ts.records] == [5] * 3 + [LONG_ROW + 12] * 3 + [290] * 3
    assert_matches_reference(ts, tmp_path)
    assert_rebuilt_from_records_writes_the_same_bytes(ts, tmp_path)
    assert_drawn_point_for_point(ts, tmp_path)
    # the index gathers 1e16, -1e16, 1, 1 (mean 0.5) or 1, 1e16, 1, -1e16 (mean 0), in roster order
    rows = KeyedRows(Roster(list("abcd")), np.array([[1.0, 1e16, -1e16]]), np.array([1, 2, 0, 0]))
    assert _means(rows).tolist() == [0.5]
    assert _means(rows._replace(index=np.array([0, 1, 0, 2]))).tolist() == [0.0]


def test_clone_runs_write_what_their_records_hold(tmp_path):
    """Hand-built blocks whose template index comes in long runs, as growth clones'
    does: ids that are string prefixes of each other (``u1``, ``u10``, ``u1+00001``),
    rows that end inside a template's stretch, a key one roster lacks, special values,
    and runs of one cell."""
    def clones(names, counts):  # template-major ids, and each id's template
        ids = [f"{t}+{c:05d}" if c else t for t, n in zip(names, counts) for c in range(n)]
        return Roster(ids), np.repeat(np.arange(len(names)), counts)

    a, a_index = clones(["u1", "u10", "u2", "u3", "u100"], [40, 1, 25, 1, 30])
    b, b_index = clones(["u1", "u2", "u4"], [3, 1, LONG_ROW])  # lacks u10, u3 and u100
    providers = Roster(["w1"])
    blocks = []
    # each block has its own index, as in a hand-built series, and the last one's differs
    # from the second's at the same roster and width; odd blocks' x reads another index
    for k, (roster, index, n) in enumerate([(a, a_index, 20), (a, a_index, 50), (b, b_index, 60),
                                            (a, a_index, 97), (b, b_index, 4), (a, 4 - a_index, 50)]):
        index = index[:n].copy()
        m = index.max() + 1
        values = special_values(3 * m + k)[k:].reshape(3, m)
        x_index = index[::-1].copy() if k % 2 else index
        maps = (KeyedRows(providers, np.full((3, 1), float(k))), KeyedRows(roster, values, index),
                KeyedRows(roster, values - 1.0, index), KeyedRows(roster, values[::-1], x_index))
        scalars = np.arange(3.0 * len(SCALAR_FIELDS)).reshape(3, -1) - k
        blocks.append(StepBlock("clones", np.arange(3 * k, 3 * k + 3), scalars, maps))
    ts = TimeSeries("clone runs", blocks)
    assert [len(rec.x_by_user) for rec in ts.records[::3]] == [20, 50, 60, 97, 4, 50]
    write_csv(ts, tmp_path / "runs.csv")
    text = (tmp_path / "runs.csv").read_text(encoding="utf-8")
    for cell in ("nan", "inf", "-inf", "-0"):
        assert f",{cell}," in text
    assert_matches_reference(ts, tmp_path)
    assert_rebuilt_from_records_writes_the_same_bytes(ts, tmp_path)
    # a roster of six ids, a row of five over two templates: position 5 is past the row,
    # 6 an absent key; both read the blank, column -1
    index = np.array([0, 0, 0, 1, 1])
    assert _runs(index, np.arange(6)) == [(0, 3), (1, 2), (-1, 1)]
    assert _runs(index, np.array([0, 6, 1, 3])) == [(0, 1), (-1, 1), (0, 1), (1, 1)]
