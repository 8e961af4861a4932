"""Report tests: CSV round-trip fidelity, number formatting, SVG structure."""
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wifimarket.engine import StepRecord, TimeSeries
from wifimarket.presets import load_preset
from wifimarket.engine import run_scenario
from wifimarket.reports import (
    MAP_FIELDS,
    SCALAR_FIELDS,
    csv_header,
    format_value,
    read_csv,
    write_csv,
    write_svg,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


def small_series():
    ts = TimeSeries(name="unit")
    ts.records.append(
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
        )
    )
    ts.records.append(
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
        )
    )
    return ts


def test_format_value_nine_significant_digits():
    assert format_value(1.0 / 3.0) == "0.333333333"
    assert format_value(1234567891.0) == "1.23456789e+09"
    assert format_value(150.0) == "150"
    assert format_value(0.000123456789123) == "0.000123456789"
    assert format_value(5e-324) == "4.94065646e-324"
    assert format_value(np.float32(0.1)) == "0.100000001"
    assert format_value(True) == "1"


def test_csv_header_layout():
    header = csv_header(small_series())
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
    ts = TimeSeries(name="pinned")
    ts.records.append(
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
        )
    )
    ts.records.append(
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
        )
    )
    ts.records.append(
        StepRecord(
            series='peak, "high"',
            step=0,
            lambda_by_wfp={"w1": np.float64(1234567890.0)},
            g_by_user={"u2": 11.0, "u10": 3.0},
            final_price_by_user={"u2": 18.0, "u10": 19.0},
            x_by_user={"u2": 1.0, "u10": 2.0},
            mean_utility=0.000123456789,
        )
    )
    return ts


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
