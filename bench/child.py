"""One benchmark sample in a fresh interpreter.

Usage: python3 -s bench/child.py DOC OUT_DIR MODE TRACE VERIFY SPAWNED_AT

MODE is ``setup`` (import, load and validate only) or ``full`` (the whole
``wifimarket run`` path: load -> validate -> run -> CSV -> SVG).  TRACE 1
wraps each layer's public calls (see tracing.py); VERIFY 1 also reads the
CSV back after the timed part.  Prints one JSON object on stdout.

Set-up runs from SPAWNED_AT, the parent's ``time.monotonic()`` just before
it started this process, to ``ready_at`` below; the clock is system-wide.
The speed probe (speed.py) runs from the first line to the end of the timed
part, and every phase is reported both as wall time (``raw_*``) and in
nominal seconds.
"""
import sys
import time
from pathlib import Path

from speed import SpeedProbe

probe = SpeedProbe()
probe.start()

doc_path, out_dir, mode, trace, verify, spawned_at = sys.argv[1:7]
spawned_at = float(spawned_at)

import wifimarket  # noqa: E402 -- the import is part of what set-up measures

tracer = None
if trace == "1":
    from tracing import Tracer

    tracer = Tracer()
    tracer.install({"wifimarket": wifimarket, "wifimarket.engine": sys.modules["wifimarket.engine"]})

cfg = wifimarket.load_scenario(doc_path)
problems = wifimarket.validate_scenario(cfg)
ready_at = time.monotonic()

SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(wifimarket.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"imported {wifimarket.__file__}, not the package under {SRC}")

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402

if problems:
    probe.stop()
    print(json.dumps({"problems": ["invalid document: " + p for p in problems]}))
    sys.exit(0)
if mode == "setup":
    probe.stop()
    print(json.dumps({
        "raw_setup_s": ready_at - spawned_at,
        "setup_s": probe.nominal_s(spawned_at, ready_at),
        "problems": [],
    }))
    sys.exit(0)

out = Path(out_dir)
csv_path = out / "out.csv"
svg_path = out / "out.svg"
t0 = time.monotonic()
ts = wifimarket.run_scenario(cfg)
t1 = time.monotonic()
wifimarket.write_csv(ts, csv_path)
wifimarket.write_svg(ts, svg_path)
t2 = time.monotonic()
probe.stop()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_records(records) -> list[str]:
    """Settlement invariants every step record must satisfy."""
    found = []
    for rec in records:
        where = f"{rec.series} step {rec.step}"
        shares = (rec.wfp_share, rec.isp_share)
        if not all(math.isfinite(v) and v >= 0.0 for v in shares):
            found.append(f"{where}: share not finite and non-negative {shares}")
            continue
        if not math.isclose(rec.wfp_share + rec.isp_share, rec.total_value, rel_tol=1e-9):
            found.append(f"{where}: shares {shares} do not sum to {rec.total_value}")
        # Shapley gives the ISP its standalone value plus half the provider's
        # non-contribution, so isp_share >= isp_value for establishments; for
        # individuals the contribution is clamped to the surplus and a capped
        # payout only adds to the ISP, so the bound holds there too.
        if rec.isp_share < rec.isp_value - 1e-9 * abs(rec.total_value):
            found.append(f"{where}: isp_share {rec.isp_share} below isp_value {rec.isp_value}")
    return found


def round_trip(ts, path) -> list[str]:
    """read_csv must give back every record at the CSV's 9 significant digits."""
    from wifimarket.reports import MAP_FIELDS, SCALAR_FIELDS, format_value

    back = wifimarket.read_csv(path)
    if len(back.records) != len(ts.records):
        return [f"read_csv gave {len(back.records)} records, wrote {len(ts.records)}"]
    for rec, got in zip(ts.records, back.records):
        want = [rec.series, rec.step] + [format_value(getattr(rec, f)) for f in SCALAR_FIELDS]
        have = [got.series, got.step] + [format_value(getattr(got, f)) for f in SCALAR_FIELDS]
        for attr, _ in MAP_FIELDS:
            want.append({k: format_value(v) for k, v in getattr(rec, attr).items()})
            have.append({k: format_value(v) for k, v in getattr(got, attr).items()})
        if want != have:
            return [f"read_csv differs from the written records at {rec.series} step {rec.step}"]
    return []


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


with open(csv_path, encoding="utf-8", newline="") as fh:
    columns = len(next(csv.reader(fh)))
result = {
    "raw_setup_s": ready_at - spawned_at,
    "setup_s": probe.nominal_s(spawned_at, ready_at),
    "raw_run_s": t1 - t0,
    "raw_report_s": t2 - t1,
    "run_s": probe.nominal_s(t0, t1),
    "report_s": probe.nominal_s(t1, t2),
    "probes": len(probe.marks),
    "peak_rss_mb": peak_rss_mb,
    "users": len(cfg.users),
    "steps": len(ts.records),
    "user_steps": sum(len(r.final_price_by_user) for r in ts.records),
    "csv_sha256": sha256(csv_path),
    "svg_sha256": sha256(svg_path),
    "csv_bytes": csv_path.stat().st_size,
    "csv_cells": len(ts.records) * columns,
    "svg_bytes": svg_path.stat().st_size,
    "numpy": sys.modules["numpy"].__version__,
    "problems": check_records(ts.records),
}
if verify == "1":
    result["problems"] += round_trip(ts, csv_path)
if tracer is not None:
    result["layers"] = tracer.layer_times(probe.nominal_s)
    result["counters"] = dict(tracer.counters)
    result["spans"] = tracer.spans
print(json.dumps(result))
