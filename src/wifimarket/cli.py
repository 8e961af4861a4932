"""Command-line front end.

Three subcommands::

    wifimarket run --config scenario.json [--out DIR] [--formats csv,svg]
    wifimarket preset scenario1           [--out DIR] [--formats csv,svg]
    wifimarket check [--seed N]

``run`` executes a scenario document, ``preset`` executes one of the packaged
scenario files by name, and ``check`` runs the seeded self-check battery and
prints one [PASS]/[FAIL] line per suite.

Exit codes: 0 success, 1 invalid input (every violation; a parse fault, which
includes a solver or sharing knob out of range, prints alone), 2 file-system
trouble, 3 failed self-checks.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from .checks import run_all
from .config import ConfigError, ScenarioConfig, load_scenario, validate_scenario
from .engine import run_scenario
from .presets import PRESET_NAMES, load_preset
from .reports import write_csv, write_svg

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_CHECK_FAILED = 3

WRITERS = {"csv": write_csv, "svg": write_svg}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with the invalid-input code."""

    def error(self, message: str):  # noqa: D102 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out",
        default=os.environ.get("WIFIMARKET_OUT", "."),
        help="output directory (default: $WIFIMARKET_OUT or the working directory)",
    )
    parser.add_argument(
        "--formats",
        default=",".join(WRITERS),
        help="comma-separated output formats: csv, svg (default: both)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wifimarket", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario JSON document")
    run_p.add_argument("--config", required=True, help="path to the scenario file")
    run_p.set_defaults(handler=cmd_run)
    _add_output_options(run_p)

    preset_p = sub.add_parser("preset", help="run a packaged scenario by name")
    preset_p.add_argument("name", choices=PRESET_NAMES, help="preset scenario name")
    preset_p.set_defaults(handler=cmd_preset)
    _add_output_options(preset_p)

    check_p = sub.add_parser("check", help="run the seeded self-check battery")
    check_p.set_defaults(handler=cmd_check)
    check_p.add_argument(
        "--seed", type=int, default=0, help="master seed for the check battery"
    )
    return parser


def _safe_stem(name: str) -> str:
    return re.sub(r"[^-._a-zA-Z0-9]", "_", name) or "scenario"


def _run_scenario_command(args: argparse.Namespace, scenario: ScenarioConfig) -> int:
    formats = [part.strip() for part in args.formats.split(",") if part.strip()]
    bad_formats = [f for f in formats if f not in WRITERS]
    if bad_formats or not formats:
        for fmt in bad_formats:
            print(f"unknown output format {fmt!r}", file=sys.stderr)
        if not formats:
            print("no output formats requested", file=sys.stderr)
        return EXIT_INVALID

    problems = validate_scenario(scenario)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_INVALID

    ts = run_scenario(scenario)

    stem = _safe_stem(scenario.name)
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for fmt in formats:
            path = out_dir / f"{stem}.{fmt}"
            WRITERS[fmt](ts, path)
            print(f"wrote {path}")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO

    for key in sorted(ts.summary):
        print(f"summary {key} = {ts.summary[key]:.9g}")
    if unconverged := ts.summary.get("solver.unconverged", 0):
        print(f"warning: {unconverged:.0f} price solves did not converge, largest residual "
              f"{ts.summary['solver.max_residual']:.9g}", file=sys.stderr)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_IO
    return _run_scenario_command(args, scenario)


def cmd_preset(args: argparse.Namespace) -> int:
    return _run_scenario_command(args, load_preset(args.name))


def cmd_check(args: argparse.Namespace) -> int:
    results = run_all(args.seed)
    failures = 0
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"[{tag}] {result.name}: {result.detail}")
        failures += 0 if result.passed else 1
    if failures:
        print(f"{failures} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
