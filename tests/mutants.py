"""A mutation probe over the settlement kernel, the price solvers and the engine.

Byte pins show that the outputs have not moved; this probe shows whether the tests
fail when the code is wrong.  Run it from the repository root (it takes minutes)::

    python tests/mutants.py [--seed 1] [--count 80] [--workdir DIR]

It lists every single-line mutant that the operators below make in
``src/wifimarket/sharing.py``, ``pricing.py`` and ``engine.py``, draws the ``--count``
of them with the smallest SHA-256 of the seed, file and stripped line before and after
(not the line number, so an edit elsewhere in a file leaves the draw as it was), and
runs each in a copy of the repository (the files of ``COPIED``, under ``--workdir`` or
a temporary directory; the checkout itself is never written), once the unmutated copy
passes the suite.  Each mutant runs against the five quick test modules of ``QUICK``
first and, if it survives them, against the whole suite.  It is killed when pytest
fails or runs past its timeout: ``TIMEOUT_FACTOR`` times what the unmutated suite
took, and at least ``MIN_TIMEOUT_S``.
The probe prints one line per mutant, then the kill rate, counting apart the
survivors that ``EQUIVALENT`` lists as unable to change what any run computes.

The operators: ``+``/``-`` and ``*``/``/`` swapped, a comparison made strict or
non-strict, ``min``/``max`` and ``np.minimum``/``np.maximum`` swapped, and the
constants 0, 1, 0.5 and 2 replaced (0 by 1, the others by 0, 1 and 1).  It uses
the standard library only; pytest does not collect this file, so the suite never
runs it.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ("sharing.py", "pricing.py", "engine.py")
QUICK = ("test_sharing.py", "test_pricing.py", "test_engine.py", "test_acceptance.py",
         "test_settlement_reference.py")
#: What the suite reads: the tests check the README's examples and CI's pins too.
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md", ".github")
#: A mutant that loops forever costs this many times the unmutated suite's run time.
TIMEOUT_FACTOR, MIN_TIMEOUT_S = 4, 60.0

_PROBE = "if b[3] < -eps and t_max == math.inf and not clearable >= rising:"
_BROADCAST = ("if unused.ndim > 1 or settled_share.ndim > 1:  "
              "# L rows of plan state: (L, S) columns")
_SHARE = "share = [effective_capacity(a) / max(k, 1) for a, k in zip(accounts, members)]"

#: Survivors that change no price, allocation, settlement or output byte of any run,
#: keyed by file, the original line and the mutated line (both stripped), with why.
EQUIVALENT = {
    **{("sharing.py", _BROADCAST, _BROADCAST.replace(old, new)):
       "a fast path only: broadcasting 1-D plan state against the sums gives the same "
       "bits, and skipping it saves 4-6 us of a 26-44 us one-row settle (timeit min, "
       "2-core x86_64)"
       for old, new in [("unused.ndim > 1", "unused.ndim >= 1"),
                        ("unused.ndim > 1", "unused.ndim > 0"),
                        ("settled_share.ndim > 1", "settled_share.ndim >= 1"),
                        ("settled_share.ndim > 1", "settled_share.ndim > 0")]},
    ("pricing.py", "if lam > 0.0 or prices.all():  # lam > 0 first skips prices.all(): "
     "a measured fast path", "if lam > 1.0 or prices.all():  # lam > 0 first skips "
     "prices.all(): a measured fast path"):
        "a fast path only: every price is at least lam, so for lam > 0 prices.all() "
        "holds and the same branch runs",
    ("pricing.py", "below, above = -1, len(breaks) - 1", "below, above = -1, len(breaks) - 0"):
        "the demand at the last breakpoint is sum x_min <= C, so the binary search ends "
        "on the same bracket; it may take one more demand evaluation",
    ("pricing.py", _PROBE, _PROBE.replace("b[3] < -eps", "b[3] <= -eps")):
        "a slope of exactly -eps at a coordinate step means s_l = -tol_l on its one link, "
        "which makes the link clearable, so the branch is skipped either way (up to a "
        "rounding tie); a joint move comes after a pass that saw every link clearable",
    ("pricing.py", _PROBE, _PROBE.replace("clearable >= rising", "clearable > rising")):
        "differs only when the links seen clearable are exactly the rising ones: never "
        "within pass 1 (each earlier link is clearable, and the first link, if clearable, "
        "is cleared), and later only in a one-link solve or a joint move that raises "
        "every price.  A later one-link pass starts within a float of the root, so its "
        "first step crosses it; and where no price rise lifts another link's load (the "
        "engine's loads), a pass that raises every price leaves each link at s >= -tol, "
        "so the move's slope never falls below -eps",
    ("pricing.py", "if a[3] > 0.0:", "if a[3] >= 0.0:"):
        "no line search starts on a slope of 0: a coordinate step starts on s_l * max(g_l, 1) "
        "with |s_l| above the link's tolerance, and a joint move only on a negative slope",
    ("engine.py", _SHARE, _SHARE.replace("max(k, 1)", "max(k, 0)")):
        "every step of a sweep runs all of the document's users, and validation refuses a "
        "sweep provider without users, so each provider has at least one member",
    ("engine.py", "x[utility < 0.0] = utility[utility < 0.0] = 0.0",
     "x[utility < 0.0] = utility[utility <= 0.0] = 0.0"):
        "it also rewrites a utility of -0.0 as 0.0, which only the mean reads: a fold from "
        "0.0, in which the sign of a zero term never shows",
    ("engine.py", "totals = SaleTotals(count, revenue, isp_revenue, 0.0, floor_sum, volume)",
     "totals = SaleTotals(count, revenue, isp_revenue, 1.0, floor_sum, volume)"):
        "a snapshot run settles individual providers only, and only an establishment's "
        "contribution reads the spread",
    ("pricing.py", "t = 0.5 * (t_a + t_b)", "t = 1.0 * (t_a + t_b)"):
        "the ISP line search's bisection midpoint lies strictly inside the bracket only "
        "when the bracket is two or three floats wide, so the line guards rounding only",
}

_SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
_COMPARES = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
             ast.GtE: (">=", ">")}
_CALLS = {"min": "max", "max": "min", "minimum": "maximum", "maximum": "minimum"}
_CONSTANTS = {0: 1, 1: 0, 0.5: 1, 2: 1}


class Mutant(NamedTuple):
    file: str
    line: int  # 1-based
    before: str  # the original line
    after: str  # the mutated line


def _between(line: bytes, start: int, end: int, old: str, new: str) -> bytes | None:
    """``line`` with the one ``old`` in ``line[start:end]`` made ``new`` (None if it is
    not there exactly once, or is part of a longer operator)."""
    segment = line[start:end].decode()
    longer = {"<": "<=", ">": ">=", "*": "**", "/": "//"}.get(old)
    if segment.count(old) != 1 or (longer and longer in segment):
        return None
    return line[:start] + segment.replace(old, new).encode() + line[end:]


def _edits(node: ast.AST, line: bytes):
    """Each mutated form of ``line`` that one operator makes at ``node``."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        left, right = node.left, node.right
        if left.end_lineno == right.lineno == node.lineno:
            yield _between(line, left.end_col_offset, right.col_offset, *_SWAPS[type(node.op)])
    elif isinstance(node, ast.Compare):
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in _COMPARES and left.end_lineno == right.lineno == node.lineno:
                yield _between(line, left.end_col_offset, right.col_offset, *_COMPARES[type(op)])
    elif isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        plain = isinstance(func, ast.Name) and name in ("min", "max")
        numpy = isinstance(func, ast.Attribute) and name in ("minimum", "maximum") and (
            isinstance(func.value, ast.Name) and func.value.id == "np")
        if (plain or numpy) and func.lineno == func.end_lineno:
            start = func.end_col_offset - len(name)
            yield _between(line, start, func.end_col_offset, name, _CALLS[name])
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if node.value in _CONSTANTS and node.lineno == node.end_lineno:
            value = type(node.value)(_CONSTANTS[node.value])
            yield line[: node.col_offset] + repr(value).encode() + line[node.end_col_offset :]


def _mutated(lines: list[str], mutant: Mutant) -> str:
    """The source ``lines`` with ``mutant``'s line in place."""
    return "\n".join([*lines[: mutant.line - 1], mutant.after, *lines[mutant.line :]]) + "\n"


def _parses(source: str) -> bool:
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True


def candidates() -> list[Mutant]:
    """Every mutant of the target files that still parses, in file and line order."""
    found = set()
    for name in TARGETS:
        lines = (ROOT / "src" / "wifimarket" / name).read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            line = lines[node.lineno - 1] if hasattr(node, "lineno") else ""
            for edited in _edits(node, line.encode()):
                mutant = edited and Mutant(name, node.lineno, line, edited.decode())
                if mutant and mutant.after != line and _parses(_mutated(lines, mutant)):
                    found.add(mutant)
    return sorted(found, key=lambda m: (TARGETS.index(m.file), m.line, m.after))


def _rank(seed: int, mutant: Mutant) -> str:
    """``mutant``'s place in the draw at ``seed``: a hash of what it changes, not of where."""
    key = repr((seed, mutant.file, mutant.before.strip(), mutant.after.strip()))
    return hashlib.sha256(key.encode()).hexdigest()


def _killed(copy: Path, tests: list[str], timeout: float | None) -> bool:
    """Whether pytest fails on ``tests`` in ``copy`` within ``timeout`` seconds (a timeout
    counts as a failure; None waits for it)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return True
    return done.returncode != 0


def probe(mutants: list[Mutant], copy: Path, timeout: float) -> dict[Mutant, str]:
    """Each mutant's fate: killed by the quick modules or the suite, equivalent or survived."""
    fates = {}
    for k, mutant in enumerate(mutants, 1):
        path = copy / "src" / "wifimarket" / mutant.file
        original = path.read_text(encoding="utf-8")
        path.write_text(_mutated(original.splitlines(), mutant), encoding="utf-8")
        try:
            if _killed(copy, [f"tests/{name}" for name in QUICK], timeout):
                fate = "killed (quick)"
            elif _killed(copy, ["tests"], timeout):
                fate = "killed (suite)"
            else:
                key = (mutant.file, mutant.before.strip(), mutant.after.strip())
                fate = "equivalent" if key in EQUIVALENT else "SURVIVED"
        finally:
            path.write_text(original, encoding="utf-8")
        fates[mutant] = fate
        print(f"[{k:>3}/{len(mutants)}] {fate:<15} {mutant.file}:{mutant.line}: "
              f"{mutant.before.strip()}  ->  {mutant.after.strip()}", flush=True)
    return fates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=80)
    parser.add_argument("--workdir", help="where to copy the repository (default: a temp dir)")
    args = parser.parse_args(argv)

    pool = candidates()
    mutants = sorted(pool, key=lambda m: _rank(args.seed, m))[: args.count]
    mutants.sort(key=lambda m: (TARGETS.index(m.file), m.line, m.after))
    print(f"{len(mutants)} mutants drawn at seed {args.seed} from {len(pool)} candidates")
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        copy = Path(scratch) / "repo"
        for name in COPIED:
            source, target = ROOT / name, copy / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
        started = time.monotonic()
        if _killed(copy, ["tests"], None):
            print("the unmutated copy fails the suite: no mutant can be judged")
            return 1
        elapsed = time.monotonic() - started
        timeout = max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * elapsed)
        print(f"the unmutated suite took {elapsed:.0f} s; each mutant's run may take "
              f"{timeout:.0f} s", flush=True)
        fates = probe(mutants, copy, timeout)

    killed = sum(fate.startswith("killed") for fate in fates.values())
    equivalent = sum(fate == "equivalent" for fate in fates.values())
    print(f"killed {killed} of {len(fates)} ({100.0 * killed / len(fates):.1f}%); "
          f"{equivalent} known equivalent; "
          f"{len(fates) - killed - equivalent} other survivors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
