"""The README's "Library" section against the package it documents.

Every class or function of a ``wifimarket`` module that the section names
must import from ``wifimarket`` itself, and every Python example in it must
run as written.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import wifimarket

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("config", "engine", "model", "presets", "pricing", "reports", "sharing")


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def code_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", library_section(), flags=re.DOTALL)


def package_names() -> set[str]:
    """Public classes and functions defined in the package's modules."""
    names = set()
    for module in MODULES:
        mod = importlib.import_module(f"wifimarket.{module}")
        for name, value in vars(mod).items():
            if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__:
                names.add(name)
    return names


def documented_names() -> set[str]:
    """Leading identifiers of the section's inline code, plus the examples' imports."""
    section = library_section()
    names = set(re.findall(r"`([A-Za-z_]\w*)", section))
    for block in code_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "wifimarket":
                names.update(alias.name for alias in node.names)
    return names & package_names()


def test_library_section_names_import_from_the_package():
    documented = documented_names()
    assert {"settle_transaction", "solve_wfp_equilibrium", "Population", "UserValues"} <= documented
    missing = sorted(name for name in documented if not hasattr(wifimarket, name))
    assert missing == []


def test_all_lists_what_the_package_exports():
    assert all(hasattr(wifimarket, name) for name in wifimarket.__all__)
    assert documented_names() <= set(wifimarket.__all__)


@pytest.mark.parametrize("index", range(len(code_blocks())))
def test_library_examples_run_as_written(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the first example writes its CSV and SVG here
    exec(compile(code_blocks()[index], f"README.md example {index}", "exec"), {})


def test_settle_transaction_example_settles():
    block = next(b for b in code_blocks() if "settle_transaction(" in b)
    namespace = {}
    exec(block, namespace)
    settlement = namespace["settlement"]
    assert settlement.wfp_share + settlement.isp_share == pytest.approx(30.0, abs=1e-12)
    assert namespace["account"].settled_share == settlement.wfp_share
