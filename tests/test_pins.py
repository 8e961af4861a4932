"""The pin table (``pins.json``): every section is read, by a test or a CI step, and
keyed by the names its test runs over."""
import re
from pathlib import Path

from pins import PINS
from test_cli import BATTERY_SEEDS
from test_model import PARSED_NAMES
from test_reports import EQUILIBRIUM_SHAPE_NAMES, SWEEP_SHAPE_NAMES

from wifimarket.presets import PRESET_NAMES

TESTS = Path(__file__).resolve().parent
CI = TESTS.parent / ".github" / "workflows" / "tests.yml"


def test_every_section_is_read_by_a_test_or_a_ci_step():
    readers = [path.read_text(encoding="utf-8")
               for path in [*TESTS.glob("test_*.py"), CI] if path.name != Path(__file__).name]
    for section in PINS:
        # a subscript by the section's name, PINS["<name>"] or ['<name>'], outside a comment
        read = re.compile(rf"""^[^#\n]*\[(["']){section}\1\]""", re.MULTILINE)
        assert any(read.search(text) for text in readers), section


def test_each_section_is_keyed_by_the_names_its_test_runs_over(workloads):
    names = {
        "PRESET_OUTPUTS": PRESET_NAMES,
        "PRESET_RECORDS": PRESET_NAMES,
        "PARSED_REPR_SHA256": PARSED_NAMES,
        "SWEEP_SHAPES": SWEEP_SHAPE_NAMES,
        "EQUILIBRIUM_SHAPES": EQUILIBRIUM_SHAPE_NAMES,
        "BATTERY_STDOUT": [str(seed) for seed in BATTERY_SEEDS],
        "WORKLOAD_OUTPUTS": workloads.WORKLOADS,
    }
    assert {section: sorted(pins) for section, pins in PINS.items()} == {
        section: sorted(keys) for section, keys in names.items()}

