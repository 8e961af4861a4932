"""The SHA-256 pin of every output the tests and CI hold byte for byte.

``PINS`` is ``pins.json`` beside this module: one section per table, each keyed
by the outputs its test runs over (``test_pins.py`` fails on a section that no
test or CI step reads, and on keys that differ from those names).
"""
import json
from pathlib import Path

PINS = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))
