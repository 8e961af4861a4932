"""Metamorphic relations of the whole pipeline: documents that must run alike."""
import json

import pytest
from test_reports import outputs

from wifimarket.config import scenario_from_dict, validate_scenario
from wifimarket.engine import run_scenario
from wifimarket.presets import PRESET_NAMES, preset_path


def preset_doc(name):
    return json.loads(preset_path(name).read_text(encoding="utf-8"))


def written_out(doc):
    """``doc`` with every user entry written out as single users: a counted entry
    becomes one entry per user, under the ids ``<id>001``, ``<id>002``, ... its
    users take, and an entry of one user loses its ``count``."""
    users = []
    for entry in doc["users"]:
        entry = dict(entry)
        count = entry.pop("count", 1)
        ids = [entry["id"]] if count == 1 else [f"{entry['id']}{i:03d}" for i in range(1, count + 1)]
        users.extend(dict(entry, id=uid) for uid in ids)
    return dict(doc, users=users)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_counted_entry_runs_like_its_users_written_out(tmp_path, name):
    """A counted entry's users copy its one profile; written out, each user is its own
    entry (and template).  Both documents write the same CSV and SVG bytes."""
    doc = preset_doc(name)
    counted, single = scenario_from_dict(doc), scenario_from_dict(written_out(doc))
    assert any(u.count > 1 for u in counted.users)  # every preset has a counted entry
    assert validate_scenario(single) == []
    assert [u.count for u in single.users] == [1] * sum(u.count for u in counted.users)
    assert [u.id for u in single.users] == [uid for u in counted.users for uid in u.ids]
    assert (outputs(run_scenario(single), tmp_path / "single")
            == outputs(run_scenario(counted), tmp_path / "counted"))
