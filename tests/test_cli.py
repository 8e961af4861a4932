"""Command-line tests: exit codes, output files, and self-check wiring."""
import hashlib
import inspect
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from pins import PINS
from test_reports import compensated_sum

from wifimarket import checks, cli
from wifimarket.checks import (CheckResult, check_additivity, check_best_response_grid,
                               check_efficiency, check_equal_surplus_gain,
                               check_exact_vs_subgradient, check_floor_discount_monotone,
                               check_isp_exact_vs_subgradient, check_isp_floor_guarantee,
                               check_oracle_equivalence, check_symmetry,
                               check_usage_monotone_share, check_zero_contribution)
from wifimarket.config import ConfigError, scenario_from_dict, validate_scenario
from wifimarket.model import Settlement
from wifimarket.presets import PRESET_NAMES, preset_path
from wifimarket.sharing import shapley_split


GOOD_DOC = {
    "name": "cli-good",
    "nodes": ["A", "B"],
    "links": [{"id": "AB", "capacity": 50, "price": 10}],
    "wfps": [{"id": "w1", "kind": "establishment", "capacity": 10, "min_profit": 5}],
    "users": [{"id": "u", "wfp": "w1", "path": ["AB"], "count": 3}],
    "mode": {"kind": "sweep", "swept_party": "isp", "start": 10, "step": 1, "count": 5},
}


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# --- exit code 0 -----------------------------------------------------------------


def test_run_writes_requested_formats(tmp_path, capsys):
    config = write_doc(tmp_path, GOOD_DOC)
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "cli-good.csv").is_file()
    assert (out / "cli-good.svg").is_file()
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    assert "summary crossover_step" in stdout


def test_run_csv_only(tmp_path):
    config = write_doc(tmp_path, GOOD_DOC)
    out = tmp_path / "csv-only"
    code = cli.main(["run", "--config", str(config), "--out", str(out), "--formats", "csv"])
    assert code == 0
    assert (out / "cli-good.csv").is_file()
    assert not (out / "cli-good.svg").exists()


def test_preset_runs_by_name(tmp_path):
    code = cli.main(["preset", "scenario1", "--out", str(tmp_path), "--formats", "csv"])
    assert code == 0
    assert (tmp_path / "scenario1.csv").is_file()


def test_out_dir_defaults_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("WIFIMARKET_OUT", str(tmp_path / "from-env"))
    config = write_doc(tmp_path, GOOD_DOC)
    code = cli.main(["run", "--config", str(config), "--formats", "csv"])
    assert code == 0
    assert (tmp_path / "from-env" / "cli-good.csv").is_file()


def test_a_documents_seed_is_ignored(tmp_path):
    """No run draws random numbers: documents differing only in ``seed`` write the same CSV."""
    written = []
    for seed in (1, 999):
        config = write_doc(tmp_path, dict(GOOD_DOC, seed=seed), name=f"seed{seed}.json")
        out = tmp_path / f"seed{seed}"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--formats", "csv"]) == 0
        written.append((out / "cli-good.csv").read_bytes())
    assert written[0] == written[1]


# On BC the crossing users' x_min alone exceed the residual capacity at every tick;
# AB's per-tick subscriber loads stay within its capacity.
LINKS_THAT_CANNOT_CLEAR = {
    "name": "cli-infeasible",
    "links": [
        {"id": "AB", "capacity": 50, "price": 1},
        {"id": "BC", "capacity": 40, "subscriber_load": 30, "price": 1},
    ],
    "wfps": [{"id": "w1", "kind": "establishment", "capacity": 500, "min_profit": 1}],
    "users": [
        {"id": "u", "wfp": "w1", "path": ["AB"], "count": 3},
        {"id": "v", "wfp": "w1", "path": ["AB", "BC"], "count": 3, "x_min": 4.0},
    ],
    "solve_isp": True,
    "mode": {"kind": "equilibrium", "ticks": 2, "subscriber_loads": {"AB": [45, 10]}},
}

# Four users whose x_min sum to more than their provider's capacity, no ISP solve.
MINIMUMS_ABOVE_CAPACITY = {
    "name": "cli-oversold",
    "links": [{"id": "AB", "capacity": 100, "price": 1}],
    "wfps": [{"id": "w1", "kind": "establishment", "capacity": 5, "min_profit": 1}],
    "users": [{"id": "u", "wfp": "w1", "path": ["AB"], "count": 4, "x_min": 2}],
    "solve_isp": False,
    "mode": {"kind": "equilibrium", "ticks": 3},
}


def test_run_with_links_that_cannot_clear_exits_zero(tmp_path):
    """An ISP solve flagged infeasible still yields a run and its outputs."""
    config = write_doc(tmp_path, LINKS_THAT_CANNOT_CLEAR)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cli-infeasible.csv").is_file()
    assert (tmp_path / "cli-infeasible.svg").is_file()


@pytest.mark.parametrize("doc, unconverged, residual", [
    (LINKS_THAT_CANNOT_CLEAR, "2", "245"),  # both ticks' ISP solves
    (MINIMUMS_ABOVE_CAPACITY, "3", "3"),  # every tick's provider solve
])
def test_unconverged_solves_exit_zero_with_one_warning(tmp_path, capsys, doc, unconverged,
                                                       residual):
    config = write_doc(tmp_path, doc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert f"summary solver.unconverged = {unconverged}" in out.splitlines()
    assert f"summary solver.max_residual = {residual}" in out.splitlines()
    assert err.splitlines() == [
        f"warning: {unconverged} price solves did not converge, largest residual {residual}"
    ]


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_no_preset_warns(tmp_path, capsys, preset):
    assert cli.main(["preset", preset, "--out", str(tmp_path), "--formats", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if preset.startswith("scenario3"):  # equilibrium runs report their solves' health
        assert "summary solver.unconverged = 0" in out.splitlines()


def test_equilibrium_without_users_writes_one_zero_row_per_tick(tmp_path):
    """No users and no growth is a valid document: every per-user row is empty."""
    doc = {
        "name": "no-users",
        "links": [{"id": "AB", "capacity": 100.0, "price": 5.0}],
        "wfps": [{"id": "w1", "kind": "establishment", "capacity": 50.0, "min_profit": 1.0}],
        "users": [],
        "mode": {"kind": "equilibrium", "ticks": 3},
    }
    config = write_doc(tmp_path, doc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "no-users.csv").read_bytes() == (
        b"series,step,total_value,wfp_value,isp_value,wfp_share,isp_share,wfp_share_pct,"
        b"isp_share_pct,mean_utility,lambda.w1\r\n"
        + b"".join(b"run,%d,0,0,0,0,0,0,0,0,0\r\n" % tick for tick in range(3))
    )
    assert (tmp_path / "no-users.svg").is_file()


# --- exit code 1: invalid input ------------------------------------------------------


def test_invalid_scenario_prints_every_violation(tmp_path, capsys):
    doc = dict(GOOD_DOC)
    doc["users"] = [
        {"id": "u1", "wfp": "w1", "path": ["AB"], "x_min": -1},
        {"id": "u2", "wfp": "ghost", "path": ["AB"]},
    ]
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "user u1: x_min must be positive" in err
    assert "user u2: unknown wfp 'ghost'" in err


@pytest.mark.parametrize("mode", ["sweep", "equilibrium"])
def test_population_growth_without_users_is_invalid_input(tmp_path, capsys, mode):
    doc = dict(GOOD_DOC, users=[])
    if mode == "equilibrium":
        doc["mode"] = {"kind": "equilibrium", "ticks": 3, "user_growth": 2}
    else:
        doc["mode"] = dict(GOOD_DOC["mode"], user_growth=2)
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert "mode: user_growth needs users to clone" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["scenario1", "scenario3-high"])
def test_user_without_provider_is_invalid_input(tmp_path, capsys, preset):
    doc = json.loads(preset_path(preset).read_text(encoding="utf-8"))
    doc["users"].append({"id": "lost", "path": ["AB"]})
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["user lost: no wfp to buy from"]


def test_ceiling_sweep_with_two_individual_providers_is_invalid_input(tmp_path, capsys):
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["wfps"].append(dict(doc["wfps"][0], id="iwfp2"))
    doc["users"].append(dict(doc["users"][0], id="v", wfp="iwfp2"))
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "mode: a ceiling sweep maps one individual provider, got iwfp1, iwfp2"
    ]


def test_ceiling_sweep_usage_levels_sharing_a_series_are_invalid_input(tmp_path, capsys):
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"]["usage_levels"] = [0.25, 0.499, 0.501]
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "mode: usage_levels 0.499 and 0.501 share series usage_50"
    ]


def test_a_usage_level_too_large_for_a_series_label_is_invalid_input(tmp_path, capsys):
    # the level is refused before its series label, int(round(1e310)), is computed
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"]["usage_levels"] = [0.0, 1e308]
    config = write_doc(tmp_path, doc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["mode: usage_levels must lie in [0, 1)"]


def test_a_run_size_too_large_for_a_float_is_invalid_input(tmp_path, capsys):
    # a whole 1e308 parses into an int, which the field's bound refuses before the
    # run's size (about 1e310, with no float form) is computed
    doc = json.loads(preset_path("scenario1").read_text(encoding="utf-8"))
    doc["mode"]["user_growth"] = 1e308
    config = write_doc(tmp_path, doc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "mode: user_growth must be at most 2,000,000"
    assert not (tmp_path / "scenario1.csv").exists()


@pytest.mark.parametrize("key, value", [("price_stop", 1e300), ("price_step", 1e-300)])
def test_a_ceiling_sweep_with_too_many_prices_is_invalid_input(tmp_path, capsys, key, value):
    # the price count (about 1e300, an int of 301 digits) is refused on its field,
    # before the run's size is computed and printed
    doc = json.loads(preset_path("iwfp-ceiling").read_text(encoding="utf-8"))
    doc["mode"][key] = value
    config = write_doc(tmp_path, doc)
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "mode: price_step must give at most 2,000,000 prices"
    ]


def test_a_negative_posted_price_is_invalid_input(tmp_path, capsys):
    doc = json.loads(preset_path("iwfp-topology").read_text(encoding="utf-8"))
    doc["wfps"][2]["price"] = -30.0
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["wfp iwfp3: price must be non-negative"]
    assert not list(tmp_path.glob("*.csv"))


def test_a_duplicate_link_id_is_invalid_input(tmp_path, capsys):
    doc = dict(GOOD_DOC, links=GOOD_DOC["links"] + [{"id": "AB", "capacity": 1}])
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["link AB: duplicate id"]


def test_a_duplicate_provider_id_is_invalid_input(tmp_path, capsys):
    twin = {"id": "w1", "kind": "establishment", "capacity": 1}
    doc = dict(GOOD_DOC, wfps=GOOD_DOC["wfps"] + [twin])
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["wfp w1: duplicate id"]
    assert not list(tmp_path.glob("*.csv"))


def run_changed_preset(tmp_path, name, user, **sections):
    """Exit code of ``run`` on preset ``name`` with ``user`` merged into its first user
    entry (and each of ``sections`` into the section it names); no CSV may be written."""
    doc = json.loads(preset_path(name).read_text(encoding="utf-8"))
    doc["users"][0].update(user)
    for section, knobs in sections.items():
        doc[section] = {**doc.get(section, {}), **knobs}
    code = cli.main(["run", "--config", str(write_doc(tmp_path, doc)), "--out", str(tmp_path)])
    assert not list(tmp_path.glob("*.csv"))
    return code


@pytest.mark.parametrize(
    "name, user, lines",
    [
        ("scenario3-high", {"count": 200_000},
         ["mode: 2,211,000 user-steps exceed the limit of 2,000,000"]),
        ("iwfp-ceiling", {"count": 200_000, "path": [3.7]},
         ["user u: unknown link '3.7' in path",
          "mode: 80,800,000 user-steps exceed the limit of 2,000,000"]),
        ("scenario3-low", {"budget": -1}, ["user u: budget must be positive"]),
    ],
    ids=["size", "path", "budget"],
)
def test_a_counted_entry_is_checked_once_not_once_per_user(tmp_path, capsys, name, user, lines):
    """Each fault of a counted entry is one line naming the entry, whatever its count."""
    assert run_changed_preset(tmp_path, name, user) == 1
    assert capsys.readouterr().err.splitlines() == lines


def test_an_out_of_range_sharing_knob_is_refused_before_validation(tmp_path, capsys):
    """SharingParams refuses a bad beta when built, so the document's other faults go
    unreported: only the first is printed."""
    assert run_changed_preset(tmp_path, "scenario3-low", {"budget": -1}, sharing={"beta": 0.5}) == 1
    assert capsys.readouterr().err.splitlines() == ["sharing: beta must exceed 1"]


def test_a_solver_budget_past_the_run_size_limit_is_refused(tmp_path, capsys):
    """max_iters is bounded as a run's counts are, and refused when SolverConfig is built."""
    assert run_changed_preset(tmp_path, "scenario3-low", {}, solver={"max_iters": 1e12}) == 1
    assert capsys.readouterr().err.splitlines() == ["solver: max_iters must be at most 2,000,000"]


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, index, key, value, message",
    [
        ("users", 0, "count", "abc", "user 'u': count must be a finite number, got 'abc'"),
        ("wfps", 0, "capacity", float("nan"), "wfp w1: capacity must be a finite number, got nan"),
        # only JSON numbers are numbers, and an int field takes whole ones only
        ("users", 0, "count", "3", "user 'u': count must be a finite number, got '3'"),
        ("wfps", 0, "capacity", "50", "wfp w1: capacity must be a finite number, got '50'"),
        ("links", 0, "capacity", "50", "link AB: capacity must be a finite number, got '50'"),
        ("users", 0, "count", 2.5, "user 'u': count must be a whole number, got 2.5"),
        ("users", 0, "count", 0, "user u: count must be at least 1"),  # on validation
        # an int past the float range, echoed in its first 40 characters
        pytest.param("users", 0, "budget", 10**400,
                     f"user 'u': budget must be a finite number, got 1{'0' * 39}",
                     id="users-0-budget-10**400"),
    ],
)
def test_non_numeric_or_non_finite_field_is_invalid_input(
    tmp_path, capsys, section, index, key, value, message
):
    doc = json.loads(json.dumps(GOOD_DOC))
    doc[section][index][key] = value
    config = write_doc(tmp_path, doc)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize(
    "mode, message",
    [
        ({"kind": "equilibrium", "ticks": 2.9}, "mode: ticks must be a whole number, got 2.9"),
        ({"kind": "sweep", "swept_party": "isp", "start": 10, "count": 5.5},
         "mode: count must be a whole number, got 5.5"),
        ({"kind": "quota_sweep", "usage_steps": "20"},
         "mode: usage_steps must be a finite number, got '20'"),
    ],
)
def test_a_fractional_or_quoted_mode_count_is_invalid_input(tmp_path, capsys, mode, message):
    config = write_doc(tmp_path, dict(GOOD_DOC, mode=mode))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


def swapped(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and indices) replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), [1], "scenario document must be an object, got [1]"),
        (("links",), 5, "links must be an array, got 5"),
        (("links",), [5], "links[0] must be an object, got 5"),
        (("wfps",), {}, "wfps must be an array, got {}"),
        (("users",), None, "users must be an array, got null"),
        (("users", 0, "path"), 5, "user 'u': path must be an array, got 5"),
        (("users",), [{"id": "u", "wfp": "w1", "path": [["AB"]]}],
         "user u: unknown link \"['AB']\" in path"),
        (("solver",), [1], "solver must be an object, got [1]"),
        (("mode",), {"kind": "equilibrium", "ticks": 1, "subscriber_loads": [5]},
         "mode: subscriber_loads must be an object, got [5]"),
        (("mode",), {"kind": "equilibrium", "ticks": 1, "subscriber_loads": {"AB": 5}},
         "mode: subscriber_loads['AB'] must be an array, got 5"),
        (("mode",), {"kind": "ceiling_sweep", "usage_levels": 5},
         "mode: usage_levels must be an array, got 5"),
        (("users", 0, "count"), 10**12,
         "user 'u': count 1,000,000,000,000 makes more than 2,000,000 users"),
        (("solve_isp",), "false", 'solve_isp must be a boolean, got "false"'),
        (("solve_isp",), 0, "solve_isp must be a boolean, got 0"),
    ],
)
def test_a_value_of_the_wrong_json_type_is_invalid_input(tmp_path, capsys, path, value, message):
    config = write_doc(tmp_path, swapped(GOOD_DOC, path, value))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("path, value, message", [
    (("solver",), {"sigma0": 0.5}, "solver: sigma0 is now mode.sigma0"),
    (("lambda0",), 15.0, "lambda0 is now mode.lambda0"),
])
def test_a_sweep_knob_in_its_old_place_is_invalid_input(tmp_path, capsys, path, value, message):
    """A sweep read ``solver.sigma0`` and a top-level ``lambda0`` before they moved into
    its mode: ignoring them would silently change the run."""
    config = write_doc(tmp_path, swapped(GOOD_DOC, path, value))
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("mode", [
    {"kind": "equilibrium", "ticks": 2}, {"kind": "quota_sweep"}, {"kind": "ceiling_sweep"},
])
def test_other_modes_ignore_the_sweep_knobs_old_places(mode):
    """Modes that never read ``solver.sigma0`` or a top-level ``lambda0`` still ignore
    them, and every mode ignores ``solver.epsilon``."""
    doc = dict(GOOD_DOC, mode=mode)
    old = dict(doc, solver={"sigma0": 0.5, "epsilon": 1e-3, "max_iters": 9}, lambda0=15.0)
    assert scenario_from_dict(old) == scenario_from_dict(dict(doc, solver={"max_iters": 9}))
    sweep = dict(GOOD_DOC, solver={"epsilon": 1e-3})
    assert scenario_from_dict(sweep) == scenario_from_dict(GOOD_DOC)


def containers(doc, where=()):
    """The path of every array or object in ``doc`` that the parser reads."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield (*where, key)
            yield from containers(value, (*where, key))


def preset_document(preset):
    """The preset's document; an equilibrium one with a full-length subscriber load."""
    doc = json.loads(preset_path(preset).read_text(encoding="utf-8"))
    mode = doc["mode"]
    if mode["kind"] == "equilibrium":  # no preset gives subscriber loads
        mode["subscriber_loads"] = {doc["links"][0]["id"]: [0.0] * mode["ticks"]}
    return doc


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_malformed_container_exits_one_with_one_line(tmp_path, capsys, preset):
    """Each array or object of the preset becomes 5, null, "x" or the other kind
    of container, one at a time; a user count past the limit too."""
    doc = preset_document(preset)
    cases = [(("users", 0, "count"), 10**12)]
    for path in containers(doc):
        parent = doc
        for key in path:
            parent = parent[key]
        other = [] if isinstance(parent, dict) else {}
        cases += [(path, value) for value in (5, None, "x", other)]
    assert len(cases) > 30
    for path, value in cases:
        config = write_doc(tmp_path, swapped(doc, path, value))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (code, len(err.splitlines())) == (1, 1), (path, value, err)


def walk(doc, where=()):
    """(path, value) of every object member and array element in ``doc``, depth first."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*where, key), value
        if isinstance(value, (dict, list)):
            yield from walk(value, (*where, key))


def dropped(doc, path):
    """A copy of ``doc`` without the key at ``path``."""
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return copy


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_dropped_key_or_non_finite_number_is_rejected_or_defaulted(preset):
    """Through the parser and validation, each key of the preset dropped, one at a
    time, and each number set to NaN, Infinity and -Infinity: a ConfigError or a
    problem list, never another exception; only a dropped key may validate clean."""
    doc = preset_document(preset)
    keys = [path for path, _ in walk(doc) if isinstance(path[-1], str)]
    numbers = [path for path, value in walk(doc) if type(value) in (int, float)]
    cases = [(path, "dropped", dropped(doc, path)) for path in keys] + [
        (path, value, swapped(doc, path, value))
        for path in numbers for value in (math.nan, math.inf, -math.inf)
    ]
    assert len(keys) > 20 and len(numbers) > 15
    for path, change, case in cases:
        try:
            problems = validate_scenario(scenario_from_dict(case))
        except ConfigError:
            continue
        assert problems or change == "dropped", (path, change)


def test_unknown_format_is_invalid_input(tmp_path, capsys):
    config = write_doc(tmp_path, GOOD_DOC)
    code = cli.main(
        ["run", "--config", str(config), "--out", str(tmp_path), "--formats", "csv,pdf"]
    )
    assert code == 1
    assert "unknown output format 'pdf'" in capsys.readouterr().err


def test_no_output_format_is_invalid_input(tmp_path, capsys):
    config = write_doc(tmp_path, GOOD_DOC)
    code = cli.main(["run", "--config", str(config), "--out", str(tmp_path), "--formats", ","])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["no output formats requested"]


def test_unknown_preset_is_invalid_input(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["preset", "scenario99"])
    assert exc.value.code == 1


def test_usage_errors_exit_with_invalid_input_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # missing --config
    assert exc.value.code == 1


# --- exit code 2: file-system trouble --------------------------------------------------


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_unwritable_output_directory_is_io_error(tmp_path, capsys):
    config = write_doc(tmp_path, GOOD_DOC)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = cli.main(
        ["run", "--config", str(config), "--out", str(blocker / "nested")]
    )
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


# --- exit code 3: failed self-checks -----------------------------------------------------


def test_check_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "run_all",
        lambda seed: [CheckResult(name="doomed", passed=False, detail="nope")],
    )
    code = cli.main(["check"])
    assert code == 3
    captured = capsys.readouterr()
    assert "[FAIL] doomed: nope" in captured.out
    assert "1 of 1 checks failed" in captured.err


def test_a_suite_that_raises_is_a_failed_check(monkeypatch, capsys):
    def boom(seed):
        raise ValueError(f"seed {seed}")

    def fine(seed):
        return CheckResult(name="fine", passed=True, detail="ok")

    monkeypatch.setattr(checks, "_SUITES", [("boom", boom), ("fine", fine)])
    assert cli.main(["check", "--seed", "1"]) == 3
    captured = capsys.readouterr()
    first = random.Random(1).randrange(2**32)  # the first suite's seed
    assert captured.out.splitlines() == [f"[FAIL] boom: raised ValueError('seed {first}')",
                                         "[PASS] fine: ok"]
    assert captured.err.splitlines() == ["1 of 2 checks failed"]


#: The seeds whose battery output the BATTERY_STDOUT pins hold: 0 (the CLI's default), 3 and 5.
BATTERY_SEEDS = (0, 3, 5)


@pytest.mark.parametrize("seed", BATTERY_SEEDS)
def test_check_passes_on_the_real_battery(capsys, seed):
    code = cli.main(["check", "--seed", str(seed)])
    assert code == 0
    out = capsys.readouterr().out
    out_lines = out.strip().splitlines()
    assert len(out_lines) == 14  # 13 suites + the closing summary line
    assert all(line.startswith("[PASS]") for line in out_lines[:-1])
    assert out_lines[-1] == "all 13 checks passed"
    # the battery's printed lines, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == PINS["BATTERY_STDOUT"][str(seed)]


SUITE_NAMES = [
    "settlement-efficiency",
    "shapley-oracle-equivalence",
    "symmetric-standalone-split",
    "zero-contribution-dummy",
    "game-additivity",
    "equal-surplus-gain",
    "isp-floor-guarantee",
    "usage-monotone-share",
    "floor-discount-monotone",
    "best-response-grid",
    "exact-vs-subgradient",
    "isp-exact-vs-subgradient",
    "capacity-price-convergence",
]


def test_every_check_is_registered_once_in_run_order():
    # The order is the run order, and so fixes the seed each suite draws.
    assert [name for name, _ in checks._SUITES] == SUITE_NAMES
    public = {name: value for name, value in vars(checks).items() if name.startswith("check_")}
    assert sorted(suite.__name__ for _, suite in checks._SUITES) == sorted(public)
    for name, suite in checks._SUITES:
        parameters = inspect.signature(suite).parameters
        assert public[suite.__name__] is suite and next(iter(parameters)) == "seed"
        trials = {"trials": 2} if "trials" in parameters else {}
        assert suite(1, **trials).name == name
    assert list(inspect.signature(check_efficiency).parameters) == ["seed", "trials", "split_fn"]


# Python 3.12 made builtin sum() of floats compensated; the battery's lines must not
# depend on which sum the interpreter has.
@pytest.mark.parametrize(
    "check, seed, trials",
    [(check_exact_vs_subgradient, 0, 10), (check_isp_exact_vs_subgradient, 31, 3)],
    ids=["exact-vs-subgradient", "isp-exact-vs-subgradient"],
)
def test_price_checks_do_not_depend_on_the_interpreters_sum(monkeypatch, check, seed, trials):
    builtin = check(seed, trials=trials)
    monkeypatch.setattr(checks, "sum", compensated_sum, raising=False)
    assert check(seed, trials=trials) == builtin


# --- the checks must actually be able to fail ----------------------------------------------


def settled(game, wfp_share, isp_share):
    return Settlement(wfp_share, isp_share, game.total_value, game.wfp_value, game.isp_value)


def lopsided(game):
    """Gives the provider the whole grand-coalition value, and the ISP its own too."""
    return settled(game, game.total_value, game.isp_value)


def provider_takes_the_surplus(game):
    """Efficient and linear, but the ISP gets no more than it has alone."""
    return settled(game, game.total_value - game.isp_value, game.isp_value)


def proportional(game):
    """Efficient and symmetric, but shares by the ratio of standalone values: not linear."""
    wfp_share = game.total_value * game.wfp_value / (game.wfp_value + game.isp_value)
    return settled(game, wfp_share, game.total_value - wfp_share)


def nan_isp_share(game):
    """The Shapley split, but with a NaN for the ISP's share."""
    return replace(shapley_split(game), isp_share=math.nan)


SPLIT_CHECKS = [check_efficiency, check_oracle_equivalence, check_symmetry, check_additivity,
                check_equal_surplus_gain]


@pytest.mark.parametrize(
    "check, splitter",
    [
        (check_efficiency, lopsided),
        (check_oracle_equivalence, proportional),
        (check_symmetry, provider_takes_the_surplus),
        (check_additivity, proportional),
        (check_equal_surplus_gain, provider_takes_the_surplus),
        *((check, nan_isp_share) for check in SPLIT_CHECKS),
    ],
    ids=lambda value: value.__name__,
)
def test_each_split_check_rejects_a_splitter_that_breaks_its_property(check, splitter):
    assert check(seed=1, trials=50).passed
    assert not check(seed=1, trials=50, split_fn=splitter).passed


def nan_last(values):
    """A float copy of ``values`` whose last entry is NaN."""
    values = np.array(values, dtype=float)
    values.flat[-1] = math.nan
    return values


# Each case: a suite, the name in the checks module it calls, and how that call's result
# is spoilt with a NaN.  A NaN is never within a bound, so every suite must fail on it.
NAN_RESULTS = [
    (check_zero_contribution, "settle_transaction",
     lambda result: (replace(result[0], wfp_share=math.nan), result[1])),
    (check_isp_floor_guarantee, "settle_rows",
     lambda settled: replace(settled, isp_share=nan_last(settled.isp_share))),
    (check_usage_monotone_share, "settle_rows",
     lambda settled: replace(settled, wfp_share=nan_last(settled.wfp_share))),
    (check_floor_discount_monotone, "ewfp_contribution", lambda contribution: math.nan),
    (check_best_response_grid, "user_best_response", lambda response: math.nan),
    (check_exact_vs_subgradient, "solve_wfp_equilibrium",
     lambda result: replace(result, residual=math.nan)),
    (check_isp_exact_vs_subgradient, "solve_isp_prices",
     lambda result: replace(result, residual=math.nan)),
]


@pytest.mark.parametrize(
    "check, name, spoil", NAN_RESULTS, ids=[check.__name__ for check, _, _ in NAN_RESULTS]
)
def test_each_randomized_check_fails_on_a_nan(monkeypatch, check, name, spoil):
    assert check(1, trials=5).passed
    original = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda *args, **kwargs: spoil(original(*args, **kwargs)))
    result = check(1, trials=5)
    assert not result.passed, result.detail


def test_efficiency_check_accepts_the_real_splitter():
    assert check_efficiency(seed=1, trials=50).passed
