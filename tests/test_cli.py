"""Command-line tests: exit codes, output files, and self-check wiring."""
import json

import pytest

from wifimarket import cli
from wifimarket.checks import CheckResult, check_efficiency
from wifimarket.model import Settlement
from wifimarket.presets import preset_path


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


def test_seed_override_is_accepted(tmp_path):
    config = write_doc(tmp_path, GOOD_DOC)
    code = cli.main(
        ["run", "--config", str(config), "--out", str(tmp_path), "--seed", "123",
         "--formats", "csv"]
    )
    assert code == 0


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


def test_unknown_format_is_invalid_input(tmp_path, capsys):
    config = write_doc(tmp_path, GOOD_DOC)
    code = cli.main(
        ["run", "--config", str(config), "--out", str(tmp_path), "--formats", "csv,pdf"]
    )
    assert code == 1
    assert "unknown output format 'pdf'" in capsys.readouterr().err


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


def test_check_passes_on_the_real_battery(capsys):
    code = cli.main(["check", "--seed", "3"])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 13  # 12 suites + the closing summary line
    assert all(line.startswith("[PASS]") for line in out_lines[:-1])
    assert out_lines[-1] == "all 12 checks passed"


# --- the checks must actually be able to fail ----------------------------------------------


def test_efficiency_check_rejects_a_broken_splitter():
    def lopsided(game):
        return Settlement(
            wfp_share=game.total_value,  # gives everything to the provider
            isp_share=game.isp_value,
            total_value=game.total_value,
            wfp_value=game.wfp_value,
            isp_value=game.isp_value,
        )

    result = check_efficiency(seed=1, trials=50, split_fn=lopsided)
    assert not result.passed


def test_efficiency_check_accepts_the_real_splitter():
    assert check_efficiency(seed=1, trials=50).passed
