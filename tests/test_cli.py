import csv
import json
from pathlib import Path

import pytest

from fmlsim.cli import (
    CONFIG_VALIDATOR,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    SUMMARY_VALIDATOR,
    main,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write_config(tmp_path, **overrides):
    payload = {
        "mode": "nufm",
        "rounds": 2,
        "n_k": 3,
        "batch_size": 3,
        "population": {"n": 8, "d": 3},
        "hyper": {"alpha": 0.03, "beta": 0.02},
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_writes_metrics_summary_manifest(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "metrics.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"metrics.csv", "summary.json"}
    assert manifest["config"]["rounds"] == 2
    assert "wrote 2 rounds" in capsys.readouterr().out


def test_run_outputs_identical_across_repeats(tmp_path):
    cfg = _write_config(tmp_path)
    outputs = []
    for repeat in range(2):
        out = tmp_path / f"out{repeat}"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        outputs.append(
            ((out / "metrics.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("allocation", ["ural", "nufm-greedy"])
def test_wireless_metrics_csv_numbers_parse_as_float(tmp_path, allocation):
    cfg = _write_config(tmp_path, mode="wireless", allocation=allocation,
                        env={"M": 6, "nu_max_range": [0.5, 2.0]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "metrics.csv").open()))
    assert len(rows) == 2
    for row in rows:
        for name, field in row.items():
            if name != "selected":
                float(field)


def test_divergent_run_fails_fast_with_usage_exit(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIGS / "nufm.json"),
                 "--set", "hyper.beta=50", "--set", "rounds=90",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: round ") and "non-finite" in err


def test_seed_flag_changes_results(tmp_path):
    cfg = _write_config(tmp_path)
    for seed in (0, 1):
        main(["run", "--config", cfg, "--seed", str(seed),
              "--out", str(tmp_path / f"s{seed}")])
    a = (tmp_path / "s0" / "metrics.csv").read_text()
    b = (tmp_path / "s1" / "metrics.csv").read_text()
    assert a != b


def test_set_override_dot_path(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--set", "rounds=4",
                 "--set", "hyper.beta=0.0", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 4
    assert manifest["config"]["hyper"]["beta"] == 0.0


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_invalid_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "invalid JSON" in capsys.readouterr().err


def test_schema_violation_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, rounds=0)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "rounds" in capsys.readouterr().err


def test_unknown_key_rejected_by_schema(tmp_path):
    cfg = _write_config(tmp_path, surprise=1)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE


@pytest.mark.parametrize("validator", [CONFIG_VALIDATOR, SUMMARY_VALIDATOR],
                         ids=["config", "summary"])
def test_schema_is_valid_against_its_meta_schema(validator):
    validator.check_schema(validator.schema)


@pytest.mark.parametrize("override, message", [
    ("env.p_max_range=[0,0]", "p_max_range upper bound"),
    ("env.nu_max_range=[0,1e-9]", "nu_max_range upper bound"),
    ("env.h_range=[1,0.5]", "h_range must be two finite bounds with low <= high"),
    ("env.c_range=[2,1]", "c_range must be two finite bounds with low <= high"),
])
def test_bad_sampling_range_is_usage_error(tmp_path, capsys, override, message):
    code = main(["run", "--config", str(CONFIGS / "wireless.json"), "--set", override,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_malformed_override_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path)
    code = main(["run", "--config", cfg, "--set", "rounds", "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_sweep_writes_cells(tmp_path):
    cfg = _write_config(tmp_path, mode="wireless",
                        env={"M": 6, "nu_max_range": [0.5, 2.0]})
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", cfg, "--param", "eta1",
                 "--values", "0.5,1.0", "--seeds", "0,1", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + one aggregated row per value
    cell_files = list(out.glob("cell_eta1_*.csv"))
    assert len(cell_files) == 4


def test_sweep_unknown_parameter_is_usage_error(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--param", "nonesuch",
                 "--values", "1.0", "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_sweep_bad_values_is_usage_error(tmp_path):
    cfg = _write_config(tmp_path)
    code = main(["sweep", "--config", cfg, "--param", "eta1",
                 "--values", "fast,slow", "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE


def test_oracle_suites_pass(capsys):
    assert main(["oracle", "bisection"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bisection" in out and "0 failures" in out


def test_oracle_ives_prints_fast_convergence(capsys):
    assert main(["oracle", "ives-monotone"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged within 3 iterations" in out


def test_oracle_unknown_suite(capsys):
    assert main(["oracle", "nonesuch"]) == EXIT_USAGE
    assert "unknown oracle suite" in capsys.readouterr().err


def test_dump_env_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path, mode="wireless", env={"M": 5})
    assert main(["dump-env", "--config", cfg, "--out", ""]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["dump-env", "--config", cfg, "--out", ""]) == EXIT_OK
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["net"]["M"] == 5 if "net" in payload else payload
