import csv
import dataclasses
import functools
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from fmlsim import harness, oracles
from fmlsim.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    SUMMARY_SCHEMA,
    main,
)
from fmlsim.harness import build_environment, config_from_dict, run
from fmlsim.wireless import environment_to_json

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
    jsonschema.validate(summary, SUMMARY_SCHEMA)
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


def test_an_exploding_finite_loss_warns_once_and_leaves_the_outputs(tmp_path, caplog):
    args = ["run", "--config", str(CONFIGS / "nufm.json"), "--set", "hyper.beta=50"]
    with caplog.at_level(logging.WARNING, logger="fmlsim.harness"):
        assert main([*args, "--out", str(tmp_path / "out")]) == EXIT_OK
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert [r.getMessage() for r in warned] == [
        f"round 2: adapted loss 5392625762900.775 exceeds {harness.EXPLODING_LOSS:g}, the model "
        "is diverging; check hyper.beta=50.0 and hyper.alpha=0.03"]
    rows = list(csv.DictReader((tmp_path / "out" / "metrics.csv").open()))
    assert rows[-1]["round"] == "49" and float(rows[-1]["train_loss"]) == pytest.approx(4.48e203,
                                                                                       rel=1e-3)
    # the warning is a side channel: the same run with logging off writes the same bytes
    logging.disable(logging.WARNING)
    try:
        assert main([*args, "--out", str(tmp_path / "quiet")]) == EXIT_OK
    finally:
        logging.disable(logging.NOTSET)
    for name in ("metrics.csv", "summary.json", "manifest.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()


def test_an_overflowing_loss_still_stops_the_run_at_its_round(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIGS / "nufm.json"), "--set", "hyper.beta=500",
                 "--set", "rounds=200", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: round 50: non-finite adapted loss")


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


@pytest.mark.parametrize("schema", [SUMMARY_SCHEMA], ids=["summary"])
def test_schema_is_valid_against_its_meta_schema(schema):
    jsonschema.validators.validator_for(schema).check_schema(schema)


def _fresh_python(code: str, cwd: Path) -> str:
    """The last line printed by ``code`` in a new interpreter that imports this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_jsonschema_unloaded(tmp_path):
    code = "import sys, fmlsim.cli; print('jsonschema' in sys.modules)"
    assert _fresh_python(code, tmp_path) == "False"


def test_cli_import_leaves_oracles_unloaded(tmp_path):
    code = "import sys, fmlsim.cli; print('fmlsim.oracles' in sys.modules)"
    assert _fresh_python(code, tmp_path) == "False"


def test_imports_leave_scipy_unloaded(tmp_path):
    code = "import sys, fmlsim.cli, fmlsim.ural, fmlsim.oracles; print('scipy' in sys.modules)"
    assert _fresh_python(code, tmp_path) == "False"


@pytest.mark.parametrize("argv", [
    ["run", "--config", str(CONFIGS / "nufm.json"), "--set", "rounds=2"],
    ["dump-env", "--config", str(CONFIGS / "wireless.json")],
    ["run", "--config", str(CONFIGS / "wireless.json"), "--set", "rounds=2",
     "--set", "allocation=greedy"],
], ids=["nufm-run", "dump-env", "greedy-run"])
def test_commands_without_rb_matching_leave_scipy_unloaded(tmp_path, argv):
    code = ("import sys; from fmlsim.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('scipy' in sys.modules)")
    assert _fresh_python(code, tmp_path) == "False"


@pytest.mark.parametrize("argv", [
    ["run", "--config", str(CONFIGS / "wireless.json"), "--set", "rounds=2"],
    ["sweep", "--config", str(CONFIGS / "wireless.json"),
     "--set", "population.family=logistic-regression", "--set", "hyper.mode=hessian-free",
     "--set", "batch_size=null", "--param", "eta1", "--values", "0.5,1.0,1.5,2.0,2.5",
     "--seeds", "1,2,3"],
], ids=["ural-run", "ural-sweep"])
def test_ural_runs_leave_scipy_unloaded(tmp_path, argv):
    # the RB matching solves its assignments in-repo
    code = ("import sys; from fmlsim.cli import main\n"
            f"assert main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
            "print('scipy' in sys.modules)")
    assert _fresh_python(code, tmp_path) == "False"


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


@pytest.mark.parametrize("override, message", [
    ("env.S=Infinity", "env.S must be finite, got inf"),
    ("env.h_range=[NaN,1]", "env.h_range must be finite, got (nan, 1.0)"),
    ("hyper.beta=-Infinity", "hyper.beta must be finite, got -inf"),
    ("population.size_sigma=NaN", "population.size_sigma must be finite, got nan"),
])
def test_a_non_finite_json_number_is_a_usage_error_naming_its_field(tmp_path, capsys,
                                                                    override, message):
    # the loader takes any JSON number for a float; the section's own check rejects it
    code = main(["run", "--config", str(CONFIGS / "wireless.json"), "--set", override,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f": {message}\n")
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


def _sweep(tmp_path, name, *args):
    out = tmp_path / name
    code = main(["sweep", "--config", str(CONFIGS / "wireless.json"), *args,
                 "--out", str(out)])
    return code, out


def test_sweep_integer_parameter(tmp_path):
    code, out = _sweep(tmp_path, "m", "--param", "M", "--values", "5,10")
    assert code == EXIT_OK
    cells = [(out / f"cell_M_{v}_seed0.csv").read_text() for v in ("5.0", "10.0")]
    assert cells[0] != cells[1]
    code, _ = _sweep(tmp_path, "rounds", "--param", "rounds", "--values", "2,3")
    assert code == EXIT_OK


def test_sweep_dot_path_equals_bare_name(tmp_path):
    tables = []
    for param in ("eta1", "env.eta1"):
        code, out = _sweep(tmp_path, param, "--param", param, "--values", "0.5,2.0")
        assert code == EXIT_OK
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert [row[0] for row in rows[1:]] == [param, param]
        tables.append([row[1:] for row in rows])
        assert (out / f"cell_{param}_0.5_seed0.csv").exists()
    assert tables[0] == tables[1]


@pytest.mark.parametrize("param, values, path", [
    ("eta1", ["0.5", "2.0"], "env.eta1"),
    ("n", ["12", "20"], "population.n"),
    # two cells share one population under two batch sizes: the step plan is per run
    ("batch_size", ["2", "4"], "batch_size"),
])
def test_sweep_cells_equal_standalone_runs(tmp_path, param, values, path):
    # the sweep-small shape: full batches, so no step draws a batch unless
    # the sweep sets batch_size
    shape = ["--set", "population.family=logistic-regression", "--set", "hyper.mode=hessian-free",
             "--set", "batch_size=null", "--set", "rounds=3"]
    code, out = _sweep(tmp_path, "sweep", *shape, "--param", param,
                       "--values", ",".join(values), "--seeds", "1,2")
    assert code == EXIT_OK
    for value in values:
        for seed in ("1", "2"):
            alone = tmp_path / f"run_{value}_{seed}"
            code = main(["run", "--config", str(CONFIGS / "wireless.json"), *shape,
                         "--set", f"{path}={value}", "--seed", seed, "--out", str(alone)])
            assert code == EXIT_OK
            cell = out / f"cell_{param}_{float(value)!r}_seed{seed}.csv"
            assert cell.read_bytes() == (alone / "metrics.csv").read_bytes()


def test_sweep_seed_parameter_is_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "seed", "--param", "seed", "--values", "1,2")
    assert code == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_non_integer_seeds_is_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "seeds", "--param", "eta1", "--values", "1", "--seeds", "a")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --seeds")
    assert not out.exists()


def test_sweep_negative_seeds_is_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "seeds", "--param", "eta1", "--values", "1", "--seeds", "0,-2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --seeds must be comma-separated "
                                              "non-negative integers")
    assert not out.exists()


def test_empty_sweep_is_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "empty", "--param", "eta1", "--values", ",")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: --values must name at least one value")
    assert not out.exists()


def test_negative_seed_override_is_usage_error(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIGS / "nufm.json"), "--set", "seed=-1",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", str(CONFIGS / "nufm.json"), "--seed", "-1"],
    ["dump-env", "--config", str(CONFIGS / "wireless.json"), "--seed", "-3"],
    ["oracle", "sp1", "--seed", "-1"],
], ids=["run", "dump-env", "oracle"])
def test_negative_seed_argument_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err


def test_sweep_repeated_seed_is_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "seeds", "--param", "eta1", "--values", "1",
                       "--seeds", "1,1", "--set", "rounds=2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: sweep seed 1 is given more than once")
    assert not out.exists()


def test_sweep_values_with_one_cell_name_are_usage_error(tmp_path, capsys):
    code, out = _sweep(tmp_path, "values", "--param", "eta1", "--values", "1,1.0",
                       "--set", "rounds=2")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: sweep value 1.0 is given more than once")
    assert not out.exists()


def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def exhausted(spec, seed):
        raise MemoryError

    monkeypatch.setattr(harness, "generate_population", exhausted)
    code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    for field in ("population.n", "size_mu", "size_sigma", "population.d"):
        assert field in err
    assert not (tmp_path / "out").exists()


def test_rounds_beyond_memory_fail_before_round_0(tmp_path, capsys, monkeypatch):
    # the batch stream seeds of 10**15 rounds cannot be allocated
    def no_round(*args):
        raise AssertionError("a round started")

    monkeypatch.setattr(harness, "_round_of_updates", no_round)
    code = main(["run", "--config", str(CONFIGS / "nufm.json"),
                 "--set", "rounds=1000000000000000", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "rounds" in err
    assert not (tmp_path / "out").exists()


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


def test_oracle_bisection_exit_codes(capsys, monkeypatch):
    # a root 1e-9 relative off the reference fails every instance, though
    # most of them keep their residual within the 1e-8 tolerance
    root = oracles.f4_zero
    monkeypatch.setattr(oracles, "f4_zero", lambda b1, eta2: root(b1, eta2) * (1 + 1e-9))
    assert main(["oracle", "bisection"]) == EXIT_FAILURE
    assert "1000 instances, 1000 failures" in capsys.readouterr().out


def test_oracle_sp1_fails_a_nan_objective(capsys, monkeypatch):
    # max() drops a NaN deviation, so the suite must fail it on its own
    solve = oracles.solve_sp1
    monkeypatch.setattr(oracles, "solve_sp1",
                        lambda *a: dataclasses.replace(solve(*a), objective=math.nan))
    result = oracles.sp1_suite()
    assert (result.failures, result.max_deviation) == (result.instances, math.inf)
    assert main(["oracle", "sp1"]) == EXIT_FAILURE
    assert "50 instances, 50 failures, max deviation inf" in capsys.readouterr().out


def test_oracle_assignment_fails_a_nan_optimum(monkeypatch):
    monkeypatch.setattr(oracles, "assignment_brute_force", lambda w: math.nan)
    result = oracles.assignment_suite(instances=20)
    assert (result.failures, result.max_deviation) == (20, math.inf)


def test_oracle_ives_prints_fast_convergence(capsys):
    assert main(["oracle", "ives-monotone"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "converged within 3 iterations" in out


def test_oracle_descent_bound_exit_codes(capsys, monkeypatch):
    # the full suite is the acceptance gate; here 4 instances, then violated
    monkeypatch.setitem(oracles.SUITES, "descent-bound",
                        functools.partial(oracles.descent_bound_suite, populations=1, thetas=4))
    assert main(["oracle", "descent-bound"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("descent-bound: 4 instances, 0 failures")
    bound = oracles.theorem1_bound
    monkeypatch.setattr(oracles, "theorem1_bound",
                        lambda *a, **kw: dataclasses.replace(bound(*a, **kw), rhs=math.inf))
    assert main(["oracle", "descent-bound"]) == EXIT_FAILURE
    assert "4 failures" in capsys.readouterr().out
    # a bound that is not a number is not held
    monkeypatch.setattr(oracles, "theorem1_bound",
                        lambda *a, **kw: dataclasses.replace(bound(*a, **kw), rhs=math.nan))
    assert main(["oracle", "descent-bound"]) == EXIT_FAILURE
    assert "4 failures" in capsys.readouterr().out


def test_oracle_unknown_suite(capsys):
    assert main(["oracle", "nonesuch"]) == EXIT_USAGE
    assert "unknown oracle suite" in capsys.readouterr().err


def test_dump_env_deterministic(tmp_path, capsys):
    cfg = _write_config(tmp_path, mode="wireless", env={"M": 5})
    assert main(["dump-env", "--config", cfg, "--out", ""]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["dump-env", "--config", cfg, "--out", ""]) == EXIT_OK
    assert capsys.readouterr().out == first
    assert json.loads(first)["network"]["M"] == 5


def test_dump_env_prints_without_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["dump-env", "--config", str(CONFIGS / "wireless.json")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["network"]["M"] == 20
    assert not (tmp_path / "out").exists()


def test_dump_env_prints_the_run_environment(capsys, monkeypatch):
    path = CONFIGS / "wireless.json"
    assert main(["dump-env", "--config", str(path), "--out", ""]) == EXIT_OK
    dumped = json.loads(capsys.readouterr().out)

    sampled = []

    def recording_build_environment(config, pop):
        env = build_environment(config, pop)
        sampled.append((*env, pop.train_ids.tolist()))
        return env

    monkeypatch.setattr(harness, "build_environment", recording_build_environment)
    run(config_from_dict(json.loads(path.read_text())))
    (env,) = sampled
    assert dumped == json.loads(environment_to_json(*env))
    # the run samples its 10 training devices with D = batch_size = 4
    assert len(dumped["devices"]) == 10
    assert {entry["compute"]["D"] for entry in dumped["devices"].values()} == {4}


def test_empty_training_split_rejected_at_load(tmp_path, capsys):
    path = str(CONFIGS / "wireless.json")
    code = main(["run", "--config", path, "--set", "population.train_fraction=0",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}: population.train_fraction ")
    assert not (tmp_path / "out").exists()


def test_huge_energy_price_ratio_runs(tmp_path):
    # eta2/b1 far above 5e5
    code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                 "--set", "env.eta1=1e-7", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


def test_extreme_energy_price_ratio_still_selects(tmp_path):
    # eta2/b1 near 1e307 and beyond: a NaN power would pass the cap's min()
    # and leave every round without a device
    out = tmp_path / "out"
    code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                 "--set", "env.eta1=1e-308", "--set", "rounds=2", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader((out / "metrics.csv").open()))
    assert len(rows) == 2
    for row in rows:
        assert row["selected"] and math.isfinite(float(row["energy"]))


def test_ives_ends_on_a_repeated_minus_infinite_g2(tmp_path):
    # every matching's g2 is -inf, and -inf - -inf is NaN: IVES stops on the equal
    # value at its second iteration instead of running all IVES_MAX_ITERS
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # g2_objective overflows to -inf
        code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                     "--set", "env.B=1e-300", "--set", "env.eta1=1e-305",
                     "--set", "env.eta2=1e10", "--set", "rounds=2", "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader((out / "metrics.csv").open()))
    assert [row["ives_iterations"] for row in rows] == ["2", "2"]


@pytest.mark.parametrize("allocation", ["ural", "greedy"])
@pytest.mark.parametrize("override", ["env.eta1=1e308", "env.eta2=5e-324"])
def test_weights_that_stop_every_cpu_fail_at_set_up(tmp_path, capsys, monkeypatch,
                                                     override, allocation):
    # eta2 / eta1 underflows the CPU frequencies to 0, which round_totals would reject
    def no_round(*args):
        raise AssertionError("a round started")

    monkeypatch.setattr(harness, "_round_of_updates", no_round)
    code = main(["run", "--config", str(CONFIGS / "wireless.json"), "--set", override,
                 "--set", f"allocation={allocation}", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: env.eta1=") and "env.eta2=" in err and "underflows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("allocation", ["greedy", "nufm-greedy"])
def test_greedy_power_underflow_fails_at_set_up(tmp_path, capsys, monkeypatch, allocation):
    # eta1 * noise / h, the greedy powers' f4 b1, underflows to 0
    def no_round(*args):
        raise AssertionError("a round started")

    monkeypatch.setattr(harness, "_round_of_updates", no_round)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                     "--set", "env.eta1=5e-324", "--set", f"allocation={allocation}",
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: env.eta1=5e-324 ") and "underflows" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("allocation", harness.ALLOCATION_MODES)
def test_noise_that_swamps_every_uplink_fails_at_set_up(tmp_path, capsys, monkeypatch,
                                                       allocation):
    # h * p_max / (I_m + B*N0) rounds 1 + SNR to 1: every full-power rate is 0
    def no_round(*args):
        raise AssertionError("a round started")

    monkeypatch.setattr(harness, "_round_of_updates", no_round)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                     "--set", "env.N0=1e300", "--set", "rounds=1",
                     "--set", f"allocation={allocation}", "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no positive full-power rate" in err
    for name in ("env.N0", "env.B", "env.interference_range", "env.h_range",
                 "env.p_max_range"):
        assert name in err
    assert not (tmp_path / "out").exists()


def test_tiny_energy_price_runs_without_warnings(tmp_path):
    # eta2 / (eta1 * ...) overflows inside SP1, where the frequency cap then binds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(CONFIGS / "wireless.json"),
                     "--set", "env.eta1=5e-324", "--set", "rounds=2",
                     "--out", str(tmp_path / "out")])
    assert code == EXIT_OK


@pytest.mark.parametrize("override", [
    "population.d=0", "population.d=2.5", "rounds=true", 'rounds="10"',
    "env.h_range=[1]", "hyper.mode=fast", "population.size_sigma=-1", "env.B=0",
    "surprise=1", "env.device_ids=[1]", "population.seed=7", "env.eta1=0", "env.eta2=0",
])
def test_config_rejection_names_the_field(tmp_path, capsys, override):
    code = main(["run", "--config", str(CONFIGS / "wireless.json"), "--set", override,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and override.split("=")[0] in err
    assert not (tmp_path / "out").exists()
