"""Command-line front end: run / sweep / oracle / dump-env.

Config files are JSON validated against CONFIG_SCHEMA.  All outputs embed
the resolved config snapshot so every result directory is self-describing,
and numeric output uses round-trip precision so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import jsonschema

from . import rng
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .harness import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    metrics_summary,
    metrics_to_csv,
    run,
    sweep,
    sweep_to_csv,
)
from .oracles import SUITES, ives_monotone_suite, run_suite
from .wireless import EnvironmentSpec, environment_to_json, sample_environment

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_RANGE = {
    "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "mode": {"enum": ["nufm", "wireless"]},
        "rounds": {"type": "integer", "minimum": 1},
        "n_k": {"type": "integer", "minimum": 1},
        "selection": {"enum": ["nufm", "uniform"]},
        "allocation": {
            "enum": ["ural", "greedy", "random", "nufm-greedy", "nufm-random"],
        },
        "seed": {"type": "integer"},
        "batch_size": {"type": ["integer", "null"], "minimum": 1},
        "population": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "family": {"enum": ["quadratic-regression", "logistic-regression"]},
                "clusters": {"type": "integer", "minimum": 1},
                "classes_per_device": {"type": "integer", "minimum": 1},
                "size_mu": {"type": "number"},
                "size_sigma": {"type": "number", "minimum": 0},
                "size_min": {"type": "integer", "minimum": 1},
                "param_spread": {"type": "number", "minimum": 0},
                "cov_spread": {"type": "number", "minimum": 0},
                "label_noise": {"type": "number", "minimum": 0},
                "train_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "seed": {"type": "integer"},
            },
        },
        "hyper": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "minimum": 0},
                "beta": {"type": "number", "minimum": 0},
                "tau": {"type": "integer", "minimum": 1},
                "lambda1": {"type": "number"},
                "lambda2": {"type": "number"},
                "hv_epsilon": {"type": "number", "exclusiveMinimum": 0},
                "mode": {"enum": ["hessian", "first-order", "hessian-free"]},
            },
        },
        "env": {
            "type": ["object", "null"],
            "additionalProperties": False,
            "properties": {
                "device_ids": {"type": "array", "items": {"type": "integer"}},
                "M": {"type": "integer", "minimum": 1},
                "B": {"type": "number", "exclusiveMinimum": 0},
                "N0": {"type": "number", "exclusiveMinimum": 0},
                "S": {"type": "number", "exclusiveMinimum": 0},
                "eta1": {"type": "number", "minimum": 0},
                "eta2": {"type": "number", "minimum": 0},
                "h_range": _RANGE,
                "interference_range": _RANGE,
                "p_max_range": _RANGE,
                "nu_max_range": _RANGE,
                "c_range": _RANGE,
                "iota_range": _RANGE,
                "batch_sizes": {"type": "object"},
            },
        },
    },
}

SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["rounds", "final_train_loss", "final_test_loss",
                 "mean_energy", "mean_time", "mean_objective"],
    "properties": {
        "rounds": {"type": "integer"},
        "final_train_loss": {"type": "number"},
        "final_test_loss": {"type": "number"},
        "mean_energy": {"type": "number"},
        "mean_time": {"type": "number"},
        "mean_objective": {"type": "number"},
        "total_energy": {"type": "number"},
        "total_time": {"type": "number"},
    },
}


# Built once: jsonschema.validate would check the schema against its
# meta-schema on every call.  The schemas' own validity is a test.
CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
SUMMARY_VALIDATOR = jsonschema.validators.validator_for(SUMMARY_SCHEMA)(SUMMARY_SCHEMA)


def _validate(validator, instance) -> None:
    """Raise the error ``jsonschema.validate`` would raise for ``instance``."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(instance))
    if error is not None:
        raise error


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(payload: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(f"override {assignment!r} is not of the form key=value")
    path, raw = assignment.split("=", 1)
    keys = path.split(".")
    node = payload
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise CliError(f"override path {path!r} crosses a non-object value")
    node[keys[-1]] = _parse_value(raw)


def load_config(path: str, overrides: list[str], seed: int | None) -> ExperimentConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        payload = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    for assignment in overrides:
        _apply_override(payload, assignment)
    if seed is not None:
        payload["seed"] = seed
    try:
        _validate(CONFIG_VALIDATOR, payload)
    except jsonschema.ValidationError as exc:
        anchor = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise CliError(f"{path}: at {anchor}: {exc.message}")
    try:
        return config_from_dict(payload)
    except (ConfigurationError, InvalidInputError, TypeError) as exc:
        raise CliError(f"{path}: {exc}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_outputs(out_dir: str, files: dict[str, str], config: ExperimentConfig) -> None:
    """Write result files plus a manifest with the config snapshot and hashes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config_to_dict(config),
        "seed": config.seed,
        "files": {name: _sha256(body) for name, body in sorted(files.items())},
    }
    files = dict(files)
    files["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for name, body in files.items():
        (out / name).write_text(body)


def cmd_run(args) -> int:
    config = load_config(args.config, args.set or [], args.seed)
    metrics = run(config)
    summary = metrics_summary(metrics)
    _validate(SUMMARY_VALIDATOR, summary)
    files = {
        "metrics.csv": metrics_to_csv(metrics),
        "summary.json": json.dumps(summary, indent=2, sort_keys=True) + "\n",
    }
    _write_outputs(args.out, files, config)
    print(f"wrote {len(metrics)} rounds to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set or [], args.seed)
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError:
        raise CliError(f"could not parse sweep values {args.values!r}")
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else None
    try:
        cells, runs = sweep(config, args.param, values, seeds)
    except ConfigurationError as exc:
        raise CliError(str(exc))
    files = {"sweep.csv": sweep_to_csv(cells)}
    for (value, s), ms in runs.items():
        files[f"cell_{args.param}_{value!r}_seed{s}.csv"] = metrics_to_csv(ms)
    _write_outputs(args.out, files, config)
    print(f"wrote {len(cells)} sweep cells to {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.suite not in SUITES:
        raise CliError(f"unknown oracle suite {args.suite!r} (known: {', '.join(SUITES)})")
    result = run_suite(args.suite, seed=args.seed or 0)
    print(f"{result.name}: {result.instances} instances, "
          f"{result.failures} failures, max deviation {result.max_deviation:.3e}")
    if args.suite == "ives-monotone":
        _, iters = ives_monotone_suite(seed=args.seed or 0)
        fast = sum(1 for c in iters if c <= 3)
        print(f"ives-monotone: {fast}/{len(iters)} instances converged within 3 iterations")
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_dump_env(args) -> int:
    config = load_config(args.config, args.set or [], args.seed)
    env_spec = config.env if config.env is not None else EnvironmentSpec(device_ids=())
    if not env_spec.device_ids:
        n = config.population.n
        env_spec = EnvironmentSpec(**{
            **{k: v for k, v in env_spec.__dict__.items() if k != "device_ids"},
            "device_ids": tuple(range(n)),
        })
    compute, radios, net = sample_environment(
        rng.stream(config.seed, rng.ROLE_ENV), env_spec
    )
    text = environment_to_json(compute, radios, net) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "environment.json").write_text(text)
        print(f"wrote environment to {out / 'environment.json'}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmlsim",
        description="Deterministic federated meta-learning / wireless allocation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dot paths allowed)")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="execute one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="run a solver-vs-oracle comparison suite")
    p_oracle.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_env = sub.add_parser("dump-env", help="sample and print the wireless environment")
    common(p_env, needs_config=True)
    p_env.set_defaults(func=cmd_dump_env)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigurationError, InvalidInputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
