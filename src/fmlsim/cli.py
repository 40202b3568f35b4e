"""Command-line front end: run / sweep / oracle / dump-env.

Config files are JSON read by ``harness.config_from_dict``: the config
dataclasses define every key, its type and its bounds.  ``--set`` and sweep
values are JSON values at a dot path.  All outputs embed the resolved config
snapshot so every result directory is self-describing, and numeric output
uses round-trip precision so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import ConfigurationError, InvalidInputError, NumericalError
from .harness import (
    ExperimentConfig,
    build_environment,
    config_from_dict,
    metrics_summary,
    run,
    set_path,
    sweep,
    to_csv,
    value_text,
)
from .tasks import generate_population
from .wireless import environment_to_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# summary.json's shape; the tests and the benchmark validate written summaries against it
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


class CliError(Exception):
    """A usage error in the command line or the config file (exit 2)."""


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _apply_override(payload: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise CliError(f"override {assignment!r} is not of the form key=value")
    path, raw = assignment.split("=", 1)
    set_path(payload, path, _parse_value(raw))


def load_config(path: str, overrides: list[str], seed: int | None) -> ExperimentConfig:
    config_path = Path(path)
    if not config_path.is_file():
        raise CliError(f"config file not found: {path}")
    try:
        payload = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    try:
        for assignment in overrides:
            _apply_override(payload, assignment)
        if seed is not None:
            set_path(payload, "seed", seed)
        return config_from_dict(payload)
    except ConfigurationError as exc:
        raise CliError(f"{path}: {exc}")


def _seed(text: str) -> int:
    """A seed argument: a non-negative integer (the random streams take no other)."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_outputs(out_dir: str, files: dict[str, str], config: ExperimentConfig) -> None:
    """Write result files plus a manifest with the config snapshot and hashes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(config),
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
    files = {
        "metrics.csv": to_csv(metrics),
        "summary.json": json.dumps(metrics_summary(metrics), indent=2, sort_keys=True) + "\n",
    }
    _write_outputs(args.out, files, config)
    print(f"wrote {len(metrics)} rounds to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.set or [], args.seed)
    values = [_parse_value(v) for v in args.values.split(",") if v]
    if not values:
        raise CliError(f"--values must name at least one value, got {args.values!r}")
    try:
        seeds = [_seed(s) for s in args.seeds.split(",")] if args.seeds else None
    except argparse.ArgumentTypeError:
        raise CliError("--seeds must be comma-separated non-negative integers, "
                       f"got {args.seeds!r}") from None
    cells, runs = sweep(config, args.param, values, seeds)
    files = {"sweep.csv": to_csv(cells)}
    for (value, s), ms in runs.items():
        files[f"cell_{args.param}_{value_text(value)}_seed{s}.csv"] = to_csv(ms)
    _write_outputs(args.out, files, config)
    print(f"wrote {len(cells)} sweep cells to {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracles import SUITES     # only this command needs the suites

    if args.suite not in SUITES:
        raise CliError(f"unknown oracle suite {args.suite!r} (known: {', '.join(SUITES)})")
    result = SUITES[args.suite](seed=args.seed)
    print(f"{result.name}: {result.instances} instances, "
          f"{result.failures} failures, max deviation {result.max_deviation:.3e}")
    if result.note:
        print(result.note)
    return EXIT_OK if result.ok else EXIT_FAILURE


def cmd_dump_env(args) -> int:
    config = load_config(args.config, args.set or [], args.seed)
    pop = generate_population(config.population, config.seed)
    compute, radios, net = build_environment(config, pop)
    text = environment_to_json(compute, radios, net, pop.train_ids.tolist()) + "\n"
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

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dot paths allowed)")
        p.add_argument("--seed", type=_seed, default=None, help="override the run seed")
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="execute one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="config field to sweep: a dot path or a unique field name")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, each parsed as for --set")
    p_sweep.add_argument("--seeds", default=None, help="comma-separated seeds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="run a solver-vs-oracle comparison suite")
    p_oracle.add_argument("suite", help="suite name; an unknown name lists the known ones")
    p_oracle.add_argument("--seed", type=_seed, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_env = sub.add_parser("dump-env", help="print the wireless environment a run samples")
    common(p_env)
    p_env.set_defaults(func=cmd_dump_env, out=None)     # prints unless --out is given
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigurationError, InvalidInputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory: the run's padded device arrays grow with population.n, "
              "population.size_mu, population.size_sigma and population.d, and its batch "
              "stream seeds with rounds and hyper.tau; lower one of them", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
