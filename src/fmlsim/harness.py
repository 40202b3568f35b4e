"""Experiment driver: config, the federated round loop, baselines, sweeps and CSV.

``run`` is the one training loop.  In nufm mode it is the pure learning
loop (selection + aggregation, no wireless model); in wireless mode each
round adds the per-round resource allocation.  A run holds the train and
test devices as padded arrays built once; each round updates every training
device in one ``local_update`` call and evaluates each loss in one
``adapted_loss`` call.  From the scores to the round totals a device is its
row in the training arrays (rows ascend in device id); ids appear only in
``RoundMetrics.selected``.  A run is a deterministic function of (config, seed)
because every random draw comes from a stream keyed by (seed, round, step)
or a similar tuple; a local step whose batches are all full datasets draws
nothing.  A round does only the work that changes between rounds: before
round 0 ``run`` builds the run's ``StepPlan`` (batch-size checks, score
penalties, full-batch weights and the draw's constants) and, in wireless
mode, its allocation plan (URAL's SP1 solution and ``Uplink``, and the
computation part of the round totals at the run's fixed frequencies), and
hands them to the solvers; a sweep builds each distinct (population spec,
seed) once for all its cells.  Weights that leave the CPU frequencies at 0,
or the greedy powers' eta1 * noise / h at 0, fail at set-up.  A round whose
meta-gradients, scores or losses are non-finite stops the run with
NumericalError.
"""

from __future__ import annotations

import collections
import contextvars
import csv
import io
import logging
import math
import numbers
import types
import typing
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import rng
from . import ural as solvers    # solve_sp1 is looked up where the bench's tracer wraps it
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .metacore import MetaHyper, StepPlan, adapted_loss, local_update
from .selection import aggregate, select_top_k, shifted_scores
from .tasks import Population, PopulationSpec, generate_population
from .ural import Uplink, solve_sp2_power, ural
from .wireless import (
    Allocation,
    ComputeProfile,
    EnvironmentSpec,
    NetworkConfig,
    RadioProfile,
    computation,
    round_totals,
    sample_environment,
)

log = logging.getLogger(__name__)

SELECTION_MODES = ("nufm", "uniform")
ALLOCATION_MODES = ("ural", "greedy", "random", "nufm-greedy", "nufm-random")

CSV_HEADER = (
    "round,train_loss,test_loss,contribution_sum,energy,time,objective,"
    "selected,ives_iterations"
)


@dataclass
class ExperimentConfig:
    """One experiment: mode, rounds, selection, allocation, seed and the config sections."""

    mode: str = "nufm"                      # nufm | wireless
    rounds: int = 10
    n_k: int = 5
    selection: str = "nufm"
    allocation: str = "ural"
    seed: int = 0
    batch_size: int | None = None           # None = full local dataset
    population: PopulationSpec = field(default_factory=PopulationSpec)
    hyper: MetaHyper = field(default_factory=MetaHyper)
    env: EnvironmentSpec = field(default_factory=EnvironmentSpec)

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be at least 1, got {self.rounds}")
        if not 1 <= self.n_k <= self.population.n:
            raise ConfigurationError(f"n_k={self.n_k} out of range for n={self.population.n}")
        if self.mode not in ("nufm", "wireless"):
            raise ConfigurationError(f"mode: unknown mode {self.mode!r}")
        if self.selection not in SELECTION_MODES:
            raise ConfigurationError(f"selection: unknown selection mode {self.selection!r}")
        if self.allocation not in ALLOCATION_MODES:
            raise ConfigurationError(f"allocation: unknown allocation mode {self.allocation!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RoundMetrics:
    """One round's losses, contribution, energy, time, objective and uploading devices."""

    round: int
    train_loss: float
    test_loss: float
    contribution_sum: float
    energy: float
    time: float
    objective: float
    selected: tuple[int, ...]
    ives_iterations: int = 0


def _round_of_updates(
    plan: StepPlan,
    theta: np.ndarray,
    config: ExperimentConfig,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every training device's local update for round k: parameters (n, d), scores (n,)."""
    try:
        return local_update(
            plan, theta, lambda step: rng.stream(config.seed, k, step, rng.ROLE_BATCH))
    except NumericalError as exc:
        raise NumericalError(f"round {k}: {exc}") from None


def _round_losses(
    pop: Population, theta: np.ndarray, alpha: float, k: int
) -> tuple[float, float]:
    """Round k's train and test adapted losses; NumericalError if either is non-finite."""
    losses = adapted_loss(pop.train, theta, alpha), adapted_loss(pop.test, theta, alpha)
    if not all(map(math.isfinite, losses)):
        raise NumericalError(f"round {k}: non-finite adapted loss {losses}")
    return losses


def _select(u: np.ndarray, config: ExperimentConfig, k: int) -> np.ndarray:
    """Round k's selected rows, ascending: top-k scores or a uniform draw."""
    n_k = min(config.n_k, u.size)
    if config.selection == "uniform":
        g = rng.stream(config.seed, k, rng.ROLE_SELECT)
        return np.sort(g.choice(u.size, size=n_k, replace=False))
    return select_top_k(u, n_k)


# ---------------------------------------------------------------------------
# wireless allocation


def greedy_frequency(compute: ComputeProfile, net: NetworkConfig) -> np.ndarray:
    """Per-device frequencies, each minimizing its own energy + latency weighted cost."""
    return np.minimum((net.eta2 / (net.eta1 * compute.iota)) ** (1.0 / 3.0), compute.nu_max)


def greedy_power(
    radios: RadioProfile, net: NetworkConfig, rows: np.ndarray, rbs: np.ndarray
) -> np.ndarray:
    """Per-device powers, each minimizing (eta1*p + eta2) * upload time on its own RB.

    That cost's stationarity condition is f4(h*p/noise) = 0 with
    b1 = eta1*noise/h, so each power is the one-device ``solve_sp2_power``.
    """
    return np.array([solve_sp2_power(radios, rows[k:k + 1], rbs[k:k + 1], net)[0]
                     for k in range(rows.size)])


def _allocate(
    config: ExperimentConfig,
    k: int,
    u_shifted: np.ndarray,
    compute: ComputeProfile,
    radios: RadioProfile,
    net: NetworkConfig,
    plan: tuple,
) -> tuple[Allocation, tuple[np.ndarray, float], int]:
    """Round k's uplink, its computation part and its IVES iteration count (0 for the baselines).

    ``plan`` is the run's ``_allocation_plan``.  ``ural`` solves selection
    and resources jointly.  The baselines pick ``min(n_k, M)`` rows (top
    shifted scores for ``nufm-*``, a uniform draw otherwise) on distinct
    random RBs, with greedy or random frequencies and powers.
    """
    sp1, uplink, comp = plan
    mode = config.allocation
    if mode == "ural":
        _, sp2 = ural(sp1, uplink, net, u_shifted)
        return Allocation(rows=sp2.rows, rbs=sp2.z, p=sp2.p), comp, sp2.iterations
    g = rng.stream(config.seed, k, rng.ROLE_ALLOC)
    n_sel = min(config.n_k, net.M, u_shifted.size)
    if mode.startswith("nufm-"):
        rows = select_top_k(u_shifted, n_sel)
    else:
        rows = np.sort(g.choice(u_shifted.size, size=n_sel, replace=False))
    rbs = g.choice(net.M, size=n_sel, replace=False)
    if mode.endswith("greedy"):
        p = greedy_power(radios, net, rows, rbs)
    else:
        nu = compute.nu_max * g.uniform(1e-6, 1.0, size=u_shifted.size)
        p = radios.p_max[rows] * g.uniform(1e-6, 1.0, size=n_sel)
        comp = computation(compute, nu, config.hyper.tau)
    return Allocation(rows=rows, rbs=rbs, p=p), comp, 0


def build_environment(
    config: ExperimentConfig, pop: Population
) -> tuple[ComputeProfile, RadioProfile, NetworkConfig]:
    """The run's wireless environment: one profile row per training row, D its batch size."""
    return sample_environment(
        rng.stream(config.seed, rng.ROLE_ENV), config.env,
        pop.train.batch_sizes(config.batch_size),
    )


def _allocation_plan(
    config: ExperimentConfig, compute: ComputeProfile, radios: RadioProfile, net: NetworkConfig
) -> tuple:
    """What the run's allocation fixes before round 0: ``(sp1, uplink, computation part)``.

    ``sp1`` and ``uplink`` are URAL's (None for the baselines), and the
    computation part is ``round_totals``' at the run's fixed frequencies,
    SP1's or the greedy ones; the random baselines draw theirs, positive
    fractions of ``nu_max`` and ``p_max``, each round (all three None).

    ConfigurationError if the weights break a fixed piece.  SP1's common
    speed and the greedy frequencies are cube roots of eta2 / (eta1 * ...),
    which underflows when the weights lie too far apart, and no device runs
    at frequency 0.  A greedy power solves f4 with b1 = eta1 * noise / h,
    which must stay positive.
    """
    mode = config.allocation
    if mode.endswith("random"):
        return None, None, None
    if mode == "ural":
        sp1 = solvers.solve_sp1(compute, (net.eta1, net.eta2))
        sp1.nu.flags.writeable = False      # every round is charged the computation at it
        nu = sp1.nu
    else:
        sp1 = None
        if not net.eta1 * float(net.noise.min()) / float(radios.h.max()) > 0:
            raise ConfigurationError(
                f"env.eta1={net.eta1!r} is too small: the {mode} powers' "
                f"eta1 * noise / h underflows to 0")
        with np.errstate(over="ignore"):        # eta1 * iota = inf makes a 0 below
            nu = greedy_frequency(compute, net)
    if not nu.min() > 0:
        raise ConfigurationError(
            f"env.eta1={net.eta1!r} and env.eta2={net.eta2!r} lie too far apart: "
            f"eta2 / eta1 underflows the {mode} CPU frequencies to 0")
    uplink = Uplink(radios, net) if mode == "ural" else None
    return sp1, uplink, computation(compute, nu, config.hyper.tau)


# ---------------------------------------------------------------------------
# the round loop

# inside ``sweep``: (population spec, seed) -> (its population, built at the first
# run that needs it, and its runs left); sharing is safe as its arrays are read-only.
# ``run`` takes only a config: bench/child.py's round clock wraps it with that signature
_sweep_populations: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_sweep_populations", default=None)


def _population(config: ExperimentConfig) -> Population:
    """The run's population: the sweep's shared one inside ``sweep``, else a new build."""
    shared = _sweep_populations.get()
    key = astuple(config.population), config.seed
    pop, uses = shared.pop(key) if shared is not None else (None, 1)
    if pop is None:
        pop = generate_population(config.population, config.seed)
    if uses > 1:
        shared[key] = pop, uses - 1
    return pop


def run(config: ExperimentConfig) -> list[RoundMetrics]:
    """Federated meta-training, one ``RoundMetrics`` per round.

    Every round updates all training devices and scores them.  In nufm mode
    ``_select`` picks the uploads from the raw scores and no energy or time
    is charged; in wireless mode ``_allocate`` decides uploads, frequencies,
    RBs and powers from the shifted scores and ``round_totals`` charges them.
    The uploads are aggregated into the next model (an empty selection keeps
    it) and the adapted losses are evaluated.
    """
    pop = _population(config)
    plan = StepPlan(pop.train, pop.train.batch_sizes(config.batch_size), config.hyper)
    wireless = config.mode == "wireless"
    if wireless:
        compute, radios, net = build_environment(config, pop)
        alloc_plan = _allocation_plan(config, compute, radios, net)

    theta = np.zeros(config.population.d)
    metrics: list[RoundMetrics] = []
    for k in range(config.rounds):
        thetas, scores = _round_of_updates(plan, theta, config, k)
        if wireless:
            su = shifted_scores(scores)
            alloc, comp, ives_iters = _allocate(config, k, su, compute, radios, net, alloc_plan)
            rows = alloc.rows
            contribution, energy, time = round_totals(comp, radios, net, alloc, su)
            objective = contribution - net.eta1 * energy - net.eta2 * time
        else:
            rows = _select(scores, config, k)
            contribution = float(sum(scores[rows].tolist()))
            energy = time = objective = 0.0
            ives_iters = 0
        if rows.size:
            theta = aggregate(thetas[rows])
        else:
            log.info("round %d: empty selection, aggregation skipped", k)
        train_loss, test_loss = _round_losses(pop, theta, config.hyper.alpha, k)
        metrics.append(RoundMetrics(
            round=k,
            train_loss=train_loss,
            test_loss=test_loss,
            contribution_sum=contribution,
            energy=energy,
            time=time,
            objective=objective,
            selected=tuple(pop.train_ids[rows].tolist()),
            ives_iterations=ives_iters,
        ))
    return metrics


# ---------------------------------------------------------------------------
# sweeps and serialization


@dataclass
class SweepCell:
    """One swept value's mean and sd, over its seeds, of the per-run round means."""

    parameter: str
    value: object
    seeds: tuple[int, ...]
    mean_loss: float
    sd_loss: float
    mean_energy: float
    sd_energy: float
    mean_time: float
    sd_time: float
    mean_objective: float
    sd_objective: float


def _sweep_path(parameter: str) -> str:
    if parameter == "seed":
        raise ConfigurationError("seed is not a sweep parameter; sweep seeds with --seeds")
    hints = typing.get_type_hints(ExperimentConfig)
    if "." in parameter or parameter in hints:
        return parameter
    matches = [
        f"{section}.{parameter}" for section, hint in hints.items()
        if is_dataclass(hint) and parameter in {f.name for f in fields(hint)}
    ]
    if len(matches) != 1:
        raise ConfigurationError(f"sweep parameter {parameter!r} matches "
                                 f"{len(matches)} config fields {matches}")
    return matches[0]


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values: list,
    seeds: list[int] | None = None,
) -> tuple[list[SweepCell], dict[tuple[object, int], list[RoundMetrics]]]:
    """Repeat run() over values x seeds; per-cell mean and sd of round means.

    ``parameter`` is a config dot path, a top-level field name, or the name
    of exactly one section field (``eta1`` is ``env.eta1``).  Every
    (value, seed) config is built and checked before the first run.  A
    repeated seed, or two values written as the same ``value_text``, would
    give two cells one name, so either is a ConfigurationError.
    """
    path = _sweep_path(parameter)
    seeds = [config.seed] if seeds is None else list(seeds)
    for name, keys in (("seed", seeds), ("value", [value_text(v) for v in values])):
        repeated = [key for key, count in collections.Counter(keys).items() if count > 1]
        if repeated:
            raise ConfigurationError(f"sweep {name} {repeated[0]} is given more than once")
    grid = []
    for value in values:
        payload = asdict(config)
        set_path(payload, path, value)
        value_config = config_from_dict(payload)
        grid.append((value, [replace(value_config, seed=s) for s in seeds]))
    cells: list[SweepCell] = []
    runs: dict[tuple[object, int], list[RoundMetrics]] = {}
    uses = collections.Counter((astuple(c.population), c.seed)
                               for _, seed_configs in grid for c in seed_configs)
    token = _sweep_populations.set({key: (None, n) for key, n in uses.items()})
    try:
        for value, seed_configs in grid:
            losses, energies, times, objectives = [], [], [], []
            for cell_config in seed_configs:
                ms = run(cell_config)
                runs[(value, cell_config.seed)] = ms
                losses.append(np.mean([m.test_loss for m in ms]))
                energies.append(np.mean([m.energy for m in ms]))
                times.append(np.mean([m.time for m in ms]))
                objectives.append(np.mean([m.objective for m in ms]))

            def stats(xs):
                arr = np.asarray(xs, dtype=float)
                return float(arr.mean()), float(arr.std(ddof=1)) if len(xs) > 1 else 0.0

            ml, sl = stats(losses)
            me, se = stats(energies)
            mt, st = stats(times)
            mo, so = stats(objectives)
            cells.append(SweepCell(
                parameter=parameter, value=value, seeds=tuple(seeds),
                mean_loss=ml, sd_loss=sl, mean_energy=me, sd_energy=se,
                mean_time=mt, sd_time=st, mean_objective=mo, sd_objective=so,
            ))
    finally:
        _sweep_populations.reset(token)
    return cells, runs


def metrics_to_csv(metrics: list[RoundMetrics]) -> str:
    """Round metrics as CSV with round-trip precision floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for m in metrics:
        writer.writerow([
            m.round,
            repr(m.train_loss), repr(m.test_loss), repr(m.contribution_sum),
            repr(m.energy), repr(m.time), repr(m.objective),
            ";".join(str(i) for i in m.selected),
            m.ives_iterations,
        ])
    return buf.getvalue()


def metrics_summary(metrics: list[RoundMetrics]) -> dict:
    last = metrics[-1]
    return {
        "rounds": len(metrics),
        "final_train_loss": last.train_loss,
        "final_test_loss": last.test_loss,
        "mean_energy": float(np.mean([m.energy for m in metrics])),
        "mean_time": float(np.mean([m.time for m in metrics])),
        "mean_objective": float(np.mean([m.objective for m in metrics])),
        "total_energy": float(np.sum([m.energy for m in metrics])),
        "total_time": float(np.sum([m.time for m in metrics])),
    }


def sweep_to_csv(cells: list[SweepCell]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "parameter", "value", "mean_loss", "sd_loss", "mean_energy", "sd_energy",
        "mean_time", "sd_time", "mean_objective", "sd_objective", "seeds",
    ])
    for c in cells:
        writer.writerow([
            c.parameter, value_text(c.value),
            repr(c.mean_loss), repr(c.sd_loss),
            repr(c.mean_energy), repr(c.sd_energy),
            repr(c.mean_time), repr(c.sd_time),
            repr(c.mean_objective), repr(c.sd_objective),
            ";".join(str(s) for s in c.seeds),
        ])
    return buf.getvalue()


def value_text(value) -> str:
    """A sweep value as sweep.csv and the cell file names write it."""
    if isinstance(value, (int, float)):
        return repr(float(value))
    return "null" if value is None else str(value)


def set_path(payload: dict, path: str, value) -> None:
    """Set the entry at dot path ``path`` of a config dict, creating missing objects."""
    *parents, last = path.split(".")
    node = payload
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigurationError(f"override path {path!r} crosses a non-object value")
    node[last] = value


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Build and check a config from JSON data (unknown keys and wrong types rejected).

    The dataclasses are the definition: each field's type hint sets the JSON
    type it takes and each ``__post_init__`` its bounds.  Every rejection is
    a ConfigurationError naming the dotted field.
    """
    return _build(ExperimentConfig, payload, "")


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _build(cls, payload, prefix: str):
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{prefix.rstrip('.') or 'config'} must be an object, "
                                 f"got {payload!r}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown key {prefix}{unknown[0]}")
    kwargs = {key: _field_value(hints[key], value, prefix + key)
              for key, value in payload.items()}
    try:
        return cls(**kwargs)
    except (ConfigurationError, InvalidInputError) as exc:
        # each config __post_init__ message starts with the field it rejects
        raise ConfigurationError(f"{prefix}{exc}") from None


def _field_value(hint, value, path: str):
    """``value`` checked against the type hint of the field at ``path``."""
    if is_dataclass(hint):
        return _build(hint, value, path + ".")
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):           # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if value is None else _field_value(inner, value, path)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigurationError(f"{path} must be a list of {len(args)} values, got {value!r}")
        return tuple(_field_value(h, v, path) for h, v in zip(args, value))
    if hint is float:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    elif hint is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, hint)
    if not ok or isinstance(value, bool):
        raise ConfigurationError(f"{path} must be {_TYPE_NAMES[hint]}, got {value!r}")
    return hint(value)
