"""Experiment driver: config, the federated round loop, baselines, sweeps and CSV.

``run`` is the one training loop.  In nufm mode it is the pure learning
loop (selection + aggregation, no wireless model); in wireless mode each
round adds the per-round resource allocation.  A run holds the train and
test devices as padded arrays built once; each round updates every training
device in one ``local_update`` call and evaluates both losses in one
``adapted_loss`` call: on a quadratic population each split's least-squares
form, built before round 0, and on a logistic one a pass over the real
samples of both splits.  From the
scores to the round totals a device is its row in the training arrays (rows
ascend in device id); ids appear only in ``RoundMetrics.selected``.  A run is
a deterministic function of (config, seed) because every random draw comes
from a stream keyed by (seed, round, step) or a similar tuple; a local step
whose batches are all full datasets draws nothing.  The local steps' batch
streams are seeded as families before round 0, one ``rng.family_states``
call per step for every round the learner's longest cell runs (32 bytes
per round and step, beside the ~430 bytes a run keeps per round in its
``RoundMetrics``), the same streams as ``rng.stream`` of each key; a
uniform selection or a baseline allocation makes its round's one stream
with ``rng.stream``.  A round does only the work that changes between
rounds: before round 0 ``run`` builds the run's ``StepPlan`` (batch-size checks, score penalties, full-batch role batches
and the draw's constants), its ``LossPlan`` (a test set that is the
training set held once, on a quadratic population each split's
least-squares form at ``hyper.alpha`` and on a logistic one both splits'
real samples flattened), the seeds of its batch streams and, in wireless
mode, its allocation plan (URAL's SP1 solution and ``Uplink``, and the
computation part of the round totals at the run's fixed frequencies), and
hands them to the solvers.  A sweep runs its cells grouped by (population
spec, seed), one group after another: ``_group`` builds the group's
population once, and the plans once per batch size and hyper-parameters of
it.  The group's cells run together, round by round (``_run_cells``), and
share what they compute alike: a round's local updates, keyed by the
model's bytes (and by the round when the local steps draw their batches),
computed for every model that the last round did not hold in one stacked
``local_update`` call, and the losses of the round's new models, evaluated
in one ``adapted_loss`` call for those no cell evaluated before.  Outputs
stay byte-identical because both are pure functions of their key and a
stacked call gives each model the bits it has alone.  Updates live for two
rounds and losses as long as the group; a plain run is a group of one
cell, and a learner that serves one cell keeps no memo.  A round's
allocation is its cell's own: eta1 and the other weights differ between
cells, and the baselines draw
from a stream keyed by the round and never reuse.  An environment where
some device cannot upload at a positive rate on some RB, weights that leave
the CPU frequencies at 0, or the greedy powers' eta1 * noise / h at 0 fail
at set-up.  A round whose meta-gradients, scores or losses are non-finite
stops the run with NumericalError; the first round whose finite loss
exceeds ``EXPLODING_LOSS`` logs a warning.  ``to_csv`` writes every result
table, a column per field of its dataclass.
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
from .errors import (ConfigurationError, InvalidInputError, NumericalError, check_fields,
                     type_hints)
from .metacore import LossPlan, MetaHyper, StepPlan, adapted_loss, local_update
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
    running_sum,
    sample_environment,
)

log = logging.getLogger(__name__)

SELECTION_MODES = ("nufm", "uniform")
ALLOCATION_MODES = ("ural", "greedy", "random", "nufm-greedy", "nufm-random")

# a finite adapted loss above this is logged once per run as diverging: the
# synthetic populations start near 1-10 and a converging run only falls from there
EXPLODING_LOSS = 1e10

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
        check_fields(self, at_least_1=("rounds",), positive=("batch_size",),
                     nonnegative=("seed",),
                     choices={"mode": ("nufm", "wireless"), "selection": SELECTION_MODES,
                              "allocation": ALLOCATION_MODES})
        if not 1 <= self.n_k <= self.population.n:
            raise ConfigurationError(f"n_k={self.n_k} out of range for n={self.population.n}")


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


class _Learner:
    """A run's learning constants and, inside a sweep, what its cells compute alike.

    ``steps`` is the run's ``StepPlan`` and ``loss_plan`` its ``LossPlan``.
    When a local step draws its batches, ``batch_states`` holds the
    read-only seeds ``(rounds, tau, 4)`` of the streams ``(seed, k, t,
    ROLE_BATCH)`` for every round of ``config``, the longest cell it serves
    (else it is None).  ``local_update`` and
    ``adapted_loss`` are pure functions of the plans, the seed, the round
    (which keys the batch streams) and the model, so a sweep group shares
    one learner between its cells of one batch size and hyper-parameters,
    whatever their rounds.  The group's cells run round by round together
    (``_run_cells``).  Every cell starts from the same model, and cells that
    differ only in their allocation retrace each other's rounds until their
    selections part, so ``updates`` maps a round's key to its read-only
    (parameters, scores): the model's bytes under full batches, whose update
    reads no stream, and ``(k, model bytes)`` when the steps draw from the
    streams keyed by k.  ``start_round`` moves the last round's ``updates``
    to ``previous``, drops the older ones and lists in ``wanted`` the
    round's models that neither holds; the first cell to miss updates all
    of them in one stacked ``local_update`` call, and a round found in
    either memo is read back (and, from ``previous``, copied into
    ``updates``), so a cell whose selection was empty reads its last update
    under full batches.  ``losses`` maps model bytes to (train, test)
    adapted losses, which a cell reads when its model has the bytes of one
    another cell evaluated; they live as long as the group.  ``updates`` and
    ``losses`` are None in a learner of one cell, a plain run's included, as
    no other cell would read them.  Only checked, finite results are stored.
    """

    def __init__(self, pop: Population, config: ExperimentConfig, memo: bool):
        self.steps = StepPlan(pop.train, pop.train.batch_sizes(config.batch_size), config.hyper)
        self.loss_plan = LossPlan(pop.train, pop.test, alpha=config.hyper.alpha)
        self.batch_states = None
        if self.steps.full_batches is None:
            ks = np.arange(config.rounds)
            self.batch_states = np.stack([
                rng.family_states((config.seed,), ks, (t, rng.ROLE_BATCH))
                for t in range(config.hyper.tau)], axis=1)
            self.batch_states.flags.writeable = False
        self.updates: dict | None = {} if memo else None
        self.previous: dict = {}
        self.wanted: dict = {}
        self.losses: dict | None = {} if memo else None

    def key(self, theta: np.ndarray, k: int):
        """The key of round k's update of ``theta``."""
        # drawn batches read the streams keyed by k; full ones read no stream
        return theta.tobytes() if self.batch_states is None else (k, theta.tobytes())

    def start_round(self, k: int, thetas: list[np.ndarray]) -> None:
        """Round k starts in the cells at models ``thetas``; the last round's updates are kept."""
        if self.updates is None:
            return
        self.previous, self.updates = self.updates, {}
        self.wanted = {}
        for theta in thetas:
            key = self.key(theta, k)
            if key not in self.previous:
                self.wanted.setdefault(key, theta)


def _update(learner: _Learner, theta: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``local_update`` of round k from ``theta``, (d,) or a stack (c, 1, d); errors name the round."""
    states = learner.batch_states
    step_rng = None if states is None else lambda t: rng.generator(states[k, t])
    try:
        return local_update(learner.steps, theta, step_rng)
    except NumericalError as exc:
        raise NumericalError(f"round {k}: {exc}") from None


def _round_of_updates(
    learner: _Learner, theta: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every training device's local update for round k: parameters (n, d), scores (n,)."""
    memo = learner.updates
    if memo is None:
        return _update(learner, theta, k)
    key = learner.key(theta, k)
    if (hit := memo.get(key) or learner.previous.get(key)) is not None:
        memo[key] = hit
        return hit
    learner.wanted.pop(key, None)
    keys, others = [key, *learner.wanted], list(learner.wanted.values())
    learner.wanted = {}
    if others:
        try:
            params, scores = _update(learner, np.stack([theta, *others])[:, None], k)
        except NumericalError:
            pass        # each model is updated alone, here or in its own cell's round
        else:
            params.flags.writeable = scores.flags.writeable = False
            memo.update((kk, (params[i], scores[i])) for i, kk in enumerate(keys))
            return memo[key]
    result = _update(learner, theta, k)
    for a in result:
        a.flags.writeable = False
    memo[key] = result
    return result


def _round_losses(
    learner: _Learner, thetas: list[np.ndarray], k: int
) -> list[tuple[float, float]]:
    """Round k's train and test adapted losses of each model, in one call for those not in memo.

    NumericalError, naming the first model's in ``thetas`` order, if any is non-finite.
    """
    memo = learner.losses
    keys = [theta.tobytes() for theta in thetas]
    fresh = dict(zip(keys, thetas))
    if memo is not None:
        fresh = {key: theta for key, theta in fresh.items() if key not in memo}
    if len(fresh) > 1:
        fresh = dict(zip(fresh, adapted_loss(learner.loss_plan, np.stack(list(fresh.values())))))
    else:
        fresh = {key: adapted_loss(learner.loss_plan, theta) for key, theta in fresh.items()}
    for key, losses in fresh.items():
        if not all(map(math.isfinite, losses)):
            raise NumericalError(f"round {k}: non-finite adapted loss {losses}")
        if memo is not None:
            memo[key] = losses
    return [fresh.get(key) or memo[key] for key in keys]


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

    ConfigurationError if the environment or the weights break a fixed
    piece.  Every row must upload at a positive rate on every RB at full
    power, or an upload never ends; ``ural.initial_delay`` checks it, inside
    ``Uplink`` under URAL.  SP1's common speed and the greedy
    frequencies are cube roots of eta2 / (eta1 * ...), which underflows
    when the weights lie too far apart, and no device runs at frequency 0.
    A greedy power solves f4 with b1 = eta1 * noise / h, which must stay
    positive.
    """
    mode = config.allocation
    uplink = None
    try:
        if mode == "ural":
            uplink = Uplink(radios, net)
        else:
            solvers.initial_delay(radios, net)
    except InvalidInputError as exc:
        raise ConfigurationError(
            f"{exc}: noise swamps the uplink; check env.N0, env.B, env.interference_range, "
            f"env.h_range and env.p_max_range") from None
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
    return sp1, uplink, computation(compute, nu, config.hyper.tau)


# ---------------------------------------------------------------------------
# the round loop

# inside ``sweep``: the running ``_SweepGroup``.  ``run`` takes only a config:
# bench/child.py's round clock wraps it with that signature
_sweep_group: contextvars.ContextVar[_SweepGroup | None] = contextvars.ContextVar(
    "_sweep_group", default=None)


def _group(configs: list[ExperimentConfig]) -> tuple[Population, dict]:
    """One (population spec, seed)'s population and a ``_Learner`` per (batch size, hyper).

    ``configs`` share the population spec and the seed.  A learner is built
    from its longest cell, whose rounds its batch streams cover, and keeps
    memos only when two or more cells share it.
    """
    pop = generate_population(configs[0].population, configs[0].seed)
    cells = collections.defaultdict(list)
    for c in configs:
        cells[_learner_key(c)].append(c)
    return pop, {key: _Learner(pop, max(cs, key=lambda c: c.rounds), memo=len(cs) > 1)
                 for key, cs in cells.items()}


def _learner_key(config: ExperimentConfig) -> tuple:
    return config.batch_size, astuple(config.hyper)


class _SweepGroup:
    """A running sweep group's cells, which the group's first ``run`` call runs together.

    ``sweep`` calls ``run`` once per cell, so that each cell's last round ends
    as its call returns; the first call runs every cell (``_run_cells``) and
    each call returns its own cell's rounds.
    """

    def __init__(self, configs: list[ExperimentConfig]):
        self.configs = configs
        self.results: dict | None = None

    def rounds_of(self, config: ExperimentConfig) -> list[RoundMetrics]:
        if self.results is None:
            runs = _run_cells(self.configs, *_group(self.configs))
            self.results = {id(c): ms for c, ms in zip(self.configs, runs)}
        return self.results.pop(id(config))


class _Cell:
    """One run between its rounds: config, learner, environment, model and rounds so far."""

    def __init__(self, config: ExperimentConfig, pop: Population, learner: _Learner):
        self.config, self.learner, self.train_ids = config, learner, pop.train_ids
        self.env = None
        if config.mode == "wireless":
            compute, radios, net = build_environment(config, pop)
            self.env = compute, radios, net, _allocation_plan(config, compute, radios, net)
        self.theta = np.zeros(config.population.d)
        self.metrics: list[RoundMetrics] = []
        self.exploding = False
        self.pending: dict = {}

    def step(self, k: int) -> None:
        """Round k up to its losses: update, select or allocate, and aggregate into ``theta``."""
        config = self.config
        thetas, scores = _round_of_updates(self.learner, self.theta, k)
        if self.env is not None:
            compute, radios, net, plan = self.env
            su = shifted_scores(scores)
            alloc, comp, ives_iters = _allocate(config, k, su, compute, radios, net, plan)
            rows = alloc.rows
            contribution, energy, time = round_totals(comp, radios, net, alloc, su)
            objective = contribution - net.eta1 * energy - net.eta2 * time
        else:
            rows = _select(scores, config, k)
            contribution = running_sum(scores[rows])
            energy = time = objective = 0.0
            ives_iters = 0
        if rows.size:
            self.theta = aggregate(thetas[rows])
        else:
            log.info("round %d: empty selection, aggregation skipped", k)
        self.pending = dict(round=k, contribution_sum=contribution, energy=energy, time=time,
                            objective=objective, selected=tuple(self.train_ids[rows].tolist()),
                            ives_iterations=ives_iters)

    def record(self, k: int, losses: tuple[float, float]) -> None:
        """Round k's ``RoundMetrics``, with the adapted losses of the model it ended at."""
        train_loss, test_loss = losses
        worst = max(train_loss, test_loss)
        if worst > EXPLODING_LOSS and not self.exploding:
            self.exploding = True
            log.warning("round %d: adapted loss %r exceeds %g, the model is diverging; "
                        "check hyper.beta=%r and hyper.alpha=%r", k, worst, EXPLODING_LOSS,
                        self.config.hyper.beta, self.config.hyper.alpha)
        self.metrics.append(RoundMetrics(train_loss=train_loss, test_loss=test_loss,
                                         **self.pending))


def _run_cells(
    configs: list[ExperimentConfig], pop: Population, learners: dict
) -> list[list[RoundMetrics]]:
    """Each config's rounds, run together: round k of every cell before round k + 1.

    Every cell's environment and allocation plan are built before round 0.
    A round runs learner by learner: the learner hears which models its
    cells are at (``_Learner.start_round``), so that the first cell to miss
    updates all of them in one stacked ``local_update`` call; every cell
    steps to its next model, the cells evaluate those models' losses in one
    ``adapted_loss`` call, and each records its round.
    """
    cells = [_Cell(c, pop, learners[_learner_key(c)]) for c in configs]
    teams = collections.defaultdict(list)
    for cell in cells:
        teams[cell.learner].append(cell)
    for k in range(max(c.rounds for c in configs)):
        for learner, team in teams.items():
            live = [cell for cell in team if k < cell.config.rounds]
            learner.start_round(k, [cell.theta for cell in live])
            for cell in live:
                cell.step(k)
            for cell, losses in zip(live, _round_losses(learner, [c.theta for c in live], k)):
                cell.record(k, losses)
    return [cell.metrics for cell in cells]


def run(config: ExperimentConfig) -> list[RoundMetrics]:
    """Federated meta-training, one ``RoundMetrics`` per round.

    Every round updates all training devices and scores them.  In nufm mode
    ``_select`` picks the uploads from the raw scores and no energy or time
    is charged; in wireless mode ``_allocate`` decides uploads, frequencies,
    RBs and powers from the shifted scores and ``round_totals`` charges them.
    The uploads are aggregated into the next model (an empty selection keeps
    it) and the adapted losses are evaluated.  Inside a sweep the run is a
    cell of the running group, which runs its cells together and shares
    their updates and evaluated losses (see ``_Learner``); alone, the run is
    a group of one cell and keeps no memo.
    """
    group = _sweep_group.get()
    if group is not None:
        return group.rounds_of(config)
    return _run_cells([config], *_group([config]))[0]


# ---------------------------------------------------------------------------
# sweeps and serialization


@dataclass
class SweepCell:
    """One swept value's mean and sd, over its seeds, of the per-run round means.

    The fields are sweep.csv's columns; ``value`` is the swept value's ``value_text``.
    """

    parameter: str
    value: str
    mean_loss: float
    sd_loss: float
    mean_energy: float
    sd_energy: float
    mean_time: float
    sd_time: float
    mean_objective: float
    sd_objective: float
    seeds: tuple[int, ...]


def _sweep_path(parameter: str) -> str:
    if parameter == "seed":
        raise ConfigurationError("seed is not a sweep parameter; sweep seeds with --seeds")
    hints = type_hints(ExperimentConfig)
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
    (value, seed) config is built and checked before the first run.  An
    empty value or seed list leaves no cell to run, and a repeated seed, or
    two values written as the same ``value_text``, would give two cells one
    name, so each is a ConfigurationError.  The cells
    run grouped by (population spec, seed), each group's round by round
    together (``_SweepGroup``, through one ``run`` call per cell), and a
    group's population, plans and memos die before the next group's are
    built.
    """
    path = _sweep_path(parameter)
    seeds = [config.seed] if seeds is None else list(seeds)
    for name, keys in (("seed", seeds), ("value", [value_text(v) for v in values])):
        if not keys:
            raise ConfigurationError(f"sweep {name} list is empty")
        repeated = [key for key, count in collections.Counter(keys).items() if count > 1]
        if repeated:
            raise ConfigurationError(f"sweep {name} {repeated[0]} is given more than once")
    grid = []
    for value in values:
        payload = asdict(config)
        set_path(payload, path, value)
        value_config = config_from_dict(payload)
        grid.append((value, [replace(value_config, seed=s) for s in seeds]))
    groups = collections.defaultdict(list)
    for value, seed_configs in grid:
        for c in seed_configs:
            groups[astuple(c.population), c.seed].append((value, c))
    runs = dict.fromkeys((value, s) for value, _ in grid for s in seeds)
    for group in groups.values():
        # only the context variable holds the group, so it dies as its last cell ends
        token = _sweep_group.set(_SweepGroup([c for _, c in group]))
        try:
            for value, c in group:
                runs[value, c.seed] = run(c)
        finally:
            _sweep_group.reset(token)

    def stats(value, name):
        means = np.array([np.mean([getattr(m, name) for m in runs[value, s]]) for s in seeds])
        return float(means.mean()), float(means.std(ddof=1)) if len(seeds) > 1 else 0.0

    cells = [
        SweepCell(parameter, value_text(value),
                  *(x for name in ("test_loss", "energy", "time", "objective")
                    for x in stats(value, name)),
                  tuple(seeds))
        for value, _ in grid]
    return cells, runs


def to_csv(rows: list) -> str:
    """Dataclass rows of one class as CSV, a header of its field names and a line per row.

    Floats are written in round-trip ``repr``, tuples joined by ``;`` and
    anything else with ``str``.
    """
    names = [f.name for f in fields(rows[0])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        values = (getattr(row, name) for name in names)
        writer.writerow([repr(v) if isinstance(v, float) else
                         ";".join(map(str, v)) if isinstance(v, tuple) else str(v)
                         for v in values])
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
    type it takes, and each ``__post_init__`` checks every bound through
    ``errors.check_fields``, finiteness included, as it does for a config
    built in code.  This loader checks JSON types only.  Every rejection is
    a ConfigurationError naming the dotted field.
    """
    return _build(ExperimentConfig, payload, "")


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _build(cls, payload, prefix: str):
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{prefix.rstrip('.') or 'config'} must be an object, "
                                 f"got {payload!r}")
    hints = type_hints(cls)
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown key {prefix}{unknown[0]}")
    kwargs = {key: _field_value(hints[key], value, prefix + key)
              for key, value in payload.items()}
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
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
        ok = isinstance(value, numbers.Real)
    elif hint is int:
        ok = isinstance(value, numbers.Integral)
    else:
        ok = isinstance(value, hint)
    if not ok or isinstance(value, bool):
        raise ConfigurationError(f"{path} must be {_TYPE_NAMES[hint]}, got {value!r}")
    try:
        return hint(value)
    except OverflowError as exc:                    # a JSON integer beyond the float range
        raise ConfigurationError(f"{path} must be a finite number: {exc}") from None
