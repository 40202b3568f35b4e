"""Experiment driver: federated training loops, baselines and bound checks.

Two entry points: ``run_nufm`` runs the pure learning loop (selection +
aggregation, no wireless model), ``run_wireless`` co-simulates training
with per-round resource allocation.  Both hold the train and test devices
as padded arrays built once per run; each round updates every training
device in one ``local_update`` call and evaluates each loss in one
``adapted_loss`` call.  Both are deterministic functions of (config, seed)
because every random draw comes from a stream keyed by (seed, round, step)
or a similar tuple.  A round whose meta-gradients, scores or losses are
non-finite stops the run with NumericalError.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import rng
from .errors import ConfigurationError, InvalidInputError, NumericalError
from .metacore import (
    DeviceArrays,
    MetaHyper,
    SmoothnessConstants,
    draw_batch,
    local_update,
    meta_gradient,
)
from .selection import aggregate, select_top_k, shifted_scores
from .tasks import (
    ROLE_TEST,
    ROLE_TRAIN,
    Device,
    PopulationSpec,
    empirical_gamma_g,
    generate_population,
    population_constants,
)
from .ural import ural
from .wireless import (
    RANGE_FIELDS,
    Allocation,
    ComputeProfile,
    EnvironmentSpec,
    NetworkConfig,
    RadioProfile,
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
    mode: str = "nufm"                      # nufm | wireless
    rounds: int = 10
    n_k: int = 5
    selection: str = "nufm"
    allocation: str = "ural"
    seed: int = 0
    batch_size: int | None = None           # None = full local dataset
    population: PopulationSpec = field(default_factory=PopulationSpec)
    hyper: MetaHyper = field(default_factory=lambda: MetaHyper(alpha=0.05, beta=0.05))
    env: EnvironmentSpec | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if not 1 <= self.n_k <= self.population.n:
            raise ConfigurationError(f"n_k={self.n_k} out of range for n={self.population.n}")
        if self.mode not in ("nufm", "wireless"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.selection not in SELECTION_MODES:
            raise ConfigurationError(f"unknown selection mode {self.selection!r}")
        if self.allocation not in ALLOCATION_MODES:
            raise ConfigurationError(f"unknown allocation mode {self.allocation!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigurationError("batch_size must be positive")


@dataclass
class RoundMetrics:
    round: int
    train_loss: float
    test_loss: float
    contribution_sum: float
    energy: float
    time: float
    objective: float
    selected: tuple[int, ...]
    ives_iterations: int = 0


@dataclass
class _Population:
    """The run's devices: training ids in row order, train and test arrays."""

    train_ids: list[int]
    train: DeviceArrays
    test: DeviceArrays

    def rows(self, ids) -> list[int]:
        """Training-array rows of the given device ids, in ascending id order."""
        row_of = {i: r for r, i in enumerate(self.train_ids)}
        return [row_of[i] for i in sorted(ids)]


def _population(config: ExperimentConfig) -> _Population:
    devices = generate_population(replace(config.population, seed=config.seed))
    train = [d for d in devices if d.role == ROLE_TRAIN]
    test = [d for d in devices if d.role == ROLE_TEST] or train
    if len(train) < 1:
        raise ConfigurationError("population has no training devices")
    return _Population(
        train_ids=[d.device_id for d in train],
        train=DeviceArrays([d.model for d in train]),
        test=DeviceArrays([d.model for d in test]),
    )


def _round_of_updates(
    train: DeviceArrays,
    theta: np.ndarray,
    config: ExperimentConfig,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every training device's local update for round k: parameters (n, d), scores (n,)."""
    try:
        return local_update(
            train, theta, config.hyper, train.batch_sizes(config.batch_size),
            lambda step: rng.stream(config.seed, k, step, rng.ROLE_BATCH),
        )
    except NumericalError as exc:
        raise NumericalError(f"round {k}: {exc}") from None


def adapted_loss(data: DeviceArrays, theta: np.ndarray, alpha: float) -> float:
    """Mean over devices of the full-data loss after one personalization step."""
    w = data.full_weights
    with np.errstate(over="ignore", invalid="ignore"):
        return float(data.loss(w, theta - alpha * data.grad(w, theta)).mean())


def _round_losses(
    pop: _Population, theta: np.ndarray, alpha: float, k: int
) -> tuple[float, float]:
    """Round k's train and test adapted losses; NumericalError if either is non-finite."""
    losses = adapted_loss(pop.train, theta, alpha), adapted_loss(pop.test, theta, alpha)
    if not all(map(math.isfinite, losses)):
        raise NumericalError(f"round {k}: non-finite adapted loss {losses}")
    return losses


def _select(
    u: dict[int, float], config: ExperimentConfig, k: int
) -> set[int]:
    n_k = min(config.n_k, len(u))
    if config.selection == "uniform":
        g = rng.stream(config.seed, k, rng.ROLE_SELECT)
        ids = np.array(sorted(u))
        return set(g.choice(ids, size=n_k, replace=False).tolist())
    return select_top_k(u, n_k)


def run_nufm(config: ExperimentConfig) -> list[RoundMetrics]:
    """Federated meta-training with contribution-based (or uniform) selection."""
    pop = _population(config)
    theta = np.zeros(config.population.d)
    alpha = config.hyper.alpha
    metrics: list[RoundMetrics] = []
    for k in range(config.rounds):
        thetas, scores = _round_of_updates(pop.train, theta, config, k)
        u = dict(zip(pop.train_ids, scores.tolist()))
        selected = _select(u, config, k)
        theta = aggregate(thetas[pop.rows(selected)])
        train_loss, test_loss = _round_losses(pop, theta, alpha, k)
        metrics.append(RoundMetrics(
            round=k,
            train_loss=train_loss,
            test_loss=test_loss,
            contribution_sum=float(sum(u[i] for i in selected)),
            energy=0.0,
            time=0.0,
            objective=0.0,
            selected=tuple(sorted(selected)),
        ))
    return metrics


# ---------------------------------------------------------------------------
# wireless co-simulation


def _golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Golden-section minimizer of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def greedy_frequency(cp: ComputeProfile, net: NetworkConfig) -> float:
    """Per-device frequency minimizing its own energy + latency weighted cost."""
    return min((net.eta2 / (net.eta1 * cp.iota)) ** (1.0 / 3.0), cp.nu_max)


def greedy_power(radio: RadioProfile, net: NetworkConfig, m: int) -> float:
    """Per-device power minimizing (eta1*p + eta2) * upload time on RB m."""
    noise = net.interference[m] + net.B * net.N0

    def cost(p: float) -> float:
        rate = net.B * math.log2(1.0 + radio.h * p / noise)
        return (net.eta1 * p + net.eta2) * net.S / rate

    return _golden_section(cost, 1e-9 * radio.p_max, radio.p_max)


def _baseline_allocation(
    mode: str,
    k: int,
    config: ExperimentConfig,
    u_shifted: dict[int, float],
    compute: dict[int, ComputeProfile],
    radios: dict[int, RadioProfile],
    net: NetworkConfig,
) -> Allocation:
    """Greedy/random resource decisions, optionally paired with NUFM selection."""
    g = rng.stream(config.seed, k, rng.ROLE_ALLOC)
    n_sel = min(config.n_k, net.M, len(u_shifted))
    if mode.startswith("nufm-"):
        chosen = sorted(select_top_k(u_shifted, n_sel))
    else:
        ids = np.array(sorted(u_shifted))
        chosen = sorted(g.choice(ids, size=n_sel, replace=False).tolist())
    rbs = g.choice(net.M, size=n_sel, replace=False).tolist()
    z = {i: int(m) for i, m in zip(chosen, rbs)}
    if mode.endswith("greedy"):
        nu = {i: greedy_frequency(cp, net) for i, cp in compute.items()}
        p = {i: greedy_power(radios[i], net, m) for i, m in z.items()}
    else:
        nu = {i: cp.nu_max * g.uniform(1e-6, 1.0) for i, cp in compute.items()}
        p = {i: radios[i].p_max * g.uniform(1e-6, 1.0) for i in z}
    return Allocation(z=z, p=p, nu=nu, delta=0.0)


def run_wireless(config: ExperimentConfig) -> list[RoundMetrics]:
    """Co-simulate training rounds with per-round resource allocation."""
    pop = _population(config)
    env_spec = config.env if config.env is not None else EnvironmentSpec(device_ids=())
    env_spec = replace(
        env_spec,
        device_ids=tuple(pop.train_ids),
        batch_sizes=dict(zip(
            pop.train_ids, pop.train.batch_sizes(config.batch_size).tolist()
        )),
    )
    compute, radios, net = sample_environment(
        rng.stream(config.seed, rng.ROLE_ENV), env_spec
    )

    theta = np.zeros(config.population.d)
    alpha = config.hyper.alpha
    metrics: list[RoundMetrics] = []
    for k in range(config.rounds):
        thetas, scores = _round_of_updates(pop.train, theta, config, k)
        su = shifted_scores(dict(zip(pop.train_ids, scores.tolist())))
        ives_iters = 0
        if config.allocation == "ural":
            sp1, sp2 = ural(compute, radios, net, su)
            alloc = Allocation(z=sp2.z, p=sp2.p, nu=sp1.nu, delta=sp2.delta)
            ives_iters = sp2.iterations
        else:
            alloc = _baseline_allocation(
                config.allocation, k, config, su, compute, radios, net
            )
        transmitters = sorted(alloc.z)
        if transmitters:
            theta = aggregate(thetas[pop.rows(transmitters)])
        else:
            log.info("round %d: empty selection, aggregation skipped", k)
        contribution, energy, time = map(float, round_totals(
            compute, radios, net, alloc, su, tau=config.hyper.tau
        ))
        train_loss, test_loss = _round_losses(pop, theta, alpha, k)
        metrics.append(RoundMetrics(
            round=k,
            train_loss=train_loss,
            test_loss=test_loss,
            contribution_sum=contribution,
            energy=energy,
            time=time,
            objective=contribution - net.eta1 * energy - net.eta2 * time,
            selected=tuple(transmitters),
            ives_iterations=ives_iters,
        ))
    return metrics


def run(config: ExperimentConfig) -> list[RoundMetrics]:
    return run_wireless(config) if config.mode == "wireless" else run_nufm(config)


# ---------------------------------------------------------------------------
# descent-bound evaluation


@dataclass
class BoundReport:
    """One-round loss-decrease estimate against its analytic lower bound."""

    lhs: float                      # Monte-Carlo E[F(theta_k) - F(theta_{k+1})]
    lhs_se: float                   # Monte-Carlo standard error of lhs
    rhs: float                      # analytic lower bound
    lambda1_floor: float
    lambda2_floor: float
    sigma_F: dict[int, float]
    sigma_tilde_first_order: float
    sigma_tilde_hessian_free: float
    # bound symbols without an analytic value for these loss families are
    # replaced as noted; consumers should treat the affected outputs as
    # conservative diagnostics
    substitutions: tuple[str, ...] = (
        "first-order variant: undefined gradient bound replaced by zeta",
        "hessian-free variant: smoothness/perturbation symbols read as rho/epsilon",
    )


def sigma_f_squared(c: SmoothnessConstants, d: int, d_prime: int, d_double: int) -> float:
    """Second-moment bound of the meta-gradient estimator for given batch sizes."""
    a = 1.0 / d_prime + (c.alpha * c.L) ** 2 / d
    return (
        6.0 * c.sigma_G ** 2 * (1.0 + c.alpha * c.L) ** 2 * a
        + 3.0 * (c.alpha * c.zeta * c.sigma_H) ** 2 / d_double
        + 6.0 * (c.alpha * c.sigma_G * c.sigma_H) ** 2 / d_double * a
    )


def meta_gradient_bias_bound(c: SmoothnessConstants, d: int) -> float:
    """Bias bound alpha * sigma_G * L * (1 + alpha*L) / sqrt(D)."""
    return c.alpha * c.sigma_G * c.L * (1.0 + c.alpha * c.L) / math.sqrt(d)


def lambda_floors(
    c: SmoothnessConstants, hyper: MetaHyper, sigma_f_max: float
) -> tuple[float, float]:
    """Smallest selection constants for which the multi-step bound applies."""
    dissimilarity = math.sqrt(
        (1.0 + c.alpha * c.L) ** 2 * c.gamma_G + c.alpha * c.zeta * c.gamma_H
    )
    l1 = dissimilarity + hyper.beta * hyper.tau * math.sqrt(
        35.0 * (c.gamma_G ** 2 + 2.0 * sigma_f_max ** 2)
    )
    l2_sq = (
        6.0 * c.sigma_G ** 2
        * (1.0 + (c.alpha * c.L) ** 2)
        * ((c.alpha * c.sigma_H) ** 2 + (1.0 + c.alpha * c.L) ** 2)
        + 3.0 * (c.alpha * c.zeta * c.sigma_H) ** 2
    )
    return l1, math.sqrt(l2_sq)


def sigma_tilde_variants(
    c: SmoothnessConstants, hyper: MetaHyper, d: int, d_prime: int, d_double: int
) -> tuple[float, float]:
    """Estimator second-moment bounds for the two Hessian-avoiding modes."""
    al = c.alpha * c.L
    first_sq = (
        2.0 * c.sigma_G ** 2 * (1.0 / d_prime + al ** 2 / d)
        + 2.0 * (al * c.zeta) ** 2
    )
    eps = hyper.hv_epsilon
    hfree_sq = (
        6.0 * c.sigma_G ** 2 * (
            2.0 * al ** 2 / d + 2.0 / d_prime + c.alpha ** 2 / (2.0 * eps ** 2 * d_double)
        )
        + 2.0 * (c.alpha * c.rho * eps) ** 2 * c.zeta ** 4
    )
    return math.sqrt(first_sq), math.sqrt(hfree_sq)


def theorem1_bound(
    devices: list[Device],
    theta: np.ndarray,
    hyper: MetaHyper,
    constants: SmoothnessConstants,
    selected: set[int],
    batch_size: int | None = None,
    mc: int = 256,
    seed: int = 0,
) -> BoundReport:
    """Monte-Carlo one-round loss decrease versus the analytic lower bound.

    Restricted to tau=1 (the single-step form of the bound).  zeta and
    gamma_G are filled with empirical values at theta when not supplied.
    """
    if hyper.tau != 1:
        raise InvalidInputError("the one-round bound requires tau=1")
    by_id = {d.device_id: d for d in devices}
    sel = sorted(selected)
    if not sel or any(i not in by_id for i in sel):
        raise InvalidInputError("selected set must be nonempty and known")

    c = constants
    if math.isnan(c.zeta):
        c = replace(c, zeta=max(
            float(np.linalg.norm(d.model.grad(theta))) for d in devices
        ))
    if math.isnan(c.gamma_G):
        c = replace(c, gamma_G=empirical_gamma_g(devices, theta))

    arrays = DeviceArrays([d.model for d in devices])
    all_sizes = dict(zip(
        (d.device_id for d in devices), arrays.batch_sizes(batch_size).tolist()
    ))
    sizes = {i: all_sizes[i] for i in sel}
    sigma_f = {i: math.sqrt(sigma_f_squared(c, s, s, s)) for i, s in sizes.items()}

    # per-device meta-gradient second moments over resampled batches
    sq_norm = {i: np.empty(mc) for i in sel}
    decreases = np.empty(mc)
    f_now = adapted_loss(arrays, theta, c.alpha)
    for r in range(mc):
        updated = []
        for i in sel:
            model = by_id[i].model
            g = rng.stream(seed, r, i)
            batches = [draw_batch(model, g, sizes[i]) for _ in range(3)]
            grad = meta_gradient(model, theta, batches[0], batches[1], batches[2], hyper)
            sq_norm[i][r] = float(grad @ grad)
            updated.append(theta - hyper.beta * grad)
        theta_next = aggregate(updated)
        decreases[r] = f_now - adapted_loss(arrays, theta_next, c.alpha)

    dissimilarity = math.sqrt(
        (1.0 + c.alpha * c.L) ** 2 * c.gamma_G + c.alpha * c.zeta * c.gamma_H
    )
    rhs_terms = []
    for i in sel:
        second_moment = float(sq_norm[i].mean())
        rhs_terms.append(
            (1.0 - c.L_F * hyper.beta / 2.0) * second_moment
            - (dissimilarity + sigma_f[i]) * math.sqrt(second_moment)
        )
    rhs = hyper.beta * float(np.mean(rhs_terms))

    l1, l2 = lambda_floors(c, hyper, max(sigma_f.values()))
    size_ref = min(sizes.values())
    st_first, st_hfree = sigma_tilde_variants(c, hyper, size_ref, size_ref, size_ref)
    return BoundReport(
        lhs=float(decreases.mean()),
        lhs_se=float(decreases.std(ddof=1) / math.sqrt(mc)) if mc > 1 else 0.0,
        rhs=rhs,
        lambda1_floor=l1,
        lambda2_floor=l2,
        sigma_F=sigma_f,
        sigma_tilde_first_order=st_first,
        sigma_tilde_hessian_free=st_hfree,
    )


# ---------------------------------------------------------------------------
# sweeps and serialization


_SWEEPABLE = {
    "eta1", "eta2", "M", "S", "B", "N0",            # environment knobs
    "rounds", "n_k", "batch_size", "seed",          # experiment knobs
    "alpha", "beta", "lambda1", "lambda2",          # hyper knobs
}


def _override(config: ExperimentConfig, name: str, value) -> ExperimentConfig:
    if name in ("rounds", "n_k", "batch_size", "seed"):
        return replace(config, **{name: value})
    if name in ("alpha", "beta", "lambda1", "lambda2"):
        return replace(config, hyper=replace(config.hyper, **{name: value}))
    if name in ("eta1", "eta2", "M", "S", "B", "N0"):
        env = config.env if config.env is not None else EnvironmentSpec(device_ids=())
        return replace(config, env=replace(env, **{name: value}))
    raise ConfigurationError(f"unknown sweep parameter {name!r}")


@dataclass
class SweepCell:
    parameter: str
    value: float
    seeds: tuple[int, ...]
    mean_loss: float
    sd_loss: float
    mean_energy: float
    sd_energy: float
    mean_time: float
    sd_time: float
    mean_objective: float
    sd_objective: float


def sweep(
    config: ExperimentConfig,
    parameter: str,
    values: list,
    seeds: list[int] | None = None,
) -> tuple[list[SweepCell], dict[tuple[float, int], list[RoundMetrics]]]:
    """Repeat run() over values x seeds; per-cell mean and sd of round means."""
    if parameter not in _SWEEPABLE:
        raise ConfigurationError(f"unknown sweep parameter {parameter!r}")
    seeds = [config.seed] if seeds is None else list(seeds)
    cells: list[SweepCell] = []
    runs: dict[tuple[float, int], list[RoundMetrics]] = {}
    for value in values:
        losses, energies, times, objectives = [], [], [], []
        for s in seeds:
            cfg = replace(_override(config, parameter, value), seed=s)
            ms = run(cfg)
            runs[(value, s)] = ms
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
            c.parameter, repr(float(c.value)),
            repr(c.mean_loss), repr(c.sd_loss),
            repr(c.mean_energy), repr(c.sd_energy),
            repr(c.mean_time), repr(c.sd_time),
            repr(c.mean_objective), repr(c.sd_objective),
            ";".join(str(s) for s in c.seeds),
        ])
    return buf.getvalue()


def config_to_dict(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    if payload.get("env") is not None:
        payload["env"]["device_ids"] = list(payload["env"]["device_ids"])
        payload["env"]["batch_sizes"] = {
            str(k): v for k, v in payload["env"]["batch_sizes"].items()
        }
        for key in RANGE_FIELDS:
            payload["env"][key] = list(payload["env"][key])
    return payload


def config_from_dict(payload: dict) -> ExperimentConfig:
    payload = dict(payload)
    pop = PopulationSpec(**payload.pop("population", {}))
    hyper_raw = payload.pop("hyper", {})
    hyper_raw.setdefault("alpha", 0.05)
    hyper_raw.setdefault("beta", 0.05)
    hyper = MetaHyper(**hyper_raw)
    env_raw = payload.pop("env", None)
    env = None
    if env_raw is not None:
        env_raw = dict(env_raw)
        env_raw["device_ids"] = tuple(env_raw.get("device_ids", ()))
        env_raw["batch_sizes"] = {
            int(k): v for k, v in env_raw.get("batch_sizes", {}).items()
        }
        for key in RANGE_FIELDS:
            if key in env_raw:
                env_raw[key] = tuple(env_raw[key])
        env = EnvironmentSpec(**env_raw)
    return ExperimentConfig(population=pop, hyper=hyper, env=env, **payload)


def population_smoothness(config: ExperimentConfig) -> SmoothnessConstants:
    """Analytic smoothness constants of the configured population."""
    devices = generate_population(replace(config.population, seed=config.seed))
    return population_constants(devices, config.hyper.alpha)
