import collections
import dataclasses
import gc
import json
import logging
import math
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmlsim.ural as ural_module
from fmlsim import harness, metacore, rng
from fmlsim.errors import ConfigurationError, InvalidInputError, NumericalError
from fmlsim.harness import (
    ExperimentConfig,
    config_from_dict,
    greedy_frequency,
    greedy_power,
    metrics_summary,
    run,
    set_path,
    sweep,
    to_csv,
)
from fmlsim.metacore import Batch, DeviceArrays, MetaHyper, QuadraticModel
from fmlsim.oracles import (
    SmoothnessConstants,
    population_constants,
    sigma_f_squared,
    theorem1_bound,
)
from fmlsim.tasks import PopulationSpec, generate_population
from fmlsim.wireless import ComputeProfile, EnvironmentSpec, NetworkConfig, RadioProfile

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _base_config(**kw):
    defaults = dict(
        mode="nufm", rounds=3, n_k=4,
        population=PopulationSpec(n=12, d=3),
        hyper=MetaHyper(alpha=0.03, beta=0.02),
        batch_size=3, seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_zero_meta_stepsize_keeps_loss_constant():
    cfg = _base_config(rounds=2, hyper=MetaHyper(alpha=0.03, beta=0.0))
    ms = run(cfg)
    assert ms[0].train_loss == pytest.approx(ms[1].train_loss)
    assert ms[0].test_loss == pytest.approx(ms[1].test_loss)


def test_run_nufm_is_deterministic():
    cfg = _base_config()
    a = run(cfg)
    b = run(cfg)
    for ma, mb in zip(a, b):
        assert ma == mb


def test_selection_modes_differ_but_share_updates():
    nufm = run(_base_config(selection="nufm"))
    unif = run(_base_config(selection="uniform"))
    assert nufm[0].selected != unif[0].selected or nufm != unif


def test_selected_sets_have_requested_size():
    ms = run(_base_config(n_k=4))
    assert all(len(m.selected) == 4 for m in ms)


def test_invalid_config_rejected_before_round_zero():
    with pytest.raises(ConfigurationError):
        _base_config(rounds=0)
    with pytest.raises(ConfigurationError):
        _base_config(n_k=100)
    with pytest.raises(ConfigurationError):
        _base_config(selection="topk")


def test_negative_seed_rejected():
    with pytest.raises(ConfigurationError, match="^seed must be non-negative, got -1$"):
        _base_config(seed=-1)


# the four config dataclasses by their JSON section ("" for the top level)
_CONFIG_SECTIONS = {"": ExperimentConfig, "population": PopulationSpec, "hyper": MetaHyper,
                    "env": EnvironmentSpec}


def _numeric_slots() -> list[tuple[str, str, int | None]]:
    """(section, field, tuple index or None) of every number the config dataclasses hold."""
    slots = []
    for section, cls in _CONFIG_SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            if typing.get_origin(hint) is tuple:
                slots += [(section, f.name, i) for i in range(len(args))]
            elif hint in (int, float) or args == [int]:
                slots.append((section, f.name, None))
    return slots


@settings(max_examples=300)
@given(slot=st.sampled_from(_numeric_slots()),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_number_is_rejected_in_code_and_from_json(slot, value):
    # one rule whether a config is built in code or read from JSON: the
    # dataclass names the field, and the loader prefixes its section
    section, name, index = slot
    cls = _CONFIG_SECTIONS[section]
    if index is not None:
        items = list(getattr(cls(), name))
        items[index] = value
        value = tuple(items)
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got "):
        cls(**{name: value})
    payload = json.loads(json.dumps({section: {name: value}} if section else {name: value}))
    path = f"{section}.{name}" if section else name
    # an int field rejects a float as a JSON type before any bound
    with pytest.raises(ConfigurationError, match=f"^{path} must be (finite|an integer), got "):
        config_from_dict(payload)


@pytest.mark.parametrize("section, cls, name, value", [
    ("population", PopulationSpec, "size_sigma", math.nan),
    ("population", PopulationSpec, "label_noise", math.inf),
    ("population", PopulationSpec, "param_spread", math.nan),
    ("env", EnvironmentSpec, "B", math.inf),
    ("env", EnvironmentSpec, "eta2", math.nan),
    ("env", EnvironmentSpec, "S", math.inf),
])
def test_a_non_finite_section_built_in_code_fails_before_its_population(
        monkeypatch, section, cls, name, value):
    # unchecked, these failed in generate_population, in a round's meta-gradient,
    # at set-up with the wrong cause, or (S=inf) not at all, selecting no device
    monkeypatch.setattr(harness, "generate_population",
                        lambda *a: pytest.fail("a population was generated"))
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value}$"):
        run(ExperimentConfig(mode="wireless", rounds=2, **{section: cls(**{name: value})}))


def test_training_reduces_loss():
    cfg = _base_config(rounds=15, population=PopulationSpec(n=20, d=3))
    ms = run(cfg)
    assert ms[-1].train_loss < ms[0].train_loss


def _wireless_config(**kw):
    defaults = dict(
        mode="wireless", rounds=3, n_k=5,
        population=PopulationSpec(n=12, d=3),
        hyper=MetaHyper(alpha=0.03, beta=0.02),
        batch_size=3, seed=0,
        env=EnvironmentSpec(M=8,
                            nu_max_range=(0.5, 2.0), p_max_range=(0.2, 1.0)),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_run_wireless_all_modes_feasible():
    for alloc in ("ural", "greedy", "random", "nufm-greedy", "nufm-random"):
        ms = run(_wireless_config(allocation=alloc))
        for m in ms:
            assert m.energy >= 0 and m.time >= 0
            assert np.isfinite(m.objective)


def test_run_wireless_deterministic():
    cfg = _wireless_config(allocation="ural")
    a = run(cfg)
    assert run(cfg) == a


def test_ural_selects_every_profitable_device_with_generous_resources():
    # plenty of RBs and power: the matching should admit all positive-utility devices
    cfg = _wireless_config(
        env=EnvironmentSpec(M=20,
                            p_max_range=(5.0, 6.0), nu_max_range=(0.5, 2.0),
                            h_range=(0.8, 1.0), interference_range=(0.0, 0.1)),
    )
    ms = run(cfg)
    n_train = generate_population(cfg.population, cfg.seed).train_ids.size
    assert all(len(m.selected) == n_train for m in ms)


def test_greedy_frequency_closed_form_via_grid():
    cp = ComputeProfile(c=[1.0, 1.0], iota=[2.0, 0.001], D=[2, 2], nu_max=[5.0, 5.0])
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.1,), S=1.0,
                        eta1=1.3, eta2=0.9)
    nu = greedy_frequency(cp, net)
    grid = np.linspace(1e-3, cp.nu_max[0], 30000)
    cost = net.eta1 * 0.5 * cp.iota[0] * cp.c[0] * cp.D[0] * grid ** 2 \
        + net.eta2 * cp.c[0] * cp.D[0] / grid
    assert nu[0] == pytest.approx(grid[np.argmin(cost)], abs=1e-3)
    assert nu[1] == cp.nu_max[1]    # the unconstrained optimum lies above the cap


def test_greedy_power_matches_dense_grid():
    radios = RadioProfile(h=[0.3, 0.7], p_max=[0.5, 1.0])
    net = NetworkConfig(M=2, B=1.0, N0=0.1, interference=(0.4, 0.2), S=1.0)
    p = greedy_power(radios, net, np.array([1]), np.array([1]))
    assert p.shape == (1,)
    grid = np.linspace(1e-6, radios.p_max[1], 50000)
    rate = net.B * np.log2(1 + radios.h[1] * grid / (net.interference[1] + net.B * net.N0))
    cost = (net.eta1 * grid + net.eta2) * net.S / rate
    assert p[0] == pytest.approx(grid[np.argmin(cost)], abs=1e-3)


def test_greedy_power_capped_at_p_max():
    # a weak channel and a costly delay push the unconstrained optimum above the cap
    radios = RadioProfile(h=[0.05, 0.9], p_max=[0.2, 1.0])
    net = NetworkConfig(M=2, B=1.0, N0=0.1, interference=(0.5, 0.0), S=1.0,
                        eta1=1.0, eta2=50.0)
    p = greedy_power(radios, net, np.array([0, 1]), np.array([0, 1]))
    assert p[0] == pytest.approx(radios.p_max[0], rel=1e-12)
    assert 0 < p[1] <= radios.p_max[1] * (1 + 1e-12)


def test_sigma_f_squared_symbolic_reevaluation():
    c = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.0, zeta=1.5,
                            sigma_G=0.7, sigma_H=0.4, gamma_G=0.0, gamma_H=0.0)
    d = dp = dd = 8
    a = 1.0 / dp + (0.1 * 2.0) ** 2 / d
    expect = (6 * 0.7 ** 2 * (1 + 0.2) ** 2 * a
              + 3 * (0.1 * 1.5 * 0.4) ** 2 / dd
              + 6 * (0.1 * 0.7 * 0.4) ** 2 / dd * a)
    assert sigma_f_squared(c, d, dp, dd) == pytest.approx(expect)


def _identical_population(seed=0, n=4):
    g = np.random.default_rng(seed)
    x = g.normal(size=(12, 3))
    y = x @ np.ones(3)
    return DeviceArrays(QuadraticModel, [Batch(x, y) for _ in range(n)])


def test_theorem1_bound_tight_regime():
    # identical devices, full batches, noise constants zero: rhs must be
    # nonnegative and the exact decrease must dominate it
    devices = _identical_population()
    c = dataclasses.replace(
        population_constants(devices, 0.05), sigma_G=0.0, sigma_H=0.0
    )
    beta = 1.0 / (2.0 * c.L_F)
    rep = theorem1_bound(devices, np.full(3, 2.0), MetaHyper(alpha=0.05, beta=beta),
                         c, np.arange(4), mc=2)
    assert rep.rhs >= 0.0
    assert rep.lhs >= rep.rhs


def test_theorem1_bound_vanishes_at_critical_stepsize():
    devices = _identical_population()
    c = dataclasses.replace(
        population_constants(devices, 0.05), sigma_G=0.0, sigma_H=0.0
    )
    beta = 2.0 / c.L_F
    rep = theorem1_bound(devices, np.full(3, 2.0), MetaHyper(alpha=0.05, beta=beta),
                         c, np.arange(4), mc=2)
    assert rep.rhs <= 1e-12


def test_theorem1_bound_rejects_multi_step():
    devices = _identical_population()
    c = population_constants(devices, 0.05)
    with pytest.raises(Exception):
        theorem1_bound(devices, np.zeros(3),
                       MetaHyper(alpha=0.05, beta=0.01, tau=2), c, np.array([0]), mc=2)


def test_theorem1_bound_subsampled_rows():
    # rows of 2..13 samples, batches of 3 on a non-contiguous selection:
    # one sigma_F per selected row, resamples that differ, a pure function of seed
    g = np.random.default_rng(3)
    data = DeviceArrays(QuadraticModel, [Batch(g.normal(size=(n, 3)), g.normal(size=n))
                                         for n in (2, 5, 13, 4)])
    c = dataclasses.replace(population_constants(data, 0.05), zeta=1.0, gamma_G=0.5)
    hyper = MetaHyper(alpha=0.05, beta=0.01, mode="hessian-free")
    rows = np.array([0, 2, 3])
    rep = theorem1_bound(data, np.ones(3), hyper, c, rows, batch_size=3, mc=8, seed=5)
    sizes = [2, 3, 3]
    assert rep.sigma_F.tolist() == [math.sqrt(sigma_f_squared(c, s, s, s)) for s in sizes]
    assert rep.lhs_se > 0
    again = theorem1_bound(data, np.ones(3), hyper, c, rows, batch_size=3, mc=8, seed=5)
    assert (again.lhs, again.rhs) == (rep.lhs, rep.rhs)
    other = theorem1_bound(data, np.ones(3), hyper, c, rows, batch_size=3, mc=8, seed=6)
    assert other.lhs != rep.lhs
    with pytest.raises(InvalidInputError):
        theorem1_bound(data, np.ones(3), hyper, c, np.array([2, 0]), mc=2)


def test_theorem1_bound_non_finite_report_raises():
    # a logistic population's zeta is NaN and rho > 0, so its L_F is NaN: a
    # beta taken from it is rejected, and a constant that makes the report
    # non-finite is a NumericalError, not a NaN or infinite bound
    spec = PopulationSpec(n=6, d=3, family="logistic-regression", train_fraction=1.0)
    data = generate_population(spec, 0).train
    c = population_constants(data, 0.05)
    assert math.isnan(c.L_F)
    with pytest.raises(ConfigurationError, match="beta must be finite"):
        MetaHyper(alpha=0.05, beta=1.0 / (2.0 * c.L_F))
    hyper = MetaHyper(alpha=0.05, beta=0.1)
    rows = np.arange(data.counts.size)
    rep = theorem1_bound(data, np.ones(3), hyper, c, rows, mc=4)
    assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
    with pytest.raises(NumericalError, match="descent bound is not finite"):
        theorem1_bound(data, np.ones(3), hyper, dataclasses.replace(c, L=math.inf), rows, mc=4)


def test_sweep_degenerate_single_cell():
    cfg = _wireless_config(rounds=2)
    cells, runs = sweep(cfg, "eta1", [1.0])
    assert len(cells) == 1 and len(runs) == 1
    assert runs[(1.0, cfg.seed)] == run(cfg)


def test_sweep_unknown_parameter():
    with pytest.raises(ConfigurationError):
        sweep(_wireless_config(), "bandwidth_hz", [1.0])


def test_sweep_checks_every_seed_before_the_first_run(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run", lambda config: calls.append(config) or [])
    with pytest.raises(ConfigurationError, match="seed must be non-negative, got -2"):
        sweep(_base_config(), "rounds", [1, 2], seeds=[1, -2])
    assert calls == []


@pytest.mark.parametrize("parameter, values, builds", [
    ("eta1", [0.5, 1.0, 2.0], 2),       # every value shares each seed's population
    ("n", [12, 20], 4),                 # every (value, seed) has its own
])
def test_sweep_builds_each_population_once(monkeypatch, parameter, values, builds):
    built = []

    def recording_generate(spec, seed):
        built.append((spec.n, seed))
        return generate_population(spec, seed)

    monkeypatch.setattr(harness, "generate_population", recording_generate)
    cfg = _wireless_config(rounds=2, batch_size=None)
    _, runs = sweep(cfg, parameter, values, seeds=[0, 1])
    assert len(built) == len(set(built)) == builds and len(runs) == len(values) * 2
    run(cfg)                            # a run outside a sweep builds its own
    assert len(built) == builds + 1


# the bench's sweep-small cells: tiny logistic hessian-free full-batch wireless runs
SWEEP_SMALL = {"population.family": "logistic-regression", "hyper.mode": "hessian-free",
               "batch_size": None}


def _wireless_json(overrides):
    payload = json.loads((CONFIGS / "wireless.json").read_text())
    for path, value in overrides.items():
        set_path(payload, path, value)
    return config_from_dict(payload)


def _assert_cells_equal_their_runs_alone(cfg, parameter, runs):
    """Each sweep cell's metrics, bit for bit, against its config run outside a sweep."""
    path = harness._sweep_path(parameter)
    for (value, seed), ms in runs.items():
        payload = dataclasses.asdict(cfg)
        set_path(payload, path, value)
        alone = run(dataclasses.replace(config_from_dict(payload), seed=seed))
        assert ms == alone and to_csv(ms) == to_csv(alone), (value, seed)


@pytest.mark.parametrize("overrides", [SWEEP_SMALL, {}], ids=["full-batch", "drawn-batch"])
def test_sweep_cells_share_round_0_and_losses_and_equal_their_runs_alone(monkeypatch,
                                                                          overrides):
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(harness, name, counted)

    counting("local_update", harness.local_update)
    counting("adapted_loss", harness.adapted_loss)
    cfg = _wireless_json(overrides)
    seeds = [1, 2, 3]
    _, runs = sweep(cfg, "eta1", [0.5, 1.0, 1.5, 2.0, 2.5], seeds=seeds)
    assert len(runs) * cfg.rounds == 150
    # round 0 starts from the same model in every cell: one update per seed
    assert calls["local_update"] == 150 - (len(runs) - len(seeds))
    # eta1 reaches only the allocation: cells of one seed that upload alike share losses
    assert calls["adapted_loss"] < 150
    _assert_cells_equal_their_runs_alone(cfg, "eta1", runs)


@pytest.mark.parametrize("parameter, values", [
    ("alpha", [0.01, 0.03]),            # one population, a learner per hyper-parameters
    ("batch_size", [2, None]),          # one population, a learner per batch size
    ("n", [16, 20]),                    # a population per value
])
def test_sweep_cells_that_learn_differently_share_no_round(parameter, values):
    # every cell starts at theta = 0, so a key without these would hand round 0 over
    cfg = _wireless_json({})
    _, runs = sweep(cfg, parameter, values, seeds=[1, 2])
    _assert_cells_equal_their_runs_alone(cfg, parameter, runs)


@pytest.mark.parametrize("overrides, parameter, values, seeds, learners, memos", [
    # fixed_outputs.py's sweep-alpha: 4 learners of one cell each
    ({"rounds": 5}, "alpha", [0.01, 0.03], [1, 2], 4, False),
    # sweep-small: 3 learners of 5 cells each
    (SWEEP_SMALL, "eta1", [0.5, 1.0, 1.5, 2.0, 2.5], [1, 2, 3], 3, True),
])
def test_a_sweep_learner_keeps_memos_only_when_cells_share_it(
        monkeypatch, overrides, parameter, values, seeds, learners, memos):
    built = []
    init = harness._Learner.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(harness._Learner, "__init__", recording_init)
    cfg = _wireless_json(overrides)
    _, runs = sweep(cfg, parameter, values, seeds=seeds)
    assert len(built) == learners
    for learner in built:
        if memos:
            assert len(learner.first_round) == 1 and learner.losses
        else:
            assert learner.first_round is None and learner.losses is None
    _assert_cells_equal_their_runs_alone(cfg, parameter, runs)


def test_a_sweeps_shared_round_0_is_read_only_and_dies_with_its_last_cell(monkeypatch):
    updates, learners = [], []

    def recording_round(learner, theta, k):
        if k == 0:
            # a cell starts: other groups' round-0 results and learners (with their memos)
            # are gone; each group here has one learner
            gc.collect()
            assert all(ref() is None for owner, _, _, ref in updates if owner() is not learner)
            assert all(ref() in (None, learner) for ref in learners)
        result = round_of_updates(learner, theta, k)
        updates.extend((weakref.ref(learner), k, a.flags.writeable, weakref.ref(a))
                       for a in result)
        learners.append(weakref.ref(learner))
        return result

    round_of_updates = harness._round_of_updates
    monkeypatch.setattr(harness, "_round_of_updates", recording_round)
    sweep(_wireless_config(), "eta1", [0.5, 1.0], seeds=[0, 1])
    # round 0's shared results are frozen; later rounds' are the cell's own
    assert len(updates) == 2 * 4 * 3
    assert all(writeable == (k > 0) for _, k, writeable, _ in updates)
    gc.collect()
    assert all(ref() is None for *_, ref in updates) and all(ref() is None for ref in learners)
    updates.clear()
    run(_wireless_config())             # a plain run keeps no memo and freezes nothing
    assert len(updates) == 2 * 3 and all(writeable for _, _, writeable, _ in updates)


def test_a_sweep_holds_one_population_at_a_time(monkeypatch):
    populations, most_alive = [], 0

    def recording_generate(spec, seed):
        pop = generate(spec, seed)
        populations.append(weakref.ref(pop))
        return pop

    def counting_round(*args):
        nonlocal most_alive
        gc.collect()
        most_alive = max(most_alive, sum(ref() is not None for ref in populations))
        return round_of_updates(*args)

    generate, round_of_updates = harness.generate_population, harness._round_of_updates
    monkeypatch.setattr(harness, "generate_population", recording_generate)
    monkeypatch.setattr(harness, "_round_of_updates", counting_round)
    sweep(_wireless_config(), "eta1", [0.5, 1.0, 2.0], seeds=[0, 1, 2])
    # one population per seed, each built as its group starts and gone before the next
    assert len(populations) == 3 and most_alive == 1


def test_only_round_0_updates_are_kept_each_under_its_model():
    cfg = _wireless_config()
    pop = generate_population(cfg.population, cfg.seed)
    shared = harness._Learner(pop, cfg, memo=True)
    plain = harness._Learner(pop, cfg, memo=False)
    start, other = np.zeros(cfg.population.d), np.full(cfg.population.d, 0.5)
    for k, theta in ((0, start), (1, start), (0, other), (0, start)):
        for a, b in zip(harness._round_of_updates(shared, theta, k),
                        harness._round_of_updates(plain, theta, k)):
            assert np.array_equal(a, b)
    assert list(shared.first_round) == [start.tobytes(), other.tobytes()]
    assert plain.first_round is None and plain.losses is None


def test_shared_population_and_run_constants_are_read_only(monkeypatch):
    cfg = _wireless_config(rounds=3)
    pop = generate_population(cfg.population, cfg.seed)
    arrays = [getattr(data, name) for data in (pop.train, pop.test)
              for name in ("x", "y", "mask", "counts", "full_weights")]
    compute, radios, net = harness.build_environment(cfg, pop)
    arrays += [compute.c, compute.D, radios.h, radios.p_max]
    results = collections.defaultdict(list)
    for name in ("solve_sp1", "initial_delay"):
        def recording(*args, _solve=getattr(ural_module, name), _name=name):
            results[_name].append(_solve(*args))
            return results[_name][-1]

        monkeypatch.setattr(ural_module, name, recording)
    # a run solves SP1 and the starting delay once, not once per round; so does each sweep cell
    run(cfg)
    assert {name: len(found) for name, found in results.items()} == {
        "solve_sp1": 1, "initial_delay": 1}
    arrays.append(results["solve_sp1"][0].nu)
    sweep(cfg, "eta1", [0.5, 1.0, 2.0], seeds=[0, 1])
    assert {name: len(found) for name, found in results.items()} == {
        "solve_sp1": 7, "initial_delay": 7}
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_run_environment_dies_with_it(monkeypatch):
    # nothing keeps a run's profiles, or the plan built from them, once it returns
    refs = []

    def recording_build_environment(config, pop):
        env = build_environment(config, pop)
        refs.extend(map(weakref.ref, env))
        return env

    build_environment = harness.build_environment
    monkeypatch.setattr(harness, "build_environment", recording_build_environment)
    run(config_from_dict(json.loads((CONFIGS / "wireless.json").read_text())))
    gc.collect()
    assert len(refs) == 3 and [ref() for ref in refs] == [None] * 3


def test_a_nufm_contribution_is_summed_left_to_right(monkeypatch):
    # the builtin sum compensates float rounding from Python 3.12 on and reads fsum's value
    cfg = _base_config(rounds=2)
    n_train = generate_population(cfg.population, cfg.seed).train_ids.size
    cfg = dataclasses.replace(cfg, n_k=n_train)
    skewed = np.full(n_train, 0.1)
    skewed[:3] = 1e16, 1.0, -1e16
    local_update = harness.local_update
    monkeypatch.setattr(harness, "local_update",
                        lambda *args: (local_update(*args)[0], skewed.copy()))
    left_to_right = 0.0
    for s in skewed.tolist():
        left_to_right += s
    assert left_to_right != math.fsum(skewed)
    ms = run(cfg)
    assert all(len(m.selected) == n_train for m in ms)
    assert [m.contribution_sum for m in ms] == [left_to_right] * 2


def test_empty_selection_keeps_the_model(caplog):
    payload = json.loads((CONFIGS / "wireless.json").read_text())
    set_path(payload, "env.eta1", 1e4)
    set_path(payload, "rounds", 3)
    with caplog.at_level(logging.INFO, logger="fmlsim.harness"):
        ms = run(config_from_dict(payload))
    assert len(ms) == 3
    assert all(m.selected == () and m.contribution_sum == 0.0 for m in ms)
    # theta never moves, so every round evaluates the same model
    assert len({m.train_loss for m in ms}) == 1
    skipped = [r.getMessage() for r in caplog.records
               if "empty selection, aggregation skipped" in r.getMessage()]
    assert skipped == [f"round {k}: empty selection, aggregation skipped" for k in range(3)]


def test_an_all_train_run_evaluates_its_losses_once_per_round(monkeypatch):
    plans = []

    def recording_adapted_loss(plan, theta):
        plans.append(plan)
        return adapted_loss(plan, theta)

    adapted_loss = harness.adapted_loss
    monkeypatch.setattr(harness, "adapted_loss", recording_adapted_loss)
    for family in ("quadratic-regression", "logistic-regression"):
        plans.clear()
        cfg = _base_config(rounds=3, population=PopulationSpec(n=12, d=3, family=family,
                                                               train_fraction=1.0))
        ms = run(cfg)
        pop = generate_population(cfg.population, cfg.seed)
        assert pop.test is pop.train and len(plans) == 3
        # the test set is the training set: the plan holds it once, in one split
        plan = plans[0]
        if plan.form is not None:
            assert [a.shape[0] for a in plan.form] == [1, 1, 1]
        else:
            assert plan.x.shape[0] == pop.train.counts.sum() and plan.split_start.tolist() == [0]
        assert all(m.train_loss == m.test_loss for m in ms)


def test_metrics_csv_shape():
    ms = run(_base_config(rounds=2))
    lines = to_csv(ms).splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("round,train_loss,test_loss")
    summary = metrics_summary(ms)
    assert summary["rounds"] == 2


def test_every_table_is_written_from_its_dataclass_fields():
    # a header of the field names; floats in repr, tuples joined by ';', the rest with str
    metrics = [harness.RoundMetrics(3, 0.1, 1 / 3, 2.0, 0.0, 1e-300, -5.5, (4, 17, 2), 7),
               harness.RoundMetrics(4, 0.1, 0.2, 0.0, 0.0, 0.0, 0.0, ())]
    assert to_csv(metrics) == ("round,train_loss,test_loss,contribution_sum,energy,time,"
                               "objective,selected,ives_iterations\n"
                               "3,0.1,0.3333333333333333,2.0,0.0,1e-300,-5.5,4;17;2,7\n"
                               "4,0.1,0.2,0.0,0.0,0.0,0.0,,0\n")
    cells, _ = sweep(_base_config(rounds=2), "alpha", [0.03], seeds=[1, 2])
    header, row = to_csv(cells).splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(harness.SweepCell)] == [
        "parameter", "value", "mean_loss", "sd_loss", "mean_energy", "sd_energy",
        "mean_time", "sd_time", "mean_objective", "sd_objective", "seeds"]
    assert row.startswith("alpha,0.03,") and row.endswith(",0.0,0.0,0.0,0.0,0.0,0.0,1;2")


def test_config_dict_roundtrip():
    cfg = _wireless_config()
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg


def _non_default_config():
    cfg = ExperimentConfig(
        mode="wireless", rounds=7, n_k=3, selection="uniform", allocation="greedy",
        seed=11, batch_size=2,
        population=PopulationSpec(
            n=9, d=4, family="logistic-regression", clusters=3, classes_per_device=1,
            size_mu=6.5, size_sigma=2.5, size_min=2, param_spread=0.7,
            cov_spread=0.2, label_noise=0.3, train_fraction=0.6,
        ),
        hyper=MetaHyper(alpha=0.01, beta=0.02, tau=2, lambda1=0.4, lambda2=0.6,
                        hv_epsilon=1e-3, mode="hessian-free"),
        env=EnvironmentSpec(
            M=5, B=2.0, N0=0.2, S=1.5, eta1=0.5, eta2=1.5, h_range=(0.2, 0.9),
            interference_range=(0.1, 0.7), p_max_range=(0.1, 0.9),
            nu_max_range=(0.1, 1.9), c_range=(0.6, 1.4), iota_range=(1.1, 2.9),
        ),
    )
    # every field, nested ones included, differs from its default
    for obj in (cfg, cfg.population, cfg.hyper, cfg.env):
        for f in dataclasses.fields(obj):
            assert getattr(obj, f.name) != getattr(type(obj)(), f.name), f.name
    return cfg


@pytest.mark.parametrize("source", ["nufm.json", "wireless.json", "non-default"])
def test_config_json_roundtrip(source):
    if source == "non-default":
        cfg = _non_default_config()
    else:
        cfg = config_from_dict(json.loads((CONFIGS / source).read_text()))
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_a_drawn_batch_run_draws_each_step_from_its_keyed_stream(monkeypatch):
    seen = []
    draw = metacore.draw_role_batches

    def recording_draw(g, plan):
        seen.append(g.bit_generator.state)
        return draw(g, plan)

    cfg = _base_config(rounds=10, seed=2**32 + 5, hyper=MetaHyper(alpha=0.03, beta=0.02, tau=3))
    whole = run(cfg)
    monkeypatch.setattr(metacore, "draw_role_batches", recording_draw)
    assert run(cfg) == whole
    assert seen == [rng.stream(cfg.seed, k, t, rng.ROLE_BATCH).bit_generator.state
                    for k in range(10) for t in range(3)]


@pytest.mark.parametrize("config, calls, per_round", [
    # centers and split; the batches draw from a round table
    (_base_config(), 2, 0),
    # and a uniform selection's own stream each round
    (_base_config(selection="uniform"), 2, 1),
    # centers, split and the environment, and a random allocation's stream each round
    (_wireless_config(allocation="random"), 3, 1),
])
def test_batch_and_device_streams_are_seeded_as_families(monkeypatch, config, calls, per_round):
    counted = collections.Counter()
    stream = rng.stream

    def counting_stream(*key):
        counted["calls"] += 1
        return stream(*key)

    monkeypatch.setattr(rng, "stream", counting_stream)
    for rounds, n in ((3, 12), (9, 40)):
        counted.clear()
        population = dataclasses.replace(config.population, n=n)
        run(dataclasses.replace(config, rounds=rounds, population=population))
        assert counted["calls"] == calls + per_round * rounds, (rounds, n)
    for n in (5, 50):
        counted.clear()
        generate_population(PopulationSpec(n=n, d=3), 1)
        assert counted["calls"] == 2
