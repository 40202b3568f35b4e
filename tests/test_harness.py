import collections
import dataclasses
import gc
import json
import logging
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import fmlsim.ural as ural_module
from fmlsim import harness
from fmlsim.errors import ConfigurationError, InvalidInputError, NumericalError
from fmlsim.harness import (
    ExperimentConfig,
    config_from_dict,
    greedy_frequency,
    greedy_power,
    metrics_summary,
    metrics_to_csv,
    run,
    set_path,
    sweep,
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
    with pytest.raises(InvalidInputError, match="beta must be finite"):
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


def test_metrics_csv_shape():
    ms = run(_base_config(rounds=2))
    lines = metrics_to_csv(ms).splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("round,train_loss,test_loss")
    summary = metrics_summary(ms)
    assert summary["rounds"] == 2


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
