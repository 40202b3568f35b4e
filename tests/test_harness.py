import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fmlsim.errors import ConfigurationError
from fmlsim.harness import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    greedy_frequency,
    greedy_power,
    lambda_floors,
    metrics_summary,
    metrics_to_csv,
    run_nufm,
    run_wireless,
    sigma_f_squared,
    sweep,
    theorem1_bound,
)
from fmlsim.metacore import MetaHyper, QuadraticModel, SmoothnessConstants
from fmlsim.tasks import Device, PopulationSpec, generate_population, population_constants
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
    ms = run_nufm(cfg)
    assert ms[0].train_loss == pytest.approx(ms[1].train_loss)
    assert ms[0].test_loss == pytest.approx(ms[1].test_loss)


def test_run_nufm_is_deterministic():
    cfg = _base_config()
    a = run_nufm(cfg)
    b = run_nufm(cfg)
    for ma, mb in zip(a, b):
        assert ma == mb


def test_selection_modes_differ_but_share_updates():
    nufm = run_nufm(_base_config(selection="nufm"))
    unif = run_nufm(_base_config(selection="uniform"))
    assert nufm[0].selected != unif[0].selected or nufm != unif


def test_selected_sets_have_requested_size():
    ms = run_nufm(_base_config(n_k=4))
    assert all(len(m.selected) == 4 for m in ms)


def test_invalid_config_rejected_before_round_zero():
    with pytest.raises(ConfigurationError):
        _base_config(rounds=0)
    with pytest.raises(ConfigurationError):
        _base_config(n_k=100)
    with pytest.raises(ConfigurationError):
        _base_config(selection="topk")


def test_training_reduces_loss():
    cfg = _base_config(rounds=15, population=PopulationSpec(n=20, d=3))
    ms = run_nufm(cfg)
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
        ms = run_wireless(_wireless_config(allocation=alloc))
        for m in ms:
            assert m.energy >= 0 and m.time >= 0
            assert np.isfinite(m.objective)


def test_run_wireless_deterministic():
    cfg = _wireless_config(allocation="ural")
    a = run_wireless(cfg)
    assert run_wireless(cfg) == a


def test_ural_selects_every_profitable_device_with_generous_resources():
    # plenty of RBs and power: the matching should admit all positive-utility devices
    cfg = _wireless_config(
        env=EnvironmentSpec(M=20,
                            p_max_range=(5.0, 6.0), nu_max_range=(0.5, 2.0),
                            h_range=(0.8, 1.0), interference_range=(0.0, 0.1)),
    )
    ms = run_wireless(cfg)
    n_train = sum(
        1 for d in generate_population(cfg.population, cfg.seed) if d.role == "train"
    )
    assert all(len(m.selected) == n_train for m in ms)


def test_greedy_frequency_closed_form_via_grid():
    cp = ComputeProfile(c=1.0, iota=2.0, D=2, nu_max=5.0)
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.1,), S=1.0,
                        eta1=1.3, eta2=0.9)
    nu = greedy_frequency(cp, net)
    grid = np.linspace(1e-3, cp.nu_max, 30000)
    cost = net.eta1 * 0.5 * cp.iota * cp.c * cp.D * grid ** 2 \
        + net.eta2 * cp.c * cp.D / grid
    assert nu == pytest.approx(grid[np.argmin(cost)], abs=1e-3)


def test_greedy_power_matches_dense_grid():
    radio = RadioProfile(h=0.7, p_max=1.0)
    net = NetworkConfig(M=1, B=1.0, N0=0.1, interference=(0.2,), S=1.0)
    p = greedy_power(radio, net, 0)
    grid = np.linspace(1e-6, radio.p_max, 50000)
    rate = net.B * np.log2(1 + radio.h * grid / (net.interference[0] + net.B * net.N0))
    cost = (net.eta1 * grid + net.eta2) * net.S / rate
    assert p == pytest.approx(grid[np.argmin(cost)], abs=1e-3)


def test_sigma_f_squared_symbolic_reevaluation():
    c = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.0, zeta=1.5,
                            sigma_G=0.7, sigma_H=0.4, gamma_G=0.0, gamma_H=0.0)
    d = dp = dd = 8
    a = 1.0 / dp + (0.1 * 2.0) ** 2 / d
    expect = (6 * 0.7 ** 2 * (1 + 0.2) ** 2 * a
              + 3 * (0.1 * 1.5 * 0.4) ** 2 / dd
              + 6 * (0.1 * 0.7 * 0.4) ** 2 / dd * a)
    assert sigma_f_squared(c, d, dp, dd) == pytest.approx(expect)


def test_lambda_floors_positive():
    c = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.0, zeta=1.5,
                            sigma_G=0.7, sigma_H=0.4, gamma_G=0.3, gamma_H=0.2)
    l1, l2 = lambda_floors(c, MetaHyper(alpha=0.1, beta=0.05), 1.0)
    assert l1 > 0 and l2 > 0


def _identical_population(seed=0, n=4):
    g = np.random.default_rng(seed)
    x = g.normal(size=(12, 3))
    y = x @ np.ones(3)
    return [
        Device(device_id=i, model=QuadraticModel(x, y), role="train",
               ground_truths=np.ones((1, 3)), feature_scales=np.ones(3))
        for i in range(n)
    ]


def test_theorem1_bound_tight_regime():
    # identical devices, full batches, noise constants zero: rhs must be
    # nonnegative and the exact decrease must dominate it
    devices = _identical_population()
    c = dataclasses.replace(
        population_constants(devices, 0.05), sigma_G=0.0, sigma_H=0.0
    )
    beta = 1.0 / (2.0 * c.L_F)
    rep = theorem1_bound(devices, np.full(3, 2.0), MetaHyper(alpha=0.05, beta=beta),
                         c, {0, 1, 2, 3}, mc=2)
    assert rep.rhs >= 0.0
    assert rep.lhs >= rep.rhs


def test_theorem1_bound_vanishes_at_critical_stepsize():
    devices = _identical_population()
    c = dataclasses.replace(
        population_constants(devices, 0.05), sigma_G=0.0, sigma_H=0.0
    )
    beta = 2.0 / c.L_F
    rep = theorem1_bound(devices, np.full(3, 2.0), MetaHyper(alpha=0.05, beta=beta),
                         c, {0, 1, 2, 3}, mc=2)
    assert rep.rhs <= 1e-12


def test_theorem1_bound_rejects_multi_step():
    devices = _identical_population()
    c = population_constants(devices, 0.05)
    with pytest.raises(Exception):
        theorem1_bound(devices, np.zeros(3),
                       MetaHyper(alpha=0.05, beta=0.01, tau=2), c, {0}, mc=2)


def test_sweep_degenerate_single_cell():
    cfg = _wireless_config(rounds=2)
    cells, runs = sweep(cfg, "eta1", [1.0])
    assert len(cells) == 1 and len(runs) == 1
    assert runs[(1.0, cfg.seed)] == run_wireless(cfg)


def test_sweep_unknown_parameter():
    with pytest.raises(ConfigurationError):
        sweep(_wireless_config(), "bandwidth_hz", [1.0])


def test_metrics_csv_shape():
    ms = run_nufm(_base_config(rounds=2))
    lines = metrics_to_csv(ms).splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("round,train_loss,test_loss")
    summary = metrics_summary(ms)
    assert summary["rounds"] == 2


def test_config_dict_roundtrip():
    cfg = _wireless_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


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
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
