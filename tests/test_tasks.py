import numpy as np
import pytest

from fmlsim.errors import InvalidInputError
from fmlsim.metacore import LogisticModel, QuadraticModel
from fmlsim.tasks import (
    ROLE_TEST,
    ROLE_TRAIN,
    PopulationSpec,
    empirical_gamma_g,
    generate_population,
    gradient_noise_std,
    hessian_noise_std,
    population_constants,
)


def test_population_is_reproducible():
    spec = PopulationSpec(n=12, d=3)
    a = generate_population(spec, 42)
    b = generate_population(spec, 42)
    for da, db in zip(a, b):
        assert np.array_equal(da.model.x, db.model.x)
        assert np.array_equal(da.model.y, db.model.y)
        assert da.role == db.role


def test_population_changes_with_seed():
    a = generate_population(PopulationSpec(n=5, d=3), 0)
    b = generate_population(PopulationSpec(n=5, d=3), 1)
    assert not np.array_equal(a[0].model.x, b[0].model.x)


def test_train_test_split_fractions():
    devices = generate_population(PopulationSpec(n=40, d=2, train_fraction=0.5), 3)
    roles = [d.role for d in devices]
    assert roles.count(ROLE_TRAIN) == 20
    assert roles.count(ROLE_TEST) == 20


def test_every_device_has_at_least_min_samples():
    spec = PopulationSpec(n=30, d=2, size_mu=1.0, size_sigma=8.0, size_min=1)
    devices = generate_population(spec, 7)
    # two classes per device, each floored at size_min
    assert all(d.n_samples >= 2 * spec.size_min for d in devices)


def test_logistic_family_produces_sign_labels():
    devices = generate_population(
        PopulationSpec(n=6, d=3, family="logistic-regression"), 1
    )
    for d in devices:
        assert isinstance(d.model, LogisticModel)
        assert set(np.unique(d.model.y)) <= {-1.0, 1.0}


def test_unknown_family_rejected():
    with pytest.raises(InvalidInputError):
        PopulationSpec(family="deep-cnn")


def test_gradient_noise_std_zero_for_identical_samples():
    x = np.ones((5, 2))
    y = np.ones(5)
    m = QuadraticModel(x, y)
    assert gradient_noise_std(m, np.zeros(2)) == 0.0
    assert hessian_noise_std(m, np.zeros(2)) == 0.0


def test_noise_stds_match_direct_computation():
    g = np.random.default_rng(5)
    m = QuadraticModel(g.normal(size=(20, 3)), g.normal(size=20))
    theta = g.normal(size=3)
    grads = m.per_sample_grad(theta, m.x, m.y)
    expect = np.sqrt(np.mean(np.sum((grads - grads.mean(0)) ** 2, axis=1)))
    assert gradient_noise_std(m, theta) == pytest.approx(expect)


def test_empirical_gamma_g_two_devices():
    devices = generate_population(PopulationSpec(n=2, d=3), 11)
    theta = np.zeros(3)
    gap = np.linalg.norm(devices[0].model.grad(theta) - devices[1].model.grad(theta))
    assert empirical_gamma_g(devices, theta) == pytest.approx(gap)


def test_population_constants_bound_device_hessians():
    devices = generate_population(PopulationSpec(n=8, d=3), 2)
    c = population_constants(devices, alpha=0.05)
    assert c.rho == 0.0  # quadratic family
    for d in devices:
        h = d.model.hessian(np.zeros(3))
        assert np.linalg.norm(h, 2) <= c.L + 1e-12
    assert c.sigma_G >= 0 and c.sigma_H >= 0 and c.gamma_H >= 0


def test_population_constants_logistic_has_positive_rho():
    devices = generate_population(
        PopulationSpec(n=4, d=3, family="logistic-regression"), 2
    )
    assert population_constants(devices, alpha=0.05).rho > 0
