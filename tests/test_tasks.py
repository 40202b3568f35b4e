import numpy as np
import pytest

from fmlsim.errors import ConfigurationError
from fmlsim.metacore import (
    Batch,
    DeviceArrays,
    LogisticModel,
    QuadraticModel,
    grad_estimate,
    hessian_estimate,
)
from fmlsim.oracles import (
    empirical_gamma_g,
    gradient_noise_std,
    hessian_noise_std,
    population_constants,
)
from fmlsim.tasks import PopulationSpec, generate_population


def _device_data(data: DeviceArrays, row: int) -> Batch:
    """Row ``row`` of a population as a single-device dataset of its real samples."""
    mask = data.mask[row]
    return Batch(data.x[row][mask], data.y[row][mask])


def test_population_is_reproducible():
    spec = PopulationSpec(n=12, d=3)
    a = generate_population(spec, 42)
    b = generate_population(spec, 42)
    assert np.array_equal(a.train_ids, b.train_ids)
    for da, db in ((a.train, b.train), (a.test, b.test)):
        assert np.array_equal(da.x, db.x)
        assert np.array_equal(da.y, db.y)
        assert np.array_equal(da.counts, db.counts)


def test_population_changes_with_seed():
    a = generate_population(PopulationSpec(n=5, d=3, train_fraction=1.0), 0)
    b = generate_population(PopulationSpec(n=5, d=3, train_fraction=1.0), 1)
    assert not np.array_equal(_device_data(a.train, 0).x, _device_data(b.train, 0).x)


def test_train_test_split_fractions():
    pop = generate_population(PopulationSpec(n=40, d=2, train_fraction=0.5), 3)
    assert pop.train.counts.size == pop.train_ids.size == 20
    assert pop.test.counts.size == 20
    assert np.all(np.diff(pop.train_ids) > 0)


def test_devices_do_not_depend_on_the_split():
    # the split is drawn from its own stream, so each training row at 0.5
    # is that device's row of the full population
    half = generate_population(PopulationSpec(n=20, d=3, train_fraction=0.5), 4)
    full = generate_population(PopulationSpec(n=20, d=3, train_fraction=1.0), 4)
    assert np.array_equal(full.train_ids, np.arange(20))
    s_max = half.train.x.shape[1]
    rows = full.train.take(half.train_ids)
    assert np.array_equal(half.train.counts, rows.counts)
    assert np.array_equal(half.train.x, rows.x[:, :s_max])
    assert np.array_equal(half.train.y, rows.y[:, :s_max])
    assert not rows.mask[:, s_max:].any()


def test_no_test_device_means_test_is_train():
    pop = generate_population(PopulationSpec(n=6, d=2, train_fraction=1.0), 0)
    assert pop.test is pop.train


def test_every_device_has_at_least_min_samples():
    spec = PopulationSpec(n=30, d=2, size_mu=1.0, size_sigma=8.0, size_min=1,
                          train_fraction=1.0)
    pop = generate_population(spec, 7)
    # two classes per device, each floored at size_min
    assert np.all(pop.train.counts >= 2 * spec.size_min)


def test_logistic_family_produces_sign_labels():
    pop = generate_population(
        PopulationSpec(n=6, d=3, family="logistic-regression", train_fraction=1.0), 1
    )
    assert pop.train.model_class is LogisticModel
    assert set(np.unique(pop.train.y[pop.train.mask])) <= {-1.0, 1.0}


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        PopulationSpec(family="deep-cnn")


def test_empty_training_split_rejected():
    with pytest.raises(ConfigurationError, match="^train_fraction"):
        PopulationSpec(n=20, train_fraction=0.0)
    with pytest.raises(ConfigurationError, match="^train_fraction"):
        PopulationSpec(n=3, train_fraction=0.1)
    assert PopulationSpec(n=20, train_fraction=0.05).n_train == 1


def test_gradient_noise_std_zero_for_identical_samples():
    x = np.ones((5, 2))
    y = np.ones(5)
    data = DeviceArrays(QuadraticModel, [Batch(x, y)])
    assert gradient_noise_std(data, np.zeros(2)).tolist() == [0.0]
    assert hessian_noise_std(data, np.zeros(2)).tolist() == [0.0]


def test_noise_stds_match_direct_computation():
    g = np.random.default_rng(5)
    m = Batch(g.normal(size=(20, 3)), g.normal(size=20))
    theta = g.normal(size=3)
    grads = QuadraticModel.per_sample_grad(theta, m.x, m.y)
    expect = np.sqrt(np.mean(np.sum((grads - grads.mean(0)) ** 2, axis=1)))
    assert gradient_noise_std(DeviceArrays(QuadraticModel, [m]), theta) == pytest.approx([expect])


def test_empirical_gamma_g_two_devices():
    data = generate_population(PopulationSpec(n=2, d=3, train_fraction=1.0), 11).train
    theta = np.zeros(3)
    grads = [grad_estimate(data.model_class, theta, _device_data(data, row)) for row in (0, 1)]
    gap = np.linalg.norm(grads[0] - grads[1])
    assert empirical_gamma_g(data, theta) == pytest.approx(gap)


def test_population_constants_bound_device_hessians():
    data = generate_population(PopulationSpec(n=8, d=3, train_fraction=1.0), 2).train
    c = population_constants(data, alpha=0.05)
    assert c.rho == 0.0  # quadratic family
    for row in range(data.counts.size):
        h = hessian_estimate(data.model_class, np.zeros(3), _device_data(data, row))
        assert np.linalg.norm(h, 2) <= c.L + 1e-12
    assert c.sigma_G >= 0 and c.sigma_H >= 0 and c.gamma_H >= 0


def test_population_constants_logistic_has_positive_rho():
    data = generate_population(
        PopulationSpec(n=4, d=3, family="logistic-regression", train_fraction=1.0), 2
    ).train
    assert population_constants(data, alpha=0.05).rho > 0
