import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlsim import rng
from fmlsim.errors import ConfigurationError, InvalidInputError, NumericalError
from fmlsim.metacore import (
    Batch,
    DeviceArrays,
    LogisticModel,
    MetaHyper,
    QuadraticModel,
    SmoothnessConstants,
    batched_meta_gradient,
    draw_batch,
    draw_batch_weights,
    exact_meta_gradient,
    finite_difference_hvp,
    grad_estimate,
    hessian_estimate,
    local_update,
    meta_gradient,
)


def _quad(x, y):
    return QuadraticModel(np.asarray(x, float), np.asarray(y, float))


def test_loss_value_zero_residual():
    m = _quad([[1.0]], [0.0])
    assert m.loss(np.array([0.0])) == 0.0


def test_loss_value_half_squared_residual():
    m = _quad([[1.0]], [1.0])
    assert m.loss(np.array([0.0])) == pytest.approx(0.5)


def test_logistic_loss_at_zero_is_ln2():
    m = LogisticModel(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    assert m.loss(np.array([0.0])) == pytest.approx(np.log(2.0))


def test_grad_estimate_single_sample():
    m = _quad([[1.0]], [1.0])
    g = grad_estimate(m, np.array([0.0]), m.full_batch())
    assert g == pytest.approx([-1.0])


def test_grad_estimate_matches_analytic_full_dataset():
    g = np.random.default_rng(0)
    x = g.normal(size=(30, 4))
    y = g.normal(size=30)
    m = _quad(x, y)
    theta = g.normal(size=4)
    analytic = x.T @ (x @ theta - y) / 30
    assert np.allclose(grad_estimate(m, theta, m.full_batch()), analytic, atol=1e-12)


def test_logistic_grad_zero_by_symmetry():
    x = np.array([[1.0, 2.0], [-1.0, -2.0]])
    y = np.array([1.0, -1.0])
    m = LogisticModel(x, y)
    # both samples contribute identical gradients of opposite sign at theta=0
    g = grad_estimate(m, np.zeros(2), m.full_batch())
    assert np.allclose(g, [-0.5, -1.0])  # y*x identical for both samples


def test_hessian_is_x_squared():
    m = _quad([[2.0]], [0.0])
    h = hessian_estimate(m, np.array([0.0]), m.full_batch())
    assert np.allclose(h, [[4.0]])


def test_quadratic_hessian_independent_of_theta():
    g = np.random.default_rng(1)
    m = _quad(g.normal(size=(10, 3)), g.normal(size=10))
    h1 = hessian_estimate(m, g.normal(size=3), m.full_batch())
    h2 = hessian_estimate(m, g.normal(size=3), m.full_batch())
    assert np.allclose(h1, h2)
    assert np.allclose(h1, h1.T)


def test_logistic_hessian_matches_finite_differences():
    g = np.random.default_rng(2)
    x = g.normal(size=(20, 3))
    y = np.where(g.uniform(size=20) < 0.5, 1.0, -1.0)
    m = LogisticModel(x, y)
    theta = g.normal(size=3)
    h = hessian_estimate(m, theta, m.full_batch())
    eps = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        col = (m.grad(theta + eps * e) - m.grad(theta - eps * e)) / (2 * eps)
        assert np.allclose(h[:, k], col, atol=1e-6)


def test_dimension_mismatch_raises():
    m = _quad([[1.0, 0.0]], [0.0])
    with pytest.raises(InvalidInputError):
        grad_estimate(m, np.array([0.0]), Batch(np.ones((1, 1)), np.zeros(1)))


def test_meta_gradient_alpha_zero_is_fedavg():
    g = np.random.default_rng(3)
    m = _quad(g.normal(size=(12, 3)), g.normal(size=12))
    theta = g.normal(size=3)
    b = m.full_batch()
    hyper = MetaHyper(alpha=0.0, beta=0.1)
    out = meta_gradient(m, theta, b, b, b, hyper)
    assert np.allclose(out, m.grad(theta))


def test_meta_gradient_scalar_closed_form():
    # f(theta) = theta^2 from the single sample (x=sqrt(2), y=0): A=2, b=0
    m = _quad([[np.sqrt(2.0)]], [0.0])
    b = m.full_batch()
    hyper = MetaHyper(alpha=0.25, beta=0.1)
    out = meta_gradient(m, np.array([1.0]), b, b, b, hyper)
    # (1 - alpha*A) * A * (theta - alpha*A*theta) = 0.5 * 2 * 0.5 = 0.5
    assert out == pytest.approx([0.5], rel=1e-12)


def test_hessian_free_mode_converges_to_hessian_mode():
    g = np.random.default_rng(4)
    x = g.normal(size=(25, 3))
    y = np.where(g.uniform(size=25) < 0.5, 1.0, -1.0)
    m = LogisticModel(x, y)
    theta = g.normal(size=3)
    b = m.full_batch()
    exact = meta_gradient(m, theta, b, b, b, MetaHyper(alpha=0.1, beta=0.1))
    errs = []
    for eps in (1e-2, 5e-3):
        approx = meta_gradient(
            m, theta, b, b, b, MetaHyper(alpha=0.1, beta=0.1,
                                         mode="hessian-free", hv_epsilon=eps)
        )
        errs.append(np.linalg.norm(approx - exact))
    # central differences: quadratic error decay, ratio about 4
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_finite_difference_hvp_exact_on_quadratic():
    g = np.random.default_rng(5)
    m = _quad(g.normal(size=(10, 3)), g.normal(size=10))
    theta = g.normal(size=3)
    v = g.normal(size=3)
    hvp = finite_difference_hvp(m.grad, theta, v, 1e-4)
    assert np.allclose(hvp, m.hessian(theta) @ v, atol=1e-9)


def test_exact_meta_gradient_alpha_zero():
    g = np.random.default_rng(6)
    m = _quad(g.normal(size=(10, 2)), g.normal(size=10))
    theta = g.normal(size=2)
    assert np.allclose(exact_meta_gradient(m, theta, 0.0), m.grad(theta))


def test_exact_meta_gradient_matches_full_batch_estimator():
    g = np.random.default_rng(7)
    for _ in range(10):
        m = _quad(g.normal(size=(15, 3)), g.normal(size=15))
        theta = g.normal(size=3)
        alpha = float(g.uniform(0.0, 0.3))
        b = m.full_batch()
        est = meta_gradient(m, theta, b, b, b, MetaHyper(alpha=alpha, beta=0.1))
        ref = exact_meta_gradient(m, theta, alpha)
        assert np.linalg.norm(est - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def _step_streams(seed, k):
    def step_rng(step):
        return rng.stream(seed, k, step, rng.ROLE_BATCH)
    return step_rng


def _one_device(m):
    return DeviceArrays([m])


def test_local_update_zero_stepsize_keeps_theta():
    g = np.random.default_rng(8)
    m = _quad(g.normal(size=(10, 3)), g.normal(size=10))
    theta0 = g.normal(size=3)
    hyper = MetaHyper(alpha=0.1, beta=0.0, tau=1)
    theta, u = local_update(_one_device(m), theta0, hyper, np.array([4]), _step_streams(0, 0))
    assert np.allclose(theta, theta0[None, :])
    assert np.all(np.isfinite(u))


def test_local_update_stationary_point():
    g = np.random.default_rng(9)
    x = g.normal(size=(10, 3))
    theta_star = g.normal(size=3)
    m = _quad(x, x @ theta_star)  # zero residual at theta_star
    hyper = MetaHyper(alpha=0.1, beta=0.05)
    data = _one_device(m)
    theta, u = local_update(data, theta_star, hyper, data.counts, _step_streams(0, 0))
    assert np.allclose(theta, theta_star[None, :])
    assert u[0] == pytest.approx(0.0, abs=1e-20)


def test_local_update_two_steps_equals_chained_single_steps():
    g = np.random.default_rng(10)
    data = DeviceArrays([
        _quad(g.normal(size=(n, 3)), g.normal(size=n)) for n in (12, 5, 1)
    ])
    sizes = data.batch_sizes(4)
    theta0 = g.normal(size=3)
    h2 = MetaHyper(alpha=0.05, beta=0.02, tau=2)
    theta_two, _ = local_update(data, theta0, h2, sizes, _step_streams(1, 0))

    h1 = MetaHyper(alpha=0.05, beta=0.02, tau=1)
    streams = _step_streams(1, 0)
    mid, _ = local_update(data, theta0, h1, sizes, streams)
    # the second chained step replays the tau=2 run's step-1 stream
    end, _ = local_update(data, mid, h1, sizes, lambda t: streams(1))
    assert np.allclose(theta_two, end)


def test_local_update_oversized_batch_rejected():
    m = _quad(np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ConfigurationError):
        local_update(_one_device(m), np.zeros(1), MetaHyper(alpha=0.1, beta=0.1),
                     np.array([10]), _step_streams(0, 0))


def test_local_update_non_finite_raises():
    m = _quad([[1e200]], [0.0])
    with pytest.raises(NumericalError, match="non-finite"):
        local_update(_one_device(m), np.ones(1), MetaHyper(alpha=0.1, beta=0.1),
                     np.array([1]), _step_streams(0, 0))


def _reference_local_update(data, models, theta0, hyper, sizes, step_rng):
    """Per-device loop over the reference meta_gradient on the engine's batches.

    Returns the parameters, the scores and the scores' scale: the sum of the
    absolute values of the terms added into each score.
    """
    thetas = np.tile(theta0, (len(models), 1))
    u = np.zeros(len(models))
    scale = np.zeros(len(models))
    for t in range(hyper.tau):
        w = draw_batch_weights(step_rng(t), data.mask, sizes)
        for i, m in enumerate(models):
            batches = [Batch(data.x[i][w[r, i] > 0], data.y[i][w[r, i] > 0])
                       for r in range(3)]
            assert all(b.size == sizes[i] for b in batches)
            g = meta_gradient(m, thetas[i], *batches, hyper)
            gn = np.linalg.norm(g)
            penalty = 2.0 * (hyper.lambda1 + hyper.lambda2 / np.sqrt(sizes[i]))
            u[i] += gn * gn - penalty * gn
            scale[i] += gn * gn + penalty * gn
            thetas[i] -= hyper.beta * g
    return thetas, u, scale


def _mixed_population(g, family, d=3):
    models = []
    for n in (1, 2, 4, 7, 13):
        x = g.normal(size=(n, d))
        if family is LogisticModel:
            models.append(LogisticModel(x, np.where(g.uniform(size=n) < 0.5, 1.0, -1.0)))
        else:
            models.append(QuadraticModel(x, g.normal(size=n)))
    return models


@pytest.mark.parametrize("family", [QuadraticModel, LogisticModel])
@pytest.mark.parametrize("mode", ["hessian", "first-order", "hessian-free"])
@pytest.mark.parametrize("batch_size", [4, None])
@pytest.mark.parametrize("tau", [1, 2])
def test_batched_local_update_matches_per_device_reference(family, mode, batch_size, tau):
    # sizes 1, 2, 4, 7, 13: with batch 4, devices of 1, 2 and 4 samples run
    # full-batch and the others subsample; with None every device is full
    g = np.random.default_rng(11)
    models = _mixed_population(g, family)
    data = DeviceArrays(models)
    sizes = data.batch_sizes(batch_size)
    theta0 = g.normal(size=3)
    hyper = MetaHyper(alpha=0.1, beta=0.05, tau=tau, lambda1=0.3, lambda2=0.7, mode=mode)
    theta, u = local_update(data, theta0, hyper, sizes, _step_streams(5, 3))
    ref_theta, ref_u, ref_scale = _reference_local_update(
        data, models, theta0, hyper, sizes, _step_streams(5, 3)
    )
    # the step moves theta by beta * g; compare the meta-gradient parts
    step, ref_step = theta0 - theta, theta0 - ref_theta
    assert np.all(np.linalg.norm(step - ref_step, axis=1)
                  <= 1e-12 * np.linalg.norm(ref_step, axis=1))
    # a score is a difference of two terms, so its error is measured against
    # the terms' size; cancellation alone would inflate |u - ref_u| / |ref_u|
    assert np.all(np.abs(u - ref_u) <= 1e-12 * ref_scale)


@pytest.mark.parametrize("family", [QuadraticModel, LogisticModel])
@pytest.mark.parametrize("mode", ["hessian", "first-order", "hessian-free"])
def test_batched_meta_gradient_matches_reference_on_identical_batches(family, mode):
    g = np.random.default_rng(12)
    models = _mixed_population(g, family)
    data = DeviceArrays(models)
    sizes = data.batch_sizes(3)
    weights = draw_batch_weights(rng.stream(0, 1, 0, rng.ROLE_BATCH), data.mask, sizes)
    theta = g.normal(size=(len(models), 3))
    hyper = MetaHyper(alpha=0.1, beta=0.05, mode=mode)
    got = batched_meta_gradient(data, theta, weights, hyper)
    for i, m in enumerate(models):
        batches = [Batch(data.x[i][weights[r, i] > 0], data.y[i][weights[r, i] > 0])
                   for r in range(3)]
        want = meta_gradient(m, theta[i], *batches, hyper)
        assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)


def test_device_arrays_pad_and_mask():
    a = _quad([[1.0, 2.0]], [3.0])
    b = _quad([[4.0, 5.0], [6.0, 7.0]], [8.0, 9.0])
    data = DeviceArrays([a, b])
    assert data.x.shape == (2, 2, 2) and data.y.shape == (2, 2)
    assert data.mask.tolist() == [[True, False], [True, True]]
    assert data.x[0, 1].tolist() == [0.0, 0.0] and data.y[0, 1] == 0.0
    assert data.counts.tolist() == [1, 2]
    assert data.batch_sizes(None).tolist() == [1, 2]
    assert data.batch_sizes(1).tolist() == [1, 1]
    with pytest.raises(InvalidInputError):
        DeviceArrays([a, LogisticModel(np.ones((1, 2)), np.ones(1))])


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    batch=st.one_of(st.none(), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 500),
    step=st.integers(0, 3),
)
def test_batch_draw_properties(counts, batch, seed, k, step):
    mask = np.arange(max(counts)) < np.array(counts)[:, None]
    sizes = np.array(counts) if batch is None else np.minimum(batch, counts)
    w = draw_batch_weights(rng.stream(seed, k, step, rng.ROLE_BATCH), mask, sizes)
    assert w.shape == (3,) + mask.shape
    picked = w > 0
    # exactly min(batch, n_i) distinct real samples per device and role
    assert np.array_equal(picked.sum(axis=-1), np.broadcast_to(sizes, (3, len(counts))))
    assert not np.any(picked & ~mask)
    assert np.allclose(w.sum(axis=-1), 1.0)
    # a pure function of (seed, round, step)
    again = draw_batch_weights(rng.stream(seed, k, step, rng.ROLE_BATCH), mask, sizes)
    assert np.array_equal(w, again)


def test_draw_batch_without_replacement():
    m = _quad(np.arange(6, dtype=float).reshape(6, 1), np.zeros(6))
    b = draw_batch(m, np.random.default_rng(0), 6)
    assert sorted(b.x.ravel().tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_smoothness_constant_formula():
    c = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.5, zeta=3.0)
    assert c.L_F == pytest.approx((1 + 0.1 * 2.0) ** 2 * 2.0 + 0.1 * 0.5 * 3.0)
    quad = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.0)
    assert quad.L_F == pytest.approx((1 + 0.1 * 2.0) ** 2 * 2.0)
