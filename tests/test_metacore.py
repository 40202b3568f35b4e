import copy
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fmlsim import rng
from fmlsim.errors import ConfigurationError, InvalidInputError, NumericalError
from fmlsim.metacore import (
    Batch,
    DeviceArrays,
    LogisticModel,
    LossModel,
    LossPlan,
    MetaHyper,
    QuadraticModel,
    StepPlan,
    _sigmoid,
    adapted_loss,
    batched_meta_gradient,
    draw_batch,
    draw_role_batches,
    exact_meta_gradient,
    finite_difference_hvp,
    grad_estimate,
    hessian_estimate,
    local_update,
    meta_gradient,
    weighted_grad,
)
from fmlsim.harness import ExperimentConfig, run
from fmlsim.oracles import SmoothnessConstants
from fmlsim.tasks import PopulationSpec, generate_population


def _quad(x, y):
    """A quadratic-regression dataset (use with the family ``QuadraticModel``)."""
    return Batch(np.asarray(x, float), np.asarray(y, float))


def _loss(family, theta, b):
    return float(family.per_sample_loss(theta, b.x, b.y).mean())


def test_loss_value_zero_residual():
    m = _quad([[1.0]], [0.0])
    assert _loss(QuadraticModel, np.array([0.0]), m) == 0.0


def test_loss_value_half_squared_residual():
    m = _quad([[1.0]], [1.0])
    assert _loss(QuadraticModel, np.array([0.0]), m) == pytest.approx(0.5)


def test_logistic_loss_at_zero_is_ln2():
    m = Batch(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    assert _loss(LogisticModel, np.array([0.0]), m) == pytest.approx(np.log(2.0))


def test_grad_estimate_single_sample():
    m = _quad([[1.0]], [1.0])
    g = grad_estimate(QuadraticModel, np.array([0.0]), m)
    assert g == pytest.approx([-1.0])


def test_grad_estimate_matches_analytic_full_dataset():
    g = np.random.default_rng(0)
    x = g.normal(size=(30, 4))
    y = g.normal(size=30)
    m = _quad(x, y)
    theta = g.normal(size=4)
    analytic = x.T @ (x @ theta - y) / 30
    assert np.allclose(grad_estimate(QuadraticModel, theta, m), analytic, atol=1e-12)


def test_logistic_grad_zero_by_symmetry():
    x = np.array([[1.0, 2.0], [-1.0, -2.0]])
    y = np.array([1.0, -1.0])
    m = Batch(x, y)
    # both samples contribute identical gradients of opposite sign at theta=0
    g = grad_estimate(LogisticModel, np.zeros(2), m)
    assert np.allclose(g, [-0.5, -1.0])  # y*x identical for both samples


def test_hessian_is_x_squared():
    m = _quad([[2.0]], [0.0])
    h = hessian_estimate(QuadraticModel, np.array([0.0]), m)
    assert np.allclose(h, [[4.0]])


def test_quadratic_hessian_independent_of_theta():
    g = np.random.default_rng(1)
    m = _quad(g.normal(size=(10, 3)), g.normal(size=10))
    h1 = hessian_estimate(QuadraticModel, g.normal(size=3), m)
    h2 = hessian_estimate(QuadraticModel, g.normal(size=3), m)
    assert np.allclose(h1, h2)
    assert np.allclose(h1, h1.T)


def test_quadratic_hvp_is_the_generic_formula_bit_for_bit():
    # the override drops the curvature's margin at theta, a vector of ones
    g = rng.stream(97)
    x, v = g.normal(size=(3, 5, 4)), g.normal(size=(3, 4))
    y = g.normal(size=(3, 5))
    for theta in (g.normal(size=(3, 4)), np.full(4, np.inf)):
        got = QuadraticModel.per_sample_hvp(theta, x, y, v)
        with np.errstate(invalid="ignore"):     # the generic margin at an infinite theta
            generic = LossModel.per_sample_hvp.__func__(QuadraticModel, theta, x, y, v)
        assert got.tobytes() == generic.tobytes()


def test_logistic_hessian_matches_finite_differences():
    g = np.random.default_rng(2)
    x = g.normal(size=(20, 3))
    y = np.where(g.uniform(size=20) < 0.5, 1.0, -1.0)
    m = Batch(x, y)
    theta = g.normal(size=3)
    h = hessian_estimate(LogisticModel, theta, m)
    eps = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        col = (grad_estimate(LogisticModel, theta + eps * e, m)
               - grad_estimate(LogisticModel, theta - eps * e, m)) / (2 * eps)
        assert np.allclose(h[:, k], col, atol=1e-6)


def test_dimension_mismatch_raises():
    m = _quad([[1.0, 0.0]], [0.0])
    with pytest.raises(InvalidInputError):
        grad_estimate(QuadraticModel, np.array([0.0]), m)


@pytest.mark.parametrize("name", ["alpha", "beta", "lambda1", "lambda2", "hv_epsilon"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_meta_hyper_rejects_non_finite(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
        MetaHyper(**{name: value})


def test_meta_gradient_alpha_zero_is_fedavg():
    g = np.random.default_rng(3)
    b = _quad(g.normal(size=(12, 3)), g.normal(size=12))
    theta = g.normal(size=3)
    hyper = MetaHyper(alpha=0.0, beta=0.1)
    out = meta_gradient(QuadraticModel, theta, b, b, b, hyper)
    assert np.allclose(out, grad_estimate(QuadraticModel, theta, b))


def test_meta_gradient_scalar_closed_form():
    # f(theta) = theta^2 from the single sample (x=sqrt(2), y=0): A=2, b=0
    b = _quad([[np.sqrt(2.0)]], [0.0])
    hyper = MetaHyper(alpha=0.25, beta=0.1)
    out = meta_gradient(QuadraticModel, np.array([1.0]), b, b, b, hyper)
    # (1 - alpha*A) * A * (theta - alpha*A*theta) = 0.5 * 2 * 0.5 = 0.5
    assert out == pytest.approx([0.5], rel=1e-12)


def test_hessian_free_mode_converges_to_hessian_mode():
    g = np.random.default_rng(4)
    x = g.normal(size=(25, 3))
    y = np.where(g.uniform(size=25) < 0.5, 1.0, -1.0)
    b = Batch(x, y)
    theta = g.normal(size=3)
    exact = meta_gradient(LogisticModel, theta, b, b, b, MetaHyper(alpha=0.1, beta=0.1))
    errs = []
    for eps in (1e-2, 5e-3):
        approx = meta_gradient(
            LogisticModel, theta, b, b, b, MetaHyper(alpha=0.1, beta=0.1,
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
    hvp = finite_difference_hvp(lambda t: grad_estimate(QuadraticModel, t, m), theta, v, 1e-4)
    assert np.allclose(hvp, hessian_estimate(QuadraticModel, theta, m) @ v, atol=1e-9)


def test_exact_meta_gradient_alpha_zero():
    g = np.random.default_rng(6)
    m = _quad(g.normal(size=(10, 2)), g.normal(size=10))
    theta = g.normal(size=2)
    assert np.allclose(exact_meta_gradient(QuadraticModel, m, theta, 0.0),
                       grad_estimate(QuadraticModel, theta, m))


def test_exact_meta_gradient_matches_full_batch_estimator():
    g = np.random.default_rng(7)
    for _ in range(10):
        b = _quad(g.normal(size=(15, 3)), g.normal(size=15))
        theta = g.normal(size=3)
        alpha = float(g.uniform(0.0, 0.3))
        est = meta_gradient(QuadraticModel, theta, b, b, b, MetaHyper(alpha=alpha, beta=0.1))
        ref = exact_meta_gradient(QuadraticModel, b, theta, alpha)
        assert np.linalg.norm(est - ref) <= 1e-10 * max(1.0, np.linalg.norm(ref))


def _step_streams(seed, k):
    def step_rng(step):
        return rng.stream(seed, k, step, rng.ROLE_BATCH)
    return step_rng


def _one_device(m):
    return DeviceArrays(QuadraticModel, [m])


def test_local_update_zero_stepsize_keeps_theta():
    g = np.random.default_rng(8)
    m = _quad(g.normal(size=(10, 3)), g.normal(size=10))
    theta0 = g.normal(size=3)
    hyper = MetaHyper(alpha=0.1, beta=0.0, tau=1)
    plan = StepPlan(_one_device(m), np.array([4]), hyper)
    theta, u = local_update(plan, theta0, _step_streams(0, 0))
    assert np.allclose(theta, theta0[None, :])
    assert np.all(np.isfinite(u))


def test_local_update_stationary_point():
    g = np.random.default_rng(9)
    x = g.normal(size=(10, 3))
    theta_star = g.normal(size=3)
    m = _quad(x, x @ theta_star)  # zero residual at theta_star
    hyper = MetaHyper(alpha=0.1, beta=0.05)
    data = _one_device(m)
    theta, u = local_update(StepPlan(data, data.counts, hyper), theta_star, _step_streams(0, 0))
    assert np.allclose(theta, theta_star[None, :])
    assert u[0] == pytest.approx(0.0, abs=1e-20)


def test_local_update_two_steps_equals_chained_single_steps():
    g = np.random.default_rng(10)
    data = DeviceArrays(QuadraticModel, [
        _quad(g.normal(size=(n, 3)), g.normal(size=n)) for n in (12, 5, 1)
    ])
    sizes = data.batch_sizes(4)
    theta0 = g.normal(size=3)
    h2 = MetaHyper(alpha=0.05, beta=0.02, tau=2)
    theta_two, _ = local_update(StepPlan(data, sizes, h2), theta0, _step_streams(1, 0))

    plan = StepPlan(data, sizes, MetaHyper(alpha=0.05, beta=0.02, tau=1))
    streams = _step_streams(1, 0)
    mid, _ = local_update(plan, theta0, streams)
    # the second chained step replays the tau=2 run's step-1 stream
    end, _ = local_update(plan, mid, lambda t: streams(1))
    assert np.allclose(theta_two, end)


def test_local_update_oversized_batch_rejected():
    # the plan checks the sizes once per run, before any local step
    m = _quad(np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ConfigurationError, match="between 1 and its dataset size"):
        StepPlan(_one_device(m), np.array([10]), MetaHyper(alpha=0.1, beta=0.1))


def test_step_plan_rejects_sizes_one_selection_cannot_draw():
    # two subsampling rows of different sizes: no one selection index fits both
    data = DeviceArrays(QuadraticModel, [_quad(np.ones((5, 1)), np.zeros(5))] * 2)
    with pytest.raises(ConfigurationError, match="one size common"):
        StepPlan(data, np.array([2, 3]), MetaHyper())


def test_local_update_non_finite_raises():
    m = _quad([[1e200]], [0.0])
    plan = StepPlan(_one_device(m), np.array([1]), MetaHyper(alpha=0.1, beta=0.1))
    with pytest.raises(NumericalError, match="non-finite"):
        local_update(plan, np.ones(1), _step_streams(0, 0))


def _reference_local_update(data, family, theta0, hyper, sizes, step_rng):
    """Per-device loop over the reference meta_gradient on the engine's batches.

    Returns the parameters, the scores and the scores' scale: the sum of the
    absolute values of the terms added into each score.
    """
    n = data.counts.size
    thetas = np.tile(theta0, (n, 1))
    u = np.zeros(n)
    scale = np.zeros(n)
    plan = StepPlan(data, sizes, hyper)
    for t in range(hyper.tau):
        x, y, w = draw_role_batches(step_rng(t), plan)
        for i in range(n):
            batches = [Batch(x[r, i][w[r, i] > 0], y[r, i][w[r, i] > 0]) for r in range(3)]
            assert all(b.size == sizes[i] for b in batches)
            g = meta_gradient(family, thetas[i], *batches, hyper)
            gn = np.linalg.norm(g)
            penalty = 2.0 * (hyper.lambda1 + hyper.lambda2 / np.sqrt(sizes[i]))
            u[i] += gn * gn - penalty * gn
            scale[i] += gn * gn + penalty * gn
            thetas[i] -= hyper.beta * g
    return thetas, u, scale


def _mixed_population(g, family, d=3):
    datasets = []
    for n in (1, 2, 4, 7, 13):
        x = g.normal(size=(n, d))
        if family is LogisticModel:
            datasets.append(Batch(x, np.where(g.uniform(size=n) < 0.5, 1.0, -1.0)))
        else:
            datasets.append(Batch(x, g.normal(size=n)))
    return DeviceArrays(family, datasets)


@pytest.mark.parametrize("family", [QuadraticModel, LogisticModel])
@pytest.mark.parametrize("mode", ["hessian", "first-order", "hessian-free"])
@pytest.mark.parametrize("batch_size", [4, None])
@pytest.mark.parametrize("tau", [1, 2])
def test_batched_local_update_matches_per_device_reference(family, mode, batch_size, tau):
    # sizes 1, 2, 4, 7, 13: with batch 4, devices of 1, 2 and 4 samples run
    # full-batch and the others subsample; with None every device is full
    g = np.random.default_rng(11)
    data = _mixed_population(g, family)
    sizes = data.batch_sizes(batch_size)
    theta0 = g.normal(size=3)
    hyper = MetaHyper(alpha=0.1, beta=0.05, tau=tau, lambda1=0.3, lambda2=0.7, mode=mode)
    theta, u = local_update(StepPlan(data, sizes, hyper), theta0, _step_streams(5, 3))
    ref_theta, ref_u, ref_scale = _reference_local_update(
        data, family, theta0, hyper, sizes, _step_streams(5, 3)
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
    data = _mixed_population(g, family)
    sizes = data.batch_sizes(3)
    hyper = MetaHyper(alpha=0.1, beta=0.05, mode=mode)
    x, y, w = draw_role_batches(rng.stream(0, 1, 0, rng.ROLE_BATCH), StepPlan(data, sizes, hyper))
    theta = g.normal(size=(data.counts.size, 3))
    got = batched_meta_gradient(family, theta, zip(x, y, w), hyper)
    for i in range(data.counts.size):
        batches = [Batch(x[r, i][w[r, i] > 0], y[r, i][w[r, i] > 0]) for r in range(3)]
        want = meta_gradient(family, theta[i], *batches, hyper)
        assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)


def test_device_arrays_pad_and_mask():
    a = _quad([[1.0, 2.0]], [3.0])
    b = _quad([[4.0, 5.0], [6.0, 7.0]], [8.0, 9.0])
    data = DeviceArrays(QuadraticModel, [a, b])
    assert data.x.shape == (2, 2, 2) and data.y.shape == (2, 2)
    assert data.mask.tolist() == [[True, False], [True, True]]
    assert data.x[0, 1].tolist() == [0.0, 0.0] and data.y[0, 1] == 0.0
    assert data.counts.tolist() == [1, 2]
    assert data.batch_sizes(None).tolist() == [1, 2]
    assert data.batch_sizes(1).tolist() == [1, 1]
    with pytest.raises(InvalidInputError, match="share a dimension"):
        DeviceArrays(QuadraticModel, [a, _quad([[1.0, 2.0, 3.0]], [4.0])])


def test_device_arrays_take_keeps_every_row_array_aligned():
    data = DeviceArrays(QuadraticModel,
                        [_quad([[1.0, 2.0]], [3.0]), _quad([[4.0, 5.0], [6.0, 7.0]], [8.0, 9.0])])
    rows = np.array([1, 0, 1])
    sub = data.take(rows)
    arrays = {k: v for k, v in vars(data).items() if isinstance(v, np.ndarray)}
    assert arrays
    for name, full in arrays.items():
        assert np.array_equal(getattr(sub, name), full[rows]), name


def _padded(counts):
    """A population of the given dataset sizes whose samples name their slots.

    Slot s of row i holds the input s + 1 and the label i + 1; padding is 0.
    """
    return DeviceArrays(QuadraticModel, [
        _quad(np.arange(1.0, c + 1)[:, None], np.full(c, i + 1.0)) for i, c in enumerate(counts)])


def _drawn_slots(x, w):
    """Each drawn sample's slot (-1 on padding) and whether it carries weight."""
    return x[..., 0].astype(int) - 1, w > 0


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    batch=st.one_of(st.none(), st.integers(1, 12)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 500),
    step=st.integers(0, 3),
)
def test_batch_draw_properties(counts, batch, seed, k, step):
    data = _padded(counts)
    n, s_max = data.mask.shape
    sizes = np.array(counts) if batch is None else np.minimum(batch, counts)
    plan = StepPlan(data, sizes, MetaHyper())
    x, y, w = draw_role_batches(rng.stream(seed, k, step, rng.ROLE_BATCH), plan)
    b = int(sizes.max())
    assert x.shape == (3, n, b, 1) and y.shape == w.shape == (3, n, b)
    slot, picked = _drawn_slots(x, w)
    # exactly min(batch, n_i) distinct real samples of its own row per device and role
    assert np.array_equal(picked.sum(axis=-1), np.broadcast_to(sizes, (3, n)))
    assert np.array_equal(picked, slot >= 0)
    assert np.all(y[picked] == np.broadcast_to(np.arange(1.0, n + 1)[:, None], y.shape)[picked])
    assert all(len(set(row[row >= 0].tolist())) == (row >= 0).sum() for row in slot.reshape(-1, b))
    assert np.allclose(w.sum(axis=-1), 1.0)
    # the draw gathers from views of the shared population, which stay read-only
    assert not any(a.flags.writeable for a in (plan.flat_x, plan.flat_y, plan.flat_w))
    # a pure function of (seed, round, step)
    again = draw_role_batches(rng.stream(seed, k, step, rng.ROLE_BATCH), plan)
    assert all(np.array_equal(first, second) for first, second in zip((x, y, w), again))


def _rank_rule_weights(g, mask, sizes):
    """The draw as a full sort, as dense weights: each row's ``sizes[i]`` smallest keys."""
    keys = np.where(mask, g.random((3,) + mask.shape), np.inf)
    rank = keys.argsort(axis=-1).argsort(axis=-1)
    return (rank < sizes[:, None]) / sizes[:, None]


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    batch=st.sampled_from(["below", "equal", "above", "none"]),
    offset=st.integers(1, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_selection_draw_is_the_rank_rule_bit_for_bit(counts, batch, offset, seed):
    # random dataset sizes give random padding masks; b below, at and above S_max
    data = _padded(counts)
    s_max = data.mask.shape[1]
    b = {"below": max(1, s_max - offset), "equal": s_max, "above": s_max + offset,
         "none": None}[batch]
    sizes = data.batch_sizes(b)
    x, _, w = draw_role_batches(rng.stream(seed, rng.ROLE_BATCH),
                                StepPlan(data, sizes, MetaHyper()))
    want = _rank_rule_weights(rng.stream(seed, rng.ROLE_BATCH), data.mask, sizes)
    # scattered back into slots, the compact batches are the rank rule's weights
    slot, picked = _drawn_slots(x, w)
    dense = np.zeros(want.shape)
    role, row, _ = np.nonzero(picked)
    dense[role, row, slot[picked]] = w[picked]
    assert np.array_equal(dense.view(np.uint64), want.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    batch=st.one_of(st.none(), st.integers(1, 14)),
    seed=st.integers(0, 2**32 - 1),
)
def test_compact_draw_holds_the_smallest_keys_in_slot_order(counts, batch, seed):
    data = _padded(counts)
    sizes = data.batch_sizes(batch)
    x, _, w = draw_role_batches(rng.stream(seed, rng.ROLE_BATCH),
                                StepPlan(data, sizes, MetaHyper()))
    keys = np.where(data.mask, rng.stream(seed, rng.ROLE_BATCH).random((3,) + data.mask.shape),
                    np.inf)
    slot, picked = _drawn_slots(x, w)
    for r in range(3):
        for i, (count, size) in enumerate(zip(counts, sizes)):
            got = slot[r, i][picked[r, i]]
            # the slots of the sizes[i] smallest keys, ascending and distinct
            assert got.tolist() == sorted(np.argsort(keys[r, i], kind="stable")[:size].tolist())
            assert np.all(np.diff(got) > 0)
            # weight only on real samples, each 1/sizes[i]
            assert np.array_equal(picked[r, i], slot[r, i] >= 0)
            assert np.all(w[r, i][picked[r, i]] == 1.0 / size)
            if size == count:
                assert got.tolist() == list(range(count))


class _FixedKeys:
    """A stand-in generator whose ``random`` returns the given keys."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=float)

    def random(self, shape):
        assert shape == self.keys.shape
        return self.keys.copy()


def _stable_rule_slots(keys, mask, sizes):
    """Each row's ``sizes[i]`` smallest real keys, the lower slot first among equal keys."""
    keys = np.where(mask, keys, np.inf)
    return [[sorted(np.argsort(keys[r, i], kind="stable")[:size].tolist())
             for i, size in enumerate(sizes)] for r in range(keys.shape[0])]


def _check_tied_draw(counts, sizes, keys):
    data = _padded(counts)
    x, y, w = draw_role_batches(_FixedKeys(keys), StepPlan(data, np.array(sizes), MetaHyper()))
    n, b = len(counts), max(sizes)
    assert x.shape == (3, n, b, 1) and y.shape == w.shape == (3, n, b)
    slot, picked = _drawn_slots(x, w)
    got = [[slot[r, i][picked[r, i]].tolist() for i in range(n)] for r in range(3)]
    assert got == _stable_rule_slots(np.asarray(keys), data.mask, sizes)
    assert np.allclose(w.sum(axis=-1), 1.0)
    return got


def test_draw_gives_a_tie_at_the_threshold_to_the_lower_slot():
    # b = 3; row 1 is a full batch of 2 samples, shorter than b
    counts, sizes = [6, 2, 5], [3, 2, 3]
    keys = np.full((3, 3, 6), 0.9)
    keys[0, 0] = [0.5, 0.25, 0.9, 0.1, 0.25, 0.05]   # slots 1 and 4 tie for the third place
    keys[0, 2, :5] = 0.3                              # five real samples, all tied
    keys[1] = np.arange(18).reshape(3, 6) / 18        # no tie
    keys[2, 0] = [0.2, 0.7, 0.2, 0.2, 0.2, 0.1]       # four tie for the last two places
    got = _check_tied_draw(counts, sizes, keys)
    assert got[0] == [[1, 3, 5], [0, 1], [0, 1, 2]]
    assert got[2][0] == [0, 2, 5]


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 8), min_size=1, max_size=5),
    batch=st.one_of(st.none(), st.integers(1, 9)),
    data=st.data(),
)
def test_draw_on_coarse_keys_is_the_stable_rule(counts, batch, data):
    # keys from four values tie often, at and away from each row's threshold
    sizes = _padded(counts).batch_sizes(batch)
    shape = (3, len(counts), max(counts))
    keys = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                              min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    _check_tied_draw(counts, sizes.tolist(), np.reshape(keys, shape))


def _dense_meta_gradient(data, theta, weights, hyper):
    """The meta-gradient on dense batch weights ``(3, n, S_max)`` over every padded slot."""
    family = data.model_class

    def grad(w, t):
        return np.einsum("ns,nsd->nd", w, family.per_sample_grad(t, data.x, data.y))

    alpha = hyper.alpha
    g = grad(weights[1], theta - alpha * grad(weights[0], theta))
    if hyper.mode == "first-order":
        return g
    if hyper.mode == "hessian":
        hvp = np.einsum("ns,nsd->nd", weights[2], family.per_sample_hvp(theta, data.x, data.y, g))
    else:
        hvp = finite_difference_hvp(lambda t: grad(weights[2], t), theta, g, hyper.hv_epsilon)
    return g - alpha * hvp


@pytest.mark.parametrize("family", [QuadraticModel, LogisticModel])
@pytest.mark.parametrize("mode", ["hessian", "first-order", "hessian-free"])
@pytest.mark.parametrize("d", [1, 12])
@pytest.mark.parametrize("batch", [1, 4])
def test_compact_kernel_matches_dense_weights(family, mode, d, batch):
    g = np.random.default_rng(13)
    data = _mixed_population(g, family, d)
    sizes = data.batch_sizes(batch)
    hyper = MetaHyper(alpha=0.1, beta=0.05, mode=mode)
    x, y, w = draw_role_batches(rng.stream(2, 1, 0, rng.ROLE_BATCH), StepPlan(data, sizes, hyper))
    weights = _rank_rule_weights(rng.stream(2, 1, 0, rng.ROLE_BATCH), data.mask, sizes)
    theta = g.normal(size=(data.counts.size, d))
    got = batched_meta_gradient(family, theta, zip(x, y, w), hyper)
    want = _dense_meta_gradient(data, theta, weights, hyper)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))


@pytest.mark.parametrize("family", [QuadraticModel, LogisticModel])
@pytest.mark.parametrize("batch", [1, 4, None])
def test_hessian_free_takes_both_difference_points_bit_for_bit(family, batch):
    # one weighted_grad pass on the stacked points theta +- eps*g gives the bits
    # of finite_difference_hvp's two calls
    g = np.random.default_rng(29)
    data = _mixed_population(g, family, d=4)
    hyper = MetaHyper(alpha=0.1, beta=0.05, hv_epsilon=1e-3, mode="hessian-free")
    plan = StepPlan(data, data.batch_sizes(batch), hyper)
    x, y, w = draw_role_batches(rng.stream(5, 0, 0, rng.ROLE_BATCH), plan)
    theta = g.normal(size=(data.counts.size, 4))
    got = batched_meta_gradient(family, theta, zip(x, y, w), hyper)
    first_order = batched_meta_gradient(family, theta, zip(x, y, w),
                                        MetaHyper(alpha=0.1, beta=0.05, mode="first-order"))
    hvp = finite_difference_hvp(lambda t: weighted_grad(family, x[2], y[2], w[2], t),
                                theta, first_order, hyper.hv_epsilon)
    assert np.array_equal(got, first_order - hyper.alpha * hvp)
    stacked = weighted_grad(family, x[2], y[2], w[2], np.stack([theta, -theta, 2 * theta]))
    for one, t in zip(stacked, (theta, -theta, 2 * theta)):
        assert np.array_equal(one, weighted_grad(family, x[2], y[2], w[2], t))


def _no_stream(step):
    raise AssertionError(f"step {step} drew a stream, but every batch is full")


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    family=st.sampled_from([QuadraticModel, LogisticModel]),
    mode=st.sampled_from(["hessian", "first-order", "hessian-free"]),
    tau=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_full_batches_skip_the_draw_bit_for_bit(counts, family, mode, tau, seed):
    g = np.random.default_rng(seed)
    data = DeviceArrays(family, [
        Batch(g.normal(size=(n, 3)), np.where(g.uniform(size=n) < 0.5, 1.0, -1.0))
        for n in counts])
    streams = _step_streams(seed, 7)
    theta0 = g.normal(size=3)
    hyper = MetaHyper(alpha=0.1, beta=0.05, tau=tau, lambda1=0.3, lambda2=0.7, mode=mode)
    plan = StepPlan(data, data.counts, hyper)
    full = (data.x, data.y, data.full_weights)
    for t in range(tau):
        drawn = draw_role_batches(streams(t), plan)
        assert all(np.array_equal(a, np.broadcast_to(f, a.shape)) for a, f in zip(drawn, full))
    theta, u = local_update(plan, theta0, _no_stream)
    # the loop of local_update with every step's batches drawn
    ref_theta, ref_u = np.tile(theta0, (len(counts), 1)), np.zeros(len(counts))
    penalty = 2.0 * (hyper.lambda1 + hyper.lambda2 / np.sqrt(data.counts))
    for t in range(tau):
        batches = zip(*draw_role_batches(streams(t), plan))
        grad = batched_meta_gradient(family, ref_theta, batches, hyper)
        gn = np.sqrt(np.einsum("nd,nd->n", grad, grad))
        ref_u += gn * gn - penalty * gn
        ref_theta -= hyper.beta * grad
    assert np.array_equal(theta, ref_theta) and np.array_equal(u, ref_u)


@given(st.lists(st.floats(), max_size=40))
def test_sigmoid_is_the_two_branch_formula_bit_for_bit(values):
    # 1/(1 + e^-z) for z >= 0 and e^z/(1 + e^z) below, each branch on its own entries
    z = np.array(values, dtype=float)
    pos = z >= 0
    want = np.empty_like(z)
    want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    want[~pos] = ez / (1.0 + ez)
    got = _sigmoid(z)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# the flattened samples a plan without a loss form holds for its one pass
SAMPLE_ARRAYS = ("x", "y", "w", "row", "start", "split_start", "v")


def _reference_adapted_loss(family, datasets, theta, alpha):
    """The mean over devices of each one's full-data loss after one personalization step."""
    return float(np.mean([
        family.per_sample_loss(theta - alpha * grad_estimate(family, theta, b), b.x, b.y).mean()
        for b in datasets]))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from([QuadraticModel, LogisticModel]),
    counts=st.lists(st.lists(st.integers(1, 30), min_size=1, max_size=6), min_size=2, max_size=2),
    d=st.integers(1, 6),
    alpha=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_adapted_loss_matches_the_per_device_reference(family, counts, d, alpha, seed):
    assume(max(counts[0]) != max(counts[1]))       # the splits pad to different widths
    g = np.random.default_rng(seed)
    splits = []
    for split_counts in counts:
        xs = [g.normal(size=(c, d)) for c in split_counts]
        ys = [g.normal(size=c) if family is QuadraticModel else g.choice([-1.0, 1.0], size=c)
              for c in split_counts]
        splits.append([Batch(x, y) for x, y in zip(xs, ys)])
    theta = g.normal(size=d)
    train, test = (DeviceArrays(family, datasets) for datasets in splits)
    plan = LossPlan(train, test, alpha=alpha)
    want = [_reference_adapted_loss(family, datasets, theta, alpha) for datasets in splits]
    got = adapted_loss(plan, theta)
    assert len(got) == 2 and np.allclose(got, want, rtol=1e-12, atol=0)
    twice = LossPlan(test, test, alpha=alpha)
    if family is QuadraticModel:
        # a plan with a loss form holds no samples: the form is all it reads
        assert not any(hasattr(plan, name) for name in SAMPLE_ARRAYS)
        assert twice.form.shape[0] == 1
    else:
        assert plan.x.shape == (sum(map(sum, counts)), d)
        assert not any(getattr(plan, name).flags.writeable for name in SAMPLE_ARRAYS)
        assert twice.x.shape == (sum(counts[1]), d)
    # a split given twice is held and evaluated once, its loss returned for both
    assert adapted_loss(twice, theta) == adapted_loss(LossPlan(test, alpha=alpha), theta) * 2


def _exact_adapted_loss(datasets, theta, alpha):
    """``_reference_adapted_loss`` of a quadratic family in exact rational arithmetic."""
    alpha, theta = Fraction(alpha), [Fraction(t) for t in theta]
    total = Fraction(0)
    for b in datasets:
        xs = [[Fraction(v) for v in row] for row in b.x]
        residuals = [sum(map(operator.mul, x, theta)) - Fraction(y) for x, y in zip(xs, b.y)]
        step = [alpha * sum(r * x[e] for r, x in zip(residuals, xs)) / len(xs)
                for e in range(len(theta))]
        adapted = [t - s for t, s in zip(theta, step)]
        total += sum((sum(map(operator.mul, x, adapted)) - Fraction(y)) ** 2
                     for x, y in zip(xs, b.y)) / (2 * len(xs))
    return float(total / len(datasets))


# The parent's sample pass (the plan with its form dropped), measured on the
# draws below: its worst relative error against the exact loss (the form's was
# 1.55e-10).  The exact loss is the yardstick because the pass repeats the
# reference's roundings: against ``_reference_adapted_loss`` the pass read
# 4.99e-10 and the form 2.54e-10, and on other draws the pass looked the closer
# of the two there while the form was closer to the exact loss.  Near a zero loss
# each of them is limited by the cancellation in 1 - alpha * |x|^2, about
# eps / gap; an expanded form 0.5 th^T P th + q^T th + r, P summed from the
# devices' M A M, was off by 2.8e-8 on these draws.  The derandomized draws
# follow the test's source: a change to its body needs this value measured anew.
# To measure it, run the test unchanged with ``QuadraticModel.loss_form`` set
# to None, so that each ``LossPlan`` takes the sample pass, with this bound at
# infinity, and record ``abs(got - exact) / exact`` through wrappers of this
# module's ``adapted_loss`` and ``_exact_adapted_loss``: that gives 5.98e-10
# for the pass and 1.55e-10 for the form.
PASS_WORST = 5.98e-10


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, -3.0)),
                  min_size=1, max_size=6),
    d=st.integers(1, 6),
    alpha=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_near_zero_adapted_loss_is_as_exact_as_the_sample_pass(gaps, d, alpha, seed):
    # one sample per device with alpha * |x|^2 = 1 + gap: the step cancels the
    # residual (x @ theta - y) * (1 - alpha * |x|^2) down to the gap
    g = np.random.default_rng(seed)
    datasets = []
    for sign, exponent in gaps:
        u = g.normal(size=d)
        scale = np.sqrt((1.0 + sign * 10.0 ** exponent) / alpha)
        datasets.append(_quad((u * scale / np.linalg.norm(u))[None, :], g.normal(size=1)))
    theta = g.normal(size=d)
    want = _reference_adapted_loss(QuadraticModel, datasets, theta, alpha)
    exact = _exact_adapted_loss(datasets, theta, alpha)
    (got,) = adapted_loss(LossPlan(DeviceArrays(QuadraticModel, datasets), alpha=alpha), theta)
    assert abs(got - exact) <= PASS_WORST * exact
    assert abs(got - want) <= abs(want - exact) + PASS_WORST * exact


def test_a_runs_loss_form_is_built_once_and_read_only(monkeypatch):
    forms = []
    build = QuadraticModel.loss_form

    def spy(splits, alpha):
        forms.append(build(splits, alpha))
        return forms[-1]

    monkeypatch.setattr(QuadraticModel, "loss_form", staticmethod(spy))
    cfg = ExperimentConfig(rounds=3, n_k=2, population=PopulationSpec(n=12, d=3))
    assert len(run(cfg)) == 3
    (form,) = forms
    assert form.shape == (2, 4, 4) and not form.flags.writeable
    # a family without a loss form keeps the pass over the samples
    assert not hasattr(LossModel, "loss_form")
    logistic = DeviceArrays(LogisticModel, [Batch(np.ones((2, 3)), np.array([1.0, -1.0]))])
    assert LossPlan(logistic, alpha=0.1).form is None


def test_a_split_holds_min_n_d_plus_1_rows_the_last_its_residual_norm():
    d, alpha = 6, 0.1
    g = np.random.default_rng(3)
    splits = [[_quad(g.normal(size=(c, d)), g.normal(size=c)) for c in counts]
              for counts in ([2, 3], [4, 5])]
    plan = LossPlan(*(DeviceArrays(QuadraticModel, s) for s in splits), alpha=alpha)
    assert plan.form.shape == (2, d + 1, d + 1)
    for form, datasets, n in zip(plan.form, splits, (5, 9)):
        # N <= d: N rows and no residual row; N > d: d+1 rows, padding zero below them
        h = min(n, d + 1)
        assert np.all(form[h:] == 0) and np.all(np.diag(form[:h]) != 0)
        # the least-squares minimum of the adapted loss is half the last row's r_dd^2
        theta = np.linalg.lstsq(form[:, :d], form[:, d], rcond=None)[0]
        scale = _reference_adapted_loss(QuadraticModel, datasets, np.zeros(d), alpha)
        assert _reference_adapted_loss(QuadraticModel, datasets, theta, alpha) == pytest.approx(
            0.5 * form[d, d] ** 2, abs=1e-12 * scale)


def test_a_loss_plan_at_large_d_builds_no_d_by_d_array_per_device():
    pop = generate_population(PopulationSpec(n=20, d=400), 0)
    tracemalloc.start()
    try:
        LossPlan(pop.train, pop.test, alpha=0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one device's 400 x 400 matrix is 1.28 MB: a form that built one per device peaked
    # at 42.9 MB here, the form from the augmented rows at 2.5 MB
    assert peak < 8e6


def test_loss_plan_rejects_an_empty_device_or_split():
    data = _padded([2, 3])
    # a device without samples would make np.add.reduceat read the next device's first sample
    no_samples = copy.copy(data)
    no_samples.mask = data.mask & np.array([[False], [True]])
    no_samples.counts = np.array([0, 3])
    for splits in ((no_samples,), (data, no_samples), (data, data.take(np.array([], int)))):
        with pytest.raises(InvalidInputError, match="needs a device and each device a sample"):
            LossPlan(*splits, alpha=0.1)


def test_draw_batch_without_replacement():
    m = _quad(np.arange(6, dtype=float).reshape(6, 1), np.zeros(6))
    b = draw_batch(m, np.random.default_rng(0), 6)
    assert sorted(b.x.ravel().tolist()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_smoothness_constant_formula():
    c = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.5, zeta=3.0)
    assert c.L_F == pytest.approx((1 + 0.1 * 2.0) ** 2 * 2.0 + 0.1 * 0.5 * 3.0)
    quad = SmoothnessConstants(alpha=0.1, L=2.0, rho=0.0)
    assert quad.L_F == pytest.approx((1 + 0.1 * 2.0) ** 2 * 2.0)
