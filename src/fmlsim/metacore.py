"""Analytic loss families and meta-gradient estimators.

Model parameters are plain 1-D numpy arrays.  Two loss families are
supported, chosen so that gradients, Hessians and all smoothness constants
are available in closed form:

* quadratic regression, per-sample loss ``0.5 * (x @ theta - y) ** 2``
* binary logistic regression with labels in {-1, +1}

For both families a device's expected loss is identified with the mean
loss over its full local dataset, so full-batch estimates are exact and
serve as analytic oracles for the stochastic estimators.

A family is stateless: a class of margin formulas, never instantiated.  A
device's dataset is a ``Batch``, and a population is the family plus its
datasets held as padded arrays (``DeviceArrays``).  The library runs
``batched_meta_gradient`` on three role batches: the compact batches
that ``draw_role_batches`` picks with one value sort of its keys and
gathers from those arrays, only the drawn samples in slot order, or, when
every batch is a whole dataset, the padded arrays themselves.
``local_update`` takes each local step of every device in one array
pass, on a run's ``StepPlan`` of constants built once, the descent bound
in ``oracles`` every (resample, device) pair.  ``adapted_loss``
evaluates every split's loss after one personalization step on a
``LossPlan`` built once per run: a quadratic plan holds each split's
least-squares form ``[R | z]`` (``QuadraticModel.loss_form``), so a round
costs O(min(N, d+1) d) per split, and a logistic plan one pass over the
splits' real samples back to back, never over the padding.  The per-device
``draw_batch``, ``grad_estimate``, ``hessian_estimate``, ``meta_gradient``
and ``exact_meta_gradient`` take ``(family, Batch)`` and are the tests'
reference for it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericalError, check_fields

MODE_HESSIAN = "hessian"
MODE_FIRST_ORDER = "first-order"
MODE_HESSIAN_FREE = "hessian-free"
ESTIMATOR_MODES = (MODE_HESSIAN, MODE_FIRST_ORDER, MODE_HESSIAN_FREE)


@dataclass(frozen=True)
class Batch:
    """A batch of samples: inputs ``x`` of shape (size, d), labels ``y``."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise InvalidInputError("batch inputs and labels have inconsistent shapes")
        if self.size < 1:
            raise InvalidInputError("batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass
class MetaHyper:
    """Stepsizes and estimator settings for the local-update loop."""

    alpha: float = 0.05
    beta: float = 0.05
    tau: int = 1
    lambda1: float = 1.0
    lambda2: float = 1.0
    hv_epsilon: float = 1e-4
    mode: str = MODE_HESSIAN

    def __post_init__(self):
        check_fields(self, at_least_1=("tau",), positive=("hv_epsilon",),
                     nonnegative=("alpha", "beta"), choices={"mode": ESTIMATOR_MODES})


def _margin(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample ``x @ theta``; broadcasts over leading (device) axes of both.

    A matmul rounds each sample's dot product as ``x @ theta`` does.
    """
    return np.matmul(x, theta[..., None])[..., 0]


class LossModel:
    """Base class of the analytic loss families; a family is used as a class.

    A family is fixed by its per-sample loss ``margin_loss(a, y)`` as a
    function of the margin ``a = x @ theta`` and the label: the per-sample
    gradient is ``margin_slope(a, y) * x`` and the Hessian
    ``margin_curvature(a, y) * x x^T``.  The per-sample formulas below are
    written once for both the single-device shapes ``x (S, d)``,
    ``theta (d,)`` and the padded population shapes ``x (n, S, d)``,
    ``theta (d,)`` or ``(n, d)`` of ``DeviceArrays``.
    """

    # the family: loss, slope and curvature as functions of the margin
    @staticmethod
    def margin_loss(a, y) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def margin_slope(a, y) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def margin_curvature(a, y) -> np.ndarray:
        raise NotImplementedError

    # per-sample quantities on arbitrary (possibly padded, batched) samples
    @classmethod
    def per_sample_loss(cls, theta, x, y) -> np.ndarray:
        return cls.margin_loss(_margin(theta, x), y)

    @classmethod
    def per_sample_grad(cls, theta, x, y) -> np.ndarray:
        return cls.margin_slope(_margin(theta, x), y)[..., None] * x

    @classmethod
    def per_sample_hvp(cls, theta, x, y, v) -> np.ndarray:
        """Per-sample Hessian at theta times v, without forming the Hessian."""
        c = cls.margin_curvature(_margin(theta, x), y)
        return (c * _margin(v, x))[..., None] * x

    @classmethod
    def per_sample_hessian(cls, theta, x, y) -> np.ndarray:
        c = cls.margin_curvature(_margin(theta, x), y)
        return c[..., None, None] * (x[..., :, None] * x[..., None, :])


class QuadraticModel(LossModel):
    """Least-squares regression; constant Hessian, zero third derivative."""

    family = "quadratic-regression"

    @staticmethod
    def margin_loss(a, y):
        r = a - y
        return 0.5 * r * r

    @staticmethod
    def margin_slope(a, y):
        return a - y

    @staticmethod
    def margin_curvature(a, y):
        return np.ones_like(a)

    @classmethod
    def per_sample_hvp(cls, theta, x, y, v) -> np.ndarray:
        # the curvature is 1 at every theta, so the margin at theta is not needed
        return _margin(v, x)[..., None] * x

    @classmethod
    def loss_form(cls, splits: Sequence[DeviceArrays], alpha: float) -> np.ndarray:
        """Each split's adapted loss as a least-squares form ``[R | z]``, read-only (k, h, d+1).

        After one personalization step on device j, whose c_j samples are
        ``xy = [X_j | y_j]``, a sample's residual is linear in theta: its row
        of ``(xy - (alpha / c_j) * X_j X_j^T xy) @ [theta; -1]``.  The rows of
        a split, each scaled by the square root of its loss weight
        ``1 / (c_j * device count)``, stack into ``[B | c]``, and its loss is
        ``0.5 * ||B theta - c||^2``.  The R factor of one Householder QR of
        ``[B | c]`` (Q is never formed) is ``[R | z]``, and the loss is
        ``0.5 * ||R theta - z||^2``: a split of N samples has min(N, d+1)
        rows, the last of which, when N > d, holds only the residual norm
        (in its last column).
        Splits are zero-padded to the most rows.  ``X_j X_j^T xy`` is
        associated through the smaller of d and S_max, so that no d x d
        array is built per device when d > S_max.
        """
        d1 = splits[0].x.shape[-1] + 1
        form = np.zeros((len(splits), min(d1, max(int(s.counts.sum()) for s in splits)), d1))
        for out, s in zip(form, splits):
            x, xt, rows = s.x, s.x.swapaxes(1, 2), np.concatenate([s.x, s.y[..., None]], axis=-1)
            step = (alpha / s.counts)[:, None, None]
            rows -= x @ (step * (xt @ rows)) if d1 <= x.shape[1] else (step * (x @ xt)) @ rows
            rows /= np.sqrt(s.counts * s.counts.size)[:, None, None]
            r = np.linalg.qr(rows[s.mask], mode="r")
            out[:len(r)] = r
        form.flags.writeable = False
        return form


class LogisticModel(LossModel):
    """Binary logistic regression with labels in {-1, +1}."""

    family = "logistic-regression"

    @staticmethod
    def margin_loss(a, y):
        # log(1 + e^(-y a)) computed stably
        return np.logaddexp(0.0, -y * a)

    @staticmethod
    def margin_slope(a, y):
        neg_y = -y
        return neg_y * _sigmoid(neg_y * a)

    @staticmethod
    def margin_curvature(a, y):
        s = _sigmoid(y * a)
        return s * (1.0 - s)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z), from e^-|z| <= 1 so that neither branch overflows.

    Written e^min(z, 0) / (1 + e^-|z|): the numerator is exactly 1 for
    z >= 0 and e^z = e^-|z| below, so each side has the bits of its branch,
    1 / (1 + e^-z) or e^z / (1 + e^z), without computing both.
    """
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _check_dims(theta: np.ndarray, batch: Batch) -> None:
    if theta.shape != batch.x.shape[1:]:
        raise InvalidInputError(
            f"dimension mismatch: theta {theta.shape}, batch inputs {batch.x.shape}"
        )


def grad_estimate(family: type[LossModel], theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Batch-mean per-sample gradient (unbiased for the full-data loss)."""
    _check_dims(theta, batch)
    return family.per_sample_grad(theta, batch.x, batch.y).mean(axis=0)


def hessian_estimate(family: type[LossModel], theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Batch-mean per-sample Hessian; symmetric by construction."""
    _check_dims(theta, batch)
    return family.per_sample_hessian(theta, batch.x, batch.y).mean(axis=0)


def finite_difference_hvp(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    theta: np.ndarray,
    direction: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Central-difference estimate of (Hessian of the potential of grad_fn) @ direction."""
    if eps <= 0:
        raise InvalidInputError("eps must be positive")
    return (grad_fn(theta + eps * direction) - grad_fn(theta - eps * direction)) / (2.0 * eps)


def meta_gradient(
    family: type[LossModel],
    theta: np.ndarray,
    d_batch: Batch,
    d_prime_batch: Batch,
    d_double_batch: Batch,
    hyper: MetaHyper,
) -> np.ndarray:
    """Stochastic gradient of the post-adaptation loss from three independent batches.

    hessian mode:      (I - a * H(theta, D'')) @ g
    first-order mode:  g
    hessian-free mode: g - a * central-difference estimate of H(theta) @ g
    where g = grad(theta - a * grad(theta, D), D').
    """
    alpha = hyper.alpha
    inner = grad_estimate(family, theta, d_batch)
    adapted = theta - alpha * inner
    g = grad_estimate(family, adapted, d_prime_batch)

    if hyper.mode == MODE_FIRST_ORDER:
        out = g
    elif hyper.mode == MODE_HESSIAN:
        h = hessian_estimate(family, theta, d_double_batch)
        out = g - alpha * (h @ g)
    else:
        hvp = finite_difference_hvp(
            lambda t: grad_estimate(family, t, d_double_batch), theta, g, hyper.hv_epsilon
        )
        out = g - alpha * hvp
    if not np.all(np.isfinite(out)):
        raise NumericalError("meta-gradient produced non-finite values")
    return out


def exact_meta_gradient(
    family: type[LossModel], data: Batch, theta: np.ndarray, alpha: float
) -> np.ndarray:
    """Meta-gradient (I - a*H(theta)) @ grad(theta - a*grad(theta)) on all of ``data``."""
    g = grad_estimate(family, theta - alpha * grad_estimate(family, theta, data), data)
    return g - alpha * (hessian_estimate(family, theta, data) @ g)


def draw_batch(data: Batch, rng: np.random.Generator, size: int) -> Batch:
    """Draw `size` samples from the device's dataset without replacement."""
    if size > data.size:
        raise ConfigurationError(f"batch size {size} exceeds dataset size {data.size}")
    idx = rng.choice(data.size, size=size, replace=False)
    return Batch(data.x[idx], data.y[idx])


class DeviceArrays:
    """A device population as zero-padded arrays, one row per device.

    ``x (n, S_max, d)`` and ``y (n, S_max)`` hold each device's samples in
    its first ``counts[i]`` slots and zeros after them; ``mask`` marks the
    real samples.  ``model_class`` is the one loss family of every device;
    the datasets must share a dimension.
    """

    def __init__(self, family: type[LossModel], datasets: Sequence[Batch]):
        if not datasets:
            raise InvalidInputError("a device population needs at least one device")
        d = datasets[0].x.shape[1]
        if any(b.x.shape[1] != d for b in datasets):
            raise InvalidInputError("devices of one population must share a dimension")
        counts = np.array([b.size for b in datasets])
        mask = np.arange(counts.max()) < counts[:, None]
        x = np.zeros(mask.shape + (d,))
        y = np.zeros(mask.shape)
        x[mask] = np.concatenate([b.x for b in datasets])
        y[mask] = np.concatenate([b.y for b in datasets])
        self.model_class = family
        self._set_rows(x, y, mask, counts)

    def _set_rows(self, x, y, mask, counts) -> None:
        # every per-row attribute is set here, so ``take`` keeps them aligned;
        # read-only, so that a sweep can share one population between its runs
        self.x, self.y, self.mask, self.counts = x, y, mask, counts
        self.full_weights = mask / counts[:, None]
        for a in (x, y, mask, counts, self.full_weights):
            a.flags.writeable = False

    def take(self, rows: np.ndarray) -> DeviceArrays:
        """The population of the given rows in that order; a row may repeat."""
        sub = copy.copy(self)
        sub._set_rows(self.x[rows], self.y[rows], self.mask[rows], self.counts[rows])
        return sub

    def batch_sizes(self, batch_size: int | None) -> np.ndarray:
        """Per-device batch size: the full dataset, or batch_size clamped to it."""
        return self.counts if batch_size is None else np.minimum(batch_size, self.counts)

    def grad(self, weights: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Per-device weighted sum of per-sample gradients over every slot, (n, d)."""
        return weighted_grad(self.model_class, self.x, self.y, weights, theta)


def weighted_grad(family: type[LossModel], x, y, w, theta) -> np.ndarray:
    """Per-row sum of the per-sample gradients on ``x (n, S, d)``, ``y``, weighted by ``w``.

    ``theta`` is (d,), (n, d), or a stack of these; a stack gives a stack of
    (n, d) sums, each with the bits it has alone.
    """
    return np.einsum("ns,...nsd->...nd", w, family.per_sample_grad(theta, x, y))


class LossPlan:
    """What ``adapted_loss`` evaluates at personalization stepsize ``alpha``, built once per run.

    ``splits`` are populations of one family, such as a run's train and
    test devices; a split given twice (a test set that is the training set)
    is held once.  A family with a ``loss_form`` (quadratic regression) has
    the held splits' least-squares forms in ``form`` and its views ``r``
    and ``z``, all that ``adapted_loss`` reads.  For any other family
    ``form`` is None and the plan holds the real samples of every held
    device back to back, device after device in slot order: inputs
    ``x (N, d)``, labels ``y``, weights ``w`` (1 / the device's sample
    count), each sample's device ``row`` and each device's first sample
    ``start``.  Each held split has its first sample in ``split_start`` and
    its loss weights ``v`` (``w`` over the split's device count).  A plan
    with a form has none of these.
    Its arrays are read-only.  InvalidInputError for a split without
    devices or a device without samples, whose segment would be empty.
    """

    def __init__(self, *splits: DeviceArrays, alpha: float):
        held = list(dict.fromkeys(splits))
        self.family = held[0].model_class
        self.alpha = alpha
        self.split_of = tuple(held.index(s) for s in splits)
        if not all(s.counts.size and s.counts.min() >= 1 for s in held):
            raise InvalidInputError("each split of a loss plan needs a device and each device "
                                    "a sample")
        form = getattr(self.family, "loss_form", None)
        self.form = form(held, alpha) if form else None
        if self.form is not None:
            self.r, self.z = self.form[..., :-1], self.form[..., -1]
            return
        counts = np.concatenate([s.counts for s in held])
        self.x = np.concatenate([s.x[s.mask] for s in held])
        self.y = np.concatenate([s.y[s.mask] for s in held])
        self.row = np.repeat(np.arange(counts.size), counts)
        self.start = np.cumsum(counts) - counts
        self.w = 1.0 / counts[self.row]
        split_sizes = [int(s.counts.sum()) for s in held]
        self.split_start = np.cumsum(split_sizes) - split_sizes
        self.v = self.w / np.repeat([s.counts.size for s in held], split_sizes)
        for a in (self.x, self.y, self.row, self.start, self.w, self.split_start, self.v):
            a.flags.writeable = False


def adapted_loss(plan: LossPlan, theta: np.ndarray) -> tuple[float, ...]:
    """Each split's mean over devices of the full-data loss after one personalization step.

    With a plan's least-squares ``form``, ``0.5 * ||R theta - z||^2``
    for all its splits at once.  Otherwise one pass over the plan's samples:
    the margins ``x @ theta``, each device's full-data gradient summed over
    its own samples, every sample's margin at its device's adapted
    parameters, and each split's losses reduced to one weighted sum.  The
    step is the plan's ``alpha``.  Returns one loss per split given to the
    plan, in that order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if plan.form is not None:
            resid = np.matmul(plan.r, theta) - plan.z
            losses = 0.5 * np.einsum("kh,kh->k", resid, resid)
        else:
            family = plan.family
            slope = family.margin_slope(plan.x @ theta, plan.y) * plan.w
            adapted = theta - plan.alpha * np.add.reduceat(slope[:, None] * plan.x, plan.start,
                                                           axis=0)
            margin = np.einsum("nd,nd->n", plan.x, adapted.take(plan.row, axis=0))
            losses = np.add.reduceat(plan.v * family.margin_loss(margin, plan.y),
                                     plan.split_start)
    return tuple(losses.take(plan.split_of).tolist())


class StepPlan:
    """A run's local-step constants, built once before its first round.

    ``sizes[i]`` is row i's batch size: its whole dataset, or one size ``b``
    common to every row that subsamples (``data.batch_sizes`` gives these),
    so that one threshold per row at its b-th smallest key draws every
    row's batch; both are checked here.  The plan holds the devices, the
    hyper-parameters, the score penalties ``2*(lambda1 + lambda2/sqrt(D_i))``,
    the three role batches of a step when every batch is its whole dataset
    (else None), and what the draw needs: the selection index ``b - 1``,
    the key floor (0 on a real sample, ``1 + slot`` on padding), each
    role's first slot in the flattened keys, and read-only flat views of
    the samples, labels and sample weights ``1/sizes[i]`` (0 on padding)
    that the drawn slots index.  It is per run, not kept on ``data``,
    because a sweep shares one population between cells of different batch
    sizes.
    """

    def __init__(self, data: DeviceArrays, sizes: np.ndarray, hyper: MetaHyper):
        sizes = np.asarray(sizes)
        if sizes.shape != data.counts.shape or np.any((sizes < 1) | (sizes > data.counts)):
            raise ConfigurationError("each batch size must lie between 1 and its dataset size")
        b = int(sizes.max())
        if np.any((sizes != data.counts) & (sizes != b)):
            raise ConfigurationError(
                "each batch size must be its dataset size or one size common to the others")
        self.data, self.hyper = data, hyper
        self.penalty = 2.0 * (hyper.lambda1 + hyper.lambda2 / np.sqrt(sizes))
        self.full_batches = (((data.x, data.y, data.full_weights),) * 3
                             if np.array_equal(sizes, data.counts) else None)
        n, s_max, d = data.x.shape
        self.kth = b - 1
        self.key_floor = np.where(data.mask, 0.0, 1.0 + np.arange(s_max))
        self.role_start = np.arange(0, 3 * n * s_max, n * s_max)[:, None, None]
        slot_weight = data.mask * (1.0 / sizes[:, None])
        for a in (self.key_floor, slot_weight):
            a.flags.writeable = False
        self.flat_x = data.x.reshape(n * s_max, d)
        self.flat_y = data.y.reshape(-1)
        self.flat_w = slot_weight.reshape(-1)


def draw_role_batches(
    g: np.random.Generator, plan: StepPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every device's three role batches of one step: ``x (3, n, b, d)``, ``y``, ``w (3, n, b)``.

    One uniform key per (role, device, sample slot); each device's
    ``sizes[i]`` smallest keys of a role form its batch, each sample
    weighted ``1/sizes[i]``.  Padding slots take the plan's key floor
    ``1 + slot``: above every uniform key, distinct, and rising with the
    slot.  One value sort gives each row's b-th smallest key, and the
    slots at or below it are the row's b slots, already in slot order: the
    batch of a row that subsamples, and for a full-batch row (at most b
    samples) every real sample, then its lowest padding slots, which the
    slot weights zero.  An exact tie of real keys at that threshold goes to
    the lower slot.  The slots are gathered from the plan's flat views.
    """
    keys = g.random((3,) + plan.key_floor.shape)
    np.maximum(keys, plan.key_floor, out=keys)
    b = plan.kth + 1
    threshold = np.sort(keys, axis=-1)[..., plan.kth, None]
    slots = np.flatnonzero(keys <= threshold)
    if slots.size != threshold.size * b:
        slots = _lowest_slots(keys, threshold, b)
    slots = slots.reshape(threshold.shape[:-1] + (b,)) - plan.role_start
    return plan.flat_x.take(slots, axis=0), plan.flat_y.take(slots), plan.flat_w.take(slots)


def _lowest_slots(keys: np.ndarray, threshold: np.ndarray, b: int) -> np.ndarray:
    """Flat indices of each row's b smallest keys, a tie at ``threshold`` going to the lower slot.

    ``threshold`` is each row's b-th smallest key: fewer than b keys lie
    below it, and its lowest tied slots fill the rest of the row's b.
    """
    below = keys < threshold
    tied = keys == threshold
    room = b - below.sum(axis=-1, keepdims=True)
    return np.flatnonzero(below | (tied & (np.cumsum(tied, axis=-1) <= room)))


_BOTH_SIGNS = np.array([1.0, -1.0])[:, None, None]


def batched_meta_gradient(
    family: type[LossModel], theta: np.ndarray, batches: Iterable[tuple], hyper: MetaHyper
) -> np.ndarray:
    """``meta_gradient`` of every device row at once, (n, d).

    ``batches`` are the three role batches (D, D', D''), each a triple
    ``(x (n, b, d), y (n, b), w (n, b))`` of samples, labels and sample
    weights, as ``draw_role_batches`` draws them; theta is shared (d,) or
    per device (n, d).
    """
    (x0, y0, w0), (x1, y1, w1), (x2, y2, w2) = batches
    alpha = hyper.alpha
    g = weighted_grad(family, x1, y1, w1, theta - alpha * weighted_grad(family, x0, y0, w0, theta))
    if hyper.mode == MODE_FIRST_ORDER:
        return g
    if hyper.mode == MODE_HESSIAN:
        hvp = np.einsum("ns,nsd->nd", w2, family.per_sample_hvp(theta, x2, y2, g))
    else:
        # finite_difference_hvp with both points in one pass: theta + (-step) is theta - step
        step = hyper.hv_epsilon * g
        plus, minus = weighted_grad(family, x2, y2, w2, theta + step * _BOTH_SIGNS)
        hvp = (plus - minus) / (2.0 * hyper.hv_epsilon)
    return g - alpha * hvp


def local_update(
    plan: StepPlan,
    theta0: np.ndarray,
    step_rng: Callable[[int], np.random.Generator] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run tau local meta-gradient steps on every device at once and score them.

    ``plan`` is the run's ``StepPlan``: the devices, hyper-parameters,
    checked batch sizes and score penalties.  ``step_rng(step)`` returns the
    stream of one step; ``draw_role_batches`` draws from it the compact
    batches of all devices and roles.  When every batch is its device's
    whole dataset, each role is the plan's full batch (the padded arrays
    and full-batch weights) and ``step_rng`` is never called (it may be
    None).
    Returns the updated parameters (n, d) and the contribution scores (n,)
    u_i = sum_t ||g_t||^2 - 2*(lambda1 + lambda2/sqrt(D_i)) * ||g_t||.
    Raises NumericalError as soon as a meta-gradient or score is non-finite.
    """
    data, hyper, penalty, full = plan.data, plan.hyper, plan.penalty, plan.full_batches
    family = data.model_class
    n, _, d = data.x.shape
    theta = np.empty((n, d))
    theta[:] = theta0
    u = np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(hyper.tau):
            batches = full or zip(*draw_role_batches(step_rng(t), plan))
            g = batched_meta_gradient(family, theta, batches, hyper)
            if not np.isfinite(g).all():
                raise NumericalError(f"non-finite meta-gradient at local step {t}")
            gn = np.sqrt(np.einsum("nd,nd->n", g, g))
            u += gn * gn - penalty * gn
            theta -= hyper.beta * g
    if not np.isfinite(u).all():
        raise NumericalError("non-finite contribution score")
    return theta, u
