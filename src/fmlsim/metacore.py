"""Analytic loss families and meta-gradient estimators.

Model parameters are plain 1-D numpy arrays.  Two loss families are
supported, chosen so that gradients, Hessians and all smoothness constants
are available in closed form:

* quadratic regression, per-sample loss ``0.5 * (x @ theta - y) ** 2``
* binary logistic regression with labels in {-1, +1}

For both families a device's expected loss is identified with the mean
loss over its full local dataset, so full-batch estimates are exact and
serve as analytic oracles for the stochastic estimators.

``meta_gradient`` and ``draw_batch`` work on one device and one batch;
they are the reference.  The training loop runs ``local_update``, which
holds the population as padded arrays (``DeviceArrays``) and takes each
local step for every device in one array pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericalError

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
        if self.alpha < 0:
            raise InvalidInputError("alpha must be nonnegative")
        if self.beta < 0:
            raise InvalidInputError("beta must be nonnegative")
        if self.tau < 1:
            raise InvalidInputError("tau must be at least 1")
        if self.hv_epsilon <= 0:
            raise InvalidInputError("hv_epsilon must be positive")
        if self.mode not in ESTIMATOR_MODES:
            raise InvalidInputError(f"mode: unknown estimator mode {self.mode!r}")


@dataclass
class SmoothnessConstants:
    """Smoothness, variance and similarity constants of a device population.

    ``zeta`` and ``gamma_G`` are only meaningful along visited iterates for
    the quadratic family; they start as NaN and are filled with empirical
    suprema during a run.
    """

    alpha: float
    L: float
    rho: float = 0.0
    zeta: float = float("nan")
    sigma_G: float = 0.0
    sigma_H: float = 0.0
    gamma_G: float = float("nan")
    gamma_H: float = 0.0

    @property
    def L_F(self) -> float:
        rho_term = self.alpha * self.rho * self.zeta if self.rho > 0 else 0.0
        return (1.0 + self.alpha * self.L) ** 2 * self.L + rho_term


def _margin(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-sample ``x @ theta``; broadcasts over leading (device) axes of both.

    A matmul rounds each sample's dot product as ``x @ theta`` does.
    """
    return np.matmul(x, theta[..., None])[..., 0]


class LossModel:
    """Base class: an analytic loss family bound to a device's full dataset.

    A family is fixed by its per-sample loss ``margin_loss(a, y)`` as a
    function of the margin ``a = x @ theta`` and the label: the per-sample
    gradient is ``margin_slope(a, y) * x`` and the Hessian
    ``margin_curvature(a, y) * x x^T``.  The per-sample formulas below are
    written once for both the single-device shapes ``x (S, d)``,
    ``theta (d,)`` and the padded population shapes ``x (n, S, d)``,
    ``theta (d,)`` or ``(n, d)`` of ``DeviceArrays``.
    """

    family = "abstract"

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise InvalidInputError("dataset inputs and labels have inconsistent shapes")
        self.x = x
        self.y = y

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    def full_batch(self) -> Batch:
        return Batch(self.x, self.y)

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

    # exact (full-dataset) quantities
    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.per_sample_grad(theta, self.x, self.y).mean(axis=0)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        return self.per_sample_hessian(theta, self.x, self.y).mean(axis=0)

    def loss(self, theta: np.ndarray) -> float:
        return float(self.per_sample_loss(theta, self.x, self.y).mean())


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


class LogisticModel(LossModel):
    """Binary logistic regression with labels in {-1, +1}."""

    family = "logistic-regression"

    @staticmethod
    def margin_loss(a, y):
        # log(1 + e^(-y a)) computed stably
        return np.logaddexp(0.0, -y * a)

    @staticmethod
    def margin_slope(a, y):
        return -y * _sigmoid(-y * a)

    @staticmethod
    def margin_curvature(a, y):
        s = _sigmoid(y * a)
        return s * (1.0 - s)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_dims(model: LossModel, theta: np.ndarray, batch: Batch) -> None:
    if theta.shape != (model.dim,) or batch.x.shape[1] != model.dim:
        raise InvalidInputError(
            f"dimension mismatch: model d={model.dim}, theta {theta.shape}, "
            f"batch inputs {batch.x.shape}"
        )


def grad_estimate(model: LossModel, theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Batch-mean per-sample gradient (unbiased for the full-data loss)."""
    _check_dims(model, theta, batch)
    return model.per_sample_grad(theta, batch.x, batch.y).mean(axis=0)


def hessian_estimate(model: LossModel, theta: np.ndarray, batch: Batch) -> np.ndarray:
    """Batch-mean per-sample Hessian; symmetric by construction."""
    _check_dims(model, theta, batch)
    return model.per_sample_hessian(theta, batch.x, batch.y).mean(axis=0)


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
    model: LossModel,
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
    inner = grad_estimate(model, theta, d_batch)
    adapted = theta - alpha * inner
    g = grad_estimate(model, adapted, d_prime_batch)

    if hyper.mode == MODE_FIRST_ORDER:
        out = g
    elif hyper.mode == MODE_HESSIAN:
        h = hessian_estimate(model, theta, d_double_batch)
        out = g - alpha * (h @ g)
    else:
        hvp = finite_difference_hvp(
            lambda t: grad_estimate(model, t, d_double_batch), theta, g, hyper.hv_epsilon
        )
        out = g - alpha * hvp
    if not np.all(np.isfinite(out)):
        raise NumericalError("meta-gradient produced non-finite values")
    return out


def exact_meta_gradient(model: LossModel, theta: np.ndarray, alpha: float) -> np.ndarray:
    """Population meta-gradient (I - a*H(theta)) @ grad(theta - a*grad(theta)), no sampling noise."""
    _check_dims(model, theta, model.full_batch())
    g0 = model.grad(theta)
    g = model.grad(theta - alpha * g0)
    h = model.hessian(theta)
    return g - alpha * (h @ g)


def draw_batch(model: LossModel, rng: np.random.Generator, size: int) -> Batch:
    """Draw `size` samples from the device's dataset without replacement."""
    if size > model.n_samples:
        raise ConfigurationError(
            f"batch size {size} exceeds dataset size {model.n_samples}"
        )
    idx = rng.choice(model.n_samples, size=size, replace=False)
    return Batch(model.x[idx], model.y[idx])


class DeviceArrays:
    """A device population as zero-padded arrays, one row per device.

    ``x (n, S_max, d)`` and ``y (n, S_max)`` hold each device's samples in
    its first ``counts[i]`` slots and zeros after them; ``mask`` marks the
    real samples.  Every device must share one loss family and dimension.
    """

    def __init__(self, models: Sequence[LossModel]):
        if not models:
            raise InvalidInputError("a device population needs at least one device")
        model_class = type(models[0])
        if any(type(m) is not model_class for m in models):
            raise InvalidInputError("devices of one population must share a loss family")
        d = models[0].dim
        if any(m.dim != d for m in models):
            raise InvalidInputError("devices of one population must share a dimension")
        counts = np.array([m.n_samples for m in models])
        mask = np.arange(counts.max()) < counts[:, None]
        x = np.zeros(mask.shape + (d,))
        y = np.zeros(mask.shape)
        x[mask] = np.concatenate([m.x for m in models])
        y[mask] = np.concatenate([m.y for m in models])
        self.model_class = model_class
        self.x, self.y, self.mask, self.counts = x, y, mask, counts
        self.full_weights = mask / counts[:, None]

    def batch_sizes(self, batch_size: int | None) -> np.ndarray:
        """Per-device batch size: the full dataset, or batch_size clamped to it."""
        return self.counts if batch_size is None else np.minimum(batch_size, self.counts)

    def grad(self, weights: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Per-device weighted sum of per-sample gradients, (n, d)."""
        per_sample = self.model_class.per_sample_grad(theta, self.x, self.y)
        return np.einsum("ns,nsd->nd", weights, per_sample)

    def hvp(self, weights: np.ndarray, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-device weighted sum of per-sample Hessian-vector products, (n, d)."""
        per_sample = self.model_class.per_sample_hvp(theta, self.x, self.y, v)
        return np.einsum("ns,nsd->nd", weights, per_sample)

    def loss(self, weights: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Per-device weighted sum of per-sample losses, (n,)."""
        per_sample = self.model_class.per_sample_loss(theta, self.x, self.y)
        return np.einsum("ns,ns->n", weights, per_sample)


def draw_batch_weights(
    g: np.random.Generator, mask: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Batch weights of the three roles of one step for every device, (3, n, S_max).

    One uniform key per (role, device, sample slot), with +inf on padding;
    each device's ``sizes[i]`` smallest keys of a role form its batch, each
    sample weighted ``1/sizes[i]``.  A full-batch device takes every sample.
    """
    keys = np.where(mask, g.random((3,) + mask.shape), np.inf)
    rank = keys.argsort(axis=-1).argsort(axis=-1)
    return (rank < sizes[:, None]) / sizes[:, None]


def batched_meta_gradient(
    data: DeviceArrays, theta: np.ndarray, weights: np.ndarray, hyper: MetaHyper
) -> np.ndarray:
    """``meta_gradient`` of every device row at once, (n, d).

    ``weights[r]`` are the batch weights of role r (D, D', D''), as drawn
    by ``draw_batch_weights``; theta is shared (d,) or per device (n, d).
    """
    alpha = hyper.alpha
    g = data.grad(weights[1], theta - alpha * data.grad(weights[0], theta))
    if hyper.mode == MODE_FIRST_ORDER:
        return g
    if hyper.mode == MODE_HESSIAN:
        hvp = data.hvp(weights[2], theta, g)
    else:
        hvp = finite_difference_hvp(
            lambda t: data.grad(weights[2], t), theta, g, hyper.hv_epsilon
        )
    return g - alpha * hvp


def local_update(
    data: DeviceArrays,
    theta0: np.ndarray,
    hyper: MetaHyper,
    sizes: np.ndarray,
    step_rng: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Run tau local meta-gradient steps on every device at once and score them.

    ``step_rng(step)`` returns the stream of one step; its batches for all
    devices and roles come from ``draw_batch_weights``.  Returns the updated
    parameters (n, d) and the contribution scores (n,)
    u_i = sum_t ||g_t||^2 - 2*(lambda1 + lambda2/sqrt(D_i)) * ||g_t||.
    Raises NumericalError as soon as a meta-gradient or score is non-finite.
    """
    sizes = np.asarray(sizes)
    if sizes.shape != data.counts.shape or np.any((sizes < 1) | (sizes > data.counts)):
        raise ConfigurationError("each batch size must lie between 1 and its dataset size")
    n, _, d = data.x.shape
    theta = np.broadcast_to(np.asarray(theta0, dtype=float), (n, d)).copy()
    u = np.zeros(n)
    penalty = 2.0 * (hyper.lambda1 + hyper.lambda2 / np.sqrt(sizes))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(hyper.tau):
            weights = draw_batch_weights(step_rng(t), data.mask, sizes)
            g = batched_meta_gradient(data, theta, weights, hyper)
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite meta-gradient at local step {t}")
            gn = np.sqrt(np.einsum("nd,nd->n", g, g))
            u += gn * gn - penalty * gn
            theta -= hyper.beta * g
    if not np.all(np.isfinite(u)):
        raise NumericalError("non-finite contribution score")
    return theta, u
