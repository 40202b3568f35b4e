"""Synthetic non-IID task populations.

Each device owns a small regression or classification dataset generated
from a mixture of two cluster ground truths (the regression analogue of
"two random classes per device").  Per-class sample counts follow a
truncated Gaussian with a floor of 1.  Everything is reproducible from the
spec and the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InvalidInputError
from .metacore import DeviceArrays, LogisticModel, LossModel, QuadraticModel, SmoothnessConstants

_KEY_CENTERS = 9001
_KEY_DEVICE = 9002
_KEY_SPLIT = 9003

# the loss families a population can be drawn from, by name
FAMILIES = {m.family: m for m in (QuadraticModel, LogisticModel)}


@dataclass
class PopulationSpec:
    n: int = 100
    d: int = 5
    family: str = "quadratic-regression"
    clusters: int = 10
    classes_per_device: int = 2
    size_mu: float = 5.0
    size_sigma: float = 5.0
    size_min: int = 1
    param_spread: float = 1.0
    cov_spread: float = 0.5
    label_noise: float = 0.1
    train_fraction: float = 0.5

    def __post_init__(self):
        for name in ("n", "d", "clusters", "classes_per_device", "size_min"):
            if (value := getattr(self, name)) < 1:
                raise InvalidInputError(f"{name} must be at least 1, got {value}")
        for name in ("size_sigma", "param_spread", "cov_spread", "label_noise"):
            if (value := getattr(self, name)) < 0:
                raise InvalidInputError(f"{name} must be nonnegative, got {value}")
        if self.family not in FAMILIES:
            raise InvalidInputError(f"family: unknown loss family {self.family!r}")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise InvalidInputError(f"train_fraction must be in [0, 1], got {self.train_fraction}")
        if self.n_train < 1:
            raise InvalidInputError(f"train_fraction {self.train_fraction} leaves no training "
                                    f"device among n={self.n}")

    @property
    def n_train(self) -> int:
        return int(round(self.train_fraction * self.n))


@dataclass
class Population:
    """A run's devices: training ids (ascending, one per training row), train and test arrays.

    ``test`` is ``train`` when the split leaves no test device.
    """

    train_ids: np.ndarray
    train: DeviceArrays
    test: DeviceArrays


def _truncated_gaussian_count(g: np.random.Generator, spec: PopulationSpec) -> int:
    raw = int(round(g.normal(spec.size_mu, spec.size_sigma)))
    return max(spec.size_min, raw)


def generate_population(spec: PopulationSpec, seed: int) -> Population:
    """The devices and their train/test split; identical output for identical seed.

    The data of device i come from its own stream ``(seed, _KEY_DEVICE, i)``
    and the split from ``(seed, _KEY_SPLIT)``, so no device depends on
    ``train_fraction``.
    """
    center_rng = rng.stream(seed, _KEY_CENTERS)
    base = np.ones(spec.d)
    centers = base + spec.param_spread * center_rng.standard_normal((spec.clusters, spec.d))
    model_cls = FAMILIES[spec.family]

    models: list[LossModel] = []
    for i in range(spec.n):
        g = rng.stream(seed, _KEY_DEVICE, i)
        picked = g.choice(spec.clusters, size=min(spec.classes_per_device, spec.clusters),
                          replace=False)
        scales = 1.0 + spec.cov_spread * g.uniform(0.0, 1.0, size=spec.d)
        xs, signals = [], []
        for c in picked:
            count = _truncated_gaussian_count(g, spec)
            x = g.standard_normal((count, spec.d)) * np.sqrt(scales)
            noise = spec.label_noise * g.standard_normal(count)
            xs.append(x)
            signals.append(x @ centers[c] + noise)
        y = np.concatenate(signals)
        if model_cls is LogisticModel:
            y = np.where(y >= 0.0, 1.0, -1.0)
        models.append(model_cls(np.concatenate(xs), y))

    order = rng.stream(seed, _KEY_SPLIT).permutation(spec.n)
    train_ids = np.sort(order[:spec.n_train])
    test_ids = np.sort(order[spec.n_train:])
    train = DeviceArrays([models[i] for i in train_ids])
    test = DeviceArrays([models[i] for i in test_ids]) if test_ids.size else train
    return Population(train_ids=train_ids, train=train, test=test)


def _spectral_norm(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in the trailing two axes."""
    return np.linalg.norm(m, 2, axis=(-2, -1))


def _sample_mean(data: DeviceArrays, per_sample: np.ndarray) -> np.ndarray:
    """Each row's mean of a per-sample quantity (n, S_max, ...) over its real samples."""
    trailing = (1,) * (per_sample.ndim - 2)
    total = np.where(data.mask.reshape(data.mask.shape + trailing), per_sample, 0.0).sum(axis=1)
    return total / data.counts.reshape((-1,) + trailing)


def gradient_noise_std(data: DeviceArrays, theta: np.ndarray) -> np.ndarray:
    """Per row, sqrt of the per-sample gradient variance at theta, (d,) or one per row."""
    grads = data.model_class.per_sample_grad(theta, data.x, data.y)
    devs = grads - _sample_mean(data, grads)[:, None]
    return np.sqrt(_sample_mean(data, np.sum(devs ** 2, axis=-1)))


def hessian_noise_std(data: DeviceArrays, theta: np.ndarray) -> np.ndarray:
    """Per row, sqrt of the per-sample Hessian variance (spectral norm) around the mean."""
    hs = data.model_class.per_sample_hessian(theta, data.x, data.y)
    devs = hs - _sample_mean(data, hs)[:, None]
    return np.sqrt(_sample_mean(data, _spectral_norm(devs) ** 2))


def empirical_gamma_g(data: DeviceArrays, theta: np.ndarray) -> float:
    """Max pairwise gradient gap at theta (trajectory-empirical similarity constant)."""
    grads = data.grad(data.full_weights, theta)
    return float(np.linalg.norm(grads[:, None] - grads[None], axis=-1).max())


def population_constants(data: DeviceArrays, alpha: float) -> SmoothnessConstants:
    """Analytic smoothness constants of a population, at theta = 0.

    zeta and gamma_G depend on the iterate and are returned as NaN;
    ``theorem1_bound`` fills them with their empirical values at its theta.
    """
    theta0 = np.zeros(data.x.shape[-1])
    hessians = _sample_mean(data, data.model_class.per_sample_hessian(theta0, data.x, data.y))
    # per-sample |sigma''| <= 1/(6*sqrt(3)); Hessian-Lipschitz via mean ||x||^3
    cubes = _sample_mean(data, np.linalg.norm(data.x, axis=-1) ** 3)
    rho = 0.0 if data.model_class is QuadraticModel else float(cubes.max()) / (6.0 * np.sqrt(3.0))
    return SmoothnessConstants(
        alpha=alpha,
        L=float(_spectral_norm(hessians).max()),
        rho=rho,
        sigma_G=float(gradient_noise_std(data, theta0).max()),
        sigma_H=float(hessian_noise_std(data, theta0).max()),
        gamma_H=float(_spectral_norm(hessians[:, None] - hessians[None]).max()),
    )
