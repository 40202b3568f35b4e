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
from .metacore import LogisticModel, LossModel, QuadraticModel, SmoothnessConstants

_KEY_CENTERS = 9001
_KEY_DEVICE = 9002
_KEY_SPLIT = 9003

ROLE_TRAIN = "train"
ROLE_TEST = "test"


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
        if self.family not in ("quadratic-regression", "logistic-regression"):
            raise InvalidInputError(f"family: unknown loss family {self.family!r}")
        if not 0.0 <= self.train_fraction <= 1.0:
            raise InvalidInputError(f"train_fraction must be in [0, 1], got {self.train_fraction}")


@dataclass
class Device:
    device_id: int
    model: LossModel
    role: str
    ground_truths: np.ndarray  # (classes_per_device, d)
    feature_scales: np.ndarray  # (d,)

    @property
    def n_samples(self) -> int:
        return self.model.n_samples


def _truncated_gaussian_count(g: np.random.Generator, spec: PopulationSpec) -> int:
    raw = int(round(g.normal(spec.size_mu, spec.size_sigma)))
    return max(spec.size_min, raw)


def generate_population(spec: PopulationSpec, seed: int) -> list[Device]:
    """Generate the device population; identical output for identical seed."""
    center_rng = rng.stream(seed, _KEY_CENTERS)
    base = np.ones(spec.d)
    centers = base + spec.param_spread * center_rng.standard_normal((spec.clusters, spec.d))

    devices: list[Device] = []
    for i in range(spec.n):
        g = rng.stream(seed, _KEY_DEVICE, i)
        picked = g.choice(spec.clusters, size=min(spec.classes_per_device, spec.clusters),
                          replace=False)
        scales = 1.0 + spec.cov_spread * g.uniform(0.0, 1.0, size=spec.d)
        xs, ys = [], []
        for c in picked:
            count = _truncated_gaussian_count(g, spec)
            x = g.standard_normal((count, spec.d)) * np.sqrt(scales)
            noise = spec.label_noise * g.standard_normal(count)
            signal = x @ centers[c] + noise
            if spec.family == "quadratic-regression":
                y = signal
            else:
                y = np.where(signal >= 0.0, 1.0, -1.0)
            xs.append(x)
            ys.append(y)
        x_all = np.concatenate(xs)
        y_all = np.concatenate(ys)
        model_cls = QuadraticModel if spec.family == "quadratic-regression" else LogisticModel
        devices.append(Device(
            device_id=i,
            model=model_cls(x_all, y_all),
            role=ROLE_TRAIN,
            ground_truths=centers[picked],
            feature_scales=scales,
        ))

    split_rng = rng.stream(seed, _KEY_SPLIT)
    order = split_rng.permutation(spec.n)
    n_train = int(round(spec.train_fraction * spec.n))
    test_ids = set(order[n_train:].tolist())
    for dev in devices:
        dev.role = ROLE_TEST if dev.device_id in test_ids else ROLE_TRAIN
    return devices


def _spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def gradient_noise_std(model: LossModel, theta: np.ndarray) -> float:
    """sqrt of the per-sample gradient variance around the full-data gradient."""
    grads = model.per_sample_grad(theta, model.x, model.y)
    mean = grads.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum((grads - mean) ** 2, axis=1))))


def hessian_noise_std(model: LossModel, theta: np.ndarray) -> float:
    """sqrt of the per-sample Hessian variance (spectral norm) around the mean."""
    hs = model.per_sample_hessian(theta, model.x, model.y)
    mean = hs.mean(axis=0)
    devs = hs - mean
    return float(np.sqrt(np.mean([_spectral_norm(m) ** 2 for m in devs])))


def empirical_gamma_g(devices: list[Device], theta: np.ndarray) -> float:
    """Max pairwise gradient gap at theta (trajectory-empirical similarity constant)."""
    grads = np.stack([d.model.grad(theta) for d in devices])
    worst = 0.0
    for i in range(len(devices)):
        diffs = grads[i + 1:] - grads[i]
        if diffs.size:
            worst = max(worst, float(np.max(np.linalg.norm(diffs, axis=1))))
    return worst


def population_constants(devices: list[Device], alpha: float) -> SmoothnessConstants:
    """Analytic smoothness constants for the generated population.

    zeta and gamma_G depend on the visited iterates and are returned as NaN;
    callers fill them with empirical suprema during a run.
    """
    quadratic = all(isinstance(d.model, QuadraticModel) for d in devices)
    hessians = [d.model.hessian(np.zeros(d.model.dim)) for d in devices]
    L = max(_spectral_norm(h) for h in hessians)
    if quadratic:
        rho = 0.0
    else:
        # per-sample |sigma''| <= 1/(6*sqrt(3)); Hessian-Lipschitz via mean ||x||^3
        rho = max(
            float(np.mean(np.linalg.norm(d.model.x, axis=1) ** 3)) / (6.0 * np.sqrt(3.0))
            for d in devices
        )
    gamma_h = 0.0
    for i in range(len(hessians)):
        for j in range(i + 1, len(hessians)):
            gamma_h = max(gamma_h, _spectral_norm(hessians[i] - hessians[j]))
    theta0 = np.zeros(devices[0].model.dim)
    sigma_g = max(gradient_noise_std(d.model, theta0) for d in devices)
    sigma_h = max(hessian_noise_std(d.model, theta0) for d in devices)
    return SmoothnessConstants(
        alpha=alpha, L=L, rho=rho, sigma_G=sigma_g, sigma_H=sigma_h, gamma_H=gamma_h,
    )
