"""Synthetic non-IID task populations.

Each device owns a small regression or classification dataset generated
from a mixture of two cluster ground truths (the regression analogue of
"two random classes per device").  Per-class sample counts follow a
truncated Gaussian with a floor of 1.  Everything is reproducible from the
spec and the seed alone.  A population's train and test splits are padded
``DeviceArrays``; a run evaluates their losses on a ``metacore.LossPlan``
of them, which holds a test split that is the training split once.  Each
device's data come from a stream of its own, and the devices' streams are
seeded as one family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigurationError, check_fields
from .metacore import Batch, DeviceArrays, LogisticModel, QuadraticModel

_KEY_CENTERS = 9001
_KEY_DEVICE = 9002
_KEY_SPLIT = 9003

# the loss families a population can be drawn from, by name
FAMILIES = {m.family: m for m in (QuadraticModel, LogisticModel)}


@dataclass
class PopulationSpec:
    """Sampling settings of a device population: size, dimension, family and spreads."""

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
        check_fields(self, at_least_1=("n", "d", "clusters", "classes_per_device", "size_min"),
                     nonnegative=("size_sigma", "param_spread", "cov_spread", "label_noise"),
                     choices={"family": FAMILIES})
        if not 0.0 <= self.train_fraction <= 1.0:
            raise ConfigurationError(f"train_fraction must be in [0, 1], got {self.train_fraction}")
        if self.n_train < 1:
            raise ConfigurationError(f"train_fraction {self.train_fraction} leaves no training "
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
    ``train_fraction``.  The device streams are seeded as one family
    (``rng.family_states``), the same streams as ``rng.stream`` of each key.
    """
    center_rng = rng.stream(seed, _KEY_CENTERS)
    base = np.ones(spec.d)
    centers = base + spec.param_spread * center_rng.standard_normal((spec.clusters, spec.d))
    family = FAMILIES[spec.family]

    datasets: list[Batch] = []
    for state in rng.family_states((seed, _KEY_DEVICE), np.arange(spec.n)):
        g = rng.generator(state)
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
        if family is LogisticModel:
            y = np.where(y >= 0.0, 1.0, -1.0)
        datasets.append(Batch(np.concatenate(xs), y))

    order = rng.stream(seed, _KEY_SPLIT).permutation(spec.n)
    train_ids = np.sort(order[:spec.n_train])
    test_ids = np.sort(order[spec.n_train:])
    train = DeviceArrays(family, [datasets[i] for i in train_ids])
    test = DeviceArrays(family, [datasets[i] for i in test_ids]) if test_ids.size else train
    return Population(train_ids=train_ids, train=train, test=test)
