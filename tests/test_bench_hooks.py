"""The benchmark's tracing hooks still fit the code.

``bench/spans.py`` wraps module-level functions by name and counts devices
from their arguments and results; a rename or a changed layout would make
every traced benchmark operation fail, so these checks keep the hooks in
the tier-1 suite.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from fmlsim import harness
from fmlsim.harness import ExperimentConfig, run
from fmlsim.metacore import MetaHyper
from fmlsim.tasks import PopulationSpec
from fmlsim.wireless import EnvironmentSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans").LAYERS


def test_every_traced_layer_is_a_callable(layers):
    for name, module, attr in layers:
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    assert callable(harness._round_of_updates) and callable(harness.run)


def test_wireless_round_hooks_see_devices_and_matches(layers, monkeypatch):
    config = ExperimentConfig(
        mode="wireless", rounds=2, n_k=4, batch_size=3,
        population=PopulationSpec(n=10, d=3), hyper=MetaHyper(alpha=0.03, beta=0.02),
        env=EnvironmentSpec(M=3),
    )
    calls = []

    def recording_ural(*args):
        result = ural(*args)
        calls.append((args, result))
        return result

    ural = harness.ural
    monkeypatch.setattr(harness, "ural", recording_ural)
    metrics = run(config)
    n_train = harness.generate_population(config.population, config.seed).train_ids.size
    assert len(calls) == len(metrics) == 2
    assert any(m.selected for m in metrics)
    for (args, (_, sp2)), m in zip(calls, metrics):
        assert len(args[3]) == n_train
        assert len(sp2.z) == len(m.selected) == sp2.rows.size
        assert np.array_equal(np.sort(sp2.z), np.unique(sp2.z))
