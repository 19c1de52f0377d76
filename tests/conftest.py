"""Shared fixtures: a tiny trained network and its quantized variants.

Fixture-only by design — importable helpers (the model builder, pinned
regression constants) live in :mod:`tests._helpers`, because a bare
``from conftest import ...`` is ambiguous in this repo
(``benchmarks/conftest.py`` shadows this file depending on collection
order).

The fixtures are session-scoped because training even a tiny NumPy network
takes a few seconds; every consumer treats them as read-only.  One autouse
guard fails any test that leaves a ``multiprocessing`` worker running.
"""

from __future__ import annotations

import gc
import multiprocessing

import numpy as np
import pytest

from repro.datasets import DatasetSpec, make_dataset
from repro.nn import Adam, TrainConfig, initialize, train
from repro.quantized import QuantConfig, quantize_model

from tests._helpers import TMR_REGRESSION_SEED, build_tiny_cnn


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small, easy synthetic dataset (4 classes, 16x16)."""
    spec = DatasetSpec(name="tiny", classes=4, image_size=16, noise=0.3, seed=7)
    return make_dataset(spec, train_per_class=40, test_per_class=12)


@pytest.fixture(scope="session")
def tiny_trained(tiny_dataset):
    """A trained tiny CNN (accuracy > 0.9 on its test split)."""
    graph = build_tiny_cnn()
    initialize(graph, 0)
    result = train(
        graph,
        Adam(graph, 3e-3),
        tiny_dataset.train_x,
        tiny_dataset.train_y,
        tiny_dataset.test_x,
        tiny_dataset.test_y,
        TrainConfig(epochs=8, batch_size=32, target_accuracy=0.95),
    )
    assert result.final_eval_accuracy > 0.8, "fixture model failed to train"
    return graph


@pytest.fixture(scope="session")
def tiny_quantized(tiny_trained, tiny_dataset):
    """(standard, winograd) int16 quantizations of the tiny CNN."""
    calib = tiny_dataset.train_x[:64]
    qm_st = quantize_model(tiny_trained, calib, QuantConfig(width=16), "standard")
    qm_wg = quantize_model(tiny_trained, calib, QuantConfig(width=16), "winograd")
    return qm_st, qm_wg


@pytest.fixture(scope="session")
def tiny_eval(tiny_dataset):
    """Evaluation split of the tiny dataset."""
    return tiny_dataset.test_x, tiny_dataset.test_y


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail a test that leaves a new worker process alive after it returns.

    A campaign engine's fork pool lives until the engine is closed or
    dropped; an unreachable engine in a reference cycle is only dropped
    by the collector, hence the ``gc.collect()`` before judging.  Leaked
    workers are reported, not killed: a pool worker killed from outside
    can die holding the pool's queue lock and hang every later shutdown
    of that pool.
    """
    before = {child.pid for child in multiprocessing.active_children()}

    def new_children():
        return [c for c in multiprocessing.active_children() if c.pid not in before]

    yield
    if new_children():
        gc.collect()
    leaked = new_children()
    assert not leaked, f"test leaked worker process(es): {leaked}"


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tmr_regression_seed():
    """The pinned campaign seed for TMR planner regression tests."""
    return TMR_REGRESSION_SEED
