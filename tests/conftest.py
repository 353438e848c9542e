"""Shared fixtures: a fast tiny scenario for mechanics tests."""

from __future__ import annotations

import numpy as np
import pytest

from adarc import (
    CsbmParams,
    PropagationOperator,
    TrainConfig,
    attach_split_masks,
    generate,
    pretrain_on,
)

# --- tiny scale: strong features so a 320-node graph trains in seconds ---

TINY_N = 320
TINY_DIM = 48
TINY_MU = 0.25  # per-entry class-mean magnitude

TINY_TRAIN = TrainConfig(epochs=150, patience=25, hidden=16, num_hops=5, seed=1)


def tiny_params(homophily: float, seed: int, delta: float = 0.0) -> CsbmParams:
    mu = np.full(TINY_DIM, TINY_MU)
    delta_mu = np.full(TINY_DIM, delta)
    return CsbmParams(
        n=TINY_N,
        dim=TINY_DIM,
        mu=mu,
        delta_mu=delta_mu,
        avg_degree=6.0,
        homophily=homophily,
        seed=seed,
    )


@pytest.fixture(scope="session")
def tiny_source():
    dataset = generate(tiny_params(homophily=0.85, seed=11))
    return attach_split_masks(dataset, seed=99)


@pytest.fixture(scope="session")
def tiny_target():
    return generate(tiny_params(homophily=0.15, seed=12))


@pytest.fixture(scope="session")
def tiny_model(tiny_source):
    model, history = pretrain_on(tiny_source, TINY_TRAIN)
    assert history, "tiny pretraining produced no epochs"
    return model


@pytest.fixture()
def tiny_op(tiny_target):
    return PropagationOperator(tiny_target.graph, "sym")
