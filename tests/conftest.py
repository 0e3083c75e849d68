"""Shared fixtures: small schemas and synthetic DGPs used across suites."""

import numpy as np
import pytest

from pcptest import parallel
from pcptest.data import CategoricalSchema
from pcptest.synth import RhoSpec, SyntheticDGP, WeightLaw, sample_dataset


@pytest.fixture(scope="session")
def small_schema() -> CategoricalSchema:
    return CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(3)))))


def uniform_marginals(schema: CategoricalSchema):
    return tuple(tuple(1.0 / len(codes) for _ in codes) for _, codes in schema.features)


def make_dgp(schema, coef_p, coef_q, rho=None, weights=None, marginals=None):
    return SyntheticDGP(
        schema,
        marginals if marginals is not None else uniform_marginals(schema),
        np.asarray(coef_p, dtype=np.float64),
        np.asarray(coef_q, dtype=np.float64),
        rho if rho is not None else RhoSpec("constant", value=0.0),
        weights if weights is not None else WeightLaw(),
    )


@pytest.fixture(scope="session")
def small_dgp(small_schema) -> SyntheticDGP:
    """Generic DGP on the 4x3 schema: varying p, q, and a tanh rho."""
    return make_dgp(
        small_schema,
        coef_p=[-0.3, 0.4, -0.2, 0.5, 0.3, -0.4],
        coef_q=[-1.8, 0.3, 0.5, -0.3, 0.2, 0.4],
        rho=RhoSpec("tanh", scale=0.2, coefs=(0.0, 1.0, -1.0, 0.5, -0.5, 1.0)),
    )


@pytest.fixture(scope="session")
def small_dataset(small_dgp):
    dataset, _ = sample_dataset(small_dgp, 3000, seed=11)
    return dataset


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` runs every parallel batch of the test on n workers.
    With 1 the units run in this process, so calls a test records in a
    list here are all seen."""
    return lambda n: monkeypatch.setattr(parallel, "worker_count", lambda: n)
