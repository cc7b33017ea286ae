from __future__ import annotations

import numpy as np
import pytest

from adwynn.adaptive import Scenario, WynnConfig
from adwynn.model import (
    Box,
    FiniteSet,
    ModelSpec,
    ParameterSpace,
    exponential_decay,
    michaelis_menten,
    one_param_exponential,
    polynomial,
)
from adwynn.noise import IIDGaussian


@pytest.fixture(scope="session")
def mm_bundle():
    return michaelis_menten()


@pytest.fixture(scope="session")
def poly1_bundle():
    return polynomial(degree=1)


@pytest.fixture(scope="session")
def expdecay_bundle():
    return exponential_decay()


@pytest.fixture(scope="session")
def exp1_bundle():
    return one_param_exponential()


def _exp_lin_mu(x, theta):
    x = np.asarray(x, dtype=float)
    th = np.asarray(theta, dtype=float)
    return th[..., 0] * np.exp(-th[..., 1] * x[..., 0]) + th[..., 2] * x[..., 1]


def _exp_lin_f(x, theta):
    x = np.asarray(x, dtype=float)
    th = np.asarray(theta, dtype=float)
    e = np.exp(-th[..., 1] * x[..., 0])
    out = np.empty(np.broadcast_shapes(e.shape, x[..., 1].shape) + (3,))
    out[..., 0] = e
    out[..., 1] = -th[..., 0] * x[..., 0] * e
    out[..., 2] = x[..., 1]
    return out


_i = np.arange(23)
# two-dimensional regions of the p = 3 model: a 21 x 11 scan grid over
# [0, 2] x [0, 1], and 23 points of that rectangle on a rank-1 lattice
EXP_LIN_REGIONS = {
    "box": Box([0.0, 0.0], [2.0, 1.0], (21, 11)),
    "finite": FiniteSet(np.stack([2.0 * _i / 22, (7 * _i % 23) / 22], axis=1)),
}


@pytest.fixture(scope="session", params=sorted(EXP_LIN_REGIONS))
def exp_lin_scenario(request):
    """mu = t1 exp(-t2 x1) + t3 x2 with theta in [0.5, 2]^3 at theta_bar =
    (1, 1, 1), sigma = 0.1 and n_max = 300, on each region kind."""
    return Scenario(
        ModelSpec("exp_plus_linear", 3, _exp_lin_mu, _exp_lin_f),
        EXP_LIN_REGIONS[request.param],
        ParameterSpace([0.5] * 3, [2.0] * 3),
        np.array([1.0, 1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=300),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
