import math

import numpy as np
import pytest

from ptmarkov import (
    build_process_tensor,
    ic_basis,
    model_b1,
    model_b2,
    model_b3,
    model_markov,
)
from ptmarkov.random_ops import random_cptp

from oracles import P0, PP


@pytest.fixture(scope="session")
def basis2():
    return ic_basis(2)


@pytest.fixture(scope="session")
def b1_model():
    return model_b1(gamma=1.0, g=1.0)


@pytest.fixture(scope="session")
def b1_pt(b1_model):
    """B.1 tensor on a gamma*g*dt = 1 two-step grid."""
    return build_process_tensor(b1_model, (0.0, 1.0, 2.0))


@pytest.fixture(scope="session")
def b2_model():
    return model_b2(omega=1.0)


@pytest.fixture(scope="session")
def b2_pt(b2_model):
    """B.2 tensor with omega*dt = pi/4 steps."""
    theta = math.pi / 4
    return build_process_tensor(b2_model, (0.0, theta, 2 * theta))


@pytest.fixture(scope="session")
def b2_pure_pt3():
    """B.2 tensor from the pure state |0> over three omega*dt = 0.7 steps:
    memory behind a break with a two-slot past, and conditionals of zero
    probability."""
    return build_process_tensor(model_b2(omega=1.0, rho_s=P0),
                                (0.0, 0.7, 1.4, 2.1))


@pytest.fixture(scope="session")
def b3_states():
    return PP.copy(), P0.copy()


@pytest.fixture(scope="session")
def b3_model(b3_states):
    rho_s, rho_e = b3_states
    return model_b3(rho_s, rho_e)


@pytest.fixture(scope="session")
def b3_pt(b3_model):
    return build_process_tensor(b3_model, (0.0, 1.0, 2.0))


@pytest.fixture(scope="session")
def markov_maps():
    rng = np.random.default_rng(11)
    return [random_cptp(2, rng) for _ in range(3)]


@pytest.fixture(scope="session")
def markov_model2(markov_maps):
    return model_markov(markov_maps[:2], np.eye(2) / 2)


@pytest.fixture(scope="session")
def markov_pt2(markov_model2):
    return build_process_tensor(markov_model2, (0.0, 1.0, 2.0))


@pytest.fixture(scope="session")
def markov_model3(markov_maps):
    rng = np.random.default_rng(12)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    return model_markov(markov_maps, rho0)


@pytest.fixture(scope="session")
def markov_pt3(markov_model3):
    return build_process_tensor(markov_model3, (0.0, 1.0, 2.0, 3.0))
