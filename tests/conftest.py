import numpy as np
import pytest

from openxxx import model, scalars
from openxxx.model import ModelParams

# Fixed generic complex boundary parameters, clear of every degeneracy guard.
P_VAL = 1.7 + 0.3j
Q_VAL = 0.9 - 0.2j
XI_PLUS = 0.6 + 0.1j
XI_MINUS = 1.1 - 0.4j
THETAS = (0.2 + 0.1j, -0.3 + 0.05j, 0.12 - 0.2j, -0.07 + 0.15j)


def make_params(n_sites, xi_plus=XI_PLUS, xi_minus=XI_MINUS, **kw):
    return ModelParams.create(
        THETAS[:n_sites], P_VAL, Q_VAL, xi_plus, xi_minus, **kw
    )


def eigvals_error(roots, params, points) -> float:
    """Worst distance from Lambda(u) of ``roots`` to eigvals(t(u)) over ``points``.

    Each distance is relative to the largest eigenvalue magnitude (floored at 1).
    """
    worst = 0.0
    for u in points:
        eig = np.linalg.eigvals(model.transfer_matrix(u, params))
        value = scalars.eigenvalue_Lambda(u, roots, params)
        worst = max(worst, float(np.abs(eig - value).min()) / max(1.0, np.abs(eig).max()))
    return worst


@pytest.fixture
def params_n1():
    return make_params(1)


@pytest.fixture
def params_n2():
    return make_params(2)


@pytest.fixture
def params_n3():
    return make_params(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
