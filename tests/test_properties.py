"""Property tests: configs reject exactly the invalid values; curves are the spectrum."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from openxxx import bethe, config, model, verify
from openxxx.bethe import SolverConfig
from openxxx.errors import ConfigError

_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-12, 1e-7, 0.5, 1.0, 1.5]),
)

_SOLVER = st.fixed_dictionaries({
    "n_starts": st.one_of(st.none(), st.integers(-5, 600)),
    "max_iter": st.integers(-5, 400),
    "tol": _FLOATS,
    "seed": st.one_of(st.integers(-3, -1), st.integers(0, 2**32 - 1)),
})


def _solver_valid(kw) -> bool:
    return (
        0 < kw["tol"] < math.inf
        and (kw["n_starts"] is None or kw["n_starts"] >= 1)
        and kw["max_iter"] >= 0
        and kw["seed"] >= 0
    )


@settings(max_examples=300, deadline=None)
@given(_SOLVER)
def test_solver_config_rejects_exactly_the_invalid(kw):
    if _solver_valid(kw):
        assert SolverConfig(**kw).max_iter == kw["max_iter"]
    else:
        with pytest.raises(ValueError):
            SolverConfig(**kw)


@settings(max_examples=200, deadline=None)
@given(_SOLVER, st.integers(-3, 40))
def test_config_parse_round_trips_valid_and_rejects_invalid(solver, n_samples):
    doc = {"solver": solver, "n_samples": n_samples}
    if not (_solver_valid(solver) and n_samples >= 1):
        with pytest.raises(ConfigError):
            config.parse_config_dict(doc)
        return
    cfg = config.parse_config_dict(json.loads(json.dumps(doc)))
    assert (cfg.solver, cfg.n_samples) == (SolverConfig(**solver), n_samples)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 3),
    st.sampled_from(["generic", "triangular", "diagonal"]),
)
def test_curves_are_the_eigenvalues_off_the_sampling_circle(seed, n, boundary):
    params = verify.random_params(np.random.default_rng(seed), n)
    if boundary != "generic":
        params = params.replace_couplings(
            xi_minus=0.0, xi_plus=0.0 if boundary == "diagonal" else None
        )
    curves, _, _ = bethe.dense_spectrum_curves(params)
    assert len(curves) == params.dim
    for u in (0.31 + 0.12j, -0.87 + 0.64j, 0.68 - 0.79j, -1.4 - 0.41j):
        eig = np.linalg.eigvals(model.transfer_matrix(u, params))
        vals = np.array([c(u) for c in curves])
        dist = np.abs(eig[:, None] - vals[None, :]) / max(1.0, float(np.abs(eig).max()))
        assert dist.min(axis=0).max() <= 1e-9
        assert dist.min(axis=1).max() <= 1e-9
