"""Property tests: solver settings and run configs reject exactly the invalid values."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from openxxx import config
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
    "seed": st.integers(0, 2**32 - 1),
    "jacobian_step": _FLOATS,
    "damping": _FLOATS,
})


def _solver_valid(kw) -> bool:
    return (
        0 < kw["tol"] < math.inf
        and (kw["n_starts"] is None or kw["n_starts"] >= 1)
        and kw["max_iter"] >= 0
        and 0 < kw["jacobian_step"] < math.inf
        and 0 < kw["damping"] <= 1
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
    cfg = config.parse_config_dict(doc)
    text = json.dumps(config.config_to_dict(cfg))
    assert config.parse_config_dict(json.loads(text)) == cfg
