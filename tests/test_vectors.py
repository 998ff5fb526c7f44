import itertools

import numpy as np
import pytest

from openxxx import config, linalg, model, scalars, vectors, verify
from openxxx.errors import ContractionError, FrameUnavailableError
from openxxx.model import ModelParams

from conftest import P_VAL, Q_VAL, XI_PLUS, make_params

LAMS2 = (0.43 + 0.77j, -0.21 - 0.53j)
LAMS3 = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)


def overflowing_params():
    """The default model with p = 1e160: its two-step lowering strings overflow."""
    return config.parse_config_dict({"model": {"p": [1e160, 0.0]}}).model


# --- dressed creation operator ------------------------------------------------------

def test_b_bar_diagonal_reduction():
    p = make_params(2, xi_plus=0.0, xi_minus=0.0)
    lam = 0.37 + 0.21j
    bbar = vectors.b_bar_matrix(lam, p)
    b = model.entry_matrices(lam, p)[1]
    assert np.array_equal(bbar, b)


def test_b_bar_commutes(params_n3, rng):
    for _ in range(5):
        u, v = (complex(*rng.uniform(-1.4, 1.4, 2)) for _ in range(2))
        if abs(2 * u + 1) < 0.05 or abs(2 * v + 1) < 0.05:
            continue
        bu = vectors.b_bar_matrix(u, params_n3)
        bv = vectors.b_bar_matrix(v, params_n3)
        assert linalg.commutator_norm(bu, bv) < 1e-12


def test_b_bar_matches_conjugated_block(params_n2):
    u = 0.53 - 0.34j
    kbar = vectors.rotated_k_matrix(u, params_n2)
    d = params_n2.dim
    assert np.allclose(
        kbar[:d, d:], vectors.b_bar_matrix(u, params_n2), atol=1e-12 * np.abs(kbar).max()
    )


# --- rotated frame ---------------------------------------------------------------------

def test_frame_diagonalizes_k_plus(params_n2, rng):
    frame = vectors.RotatedFrame.from_params(params_n2)
    for _ in range(5):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        kp = model.k_plus_matrix(u, params_n2)
        lhs = frame.q_inverse @ kp @ frame.q_matrix
        assert np.allclose(lhs, frame.d_plus(u, params_n2), atol=1e-12 * np.abs(kp).max())


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_rotated_k_matches_kron_conjugation(n_sites, rng):
    params = make_params(n_sites)
    frame = vectors.RotatedFrame.from_params(params)
    eye = np.eye(params.dim, dtype=complex)
    q0 = np.kron(frame.q_matrix, eye)
    q0_inv = np.kron(frame.q_inverse, eye)
    for _ in range(3):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        expected = frame.scale * (q0_inv @ model.open_k_matrix(u, params) @ q0)
        got = vectors.rotated_k_matrix(u, params)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_frame_unavailable_cases():
    tri = ModelParams.create([0.1], 1.5, 0.7, xi_plus=0.8, xi_minus=0.0)
    with pytest.raises(FrameUnavailableError, match="xi_minus"):
        vectors.RotatedFrame.from_params(tri)
    with pytest.raises(FrameUnavailableError):
        vectors.rotated_entry_matrices(0.3, tri)
    lower = ModelParams.create([0.1], 1.5, 0.7, xi_plus=0.0, xi_minus=0.8)
    with pytest.raises(FrameUnavailableError, match="rho\\^2"):
        vectors.RotatedFrame.from_params(lower)


def test_rotated_vacuum_actions(params_n2):
    frame = vectors.RotatedFrame.from_params(params_n2)
    omega = model.pseudo_vacuum(2)
    c = params_n2.c_ratio
    u = 0.44 + 0.18j
    abar, bbar, _, dbar = vectors.rotated_entry_matrices(u, params_n2)
    bvac = bbar @ omega
    lhs_a = abar @ omega
    rhs_a = frame.scale * scalars.lambda1(u, params_n2) * omega - c * bvac
    assert np.allclose(lhs_a, rhs_a, atol=1e-12 * np.linalg.norm(lhs_a))
    lhs_d = dbar @ omega
    rhs_d = (
        frame.scale * scalars.lambda2(u, params_n2) * omega
        + (2 * (u + 1) / (2 * u + 1)) * c * bvac
    )
    assert np.allclose(lhs_d, rhs_d, atol=1e-12 * max(np.linalg.norm(lhs_d), 1))


def test_transfer_from_rotated_frame(params_n3):
    frame = vectors.RotatedFrame.from_params(params_n3)
    u = -0.83 + 0.56j
    abar, _, _, dbar = vectors.rotated_entry_matrices(u, params_n3)
    t_frame = (scalars.alpha_bar(u, params_n3) * abar + scalars.delta_bar(u, params_n3) * dbar)
    t_frame = t_frame / frame.scale
    t = model.transfer_matrix(u, params_n3)
    assert np.linalg.norm(t - t_frame) / np.linalg.norm(t) < 1e-11


# --- Bethe vectors -----------------------------------------------------------------------

def test_bethe_vector_diagonal_reduction():
    p = make_params(2, xi_plus=0.0, xi_minus=0.0)
    phi = vectors.build_bethe_vector(LAMS2, p)
    expected = model.pseudo_vacuum(2)
    for lam in reversed(LAMS2):
        expected = model.entry_matrices(lam, p)[1] @ expected
    assert np.array_equal(phi, expected)


def test_bethe_vector_symmetric_in_roots(params_n3):
    phi = vectors.build_bethe_vector(LAMS3, params_n3)
    phi_perm = vectors.build_bethe_vector(LAMS3[::-1], params_n3)
    assert np.linalg.norm(phi - phi_perm) / np.linalg.norm(phi) < 1e-11


def test_bethe_vector_n1_explicit(params_n1):
    lam = 0.62 - 0.41j
    phi = vectors.build_bethe_vector((lam,), params_n1)
    b = model.entry_matrices(lam, params_n1)[1]
    w = params_n1.c_ratio * (
        (2 * lam / (2 * lam + 1)) * scalars.lambda1(lam, params_n1)
        - scalars.lambda2(lam, params_n1)
    )
    expected = b @ model.pseudo_vacuum(1) + w * model.pseudo_vacuum(1)
    assert np.allclose(phi, expected, atol=1e-12 * np.linalg.norm(expected))


def test_bethe_vector_rejects_too_many_roots(params_n1):
    with pytest.raises(ContractionError):
        vectors.build_bethe_vector((0.3, 0.7), params_n1)


# --- golden W expansion ------------------------------------------------------------------------
# Each test checks the identity the paper's coefficients state, with the closed
# forms plugged in.

def strings(lams, params):
    """Each root subset S (0-based) mapped to B(lam_S)|Omega>."""
    return {
        sub: vectors._b_string_vector([lams[i] for i in sub], params)
        for m in range(len(lams) + 1)
        for sub in itertools.combinations(range(len(lams)), m)
    }


def expansion_error(phi, coeffs, lams, params):
    """Relative error of phi = sum_S W_S B(lam_S)|Omega> over the subsets in ``coeffs``."""
    basis = strings(lams, params)
    terms = [w * basis[sub] for sub, w in coeffs.items()]
    scale = max([np.linalg.norm(phi)] + [np.linalg.norm(t) for t in terms])
    return np.linalg.norm(phi - sum(terms)) / scale


def test_extract_w_n1_golden(params_n1):
    lam = 0.62 - 0.41j
    w = params_n1.c_ratio * (
        (2 * lam / (2 * lam + 1)) * scalars.lambda1(lam, params_n1)
        - scalars.lambda2(lam, params_n1)
    )
    phi = vectors.build_bethe_vector((lam,), params_n1)
    assert expansion_error(phi, {(): w, (0,): 1.0}, (lam,), params_n1) < 1e-12


def test_extract_w_n2_golden(params_n2):
    l1, l2 = LAMS2

    def w1(a, b):
        return params_n2.c_ratio * (
            (2 * b / (2 * b + 1)) * scalars.lambda1(b, params_n2)
            * scalars.structure_fn("f", b, a)
            - scalars.lambda2(b, params_n2) * scalars.structure_fn("h", b, a)
        )

    lam1, lam2 = scalars.lambda1, scalars.lambda2
    c2 = params_n2.c_ratio ** 2
    w_empty = c2 * (
        (l1 + l2 + 2) / (l1 + l2 + 1) * lam2(l1, params_n2) * lam2(l2, params_n2)
        - (2 * l2 / (2 * l2 + 1)) * (l1 - l2 + 1) / (l1 - l2)
        * lam2(l1, params_n2) * lam1(l2, params_n2)
        - (2 * l1 / (2 * l1 + 1)) * (l2 - l1 + 1) / (l2 - l1)
        * lam1(l1, params_n2) * lam2(l2, params_n2)
        + (2 * l1 / (2 * l1 + 1)) * (2 * l2 / (2 * l2 + 1)) * (l1 + l2) / (l1 + l2 + 1)
        * lam1(l1, params_n2) * lam1(l2, params_n2)
    )
    coeffs = {(): w_empty, (0,): w1(l1, l2), (1,): w1(l2, l1), (0, 1): 1.0}
    phi = vectors.build_bethe_vector(LAMS2, params_n2)
    assert expansion_error(phi, coeffs, LAMS2, params_n2) < 1e-12
    # a wrong order-0 coefficient breaks the identity
    assert expansion_error(phi, {**coeffs, (): 1.01 * w_empty}, LAMS2, params_n2) > 1e-4


def test_extract_w_diagonal_all_lower_orders_vanish():
    p = make_params(2, xi_plus=0.0, xi_minus=0.0)
    assert p.c_ratio == 0  # every W below the top order carries a factor c
    phi = vectors.build_bethe_vector(LAMS2, p)
    assert expansion_error(phi, {(0, 1): 1.0}, LAMS2, p) == 0.0


# --- golden V relations ---------------------------------------------------------------------------

def v_formula(u, lams, j):
    num, den = u, lams[j]
    for i, lam in enumerate(lams):
        if i != j:
            num *= (u - lam) * (u + lam + 1)
            den *= (lams[j] - lam) * (lams[j] + lam + 1)
    return num / den


def order_one_error(u, lams, params):
    """Relative error of B(u)|Omega> = sum_j V^j B(lam_j)|Omega>."""
    target = vectors._b_string_vector((u,), params)
    coeffs = {(j,): v_formula(u, lams, j) for j in range(len(lams))}
    return expansion_error(target, coeffs, lams, params)


def test_extract_v_n2_golden(params_n2):
    assert order_one_error(0.91 - 0.27j, LAMS2, params_n2) < 1e-12


def test_extract_v_n3_golden(params_n3):
    assert order_one_error(0.91 - 0.27j, LAMS3, params_n3) < 1e-12


def test_extract_v_full_order_is_z_ratio(params_n2):
    u = 0.91 - 0.27j
    target = vectors._b_string_vector((u, LAMS2[1]), params_n2)
    ratio = vectors.partition_Z((u, LAMS2[1]), params_n2) / vectors.partition_Z(
        LAMS2, params_n2
    )
    assert expansion_error(target, {(0, 1): ratio}, LAMS2, params_n2) < 1e-12


def test_golden_v_sample_builds_each_operator_once(monkeypatch, params_n3):
    # one golden.v_n3 sample builds B(u) and each B(lam_j) once
    builds = []
    open_k = model.open_k_matrix
    monkeypatch.setattr(model, "open_k_matrix", lambda u, p: builds.append(u) or open_k(u, p))
    report = verify.run_suite(params_n3, checks=["golden.v_n3"], n_samples=1)
    assert report.all_pass
    assert len(builds) == 1 + 3


# --- partition function -----------------------------------------------------------------------

def test_partition_z_n1_formula():
    p = ModelParams.create([0.0], 2.0, 1.0, XI_PLUS, 0.9)
    assert abs(vectors.partition_Z((1.0,), p) - 4.0) < 1e-13
    p2 = make_params(1)
    x = 0.77 + 0.31j
    expected = 2 * x * (p2.p - p2.theta[0])
    assert abs(vectors.partition_Z((x,), p2) - expected) < 1e-12 * abs(expected)
    assert abs(vectors.partition_Z((0.0,), p2)) < 1e-14


def test_partition_z_symmetric(params_n3):
    xs = (0.31 + 0.72j, -0.64 + 0.2j, 1.4 - 0.33j)
    z = vectors.partition_Z(xs, params_n3)
    z_perm = vectors.partition_Z(xs[::-1], params_n3)
    assert abs(z - z_perm) < 1e-11 * max(1, abs(z))


def test_partition_z_requires_n_arguments(params_n2):
    with pytest.raises(ContractionError):
        vectors.partition_Z((0.3,), params_n2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_partition_z_non_finite_string_is_named():
    with pytest.raises(ContractionError):
        vectors.partition_Z(LAMS2, overflowing_params())
