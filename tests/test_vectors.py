import numpy as np
import pytest

from openxxx import config, linalg, model, scalars, vectors
from openxxx.errors import ContractionError, DegenerateBasisError, FrameUnavailableError
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


# --- W extraction ---------------------------------------------------------------------------

def test_extract_w_n1_golden(params_n1):
    lam = 0.62 - 0.41j
    tables = vectors.extract_W((lam,), params_n1)
    w = params_n1.c_ratio * (
        (2 * lam / (2 * lam + 1)) * scalars.lambda1(lam, params_n1)
        - scalars.lambda2(lam, params_n1)
    )
    assert abs(tables[0][()] - w) < 1e-10 * max(1, abs(w))
    assert abs(tables[1][(1,)] - 1) < 1e-10


def test_extract_w_n2_golden(params_n2):
    l1, l2 = LAMS2
    tables = vectors.extract_W(LAMS2, params_n2)

    def w1(a, b):
        return params_n2.c_ratio * (
            (2 * b / (2 * b + 1)) * scalars.lambda1(b, params_n2)
            * scalars.structure_fn("f", b, a)
            - scalars.lambda2(b, params_n2) * scalars.structure_fn("h", b, a)
        )

    assert abs(tables[1][(1,)] - w1(l1, l2)) < 1e-10 * max(1, abs(w1(l1, l2)))
    assert abs(tables[1][(2,)] - w1(l2, l1)) < 1e-10 * max(1, abs(w1(l2, l1)))
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
    assert abs(tables[0][()] - w_empty) < 1e-10 * max(1, abs(w_empty))
    assert abs(tables[2][(1, 2)] - 1) < 1e-10


def test_extract_w_diagonal_all_lower_orders_vanish():
    p = make_params(2, xi_plus=0.0, xi_minus=0.0)
    tables = vectors.extract_W(LAMS2, p)
    assert abs(tables[0][()]) < 1e-12
    assert all(abs(v) < 1e-12 for v in tables[1].entries.values())


def test_extract_w_roundtrip(params_n3):
    tables = vectors.extract_W(LAMS3, params_n3)
    from math import comb

    for m, table in enumerate(tables):
        assert table.order == m
        assert len(table.entries) == comb(3, m)  # complete over all subsets
    phi = vectors.build_bethe_vector(LAMS3, params_n3)
    recon = np.zeros_like(phi)
    for table in tables:
        for sub, w in table.entries.items():
            recon = recon + w * vectors._b_string_vector(
                [LAMS3[i - 1] for i in sub], params_n3
            )
    assert np.linalg.norm(recon - phi) / np.linalg.norm(phi) < 1e-9


def test_extract_w_degenerate_basis(params_n2):
    with pytest.raises(DegenerateBasisError):
        vectors.extract_W((0.4 + 0.2j, 0.4 + 0.2j + 1e-13), params_n2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_w_non_finite_basis_is_named():
    with pytest.raises(DegenerateBasisError, match="non-finite"):
        vectors.extract_W(LAMS2, overflowing_params())


# --- V extraction ----------------------------------------------------------------------------

def v_formula(u, lams, j):
    num, den = u, lams[j]
    for i, lam in enumerate(lams):
        if i != j:
            num *= (u - lam) * (u + lam + 1)
            den *= (lams[j] - lam) * (lams[j] + lam + 1)
    return num / den


def test_extract_v_n2_golden(params_n2):
    u = 0.91 - 0.27j
    table = vectors.extract_V(u, (), LAMS2, params_n2)
    for j, sub in enumerate([(1,), (2,)]):
        expected = v_formula(u, LAMS2, j)
        assert abs(table[sub] - expected) < 1e-10 * max(1, abs(expected))
    at_root = vectors.extract_V(LAMS2[0], (), LAMS2, params_n2)
    assert abs(at_root[(1,)] - 1) < 1e-10
    assert abs(at_root[(2,)]) < 1e-10


def test_extract_v_n3_golden(params_n3):
    u = 0.91 - 0.27j
    table = vectors.extract_V(u, (), LAMS3, params_n3)
    for j, sub in enumerate([(1,), (2,), (3,)]):
        expected = v_formula(u, LAMS3, j)
        assert abs(table[sub] - expected) < 1e-10 * max(1, abs(expected))


def test_extract_v_full_order_is_z_ratio(params_n2):
    u = 0.91 - 0.27j
    table = vectors.extract_V(u, (2,), LAMS2, params_n2)
    ratio = vectors.partition_Z((u, LAMS2[1]), params_n2) / vectors.partition_Z(
        LAMS2, params_n2
    )
    assert abs(table[(1, 2)] - ratio) < 1e-10 * max(1, abs(ratio))


def test_extract_v_validates_subset(params_n2):
    with pytest.raises(DegenerateBasisError):
        vectors.extract_V(0.3, (1, 2), LAMS2 + (0.9,), params_n2)
    with pytest.raises(DegenerateBasisError):
        vectors.extract_V(0.3, (5,), LAMS2, params_n2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_extract_v_non_finite_basis_is_named():
    with pytest.raises(DegenerateBasisError, match="non-finite"):
        vectors.extract_V(0.91 - 0.27j, (2,), LAMS2, overflowing_params())


def test_extract_builds_each_root_operator_once(monkeypatch, params_n3):
    builds = []
    open_k = model.open_k_matrix
    monkeypatch.setattr(model, "open_k_matrix", lambda u, p: builds.append(u) or open_k(u, p))
    vectors.extract_W(LAMS3, params_n3)
    assert len(builds) == 3 + 3  # Bbar(lam_i) for Phi, then B(lam_i) for all 8 strings
    builds.clear()
    u = 0.91 - 0.27j
    table = vectors.extract_V(u, (2, 3), LAMS3, params_n3)
    assert len(builds) == 1 + 3  # B(u) and each B(lam_i)
    target = vectors._b_string_vector((u,) + LAMS3[1:], params_n3)
    column = vectors._b_string_vector(LAMS3, params_n3)
    expected = vectors._solve_in_sector([column], target, 3, 3, "extract_V")
    assert table[(1, 2, 3)] == expected[0]


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
