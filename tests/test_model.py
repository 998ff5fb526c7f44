import numpy as np
import pytest

from openxxx import linalg, model, scalars, vectors
from openxxx.errors import ParameterError, PoleError
from openxxx.model import ModelParams

from conftest import P_VAL, Q_VAL, XI_MINUS, XI_PLUS, make_params


# --- parameters ------------------------------------------------------------------

def test_rho_defining_relation():
    for branch in ("principal", "conjugate"):
        p = make_params(2, branch=branch)
        assert abs(p.rho * (2 - p.rho) + p.xi_plus * p.xi_minus) < 1e-12
        assert abs(p.c_ratio * p.xi_minus - p.rho) < 1e-12


def test_branches_differ():
    a = make_params(2, branch="principal")
    b = make_params(2, branch="conjugate")
    assert abs(a.rho - b.rho) > 0.1
    assert abs((1 - a.rho) + (1 - b.rho)) < 1e-14  # opposite square roots


def test_triangular_c_ratio_exact():
    p = ModelParams.create([0.1], 1.5, 0.7, xi_plus=0.8, xi_minus=0.0)
    assert p.rho == 0
    assert p.c_ratio == -0.4
    with pytest.raises(ParameterError):
        ModelParams.create([0.1], 1.5, 0.7, xi_plus=0.8, xi_minus=0.0, branch="conjugate")


def test_params_validation_errors():
    with pytest.raises(ParameterError):
        ModelParams.create([], 1.0, 1.0)
    with pytest.raises(ParameterError):
        ModelParams.create([0.1, 0.2], 1.0, 1.0, n_sites=3)
    with pytest.raises(ParameterError):
        ModelParams.create([0.1], float("nan"), 1.0)
    with pytest.raises(ParameterError):
        ModelParams.create([0.1], 1.0, 1.0, branch="other")


@pytest.mark.parametrize("n_sites", [model.MAX_SITES + 1, 10**9])
def test_params_reject_chains_beyond_max_sites(n_sites):
    with pytest.raises(ParameterError, match=f"1..{model.MAX_SITES} sites"):
        ModelParams.create([0.0], 1.0, 1.0, n_sites=n_sites)
    if n_sites == model.MAX_SITES + 1:
        with pytest.raises(ParameterError, match=f"1..{model.MAX_SITES} sites"):
            ModelParams.create([0.0] * n_sites, 1.0, 1.0)


def test_with_sites_slices_and_pads():
    p = make_params(3)
    assert p.with_sites(2).theta == p.theta[:2]
    assert p.with_sites(4).theta == p.theta[:3] + (0.0,)


# --- R-matrix ---------------------------------------------------------------------

def test_r_at_zero_is_permutation():
    assert np.array_equal(model.r_matrix(0), model.PERMUTATION)


def test_r_product_identity():
    # R(u) R(-u) = (1 - u^2) I, by direct 4x4 multiplication
    for u in (1.0, 0.3 + 0.2j):
        prod = model.r_matrix(u) @ model.r_matrix(-u)
        assert np.allclose(prod, (1 - u ** 2) * np.eye(4), atol=1e-14)
    assert np.allclose(model.r_matrix(1.0) @ model.r_matrix(-1.0), 0, atol=1e-14)


def test_r_gl2_invariance(rng):
    u = 0.7 - 0.45j
    for _ in range(5):
        q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(q)) < 0.2:
            continue
        assert linalg.commutator_norm(model.r_matrix(u), np.kron(q, q)) < 1e-13


# --- K matrices -------------------------------------------------------------------

def test_k_minus_values(params_n1):
    assert np.allclose(model.k_minus_matrix(0, params_n1), params_n1.p * np.eye(2))
    km = model.k_minus_matrix(-params_n1.p, params_n1)
    assert km[0, 0] == 0


def test_k_plus_values(params_n1):
    u = 0.37 + 0.82j
    kp = model.k_plus_matrix(u, params_n1)
    assert abs(np.trace(kp) - 2 * params_n1.q) < 1e-14
    kp1 = model.k_plus_matrix(-1, params_n1)
    assert kp1[0, 1] == 0 and kp1[1, 0] == 0
    diag = make_params(1, xi_plus=0.0, xi_minus=0.0)
    kpd = model.k_plus_matrix(u, diag)
    assert kpd[0, 1] == 0 and kpd[1, 0] == 0


def test_scalar_reflection_equation(params_n1, rng):
    def residual(k_fn, u, v):
        eye = np.eye(2)
        k1 = np.kron(k_fn(u), eye)
        k2 = np.kron(eye, k_fn(v))
        rm, rp = model.r_matrix(u - v), model.r_matrix(u + v)
        lhs = rm @ k1 @ rp @ k2
        rhs = k2 @ rp @ k1 @ rm
        return np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)

    for _ in range(5):
        u, v = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        assert residual(lambda w: model.k_minus_matrix(w, params_n1), u, v) < 1e-12


# --- monodromies and the open monodromy ---------------------------------------------

def swap_factors(i, j, n):
    """Permutation matrix exchanging two-level factors i and j of n (factor 0 leftmost)."""
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        flip = ((b >> (n - 1 - i)) ^ (b >> (n - 1 - j))) & 1
        out[b ^ (flip << (n - 1 - i)) ^ (flip << (n - 1 - j)), b] = 1
    return out


def explicit_open_k(u, params):
    """R_01...R_0N (K- x I) R_0N...R_01 as dense products, with R_0j(x) = x + P_0j."""
    n = params.n_sites
    eye = np.eye(2 ** (n + 1))
    r_factors = [
        [(u + sign * params.theta[j - 1]) * eye + swap_factors(0, j, n + 1)
         for j in range(1, n + 1)]
        for sign in (-1, 1)
    ]
    k = np.kron(model.k_minus_matrix(u, params), np.eye(2 ** n))
    for r in reversed(r_factors[0]):
        k = r @ k
    for r in reversed(r_factors[1]):
        k = k @ r
    return k


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_open_k_matches_explicit_r_product(n_sites, rng):
    params = make_params(n_sites)
    for _ in range(3):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        expected = explicit_open_k(u, params)
        got = model.open_k_matrix(u, params)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_open_k_at_zero_homogeneous():
    p = ModelParams.create([0.0], P_VAL, Q_VAL, XI_PLUS, XI_MINUS)
    # K(0) = P (p I) P = p I, by direct 4x4 products
    perm = model.PERMUTATION
    expected = perm @ (p.p * np.eye(4)) @ perm
    assert np.allclose(model.open_k_matrix(0, p), expected, atol=1e-14)
    assert np.allclose(expected, p.p * np.eye(4), atol=1e-14)


def test_open_k_entry_degree(params_n2):
    # entries of K(u) are polynomials of degree <= 2N+1
    n = params_n2.n_sites
    deg = 2 * n + 1
    pts = np.array([0.31 + 0.1j, -0.62, 1.2 - 0.3j, 0.8j, -1.4 + 0.2j, 2.1, 0.05 - 0.9j][: deg + 1])
    extra = 1.7 + 0.6j
    for which in ((0, 0), (2, 5), (7, 3)):
        vals = np.array([model.open_k_matrix(u, params_n2)[which] for u in pts])
        coeff = np.polynomial.polynomial.polyfit(pts, vals, deg)
        got = model.open_k_matrix(extra, params_n2)[which]
        assert abs(np.polynomial.polynomial.polyval(extra, coeff) - got) < 1e-8 * max(1, abs(got))


def test_dressed_reflection_equation(params_n2, rng):
    n = params_n2.n_sites
    chain = np.eye(2 ** n)
    p01 = swap_factors(0, 1, n + 2)
    u, v = 0.41 + 0.23j, -0.57 + 0.11j
    k1 = p01 @ np.kron(np.eye(2), model.open_k_matrix(u, params_n2)) @ p01
    k2 = np.kron(np.eye(2), model.open_k_matrix(v, params_n2))
    rm = np.kron(model.r_matrix(u - v), chain)
    rp = np.kron(model.r_matrix(u + v), chain)
    lhs = rm @ k1 @ rp @ k2
    rhs = k2 @ rp @ k1 @ rm
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) < 1e-12


# --- entries and vacuum actions ------------------------------------------------------

def test_vacuum_actions(params_n2):
    omega = model.pseudo_vacuum(2)
    u = 0.53 + 0.37j
    a, b, c, d = model.entry_matrices(u, params_n2)
    assert np.allclose(a @ omega, scalars.lambda1(u, params_n2) * omega, atol=1e-12)
    assert np.allclose(d @ omega, scalars.lambda2(u, params_n2) * omega, atol=1e-12)
    assert np.allclose(c @ omega, 0, atol=1e-13)
    # B lowers the total spin by exactly one unit
    assert abs((b @ omega)[0]) == 0


def test_entry_pole_guard(params_n2):
    with pytest.raises(PoleError):
        model.entry_matrices(-0.5 + 1e-8j, params_n2)


def test_transfer_forms_agree(params_n2):
    for u in (0.4 + 0.3j, -1.2 + 0.7j, 2.2 - 0.5j):
        t1 = model.transfer_matrix(u, params_n2)
        t2 = model.transfer_matrix_from_entries(u, params_n2)
        assert np.linalg.norm(t1 - t2) / np.linalg.norm(t1) < 1e-12


def test_transfer_commutes(params_n3, rng):
    for _ in range(5):
        u, v = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        t_u = model.transfer_matrix(u, params_n3)
        t_v = model.transfer_matrix(v, params_n3)
        assert linalg.commutator_norm(t_u, t_v) < 1e-12


def test_transfer_diagonal_u1_symmetry():
    p = ModelParams.create([0.0], 2.0, 1.3, 0.0, 0.0)
    t = model.transfer_matrix(0.7, p)
    assert abs(t[0, 1]) == 0 and abs(t[1, 0]) == 0


def test_transfer_vacuum_component_lower_triangular():
    # xi+ = 0: <vac| t(u) |vac> = alpha_diag Lambda1 + delta_diag Lambda2
    p = ModelParams.create([0.13], 1.9, 0.8, 0.0, 0.9)
    u = 0.61 + 0.24j
    t = model.transfer_matrix(u, p)
    expected = (
        scalars.alpha_bar_diag(u, p) * scalars.lambda1(u, p)
        + scalars.delta_bar_diag(u, p) * scalars.lambda2(u, p)
    )
    assert abs(t[0, 0] - expected) < 1e-12 * max(1, abs(expected))


# --- Hamiltonian ----------------------------------------------------------------------

def test_hamiltonian_explicit_n2():
    p = ModelParams.create([0.0, 0.0], 1.0, 1.0, 0.0, 0.0)
    h = model.hamiltonian_matrix(p)
    # hand-built oracle
    sz1 = np.diag([1, 1, -1, -1]).astype(complex)
    sz2 = np.diag([1, -1, 1, -1]).astype(complex)
    heis = np.array(
        [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(h, sz1 + heis + sz2, atol=1e-14)
    vac = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(h @ vac, 3 * vac, atol=1e-14)
    assert 3.0 in set(np.round(np.linalg.eigvalsh(h.real + 0.0), 10))


@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_hamiltonian_bulk_is_the_pauli_sum(n_sites):
    # each bond sx sx + sy sy + sz sz, embedded by Kronecker products written
    # here; the swap form 2P - 1 must give the same bits
    p = make_params(n_sites, eta_plus=0.3 - 0.2j, eta_minus=-0.1 + 0.4j)
    paulis = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )

    def embed(op, site):
        return np.kron(np.kron(np.eye(2 ** (site - 1)), op), np.eye(2 ** (n_sites - site)))

    sz, sp, sm = paulis[2], model.SIGMA_PLUS, model.SIGMA_MINUS
    expected = (embed(sz, 1) + p.xi_plus * embed(sp, 1) + p.xi_minus * embed(sm, 1)) / p.q
    for site in range(1, n_sites):
        for pauli in paulis:
            expected = expected + embed(pauli, site) @ embed(pauli, site + 1)
    n = n_sites
    expected = expected + (
        embed(sz, n) + p.eta_plus * embed(sp, n) + p.eta_minus * embed(sm, n)
    ) / p.p
    assert model.hamiltonian_matrix(p).tobytes() == expected.tobytes()


def test_hamiltonian_commutes_with_transfer(rng):
    p = ModelParams.create([0.0, 0.0, 0.0], P_VAL, Q_VAL, XI_PLUS, XI_MINUS)
    h = model.hamiltonian_matrix(p)
    for _ in range(4):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        assert linalg.commutator_norm(h, model.transfer_matrix(u, p)) < 1e-12


def test_hamiltonian_symmetric_for_real_couplings():
    p = ModelParams.create([0.0, 0.0], 1.4, 0.9, 0.5, 0.5, eta_plus=0.3, eta_minus=0.3)
    h = model.hamiltonian_matrix(p)
    assert np.allclose(h, h.T, atol=1e-14)
    assert np.allclose(h.imag, 0, atol=1e-14)


def test_hamiltonian_rejects_zero_strengths():
    p = ModelParams.create([0.0], 0.0, 1.0)
    with pytest.raises(ParameterError):
        model.hamiltonian_matrix(p)


BATCH_BUILDERS = {
    "open_k_matrix": model.open_k_matrix,
    "transfer_matrix": model.transfer_matrix,
    "transfer_matrix_from_entries": model.transfer_matrix_from_entries,
    "entry_matrices": lambda u, p: np.stack(model.entry_matrices(u, p), axis=-3),
    "b_bar_matrix": vectors.b_bar_matrix,
    "rotated_k_matrix": vectors.rotated_k_matrix,
}


@pytest.mark.parametrize("name", BATCH_BUILDERS)
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_batched_builders_equal_their_points_built_one_at_a_time(
    name, n_sites, rng, monkeypatch
):
    # 0-d, (k,) and (k, 2) batches, walked in the default chunks and in chunks
    # of 3 points, so the 40 points cross chunk boundaries at every N
    build = BATCH_BUILDERS[name]
    theta = rng.uniform(-0.3, 0.3, n_sites) + 1j * rng.uniform(-0.3, 0.3, n_sites)
    params = ModelParams.create(theta, P_VAL, Q_VAL, XI_PLUS, XI_MINUS)
    u = rng.uniform(-1.5, 1.5, (20, 2)) + 1j * rng.uniform(-1.5, 1.5, (20, 2))
    single = np.array([[build(complex(x), params) for x in row] for row in u])
    for chunk in (model._CHUNK_ENTRIES, 3 * 4 ** (n_sites + 1)):
        monkeypatch.setattr(model, "_CHUNK_ENTRIES", chunk)
        assert build(u[0, 0], params).shape == single.shape[2:]
        assert np.array_equal(build(u[0, 0], params), single[0, 0])
        assert np.array_equal(build(u[:, 0], params), single[:, 0])
        assert np.array_equal(build(u, params), single)


def test_an_empty_batch_builds_no_matrices(params_n2):
    assert model.transfer_matrix(np.empty(0), params_n2).shape == (0, 4, 4)
    assert vectors.b_bar_matrix(np.empty((0, 3)), params_n2).shape == (0, 3, 4, 4)


def test_batched_pole_guard_names_the_offending_point(params_n2):
    u = np.array([0.3 + 0.1j, -0.5 + 1e-8j, 1.2])
    with pytest.raises(PoleError, match=r"\(-0\.5\+1e-08j\)"):
        model.entry_matrices(u, params_n2)
    with pytest.raises(PoleError, match="-1/2"):
        vectors.b_bar_matrix(u.reshape(3, 1), params_n2)
