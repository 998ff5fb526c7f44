import math

import numpy as np
import pytest

from openxxx import linalg
from openxxx.errors import DimensionError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


# Every tensor embedding in the package is np.kron with the left factor most
# significant (the aux space leftmost); the kron tests pin that convention.
def kron_oracle(a, b):
    """Entrywise definition, independent of np.kron."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(rb):
            for k in range(ca):
                for l in range(cb):
                    out[i * rb + j, k * cb + l] = a[i, k] * b[j, l]
    return out


def test_kron_identities():
    assert np.array_equal(np.kron(I2, I2), np.eye(4))
    assert np.allclose(np.diag(np.kron(SZ, I2)), [1, 1, -1, -1])


def test_kron_mixed_product_property(rng):
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    lhs = kron_oracle(a, b) @ kron_oracle(c, d)
    rhs = np.kron(a @ c, b @ d)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_kron_associative(rng):
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    left = np.kron(np.kron(a, b), c)
    right = np.kron(a, np.kron(b, c))
    # entries are pure products of entries; the only slack is the complex
    # multiply rounding (vectorized FMA vs scalar), a couple of ulps
    assert np.allclose(left, kron_oracle(kron_oracle(a, b), c), rtol=1e-14, atol=0)
    assert np.allclose(left, right, rtol=1e-14, atol=0)


def test_embed_site_basics():
    assert np.array_equal(linalg.embed_site(SZ, 1, 1), SZ)
    for k in (1, 2, 3):
        assert np.array_equal(linalg.embed_site(I2, k, 3), np.eye(8))
    with pytest.raises(DimensionError):
        linalg.embed_site(SZ, 3, 2)


def test_block_placement_equals_the_kron_up_to_the_sign_of_zero(rng):
    # array_equal on finite entries is bitwise equality except that -0.0 == +0.0
    op = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    p01 = np.kron(SWAP, np.eye(4))
    for x, expected in [
        (8, [np.kron(k, I2) for k in op]),
        (1, [np.kron(I2, k) for k in op]),
        (2, [p01 @ np.kron(I2, k) @ p01 for k in op]),  # op on factor 0 and the last two
    ]:
        assert np.array_equal(linalg.with_identity(op, x, 2), np.array(expected))


def test_embedded_sites_commute():
    a = linalg.embed_site(SZ, 1, 2)
    b = linalg.embed_site(SX, 2, 2)
    explicit_a = kron_oracle(SZ, I2)
    explicit_b = kron_oracle(I2, SX)
    assert np.array_equal(a, explicit_a)
    assert np.array_equal(b, explicit_b)
    assert np.allclose(explicit_a @ explicit_b - explicit_b @ explicit_a, 0)
    assert linalg.commutator_norm(a, b) == 0


def test_frobenius_of_entries_whose_squares_overflow():
    # the plain norm overflows to inf above ~1e154; a residual divided by it would read 0
    assert linalg.frobenius(np.full((2, 2), 1e200)) == 2e200
    assert linalg.frobenius(np.array([np.inf, 1.0])) == np.inf
    assert linalg.rel_residual(np.full((2, 2), 1e200), 1e200) == 2.0


def test_rel_residual_whose_scale_product_overflows():
    # 1e200 * 1e150 overflows to inf, which read the finite 1e-50 as exactly 0
    got = linalg.rel_residual(np.full(2, 1e300), 1e200, 1e150)
    assert got == pytest.approx(math.sqrt(2) * 1e-50, rel=1e-14, abs=0)


def test_commutator_norm_whose_norm_product_overflows():
    # [a, b] = [[0, 1e300], [0, 0]] is finite while ||a|| ||b|| ~ 1e350 is not
    a = np.array([[1e200, 1e150], [0, 0]], dtype=complex)
    b = np.diag([0, 1e150]).astype(complex)
    assert linalg.commutator_norm(a, b) == pytest.approx(1e-50, rel=1e-14, abs=0)


def test_commutator_norm_values(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.commutator_norm(np.eye(4), m) == 0
    assert linalg.commutator_norm(m, m @ m) < 1e-14
    # Pauli oracle: [sx, sy] = 2i sz, computed from the explicit matrices
    comm = SX @ SY - SY @ SX
    expected = np.linalg.norm(comm) / (np.linalg.norm(SX) * np.linalg.norm(SY))
    assert abs(expected - math.sqrt(2)) < 1e-15
    assert abs(linalg.commutator_norm(SX, SY) - expected) < 1e-15


def test_frobenius_is_bitwise_the_numpy_norm(rng):
    # the same arithmetic as np.linalg.norm on real, complex, strided and transposed arrays
    for i in range(200):
        shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8)
        if i % 2:
            a = a + 1j * rng.standard_normal(shape)
        if a.ndim > 1:
            a = a.T if i % 3 == 0 else a[..., ::2]
        assert linalg.frobenius(a) == float(np.linalg.norm(a))


def test_frobenius_stays_finite_at_1e300_without_a_warning():
    # pytest turns warnings into errors, so an overflow warning from dot would fail here
    a = np.full((3, 3), 1e300 + 1e300j)
    assert linalg.frobenius(a) == pytest.approx(math.sqrt(18) * 1e300, rel=1e-15)
    assert math.isfinite(linalg.frobenius(a.real))


@pytest.mark.parametrize("shape", [(5, 2, 2), (7, 8, 8), (3, 32, 32), (6, 2), (4, 16), (3, 64)])
def test_frobenius_rows_equal_the_scalar_norm_bitwise(rng, shape):
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(
        -6, 6, size=(shape[0],) + (1,) * (len(shape) - 1)
    )
    assert linalg.frobenius_rows(a).tolist() == [linalg.frobenius(row) for row in a]
    b = a[::-1] + 1.0
    assert linalg.rel_residual_rows(a, linalg.frobenius_rows(b)).tolist() == [
        linalg.rel_residual(x, linalg.frobenius(y)) for x, y in zip(a, b)
    ]
    if len(shape) == 3:
        assert linalg.commutator_norm_rows(a, b).tolist() == [
            linalg.commutator_norm(x, y) for x, y in zip(a, b)
        ]


def test_frobenius_rows_rescale_overflow_row_by_row():
    a = np.ones((4, 2, 2), dtype=complex)
    a[1] = 1e200
    a[2, 0, 1] = np.inf
    a[3] = 3e200j
    assert linalg.frobenius_rows(a).tolist() == [2.0, 2e200, np.inf, 6e200]
    assert linalg.frobenius_rows(np.zeros((0, 4, 4))).shape == (0,)
