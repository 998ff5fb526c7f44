import math

import numpy as np
import pytest

from openxxx import linalg
from openxxx.errors import DimensionError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


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
