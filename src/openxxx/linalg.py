"""Dense complex linear algebra on tensor products of two-level factors.

Everything is plain ``numpy`` on ``complex128``; operators are immutable by
convention (builders return fresh arrays) and every function here is pure.
The auxiliary space, when present, is always the leftmost tensor factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# Hard cap on dense operator dimension (2^14 = chain of 13 sites as a vector,
# 6 sites as a full aux+chain operator).  Keeps every product at desk scale.
MAX_DIM = 2 ** 14


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor most significant."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_DIM or a.shape[1] * b.shape[1] > MAX_DIM:
        raise DimensionError(
            f"kron result {a.shape[0] * b.shape[0]} exceeds dense cap {MAX_DIM}"
        )
    return np.kron(a, b)


def embed_site(op2, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at ``site`` (1-based, leftmost factor first)."""
    op2 = as_matrix(op2)
    if op2.shape != (2, 2):
        raise DimensionError(f"site operator must be 2x2, got {op2.shape}")
    if not 1 <= site <= n_sites:
        raise DimensionError(f"site {site} out of range 1..{n_sites}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n_sites - site), dtype=complex)
    return kron(kron(left, op2), right)


def reorder_factors(m, src_order) -> np.ndarray:
    """Permute the two-level tensor factors of a square matrix.

    ``src_order[i]`` names the logical factor currently sitting at position
    ``i``; the result has factors in natural order ``0..n-1``.
    """
    m = as_matrix(m)
    n = len(src_order)
    if m.shape != (2 ** n, 2 ** n):
        raise DimensionError(f"matrix shape {m.shape} does not match {n} factors")
    if sorted(src_order) != list(range(n)):
        raise DimensionError(f"src_order {src_order!r} is not a permutation")
    axes = [list(src_order).index(k) for k in range(n)]
    t = m.reshape((2,) * (2 * n))
    t = t.transpose(axes + [a + n for a in axes])
    return np.ascontiguousarray(t.reshape(2 ** n, 2 ** n))


def embed_factors(op, positions, n_factors: int) -> np.ndarray:
    """Embed ``op`` acting on the listed factors (in that order) into ``n_factors``.

    Covers two-site R-matrix embeddings as well as placing an aux+chain
    operator inside a larger aux1 x aux2 x chain space.
    """
    op = as_matrix(op)
    k = len(positions)
    if op.shape != (2 ** k, 2 ** k):
        raise DimensionError(f"operator shape {op.shape} does not match {k} factors")
    if len(set(positions)) != k or not all(0 <= p < n_factors for p in positions):
        raise DimensionError(f"invalid factor positions {positions!r}")
    rest = [f for f in range(n_factors) if f not in positions]
    big = kron(op, np.eye(2 ** (n_factors - k), dtype=complex))
    return reorder_factors(big, list(positions) + rest)


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def commutator_norm(a, b) -> float:
    """Relative commutator residual ||ab - ba||_F / max(||a||_F ||b||_F, 1)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    return frobenius(a @ b - b @ a) / max(frobenius(a) * frobenius(b), 1.0)


def rel_residual(diff, *scales) -> float:
    """Norm of ``diff`` relative to the product of the given scales (floored at 1)."""
    denom = 1.0
    for s in scales:
        denom *= float(s)
    return float(np.linalg.norm(np.asarray(diff))) / max(denom, 1.0)
