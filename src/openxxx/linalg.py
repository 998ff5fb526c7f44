"""Dense complex linear algebra on tensor products of two-level factors.

Everything is plain ``numpy`` on ``complex128``; operators are immutable by
convention (builders return fresh arrays) and every function here is pure.
The auxiliary space, when present, is always the leftmost tensor factor.
Other factor orders come from ``np.kron`` and the swap P: R13 = P23 R12 P23.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def embed_site(op2, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at ``site`` (1-based, leftmost factor first)."""
    op2 = as_matrix(op2)
    if op2.shape != (2, 2):
        raise DimensionError(f"site operator must be 2x2, got {op2.shape}")
    if not 1 <= site <= n_sites:
        raise DimensionError(f"site {site} out of range 1..{n_sites}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n_sites - site), dtype=complex)
    return np.kron(np.kron(left, op2), right)


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
