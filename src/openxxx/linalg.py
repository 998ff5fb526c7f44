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
    """Frobenius norm, finite whenever it is representable.

    The plain norm squares the entries, so finite entries above ~1e154 overflow
    it to inf; those are rescaled by their largest real or imaginary part.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if norm == np.inf and np.isfinite(a).all():
        big = float(max(np.abs(a.real).max(), np.abs(a.imag).max()))
        norm = big * float(np.linalg.norm(a / big))
    return norm


def commutator_norm(a, b) -> float:
    """Relative commutator residual ||ab - ba||_F / max(||a||_F ||b||_F, 1)."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    return rel_residual(a @ b - b @ a, frobenius(a), frobenius(b))


def rel_residual(diff, *scales) -> float:
    """Norm of ``diff`` relative to the product of the given scales (floored at 1).

    A product that overflows to inf is divided out one scale at a time, so a
    finite residual does not read 0.
    """
    norm, denom = frobenius(diff), 1.0
    for s in scales:
        denom *= float(s)
    if denom == np.inf:
        for s in scales:
            norm /= float(s)
        return norm
    return norm / max(denom, 1.0)
