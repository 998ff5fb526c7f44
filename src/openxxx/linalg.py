"""Dense complex linear algebra on tensor products of two-level factors.

Everything is plain ``numpy`` on ``complex128``; operators are immutable by
convention (builders return fresh arrays) and every function here is pure.
The auxiliary space, when present, is always the leftmost tensor factor.
An operator is embedded among identity factors by block placement
(``with_identity``), which gives ``np.kron``'s entries without its products.
"""

from __future__ import annotations

import math

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
    right = with_identity(op2[None], 2, 2 ** (n_sites - site))
    return with_identity(right, 1, 2 ** (site - 1))[0]


def with_identity(op, x: int, m: int) -> np.ndarray:
    """Each op of a stack on factors X (dimension ``x``) and Y, with I_m placed between them.

    x = dim gives np.kron(op, I_m) and x = 1 gives np.kron(I_m, op).  Each op is
    copied into its blocks, never multiplied by the identity's entries, so a
    finite op gives the kron's entries up to the sign of zero (the kron's
    products by zero can read -0.0, a placed zero reads +0.0).
    """
    out = np.zeros((len(op),) + (x, m, op.shape[-1] // x) * 2, dtype=complex)
    idx = np.arange(m)
    out[:, :, idx, :, :, idx] = op.reshape(out.shape[:2] + out.shape[3:5] + out.shape[6:])
    return out.reshape(len(op), m * op.shape[-1], -1)


def frobenius_rows(a) -> np.ndarray:
    """Frobenius norm of each ``a[i]``, finite whenever it is representable.

    The plain norm squares the entries, so finite entries above ~1e154 overflow
    it to inf; such a row is rescaled by its largest real or imaginary part.
    Each row is ``np.linalg.norm``'s own arithmetic, bit for bit, without its
    dispatch: a stacked row-by-column matmul sums as ``dot`` does (``einsum``
    and summed squares do not).
    """
    a = np.asarray(a)
    flat = a.reshape(len(a), 1, math.prod(a.shape[1:]))
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        norms = np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])
    for i in np.flatnonzero(norms == np.inf):
        if np.isfinite(a[i]).all():
            big = float(max(np.abs(a[i].real).max(), np.abs(a[i].imag).max()))
            norms[i] = big * float(np.linalg.norm(a[i] / big))
    return norms


def frobenius(a) -> float:
    """Frobenius norm of one array, its entries in memory order: a one-row ``frobenius_rows``."""
    return float(frobenius_rows(np.ravel(a, order="K")[None])[0])


def commutator_norm_rows(a, b) -> np.ndarray:
    """Relative commutator residual ||ab - ba||_F / max(||a||_F ||b||_F, 1) of each pair of rows."""
    return rel_residual_rows(a @ b - b @ a, frobenius_rows(a), frobenius_rows(b))


def commutator_norm(a, b) -> float:
    """``commutator_norm_rows`` of two square matrices of the same shape."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionError(f"incompatible shapes {a.shape} and {b.shape}")
    return float(commutator_norm_rows(a[None], b[None])[0])


@np.errstate(all="ignore")
def rel_residual_rows(diff, *scales) -> np.ndarray:
    """Norm of each row of ``diff`` relative to the product of its scales (floored at 1).

    A scale is a number or one per row.  A product that overflows to inf is
    divided out one scale at a time, so a finite residual does not read 0.
    """
    norms, denom = frobenius_rows(diff), np.ones(len(diff))
    divided = norms
    for s in scales:
        denom, divided = denom * s, divided / s
    return np.where(denom == np.inf, divided, norms / np.maximum(denom, 1.0))


def rel_residual(diff, *scales) -> float:
    """``rel_residual_rows`` of one array, its entries in memory order."""
    return float(rel_residual_rows(np.ravel(diff, order="K")[None], *scales)[0])
