"""Boundary Bethe vectors and the lowering strings they expand into.

The conjectured eigenvectors are N-fold products of the dressed creation
operator Bbar acting on the all-up vacuum.  This module builds Bbar
(``b_bar_matrix``), the rotated entries Abar..Dbar obtained by diagonalizing
the left boundary matrix (``rotated_entry_matrices``), and the vectors
themselves (on or off shell), each Bbar and rotated entry at a point or an
array of points.  The lowering-string contraction Z^N is the
coefficient of the all-down vector in a pure B-string; a leaking or
non-finite string raises ``ContractionError``.  The paper's closed-form
coefficients W (Bethe vector over undressed B-strings) and V (B(u)|Omega> over
the root strings) are checked as the vector identities they state by the
``golden.*`` checks of ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, scalars
from .errors import ContractionError, FrameUnavailableError
from .model import ModelParams

CONTRACTION_TOL = 1e-12


def b_bar_matrix(lam, params: ModelParams) -> np.ndarray:
    """Dressed creation operator B + c((2u/(2u+1))A - D) - c^2 C with c = rho/xi-."""
    a, b, c_op, d = model.entry_matrices(lam, params)
    (ratio,) = model.pointwise(lambda x: 2 * x / (2 * x + 1), lam)
    c = params.c_ratio
    # Not c * (...): numpy's in-place reuse of a large temporary swaps the operands.
    return b + np.multiply(c, ratio * a - d) - c ** 2 * c_op


@dataclass(frozen=True)
class RotatedFrame:
    """Conjugation data diagonalizing the left boundary matrix.

    ``q_matrix`` has the two eigenvectors of K+ as columns; ``scale`` is
    det(Q)/xi_minus^2, the prefactor relating the conjugated open monodromy
    to the rotated generators.  The frame only exists when Q is invertible,
    i.e. xi+ xi- is neither 0 (diagonal/triangular cases) nor -1 (degenerate
    square root); ``from_params`` raises ``FrameUnavailableError`` otherwise.
    """

    q_matrix: np.ndarray
    q_inverse: np.ndarray
    scale: complex

    @classmethod
    def from_params(cls, params: ModelParams) -> "RotatedFrame":
        if params.xi_minus == 0:
            raise FrameUnavailableError("xi_minus = 0: rotation matrix is singular")
        det = params.xi_plus * params.xi_minus + params.rho ** 2
        if abs(det) < 1e-12 * max(1.0, abs(params.xi_plus * params.xi_minus)):
            raise FrameUnavailableError("xi+ xi- + rho^2 = 0: rotation matrix is singular")
        q = np.array(
            [[params.xi_plus, params.rho], [-params.rho, params.xi_minus]], dtype=complex
        )
        q_inv = np.array(
            [[params.xi_minus, -params.rho], [params.rho, params.xi_plus]], dtype=complex
        ) / det
        scale = det / params.xi_minus ** 2
        frame = cls(q, q_inv, complex(scale))
        q.flags.writeable = False
        q_inv.flags.writeable = False
        return frame

    def d_plus(self, u, params: ModelParams) -> np.ndarray:
        """Diagonalized left boundary: diag(q +- (u+1)(1-rho))."""
        u = complex(u)
        gap = (u + 1) * (1 - params.rho)
        return np.array([[params.q + gap, 0], [0, params.q - gap]], dtype=complex)


def rotated_k_matrix(u, params: ModelParams) -> np.ndarray:
    """scale * Q0^{-1} K0(u) Q0 on aux x chain."""
    frame = RotatedFrame.from_params(params)
    k = model.open_k_matrix(u, params)
    # Q0 = Q x I only mixes the 2x2 aux blocks of K.
    blocks = k.reshape(k.shape[:-2] + (2, params.dim, 2, params.dim))
    q_inverse = frame.scale * frame.q_inverse
    kbar = np.einsum("ac,...cidj,db->...aibj", q_inverse, blocks, frame.q_matrix)
    return kbar.reshape(k.shape)


def rotated_entry_matrices(
    u, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rotated generators (Abar, Bbar, Cbar, Dbar) from exact conjugation.

    Dbar is the (1,1) block with its Abar/(2u+1) part removed, mirroring the
    unrotated entry split.
    """
    u = model.guard_half(u)
    return model.split_entries(rotated_k_matrix(u, params), u)


def operator_tails(ops, vec) -> list[np.ndarray]:
    """[ops[k] ... ops[-1] vec for k = 0..len(ops)], by matvecs from the right."""
    tails = [vec]
    for op in reversed(ops):
        tails.append(op @ tails[-1])
    return tails[::-1]


def bethe_vector_tails(roots, params: ModelParams) -> tuple[list, list]:
    """Each root's Bbar(lam_j), and their ``operator_tails`` on |Omega> (Phi first)."""
    lams = scalars._root_values(roots)
    if len(lams) > params.n_sites:
        raise ContractionError(
            f"{len(lams)} lowering operators annihilate a chain of {params.n_sites} sites"
        )
    ops = list(b_bar_matrix(np.array(lams, dtype=complex), params))
    return ops, operator_tails(ops, model.pseudo_vacuum(params.n_sites))


def build_bethe_vector(roots, params: ModelParams) -> np.ndarray:
    """Bbar(lam_1)...Bbar(lam_M)|Omega>; roots need not satisfy the Bethe equations.

    M = n_sites for the general ansatz; M < n_sites builds the dressed
    M-excitation vectors used in the diagonal-sector reductions.
    """
    return bethe_vector_tails(roots, params)[1][0]


def _b_string_vector(values, params: ModelParams) -> np.ndarray:
    """B(x_1)...B(x_m)|Omega> (undressed lowering string)."""
    ops = list(model.entry_matrices(np.array(values, dtype=complex), params)[1])
    return operator_tails(ops, model.pseudo_vacuum(params.n_sites))[0]


def partition_Z(xs, params: ModelParams) -> complex:
    """Coefficient of the all-down vector in an N-fold lowering string.

    The string must land entirely on the lowest-weight vector; any leakage
    into other sectors signals an operator-construction bug and raises.
    """
    xs = tuple(complex(x) for x in xs)
    if len(xs) != params.n_sites:
        raise ContractionError(
            f"partition function needs {params.n_sites} arguments, got {len(xs)}"
        )
    vec = _b_string_vector(xs, params)
    z = vec[-1]
    off = np.abs(vec[:-1]).max() if params.dim > 1 else 0.0
    if not off <= CONTRACTION_TOL * max(abs(z), 1.0):
        raise ContractionError(
            f"lowering string leaked outside the all-down component: {off:.2e} "
            f"against an all-down coefficient of {abs(z):.2e}"
        )
    return complex(z)
