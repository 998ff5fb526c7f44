"""Boundary Bethe vectors and their expansion coefficients.

The conjectured eigenvectors are N-fold products of the dressed creation
operator Bbar acting on the all-up vacuum.  This module builds Bbar
(``b_bar_matrix``), the rotated entries Abar..Dbar obtained by diagonalizing
the left boundary matrix (``rotated_entry_matrices``), the vectors themselves
(on or off shell), and extracts the transmission coefficients W and the
linear-dependence coefficients V numerically by sector-wise linear solves.
The lowering-string contraction Z^N is the coefficient of the all-down
vector in a pure B-string.  A non-finite or ill-conditioned basis raises
``DegenerateBasisError`` and a leaking or non-finite string raises
``ContractionError``; no extraction returns NaN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model, scalars
from .errors import ContractionError, DegenerateBasisError, FrameUnavailableError
from .model import ModelParams

# Gram condition number above which a coefficient-extraction basis is
# declared degenerate; genericity of the roots is enforced, not assumed.
MAX_BASIS_CONDITION = 1e10

CONTRACTION_TOL = 1e-12


def b_bar_matrix(lam, params: ModelParams) -> np.ndarray:
    """Dressed creation operator B + c((2u/(2u+1))A - D) - c^2 C with c = rho/xi-."""
    lam = model.guard_half(lam)
    a, b, c_op, d = model.entry_matrices(lam, params)
    c = params.c_ratio
    return b + c * ((2 * lam / (2 * lam + 1)) * a - d) - c ** 2 * c_op


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
    d = params.dim
    # Q0 = Q x I only mixes the 2x2 aux blocks of K.
    kbar = np.einsum(
        "ac,cidj,db->aibj", frame.scale * frame.q_inverse, k.reshape(2, d, 2, d), frame.q_matrix
    )
    return kbar.reshape(2 * d, 2 * d)


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
    ops = [b_bar_matrix(lam, params) for lam in lams]
    return ops, operator_tails(ops, model.pseudo_vacuum(params.n_sites))


def build_bethe_vector(roots, params: ModelParams) -> np.ndarray:
    """Bbar(lam_1)...Bbar(lam_M)|Omega>; roots need not satisfy the Bethe equations.

    M = n_sites for the general ansatz; M < n_sites builds the dressed
    M-excitation vectors used in the diagonal-sector reductions.
    """
    return bethe_vector_tails(roots, params)[1][0]


def _b_string_vector(values, params: ModelParams) -> np.ndarray:
    """B(x_1)...B(x_m)|Omega> (undressed lowering string)."""
    ops = [model.entry_matrices(x, params)[1] for x in values]
    return operator_tails(ops, model.pseudo_vacuum(params.n_sites))[0]


@lru_cache(maxsize=None)
def _sector_indices(n_sites: int, m: int) -> tuple:
    """Basis indices with exactly m down spins (site 1 = most significant bit)."""
    return tuple(i for i in range(2 ** n_sites) if bin(i).count("1") == m)


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients indexed by ordered site subsets of a fixed order m."""

    order: int
    entries: dict

    def __getitem__(self, subset) -> complex:
        return self.entries[tuple(subset)]


def _solve_in_sector(columns, target, n_sites: int, m: int, what: str) -> np.ndarray:
    """Solve sum_i x_i columns_i = target restricted to the m-down-spin sector."""
    idx = list(_sector_indices(n_sites, m))
    a = np.array([col[idx] for col in columns], dtype=complex).T
    b = np.asarray(target, dtype=complex)[idx]
    if a.size == 0:
        return np.zeros(0, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DegenerateBasisError(f"{what}: non-finite basis or target at order m={m}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > MAX_BASIS_CONDITION:
        raise DegenerateBasisError(
            f"{what}: basis at order m={m} has condition number {cond:.2e}"
        )
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def extract_W(roots, params: ModelParams, fit_tol: float = 1e-9) -> list[CoefficientTable]:
    """Expand the Bethe vector over undressed B-strings, one table per order.

    Solves sector by sector for the coefficients W_{i1..im} multiplying
    B(lam_i1)...B(lam_im)|Omega>, then checks the reconstruction reproduces
    the vector to ``fit_tol`` (relative).  Only the direct development of the
    ansatz is extracted; rewritings via the Bethe equations are out of scope.
    """
    lams = scalars._root_values(roots)
    n = params.n_sites
    if len(lams) != n:
        raise DegenerateBasisError(f"need {n} roots for the order-N expansion, got {len(lams)}")
    phi = build_bethe_vector(lams, params)
    ops = [model.entry_matrices(lam, params)[1] for lam in lams]
    omega = model.pseudo_vacuum(n)
    terms, tables = [], []
    for m in range(n + 1):
        subsets = list(itertools.combinations(range(1, n + 1), m))
        columns = [operator_tails([ops[i - 1] for i in sub], omega)[0] for sub in subsets]
        coeffs = _solve_in_sector(columns, phi, n, m, "extract_W")
        tables.append(CoefficientTable(m, dict(zip(subsets, coeffs))))
        terms += zip(coeffs, columns)
    recon = np.zeros_like(phi)
    for w, vec in terms:
        recon += w * vec
    scale = max(float(np.linalg.norm(phi)), 1.0)
    if not np.linalg.norm(recon - phi) <= fit_tol * scale:
        raise DegenerateBasisError("extract_W: reconstruction residual exceeds tolerance")
    return tables


def extract_V(u, fixed, roots, params: ModelParams) -> CoefficientTable:
    """Coefficients expressing B(u)B(lam_{j2})...B(lam_{jm})|Omega> in the root basis.

    ``fixed`` lists the sites j2 < ... < jm whose roots stay in the string;
    the result is indexed by the order-m subsets {i1 < ... < im}.
    """
    lams = scalars._root_values(roots)
    n = params.n_sites
    fixed = tuple(sorted(int(j) for j in fixed))
    m = len(fixed) + 1
    if m > n:
        raise DegenerateBasisError(f"order m={m} exceeds chain length {n}")
    if any(not 1 <= j <= n for j in fixed):
        raise DegenerateBasisError(f"fixed subset {fixed!r} out of range 1..{n}")
    ops = [model.entry_matrices(x, params)[1] for x in (complex(u),) + lams]
    omega = model.pseudo_vacuum(n)
    target = operator_tails([ops[0]] + [ops[j] for j in fixed], omega)[0]
    subsets = list(itertools.combinations(range(1, n + 1), m))
    columns = [operator_tails([ops[i] for i in sub], omega)[0] for sub in subsets]
    coeffs = _solve_in_sector(columns, target, n, m, "extract_V")
    return CoefficientTable(m, dict(zip(subsets, coeffs)))


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
