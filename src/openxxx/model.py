"""Lattice objects of the open XXX chain with boundary couplings.

Builds the rational R-matrix, the scalar boundary matrices, the dressed
monodromy, the A/B/C/D operator entries, the transfer matrix in both its
trace and entry forms, and the Hamiltonian.  Each object has one builder
and every builder returns fresh complex ndarrays; the monodromy builders take
a point or an array of points, batch axes first.  Conventions:

  * auxiliary space = tensor factor 0 (leftmost), chain sites 1..N follow;
  * spin up = basis index 0, so the pseudo-vacuum is the first basis vector;
  * the boundary with couplings (q, xi+, xi-) sits at site 1, the boundary
    with (p, eta+, eta-) at site N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import ParameterError, PoleError

# Spectral-parameter pole guard: evaluations this close to a pole are rejected.
POLE_EPS = 1e-6

# Longest chain a model may have.  The cover holds N+2 dense 2^N x 2^N
# complex t(u) samples, several copies at once: 201 MB per copy at N = 10,
# 872 MB at N = 11.
MAX_SITES = 10

# Most complex entries ``open_k_matrix`` works on at once (128 KiB): a longer
# batch of points is walked in chunks, so each step stays in cache.
_CHUNK_ENTRIES = 8192

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)

# Permutation of the two factors of C^2 x C^2.
PERMUTATION = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def principal_sqrt(z: complex) -> complex:
    """Square root with Re >= 0, ties broken toward Im >= 0."""
    w = complex(np.sqrt(complex(z)))
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    return w


def _finite(*values) -> bool:
    return all(np.isfinite(np.asarray(v, dtype=complex)).all() for v in values)


@dataclass(frozen=True)
class ModelParams:
    """Chain length, inhomogeneities and boundary couplings, plus derived data.

    ``rho = 1 - sqrt(1 + xi_plus*xi_minus)`` (sign of the root set by
    ``branch``) and ``c_ratio = rho/xi_minus``, stored explicitly so the
    triangular limit xi_minus -> 0 is the exact value -xi_plus/2 rather
    than a fragile division.
    """

    n_sites: int
    theta: tuple
    p: complex
    q: complex
    xi_plus: complex
    xi_minus: complex
    eta_plus: complex
    eta_minus: complex
    rho: complex
    c_ratio: complex
    branch: str

    @classmethod
    def create(
        cls,
        theta,
        p,
        q,
        xi_plus=0.0,
        xi_minus=0.0,
        eta_plus=0.0,
        eta_minus=0.0,
        branch: str = "principal",
        n_sites: int | None = None,
    ) -> "ModelParams":
        theta = tuple(complex(t) for t in theta)
        if n_sites is None:
            n_sites = len(theta)
        if not 1 <= n_sites <= MAX_SITES or len(theta) != n_sites:
            raise ParameterError(
                f"need 1..{MAX_SITES} sites with one inhomogeneity each, "
                f"got {len(theta)} for N={n_sites}"
            )
        if branch not in ("principal", "conjugate"):
            raise ParameterError(f"unknown branch {branch!r}")
        p, q = complex(p), complex(q)
        xi_plus, xi_minus = complex(xi_plus), complex(xi_minus)
        eta_plus, eta_minus = complex(eta_plus), complex(eta_minus)
        if not _finite(theta, p, q, xi_plus, xi_minus, eta_plus, eta_minus):
            raise ParameterError("model parameters must be finite")
        root = principal_sqrt(1 + xi_plus * xi_minus)
        if branch == "conjugate":
            root = -root
        rho = 1 - root
        if xi_minus != 0:
            c_ratio = rho / xi_minus
        elif branch == "principal":
            c_ratio = -xi_plus / 2
        else:
            raise ParameterError(
                "c_ratio = rho/xi_minus diverges on the conjugate branch at xi_minus = 0"
            )
        params = cls(
            n_sites=n_sites,
            theta=theta,
            p=p,
            q=q,
            xi_plus=xi_plus,
            xi_minus=xi_minus,
            eta_plus=eta_plus,
            eta_minus=eta_minus,
            rho=complex(rho),
            c_ratio=complex(c_ratio),
            branch=branch,
        )
        params.validate()
        return params

    def validate(self) -> None:
        scale = max(1.0, abs(self.xi_plus * self.xi_minus))
        if abs(self.rho * (2 - self.rho) + self.xi_plus * self.xi_minus) > 1e-12 * scale:
            raise ParameterError("rho does not satisfy rho(2 - rho) + xi+ xi- = 0")
        if self.xi_minus != 0:
            if abs(self.c_ratio * self.xi_minus - self.rho) > 1e-12 * max(1.0, abs(self.rho)):
                raise ParameterError("c_ratio * xi_minus != rho")
        elif self.branch == "principal" and self.c_ratio != -self.xi_plus / 2:
            raise ParameterError("triangular limit requires c_ratio = -xi_plus/2")
        if len(self.theta) != self.n_sites:
            raise ParameterError("len(theta) != n_sites")

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites

    def with_sites(self, n_sites: int) -> "ModelParams":
        """Same boundary couplings on a chain of ``n_sites`` (theta sliced/zero-padded)."""
        theta = (self.theta + (0.0,) * n_sites)[:n_sites]
        return ModelParams.create(
            theta,
            self.p,
            self.q,
            self.xi_plus,
            self.xi_minus,
            self.eta_plus,
            self.eta_minus,
            branch=self.branch,
            n_sites=n_sites,
        )

    def replace_couplings(self, xi_plus=None, xi_minus=None) -> "ModelParams":
        xp = self.xi_plus if xi_plus is None else xi_plus
        xm = self.xi_minus if xi_minus is None else xi_minus
        return ModelParams.create(
            self.theta, self.p, self.q, xp, xm, self.eta_plus, self.eta_minus,
            branch=self.branch,
        )


def pseudo_vacuum(n_sites: int) -> np.ndarray:
    """All spins up."""
    v = np.zeros(2 ** n_sites, dtype=complex)
    v[0] = 1.0
    return v


def r_matrix(u) -> np.ndarray:
    """Rational R-matrix u + P on C^2 x C^2, at one point or at each point of an array."""
    return np.asarray(u, dtype=complex)[..., None, None] * np.eye(4, dtype=complex) + PERMUTATION


def k_minus_matrix(u, params: ModelParams) -> np.ndarray:
    """Diagonal scalar reflection matrix diag(p+u, p-u)."""
    u = complex(u)
    return np.array([[params.p + u, 0], [0, params.p - u]], dtype=complex)


def k_plus_matrix(u, params: ModelParams) -> np.ndarray:
    """Left boundary matrix with off-diagonal couplings xi+- (dual reflection solution)."""
    u = complex(u)
    return np.array(
        [
            [params.q + u + 1, params.xi_plus * (u + 1)],
            [params.xi_minus * (u + 1), params.q - u - 1],
        ],
        dtype=complex,
    )


@lru_cache(maxsize=None)
def _swap_columns(a: int, b: int, n_factors: int) -> np.ndarray:
    """Index map sigma with M[:, sigma] = M P_ab: swap tensor factors a and b.

    Factors count from 0 at the leftmost, most significant one.
    """
    idx = np.arange(2 ** n_factors)
    bit_a, bit_b = n_factors - 1 - a, n_factors - 1 - b
    differ = ((idx >> bit_a) ^ (idx >> bit_b)) & 1
    swapped = idx ^ (differ << bit_a) ^ (differ << bit_b)
    swapped.flags.writeable = False
    return swapped


def pointwise(fn, u, count: int = 1) -> np.ndarray:
    """``count`` Python-complex values fn(x) per point x of ``u``: (count,) + u.shape + (1, 1)."""
    u = np.asarray(u, dtype=complex)
    values = np.array([fn(complex(x)) for x in u.flat], dtype=complex)
    return values.reshape(u.size, count).T.reshape((count,) + u.shape + (1, 1))


def _times_r(k: np.ndarray, shift, j: int, n_sites: int, taken: np.ndarray) -> None:
    """k <- k R_0j(shift) = shift k + k P_0j in place, ``taken`` holding k P_0j."""
    k.take(_swap_columns(0, j, n_sites + 1), axis=-1, out=taken, mode="clip")
    np.multiply(shift, k, out=k)
    k += taken


def open_k_matrix(u, params: ModelParams) -> np.ndarray:
    """Dressed monodromy T K- That = R_01...R_0N (K- x I) R_0N...R_01 on aux x chain.

    T has the factors R_0j(u - th_j), That R_0j(u + th_j).  Built from the
    identity by column operations alone: right-multiplying by R_0j(x) =
    x + P_0j is a scaled add of permuted columns, and K- x I scales the
    aux-up / aux-down column blocks.  An array ``u`` gives u's shape followed
    by (2^(N+1), 2^(N+1)), built in chunks of ``_CHUNK_ENTRIES``.
    """
    u = np.asarray(u, dtype=complex)
    n, d = params.n_sites, params.dim
    out = np.empty(u.shape + (2 * d, 2 * d), dtype=complex)
    points, ks = u.reshape(-1, 1, 1), out.reshape(-1, 2 * d, 2 * d)
    step = max(1, _CHUNK_ENTRIES // (4 * d * d))
    for start in range(0, len(points), step):
        x, k = points[start:start + step], ks[start:start + step]
        k[...] = np.eye(2 * d)
        taken = np.empty_like(k)
        for j in range(1, n + 1):
            _times_r(k, x - params.theta[j - 1], j, n, taken)
        k[..., :d] *= params.p + x
        k[..., d:] *= params.p - x
        for j in range(n, 0, -1):
            _times_r(k, x + params.theta[j - 1], j, n, taken)
    return out


def guard_half(u) -> np.ndarray:
    """``u`` as a complex array, after checking no point is within POLE_EPS of -1/2."""
    u = np.asarray(u, dtype=complex)
    near = np.abs(u + 0.5) < POLE_EPS
    if near.any():
        raise PoleError(f"spectral parameter {complex(u[near][0])} within {POLE_EPS} of -1/2")
    return u


def split_entries(k: np.ndarray, u) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A, B, C and D - A/(2u+1): the aux blocks of ``k``, the last with its A part removed."""
    d = k.shape[-1] // 2
    a = k[..., :d, :d]
    pole = 2 * np.asarray(u)[..., None, None] + 1
    return a, k[..., :d, d:], k[..., d:, :d], k[..., d:, d:] - a / pole


def entry_matrices(u, params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw A, B, C, D blocks of the open monodromy (D with its A/(2u+1) part removed)."""
    u = guard_half(u)
    return split_entries(open_k_matrix(u, params), u)


def transfer_matrix(u, params: ModelParams) -> np.ndarray:
    """Transfer matrix Tr_aux(K+ K); polynomial in u, defined everywhere."""
    k11, k12, k21, k22 = pointwise(lambda x: k_plus_matrix(x, params).ravel(), u, 4)
    k = open_k_matrix(u, params)
    d = params.dim
    return (
        k11 * k[..., :d, :d] + k12 * k[..., d:, :d]
        + k21 * k[..., :d, d:] + k22 * k[..., d:, d:]
    )


def transfer_matrix_from_entries(u, params: ModelParams) -> np.ndarray:
    """Transfer matrix recombined from the A/B/C/D entries.

    Equals the trace form away from u = -1/2, where the entry split has a
    removable pole.
    """
    a, b, c, d = entry_matrices(u, params)
    c_a, c_bc, c_d = pointwise(
        lambda x: (2 * (x + params.q) * (x + 1) / (2 * x + 1), x + 1, params.q - x - 1), u, 3
    )
    return c_a * a + c_bc * (params.xi_minus * b + params.xi_plus * c) + c_d * d


def hamiltonian_matrix(params: ModelParams) -> np.ndarray:
    """Boundary XXX Hamiltonian.

    (1/q)(sz_1 + xi+ s+_1 + xi- s-_1) + sum_n vec(s)_n . vec(s)_{n+1}
    + (1/p)(sz_N + eta+ s+_N + eta- s-_N); the bulk sum is empty at N=1.
    Each bond is vec(s)_n . vec(s)_{n+1} = 2 P_(n,n+1) - 1.
    """
    if params.p == 0 or params.q == 0:
        raise ParameterError("boundary strengths p, q must be nonzero for the Hamiltonian")
    n = params.n_sites
    h = (
        linalg.embed_site(SIGMA_Z, 1, n)
        + params.xi_plus * linalg.embed_site(SIGMA_PLUS, 1, n)
        + params.xi_minus * linalg.embed_site(SIGMA_MINUS, 1, n)
    ) / params.q
    eye = np.eye(params.dim, dtype=complex)
    for site in range(1, n):
        h = h + (2 * eye[:, _swap_columns(site - 1, site, n)] - eye)
    h = h + (
        linalg.embed_site(SIGMA_Z, n, n)
        + params.eta_plus * linalg.embed_site(SIGMA_PLUS, n, n)
        + params.eta_minus * linalg.embed_site(SIGMA_MINUS, n, n)
    ) / params.p
    return h
