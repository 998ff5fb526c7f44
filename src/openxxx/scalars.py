"""Scalar functions of the spectral problem.

Vacuum eigenvalues, the dressed alpha/delta coefficients, the transfer-matrix
eigenvalue Lambda(u) parametrized by Bethe roots, the Bethe-equation residuals
BE_k, the off-shell factor F, and the twelve exchange-relation structure
functions.  All are rational; every public single-point evaluation is
guarded against its poles with an absolute epsilon of ``model.POLE_EPS`` on
the offending linear factor.  Lambda and BE_k share one unguarded kernel,
``reduced_be_terms``, the addends of G_k = BE_k / (lambda_k (lambda_k + 1))
with that factor cancelled, so finite at lambda_k = 0 and -1.  It also
evaluates numpy batches for the solvers with one pass over the factors per
call, and gives G_k's exact Jacobian from prefix and suffix scans of them,
finite where a factor is exactly 0.  The kernel cancels the removable
factors u+p and p-u-1 of the rho term, so the guards cover only 2u+1 and
the root factors u-lambda_j, u+lambda_j+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .errors import ParameterError, PoleError
from .model import POLE_EPS, ModelParams

# Separation below which two roots (or a root and a reflection partner) are
# considered degenerate and the set is rejected.
ROOT_SEPARATION = 1e-8


def _guard(factor: complex, description: str) -> complex:
    if abs(factor) < POLE_EPS:
        raise PoleError(f"pole guard: |{description}| = {abs(factor):.2e} < {POLE_EPS}")
    return factor


# The theta factors and dressed coefficients below are unguarded and
# accept complex numbers and numpy arrays alike; the public entry points
# after them add the pole guards for single points.

def _theta_factors(u, params: ModelParams):
    """(u+1)^2 - theta_j^2 and u^2 - theta_j^2, stacked as shape (2, N) + u's shape."""
    ones = (1,) * getattr(u, "ndim", 0)
    shift = np.array([1.0, 0.0]).reshape((2, 1) + ones)
    return np.square(u + shift) - np.square(params.theta).reshape((-1,) + ones)


def _alpha_bar(u, params: ModelParams, rho):
    return (2 * (u + 1) / (2 * u + 1)) * ((1 - rho) * u + params.q)


def _delta_bar(u, params: ModelParams, rho):
    return params.q - (u + 1) * (1 - rho)


def lambda1(u, params: ModelParams) -> complex:
    """Vacuum eigenvalue of the A entry: (u+p) prod_j ((u+1)^2 - theta_j^2)."""
    u = complex(u)
    return (u + params.p) * np.multiply.reduce(_theta_factors(u, params)[0])


def lambda2(u, params: ModelParams) -> complex:
    """Vacuum eigenvalue of the D entry: (2u/(2u+1))(p-u-1) prod_j (u^2 - theta_j^2)."""
    u = complex(u)
    _guard(2 * u + 1, "2u+1")
    minus = np.multiply.reduce(_theta_factors(u, params)[1])
    return (2 * u / (2 * u + 1)) * (params.p - u - 1) * minus


def alpha_bar(u, params: ModelParams) -> complex:
    u = complex(u)
    _guard(2 * u + 1, "2u+1")
    return _alpha_bar(u, params, params.rho)


def delta_bar(u, params: ModelParams) -> complex:
    return _delta_bar(complex(u), params, params.rho)


def alpha_bar_diag(u, params: ModelParams) -> complex:
    """rho -> 0 limit of alpha_bar."""
    u = complex(u)
    _guard(2 * u + 1, "2u+1")
    return _alpha_bar(u, params, 0.0)


def delta_bar_diag(u, params: ModelParams) -> complex:
    return _delta_bar(complex(u), params, 0.0)


def _guarded_ratio(numerator, factors) -> complex:
    """``numerator`` over the product of the (value, label) ``factors``, guarded in order."""
    return numerator / reduce(mul, [_guard(value, label) for value, label in factors])


def F_factor(u, lam) -> complex:
    """Off-shell coefficient F(u, lambda) = (u+1)/((u+lambda+1)(lambda-u)(lambda+1))."""
    u, lam = complex(u), complex(lam)
    return _guarded_ratio(
        u + 1, ((u + lam + 1, "u+lambda+1"), (lam - u, "lambda-u"), (lam + 1, "lambda+1"))
    )


# --- Appendix structure functions -------------------------------------------
# Each is a numerator over a product of the linear factors u-v, u+v+1, 2u+1
# and 2v+1, listed in the order they are guarded and multiplied.  The last
# two are named q_f, p_f to avoid colliding with the boundary strengths p
# and q.

STRUCTURE_FUNCTIONS = {
    "f": (lambda u, v: (u - v - 1) * (u + v), ("u-v", "u+v+1")),
    "g": (lambda u, v: 2 * v, ("2v+1", "u-v")),
    "w": (lambda u, v: -1, ("u+v+1",)),
    "h": (lambda u, v: (u - v + 1) * (u + v + 2), ("u-v", "u+v+1")),
    "k": (lambda u, v: -2 * (u + 1), ("u-v", "2u+1")),
    "n": (lambda u, v: 4 * v * (u + 1), ("u+v+1", "2v+1", "2u+1")),
    "m": (lambda u, v: 2 * u * (u - v + 1), ("2u+1", "u+v+1", "u-v")),
    "l": (lambda u, v: -2 * u, ("2u+1", "2v+1", "u-v")),
    "q_f": (lambda u, v: u + v, ("u+v+1", "u-v")),
    "p_f": (lambda u, v: -2 * u, ("2u+1", "u-v")),
    "y": (lambda u, v: -1, ("u+v+1", "2v+1")),
    "z": (lambda u, v: -1, ("u+v+1",)),
}


def structure_fn(name: str, u, v) -> complex:
    """Evaluate an exchange-relation structure function by name."""
    try:
        numerator, labels = STRUCTURE_FUNCTIONS[name]
    except KeyError:
        raise ParameterError(f"unknown structure function {name!r}") from None
    u, v = complex(u), complex(v)
    factors = {"u-v": u - v, "u+v+1": u + v + 1, "2u+1": 2 * u + 1, "2v+1": 2 * v + 1}
    return _guarded_ratio(numerator(u, v), [(factors[label], label) for label in labels])


# --- eigenvalue and Bethe residuals ------------------------------------------

def _root_values(roots) -> tuple:
    values = getattr(roots, "roots", roots)
    return tuple(complex(v) for v in values)


def _guard_eigenvalue_point(u, lams) -> complex:
    u = complex(u)
    _guard(2 * u + 1, "2u+1")
    for lam in lams:
        _guard(u - lam, "u-lambda_j")
        _guard(u + lam + 1, "u+lambda_j+1")
    return u


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def lambda_terms(u, roots, params: ModelParams, rho):
    """The three addends of the eigenvalue Lambda(u) for Bethe roots ``roots``.

    Returns ``(alpha_bar lambda1 prod_j f(u, l_j), delta_bar lambda2 prod_j
    h(u, l_j), rho c(u) lambda1 lambda2 prod_j g(u, l_j))`` with
    c(u) = (u+1)(2u+1)/((u+p)(p-u-1)) and g = 1/((u-l)(u+l+1)), as the
    addends of ``reduced_be_terms`` at u over all the roots times -(u+1)/2,
    u/2 and u(u+1).  The factors u+p of lambda1 and p-u-1 of lambda2 cancel
    c's denominator, so u = -p and u = p-1 are no poles.  This is the one
    implementation of Lambda.  It is unguarded and works on complex numbers
    and on numpy arrays of M roots of u's shape stacked along a first axis;
    a pole gives non-finite entries.  ``rho`` is an argument because Lambda
    and BE_k are affine in it for fixed roots, which yields the rho-split parts.
    """
    lams = np.asarray(roots, dtype=complex).reshape((-1,) + getattr(u, "shape", ()))
    t1, t2, t3 = reduced_be_terms(u, lams, params, rho)
    return -(u + 1) / 2 * t1, u / 2 * t2, u * (u + 1) * t3


def _pair_factors(u, lams):
    """(d-1)(s-1) = d s - 2u, (d+1)(s+1) = d s + 2u + 2 and d s, d = u-l, s = u+l+1, stacked."""
    pairs = np.empty((3,) + lams.shape, dtype=complex)  # in place: slot 0 holds s first
    np.subtract(u, lams, out=pairs[2])
    pairs[2] *= np.add(lams, u + 1, out=pairs[0])
    np.subtract(pairs[2], 2 * u, out=pairs[0])
    np.add(pairs[2], 2 * u + 2, out=pairs[1])
    return pairs


def _products(factors, exclusive: bool):
    """Products along axis 1 of stacked ``factors`` and, if ``exclusive``, each without factor j.

    A prefix scan and a suffix scan give the exclusive products: nothing is
    divided, so an exact zero factor leaves every entry finite.
    """
    if not exclusive:
        return np.multiply.reduce(factors, axis=1), None
    excluded = np.empty_like(factors)
    excluded[:, :1] = 1
    for j in range(1, factors.shape[1]):
        np.multiply(excluded[:, j - 1], factors[:, j - 1], out=excluded[:, j])
    total = np.ones(factors.shape[:1] + factors.shape[2:], dtype=complex)
    for j in reversed(range(factors.shape[1])):
        excluded[:, j] *= total
        total *= factors[:, j]
    return total, excluded


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reduced_be_terms(u, lams, params: ModelParams, rho, jacobian=False):
    """The three addends of G_k = BE_k / (u(u+1)) at u = lambda_k, the others being ``lams``.

    G_k = (A1 F + A2 H + 2 rho P M) / D with A1 = k1 P, A2 = k2 M, k1 =
    -4 (q + (1-rho) u)(u + p) / (2u+1), k2 = 4 (q - (1-rho)(u+1))(p - u - 1)
    / (2u+1), P, M the products over the theta_j of (u+1)^2 - theta_j^2 and
    u^2 - theta_j^2, and F, H, D those over the l_j of (d-1)(s-1), (d+1)(s+1)
    and d s.  Nothing is divided by u(u+1), so G_k is finite at u = 0 and -1.
    Each call forms the theta and the pair factors once, reducing the theta
    stack before it makes the pair stack.  ``jacobian`` appends dG_k/du and
    dG_k/dl_j (stacked like ``lams``), dG_k/dl_j = -(2 l_j + 1)(A1 F_j +
    A2 H_j - G_k D_j) / D with X_j the product X without l_j's factor, and
    dG_k/du by the product rule.  The X_j come from the scans of
    ``_products``, so an exact zero factor (a root at -p, p-1 or +-theta_j)
    leaves every entry finite.  Unguarded; arrays as in ``lambda_terms``.
    """
    theta, theta_excluded = _products(_theta_factors(u, params), jacobian)
    pairs, excluded = _products(_pair_factors(u, lams), jacobian)
    q, p, c = params.q, params.p, 2 * u + 1
    k1 = -4 * ((1 - rho) * u + q) * (u + p) / c
    k2 = 4 * (q - (1 - rho) * (u + 1)) * (p - u - 1) / c
    big_a1, big_a2 = k1 * theta[0], k2 * theta[1]
    t1, t2 = big_a1 * pairs[0] / pairs[2], big_a2 * pairs[1] / pairs[2]
    t3 = 2 * rho * theta[0] * theta[1] / pairs[2]
    if not jacobian:
        return t1, t2, t3
    dplus, dminus = theta_excluded.sum(1) * np.array((2 * u + 2, 2 * u))
    da1 = (-4 * ((1 - rho) * (2 * u + p) + q) - 2 * k1) / c * theta[0] + k1 * dplus
    da2 = (4 * ((1 - rho) * (2 * u + 2 - p) - q) - 2 * k2) / c * theta[1] + k2 * dminus
    diag = da1 * pairs[0] + da2 * pairs[1] + 2 * rho * (dplus * theta[1] + theta[0] * dminus)
    coef = np.array((big_a1, big_a2, -(t1 + t2 + t3)))
    # dF/du = (2u-1) sum_j F_j, dH/du = (2u+3) sum_j H_j, dD/du = (2u+1) sum_j D_j
    diag += (coef * np.array((c - 2, c + 2, c)) * excluded.sum(1)).sum(0)
    off = (coef[:, None] * excluded).sum(0)
    return t1, t2, t3, diag / pairs[2], -(2 * lams + 1) * off / pairs[2]


def be_terms(lam_k, others, params: ModelParams, rho):
    """The three addends of BE_k: those of ``reduced_be_terms`` times lambda_k (lambda_k + 1).

    BE_k = (2 lambda_k + 1) Res_{u=lambda_k} Lambda(u): only the k-th root's
    f, h and g factors have a pole there, with residues -2 lambda_k,
    2 (lambda_k + 1) and 1 over (2 lambda_k + 1).  Arrays as in ``lambda_terms``.
    """
    w = lam_k * (lam_k + 1)
    return tuple(w * t for t in reduced_be_terms(lam_k, others, params, rho))


@lru_cache(maxsize=16)
def others_index(n: int) -> np.ndarray:
    """``others[i, k]`` is the i-th of 0..n-1 other than k, shape (n-1, n)."""
    return np.arange(n - 1)[:, None] + np.tril(np.ones((max(n - 1, 0), n), dtype=int))


def _eigenvalue_at(u, roots, params: ModelParams, rho) -> complex:
    lams = _root_values(roots)
    u = _guard_eigenvalue_point(u, lams)
    return sum(lambda_terms(u, lams, params, rho))


def eigenvalue_Lambda(u, roots, params: ModelParams) -> complex:
    """Transfer-matrix eigenvalue at ``u`` for the given Bethe roots.

    Three-term form: dressed alpha/delta terms plus the rho-proportional
    inhomogeneous term.  Valid off shell (arbitrary roots).
    """
    return _eigenvalue_at(u, roots, params, params.rho)


def eigenvalue_Lambda_diag(u, roots, params: ModelParams) -> complex:
    """Diagonal-boundary part of the eigenvalue (rho set to 0, same roots)."""
    return _eigenvalue_at(u, roots, params, 0.0)


def eigenvalue_Lambda_gen(u, roots, params: ModelParams) -> complex:
    """Coefficient of rho in the eigenvalue split Lambda = Lambda_diag + rho * Lambda_gen."""
    return _eigenvalue_at(u, roots, params, 1.0) - _eigenvalue_at(u, roots, params, 0.0)


def _bethe_terms_at(k: int, roots, params: ModelParams, rho):
    lams = _root_values(roots)
    others = np.array(lams[:k] + lams[k + 1:], dtype=complex)
    lam_k = _guard_eigenvalue_point(lams[k], others)
    return be_terms(lam_k, others, params, rho)


def bethe_terms(k: int, roots, params: ModelParams) -> tuple[complex, complex, complex]:
    """The three addends of BE_k; their magnitudes set the natural residual scale."""
    return _bethe_terms_at(k, roots, params, params.rho)


def bethe_residual(k: int, roots, params: ModelParams) -> complex:
    """BE_k in the printed normalization; zero on shell."""
    return sum(bethe_terms(k, roots, params))


def bethe_residual_diag(k: int, roots, params: ModelParams) -> complex:
    return sum(_bethe_terms_at(k, roots, params, 0.0))


def bethe_residual_gen(k: int, roots, params: ModelParams) -> complex:
    """Coefficient of rho in BE_k = BE_k_diag + rho * BE_k_gen."""
    return sum(_bethe_terms_at(k, roots, params, 1.0)) - sum(_bethe_terms_at(k, roots, params, 0.0))


def normalized_be_residual(roots, params: ModelParams) -> float:
    """max_k |BE_k| scaled by the largest of its three addends (floored at 1).

    A non-finite BE_k gives inf, as in the solvers' merit; the empty set gives 0.
    """
    lams = _root_values(roots)
    scaled = []
    for k in range(len(lams)):
        t1, t2, t3 = bethe_terms(k, lams, params)
        scale = max(abs(t1), abs(t2), abs(t3), 1.0)
        scaled.append(abs(t1 + t2 + t3) / scale)
    if not all(math.isfinite(x) for x in scaled):
        return math.inf
    return max(scaled, default=0.0)


# --- root sets ----------------------------------------------------------------

def root_guard_centers(params: ModelParams) -> tuple:
    """Points the random draws of ``verify`` keep clear of: 0, -1, -1/2 and +-theta_j."""
    return (0.0 + 0.0j, -1.0 + 0.0j, -0.5 + 0.0j) + tuple(x for t in params.theta for x in (t, -t))


def roots_admissible(roots, params: ModelParams) -> bool:
    """Whether a root set clears the pole and degeneracy guards.

    Each guarded point x stands for x and its reflection -x - 1.  No root
    lies at 0, where BE_k vanishes identically, or at the pole -1/2.  No set
    holds both theta_j and -theta_j, where prod_j (u^2 - theta_j^2) and
    f(theta_j, -theta_j) make both BE_k vanish whatever the other roots are.
    No pair zeroes a factor d, s, d -+ 1, s -+ 1 of the kernel's pair factors
    (d = l_i - l_j, s = l_i + l_j + 1): d s = 0 is a pole, and a pair l, -l
    near 0 solves both its G_k to O(|l|) whatever the other roots are.  Roots
    at -p and p-1, which the kernel cancels, are admissible.
    """
    lams = _root_values(roots)

    def holds(x) -> bool:
        return any(abs(lam - x) < POLE_EPS or abs(lam + x + 1) < POLE_EPS for lam in lams)

    if holds(0.0) or holds(-0.5) or any(holds(t) and holds(-t) for t in params.theta):
        return False
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            d, s = lams[i] - lams[j], lams[i] + lams[j] + 1
            if min(abs(x + e) for x in (d, s) for e in (-1, 0, 1)) < ROOT_SEPARATION:
                return False
    return True


@dataclass(frozen=True, slots=True)
class BetheRootSet:
    """A solution of the Bethe equations and its normalized BE residual."""

    roots: tuple
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
        if not _finite(self.roots) or not math.isfinite(self.residual_norm):
            raise ParameterError("root set contains non-finite values")

    @property
    def n_roots(self) -> int:
        return len(self.roots)


def _finite(values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)
