"""Scalar functions of the spectral problem.

Vacuum eigenvalues, the dressed alpha/delta coefficients, the transfer-matrix
eigenvalue Lambda(u) parametrized by Bethe roots, the Bethe-equation residuals
BE_k, the off-shell factor F, and the twelve exchange-relation structure
functions.  All are rational; every public single-point evaluation is
guarded against its poles with an absolute epsilon of ``model.POLE_EPS`` on
the offending linear factor.  Lambda and BE_k share one unguarded kernel,
``lambda_terms``, which also evaluates numpy batches for the solvers.  The
kernel cancels the removable factors u+p and p-u-1 of the rho term, so the
guards cover only 2u+1 and the root factors u-lambda_j, u+lambda_j+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import ParameterError, PoleError
from .model import POLE_EPS, ModelParams

# Probe points at which Lambda is evaluated to fingerprint a root set for
# deduplication, plus fallbacks used when a probe collides with a pole.
SIGNATURE_PROBES = (0.3 + 0.0j, 1.1 + 0.7j, -2.4 + 0.0j)
FALLBACK_PROBES = (
    0.77 + 0.23j,
    -1.9 + 1.3j,
    2.6 - 0.41j,
    0.15 - 1.2j,
    3.3 + 0.9j,
    -0.85 + 2.1j,
    1.9 + 1.9j,
    -3.1 - 0.7j,
)

# Separation below which two roots (or a root and a reflection partner) are
# considered degenerate and the set is rejected.
ROOT_SEPARATION = 1e-8


def _guard(factor: complex, description: str) -> complex:
    if abs(factor) < POLE_EPS:
        raise PoleError(f"pole guard: |{description}| = {abs(factor):.2e} < {POLE_EPS}")
    return factor


# The vacuum eigenvalues and dressed coefficients below are unguarded and
# accept complex numbers and numpy arrays alike; the public entry points
# after them add the pole guards for single points.

def _theta_products(u, params: ModelParams):
    """prod_j ((u+1)^2 - theta_j^2) and prod_j (u^2 - theta_j^2)."""
    plus = minus = 1
    for t in params.theta:
        plus = plus * ((u + 1) ** 2 - t ** 2)
        minus = minus * (u ** 2 - t ** 2)
    return plus, minus


def _lambda1(u, params: ModelParams, plus):
    return (u + params.p) * plus


def _lambda2(u, params: ModelParams, minus):
    return (2 * u / (2 * u + 1)) * (params.p - u - 1) * minus


def _alpha_bar(u, params: ModelParams, rho):
    return (2 * (u + 1) / (2 * u + 1)) * ((1 - rho) * u + params.q)


def _delta_bar(u, params: ModelParams, rho):
    return params.q - (u + 1) * (1 - rho)


def lambda1(u, params: ModelParams) -> complex:
    """Vacuum eigenvalue of the A entry: (u+p) prod_j ((u+1)^2 - theta_j^2)."""
    u = complex(u)
    return _lambda1(u, params, _theta_products(u, params)[0])


def lambda2(u, params: ModelParams) -> complex:
    """Vacuum eigenvalue of the D entry: (2u/(2u+1))(p-u-1) prod_j (u^2 - theta_j^2)."""
    u = complex(u)
    _guard(2 * u + 1, "2u+1")
    return _lambda2(u, params, _theta_products(u, params)[1])


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


def lambda_terms(u, roots, params: ModelParams, rho):
    """The three addends of the eigenvalue Lambda(u) for Bethe roots ``roots``.

    Returns ``(alpha_bar lambda1 prod_j f(u, l_j), delta_bar lambda2 prod_j
    h(u, l_j), rho c(u) lambda1 lambda2 prod_j g(u, l_j))`` with
    c(u) = (u+1)(2u+1)/((u+p)(p-u-1)) and g = 1/((u-l)(u+l+1)).  The factors
    u+p of lambda1 and p-u-1 of lambda2 cancel c's denominator, so the third
    addend is evaluated as 2 rho u(u+1) prod_j ((u+1)^2 - theta_j^2)(u^2 -
    theta_j^2) prod_j g(u, l_j): u = -p and u = p-1 are no poles.  This is the
    one implementation of both Lambda and BE_k.  It is unguarded and works on
    complex numbers and on numpy arrays: ``u`` and every item of ``roots``
    broadcast together (iterating an array runs along its first axis), and a
    pole gives non-finite entries.  ``rho`` is an argument because Lambda and
    BE_k are affine in it for fixed roots, which yields the rho-split parts.
    """
    plus, minus = _theta_products(u, params)
    t1 = _alpha_bar(u, params, rho) * _lambda1(u, params, plus)
    t2 = _delta_bar(u, params, rho) * _lambda2(u, params, minus)
    t3 = 2 * rho * u * (u + 1) * plus * minus
    for lam in roots:
        diff = u - lam
        summ = u + lam + 1
        pole = diff * summ
        t1 = t1 * ((diff - 1) * (summ - 1) / pole)
        t2 = t2 * ((diff + 1) * (summ + 1) / pole)
        t3 = t3 / pole
    return t1, t2, t3


def be_terms(lam_k, others, params: ModelParams, rho):
    """The three addends of BE_k, from the residue of Lambda at u = lambda_k.

    BE_k = (2 lambda_k + 1) Res_{u=lambda_k} Lambda(u): only the k-th root's
    f, h and g factors have a pole there, with residues -2 lambda_k,
    2 (lambda_k + 1) and 1 over (2 lambda_k + 1).  So BE_k is the kernel at
    u = lambda_k over the ``others`` times (-2 lambda_k, 2 (lambda_k + 1), 1).
    Arrays are accepted as in ``lambda_terms``.
    """
    t1, t2, t3 = lambda_terms(lam_k, others, params, rho)
    return -2 * lam_k * t1, 2 * (lam_k + 1) * t2, t3


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
    others = lams[:k] + lams[k + 1:]
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
    """Points no admissible Bethe root may approach.

    0 and -1 are identically-vanishing points of BE_k (spurious attractors);
    -1/2 is a pole of the residual; +-theta_j degenerate the vacuum factors.
    u = -p and u = p-1 are no poles of Lambda or BE_k (the kernel cancels
    them), so roots there are admissible.
    """
    centers = [0.0 + 0.0j, -1.0 + 0.0j, -0.5 + 0.0j]
    for t in params.theta:
        centers.extend((t, -t))
    return tuple(centers)


def roots_admissible(roots, params: ModelParams) -> bool:
    lams = _root_values(roots)
    centers = root_guard_centers(params)
    for lam in lams:
        if any(abs(lam - c) < POLE_EPS for c in centers):
            return False
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) < ROOT_SEPARATION:
                return False
            if abs(lams[i] + lams[j] + 1) < ROOT_SEPARATION:
                return False
    return True


def select_signature_probes(root_sets) -> tuple:
    """First probes of ``SIGNATURE_PROBES + FALLBACK_PROBES`` clear of every set's
    eigenvalue poles, as many as ``SIGNATURE_PROBES`` holds."""
    margin = 1e-4  # wider than the pole guard so Lambda stays well conditioned
    count = len(SIGNATURE_PROBES)
    chosen = []
    for probe in SIGNATURE_PROBES + FALLBACK_PROBES:
        factors = [2 * probe + 1]
        for rs in root_sets:
            for lam in _root_values(rs):
                factors += (probe - lam, probe + lam + 1)
        if min(abs(f) for f in factors) > margin:
            chosen.append(probe)
            if len(chosen) == count:
                return tuple(chosen)
    raise ParameterError(f"could not find {count} pole-free probes")


def make_signature(roots, params: ModelParams, probes=SIGNATURE_PROBES) -> tuple:
    return tuple(eigenvalue_Lambda(pt, roots, params) for pt in probes)


def signatures_match(a, b, tol: float = 1e-6) -> bool:
    return all(
        abs(x - y) <= tol * max(1.0, abs(x), abs(y)) for x, y in zip(a, b)
    )


@dataclass(frozen=True, slots=True)
class BetheRootSet:
    """A solution candidate for the Bethe equations.

    ``signature`` is Lambda evaluated at fixed probe points: permutation- and
    reflection-invariant, so it identifies the physical solution class.
    """

    roots: tuple
    residual_norm: float
    source: str
    signature: tuple

    def __post_init__(self):
        if self.source not in ("newton", "manual"):
            raise ParameterError(f"unknown root source {self.source!r}")
        object.__setattr__(self, "roots", tuple(complex(r) for r in self.roots))
        object.__setattr__(self, "signature", tuple(complex(s) for s in self.signature))
        if not _finite(self.roots) or not math.isfinite(self.residual_norm):
            raise ParameterError("root set contains non-finite values")

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def validate(self, params: ModelParams) -> None:
        if not roots_admissible(self.roots, params):
            raise ParameterError("root set violates separation or pole guards")


def _finite(values) -> bool:
    return all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values)
