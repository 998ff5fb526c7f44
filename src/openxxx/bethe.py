"""Numerical solution of the Bethe equations and spectrum completeness checks.

Lambda and BE_k are evaluated in batch by the one kernel in ``scalars``.  One
damped Newton driver with central-difference Jacobians solves the square
Bethe system BE_k = 0 (k = 1..M) for a batch of rows.  The blind multistart
``solve_bethe`` feeds it random starts drawn around the reflection-symmetric
point -1/2.  Every search finishes the same way: the BE residual is
recomputed from scratch, and converged solutions are canonicalized under the
lambda -> -lambda - 1 reflection, filtered against pole and degeneracy
guards, and deduplicated by their eigenvalue signature.

Completeness works curve first.  The eigenvalue curves of t(u) come from one
eigenbasis of the commuting family sampled on a circle, the Bethe roots of
each curve from the linear T-Q relation with one Newton polish, and matching
the certified roots against the curves reports what is covered.  The same
t(u) samples give each matched curve's eigen-residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import model, scalars, vectors
from .errors import TrackingError
from .model import ModelParams
from .scalars import BetheRootSet

log = logging.getLogger(__name__)

# Spectral circle on which the dense spectrum is sampled: a generic center
# keeps the path clear of real-axis symmetry-induced eigenvalue collisions.
CURVE_CENTER = 0.11 + 0.23j

# Probe pool for curve-vs-roots matching (distinct from signature probes).
MATCH_PROBES = (
    0.52 + 0.41j, -0.37 + 0.93j, 1.42 - 0.27j, -1.13 - 0.62j, 0.91 + 1.21j,
    2.02 + 0.33j, -2.21 + 0.48j, 0.18 - 1.33j, 1.7 + 0.9j, -0.66 - 1.71j,
) + scalars.FALLBACK_PROBES

# Solver driver: the central-difference step (relative to 1 + |lambda|), the
# Newton step fraction tried first and the backtracking and stall limits.
_JACOBIAN_STEP = 1e-7
_DAMPING = 1.0
_BACKTRACK_LIMIT = 10
_STALL_LIMIT = 3

# Seed of the fixed random weights that combine the t(u) samples into the one
# matrix whose eigenvectors diagonalize the family, and the gates on that
# eigenbasis: its condition number and the relative off-diagonal residual.
_MIX_SEED = 2013
_COND_LIMIT = 1e8
_OFFDIAG_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Multistart Newton settings; ``n_starts=None`` means 64 * 2^N."""

    n_starts: int | None = None
    max_iter: int = 200
    tol: float = 1e-10
    seed: int = 1234

    def __post_init__(self):
        if not 0 < self.tol < float("inf"):
            raise ValueError("tol must be positive and finite")
        if self.n_starts is not None and self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def starts_for(self, n_sites: int) -> int:
        return self.n_starts if self.n_starts is not None else 64 * 2 ** n_sites


# --- batch evaluation -------------------------------------------------------------
# Both formulas come from the kernel in ``scalars``; rows with a pole come out
# non-finite, and callers treat those rows as failed.

def be_batch(lam: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and their term scales for a (batch, M) array of root sets.

    Returns ``(be, scale)`` with ``be[s, k] = BE_k`` of row ``s`` and
    ``scale`` the largest addend magnitude (floored at 1), the natural
    normalization for convergence tests.
    """
    lam = np.asarray(lam, dtype=complex)
    squeeze = lam.ndim == 1
    if squeeze:
        lam = lam[None, :]
    n = lam.shape[1]
    # others[i, k] is the i-th root other than root k, laid out (M-1, M, batch)
    # so each step of the kernel's product runs over contiguous memory
    others = np.array([[j for j in range(n) if j != k] for k in range(n)], dtype=int)
    lam_t = np.ascontiguousarray(lam.T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1, t2, t3 = scalars.be_terms(
            lam_t, lam_t[others.reshape(n, n - 1).T], params, params.rho
        )
    be = (t1 + t2 + t3).T
    scale = np.maximum.reduce([np.abs(t1), np.abs(t2), np.abs(t3), np.ones(t1.shape)]).T
    if squeeze:
        return be[0], scale[0]
    return be, scale


def _be_residual(lam: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The Bethe system for the solver driver: BE_k rows and their scaled max norm."""
    be, scale = be_batch(lam, params)
    merit = (np.abs(be) / scale).max(axis=1)
    return be, np.where(np.isfinite(merit), merit, np.inf)


def eigenvalue_lambda_grid(points, lam: np.ndarray, params: ModelParams) -> np.ndarray:
    """Eigenvalue formula on a (batch, M) array of root sets at several points.

    Returns shape (batch, n_points).
    """
    u = np.asarray(points, dtype=complex)[None, :]
    roots = np.asarray(lam, dtype=complex).T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return sum(scalars.lambda_terms(u, roots, params, params.rho))


# --- the solver driver ------------------------------------------------------------

def _newton_steps(lam: np.ndarray, r: np.ndarray, residual) -> np.ndarray:
    """Newton corrections solve(J, -r) for every row of a square system.

    J is the central-difference Jacobian of ``residual``; NaN rows on failure.
    """
    s, n = lam.shape
    jac = np.empty((s, n, n), dtype=complex)
    for j in range(n):
        h = _JACOBIAN_STEP * (1.0 + np.abs(lam[:, j]))
        up = lam.copy()
        up[:, j] += h
        dn = lam.copy()
        dn[:, j] -= h
        jac[:, :, j] = (residual(up)[0] - residual(dn)[0]) / (2 * h[:, None])
    delta = np.full_like(lam, np.nan)
    good = np.nonzero(np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(r).all(axis=1))[0]
    if good.size:
        try:
            delta[good] = np.linalg.solve(jac[good], -r[good][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in good:
                try:
                    delta[i] = np.linalg.solve(jac[i], -r[i])
                except np.linalg.LinAlgError:
                    pass
    return delta


def _damped_solve(lam: np.ndarray, residual, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Drive every row of ``lam`` toward ``residual`` merit <= ``cfg.tol``.

    ``residual(rows)`` returns ``(r, merit)``: the residual vectors and a
    per-row merit that is inf when not finite.  Each iteration takes one
    ``_newton_steps`` correction per active row and backtracks it from
    ``_DAMPING`` by halving until the merit drops.  A row stops when it
    converges, after ``_STALL_LIMIT`` iterations without an accepted step, or
    at ``cfg.max_iter``.  The r of an accepted step feeds the next Jacobian
    step.  Returns the final rows and their merits.
    """
    lam = lam.copy()
    r, merit = residual(lam)
    stalls = np.zeros(len(lam), dtype=int)
    active = merit > cfg.tol
    for _ in range(cfg.max_iter):
        rows = np.nonzero(active)[0]
        if rows.size == 0:
            break
        la = lam[rows]
        delta = _newton_steps(la, r[rows], residual)
        base = merit[rows]
        accepted = np.zeros(rows.size, dtype=bool)
        usable = np.isfinite(delta).all(axis=1)
        alpha = _DAMPING
        for _ in range(_BACKTRACK_LIMIT):
            pending = np.nonzero(usable & ~accepted)[0]
            if pending.size == 0:
                break
            cand = la[pending] + alpha * delta[pending]
            cand_r, cand_merit = residual(cand)
            better = cand_merit < base[pending]
            hit = rows[pending[better]]
            lam[hit], r[hit], merit[hit] = cand[better], cand_r[better], cand_merit[better]
            accepted[pending[better]] = True
            alpha *= 0.5
        stalls[rows[~accepted]] += 1
        stalls[rows[accepted]] = 0
        active &= (stalls < _STALL_LIMIT) & (merit > cfg.tol) & np.isfinite(lam).all(axis=1)
    return lam, merit


def _canonical_roots(row: np.ndarray) -> tuple:
    """Map each root to its reflection representative (Re >= -1/2) and sort."""
    out = []
    for lam in row:
        refl = -lam - 1
        if lam.real < refl.real or (lam.real == refl.real and lam.imag < refl.imag):
            lam = refl
        out.append(complex(lam))
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


# Start points mix the base spread with heavier components: physical roots
# drift far from -1/2 as the boundary invariant rho shrinks (empirically out
# to |lambda| ~ 8 at |rho| ~ 0.1), beyond the reach of the base Gaussian.
_SPREAD_MIX = (1.0, 2.0, 4.0, 8.0)
_SPREAD_WEIGHTS = (0.4, 0.3, 0.2, 0.1)


def _draw_starts(rng, n_starts: int, m: int, sigma: float) -> np.ndarray:
    mix = rng.choice(_SPREAD_MIX, size=(n_starts, 1), p=_SPREAD_WEIGHTS)
    spread = sigma * mix
    return (
        -0.5
        + spread * rng.standard_normal((n_starts, m))
        + 1j * spread * rng.standard_normal((n_starts, m))
    )


def solve_bethe(
    params: ModelParams,
    cfg: SolverConfig | None = None,
    stats: dict | None = None,
) -> list[BetheRootSet]:
    """Find sets of N Bethe roots (the general ansatz) by multistart damped Newton.

    Returns deduplicated solutions sorted by signature; an empty list is a
    legal outcome.  A ``stats`` dict, if given, is filled with
    start/convergence/discard counters.  Deterministic for fixed (params, cfg)
    including the seed.
    """
    cfg = cfg or SolverConfig()
    if stats is None:
        stats = {}
    stats.update(n_starts=0, converged=0, discarded_guarded=0, unique=0)
    rng = np.random.default_rng(cfg.seed)
    n_starts = cfg.starts_for(params.n_sites)
    sigma = 1.0 + max((abs(t) for t in params.theta), default=0.0)
    lam = _draw_starts(rng, n_starts, params.n_sites, sigma)
    lam, merit = _damped_solve(lam, lambda rows: _be_residual(rows, params), cfg)
    found = _certify(lam[merit <= cfg.tol], params, cfg.tol, stats)
    stats["n_starts"] = n_starts
    if not found:
        log.info("no admissible Bethe solutions from %d starts", n_starts)
    return found


def _vacuum_set(params: ModelParams) -> BetheRootSet:
    """The root set with no roots (the M = 0 sector)."""
    sig = scalars.make_signature((), params, scalars.select_signature_probes([()]))
    return BetheRootSet((), 0.0, "newton", sig)


def _certify(lam: np.ndarray, params: ModelParams, tol: float, stats: dict | None = None):
    """Turn the rows a solve converged on into deduplicated Bethe root sets.

    The BE residual is recomputed from scratch, never assumed from the
    iteration; rows within ``tol`` are canonicalized under the reflection,
    filtered by the pole and degeneracy guards and deduplicated by eigenvalue
    signature.  Returns the sets sorted by signature.
    """
    _, final_res = _be_residual(lam, params)
    hits = np.nonzero(final_res <= tol)[0]
    candidates = []
    for i in hits:
        roots = _canonical_roots(lam[i])
        if scalars.roots_admissible(roots, params):
            candidates.append((roots, float(final_res[i])))
    n_guarded = hits.size - len(candidates)
    if n_guarded:
        log.debug("discarded %d converged runs at guarded/degenerate roots", n_guarded)
    unique: list[BetheRootSet] = []
    if candidates:
        probes = scalars.select_signature_probes([c[0] for c in candidates])
        sigs = eigenvalue_lambda_grid(probes, np.array([c[0] for c in candidates]), params)
        tagged = sorted(
            zip(map(tuple, sigs), candidates), key=lambda t: tuple((z.real, z.imag) for z in t[0])
        )
        for sig, (roots, res) in tagged:
            if not any(scalars.signatures_match(sig, u.signature) for u in unique):
                unique.append(BetheRootSet(roots, res, "newton", sig))
    if stats is not None:
        stats.update(converged=int(hits.size), discarded_guarded=n_guarded, unique=len(unique))
    return unique


# --- dense spectrum -------------------------------------------------------------

@dataclass(frozen=True)
class Eigencurve:
    """One transfer-matrix eigenvalue branch as a polynomial in u."""

    coeffs: np.ndarray  # ascending powers

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __call__(self, u):
        return np.polynomial.polynomial.polyval(np.asarray(u, dtype=complex), self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _curve_radius(params: ModelParams) -> float:
    """Radius of the circle about CURVE_CENTER on which t(u) and the curves are sampled."""
    return 1.9 + max((abs(t) for t in params.theta), default=0.0)


def _in_u(coeff_s: np.ndarray, radius: float) -> np.ndarray:
    """Recompose ascending coefficients in s = (u - CURVE_CENTER)/radius into u."""
    poly = np.polynomial.polynomial
    lin = np.array([-CURVE_CENTER / radius, 1.0 / radius], dtype=complex)
    coeffs_u = np.array([coeff_s[-1]], dtype=complex)
    for c in coeff_s[-2::-1]:
        coeffs_u = poly.polyadd(poly.polymul(coeffs_u, lin), [c])
    return coeffs_u


def dense_spectrum_curves(params: ModelParams) -> tuple[list[Eigencurve], np.ndarray, np.ndarray]:
    """Eigenvalue curves of t(u) from one eigenbasis of the commuting family.

    t(u) is a matrix polynomial of degree 2N+2, so its samples at the 2N+3
    roots of unity on a circle give its exact coefficient matrices C_m by
    FFT.  The family commutes, so the eigenvectors V of one generic
    combination of the samples diagonalize every C_m, and the diagonals of
    V^-1 C_m V are the curves' coefficients.  Returns the curves, the sample
    points and the t(u) samples there, shape (2N+3, 2^N, 2^N).  Raises
    ``TrackingError`` when cond(V) or the relative off-diagonal residual
    shows V is no joint eigenbasis.
    """
    k = 2 * params.n_sites + 3
    radius = _curve_radius(params)
    phases = np.exp(2j * np.pi * np.arange(k) / k)
    points = CURVE_CENTER + radius * phases
    samples = np.array([model.transfer_matrix(u, params) for u in points])
    coeff_mats = np.fft.fft(samples, axis=0) / k
    weights = np.array([1, 1j]) @ np.random.default_rng(_MIX_SEED).standard_normal((2, k))
    _, vecs = np.linalg.eig(np.tensordot(weights, samples, axes=1))
    cond = np.linalg.cond(vecs)
    if not cond <= _COND_LIMIT:
        raise TrackingError(f"joint eigenbasis of t(u) is ill-conditioned (cond {cond:.2e})")
    rotated = np.linalg.solve(vecs, coeff_mats @ vecs)
    diag = np.diagonal(rotated, axis1=1, axis2=2)
    off = np.linalg.norm(rotated - diag[:, :, None] * np.eye(params.dim)) / np.linalg.norm(rotated)
    if not off <= _OFFDIAG_TOL:
        raise TrackingError(f"t(u) samples are not simultaneously diagonal (residual {off:.2e})")
    return [Eigencurve(_in_u(diag[:, i], radius)) for i in range(params.dim)], points, samples


def curve_roots(
    curve: Eigencurve, params: ModelParams, m: int, cfg: SolverConfig
) -> list[BetheRootSet]:
    """Bethe roots of ``m`` excitations whose eigenvalue is ``curve``.

    With Q(u) = prod_j (u - lambda_j)(u + lambda_j + 1), the kernel's addends
    at no roots, A, D and R, give the T-Q relation
    Lambda(u) Q(u) = A(u) Q(u-1) + D(u) Q(u+1) + R(u).  It is linear in the
    coefficients of Q, a monic polynomial of degree m in w = u(u+1), so they
    follow by least squares at 4N+8 points (rows at a pole are dropped).  The
    roots of Q in w give lambda = (-1 + sqrt(1 + 4w))/2, which one Newton
    polish on BE_k and the usual certification turn into root sets; an
    empty list means the curve has no such set.  ``m = 0`` gives the empty
    set.
    """
    if m == 0:
        return [_vacuum_set(params)]
    n_pts = 4 * params.n_sites + 8
    phases = np.exp(2j * np.pi * (np.arange(n_pts) + 0.5) / n_pts)
    u = CURVE_CENTER + _curve_radius(params) * phases
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, d, r = scalars.lambda_terms(u, (), params, params.rho)
    powers = np.arange(m + 1)
    rows = (
        (curve(u) * (u * (u + 1)) ** powers[:, None])
        - a * ((u - 1) * u) ** powers[:, None]
        - d * ((u + 1) * (u + 2)) ** powers[:, None]
    ).T
    lhs, rhs = rows[:, :m], r - rows[:, m]
    keep = np.isfinite(lhs).all(axis=1) & np.isfinite(rhs)
    scale = np.maximum(np.abs(lhs[keep]).max(axis=1), np.abs(rhs[keep]))[:, None]
    q, *_ = np.linalg.lstsq(lhs[keep] / scale, rhs[keep] / scale[:, 0], rcond=None)
    w = np.polynomial.polynomial.polyroots(np.append(q, 1.0))
    lam = ((-1 + np.sqrt(1 + 4 * w.astype(complex))) / 2)[None, :]
    lam, merit = _damped_solve(lam, lambda rows: _be_residual(rows, params), cfg)
    return _certify(lam[merit <= cfg.tol], params, cfg.tol)


# --- matching --------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumMatch:
    """Outcome of matching one eigencurve against the solved root sets."""

    curve_id: int
    curve: Eigencurve
    matched_roots: BetheRootSet | None
    match_error: float
    alternates: tuple = ()
    eigen_residual: float | None = None
    excitations: int | None = None

    @property
    def matched(self) -> bool:
        return self.matched_roots is not None

    @property
    def degenerate(self) -> bool:
        return len(self.alternates) > 0


def match_spectrum(
    curves,
    root_sets,
    params: ModelParams,
    tol: float = 1e-8,
) -> list[SpectrumMatch]:
    """Assign each eigencurve the root set whose Lambda reproduces it best.

    A curve with no root set within ``tol`` is reported unmatched; a curve
    reproduced by several inequivalent root sets carries them as alternates
    and is flagged degenerate.
    """
    if not root_sets:
        return [SpectrumMatch(cid, curve, None, np.inf) for cid, curve in enumerate(curves)]
    points = scalars.select_signature_probes(root_sets, 6, MATCH_PROBES)
    # Lambda once per (root set, point); every curve is compared against it
    table = np.array([[scalars.eigenvalue_Lambda(pt, rs, params) for pt in points]
                      for rs in root_sets])
    matches = []
    for cid, curve in enumerate(curves):
        cv = curve(np.array(points))
        errs = (np.abs(table - cv) / np.maximum(1.0, np.abs(cv))).max(axis=1)
        within = [i for i in np.argsort(errs, kind="stable") if errs[i] <= tol]
        matches.append(
            SpectrumMatch(
                curve_id=cid,
                curve=curve,
                matched_roots=root_sets[within[0]] if within else None,
                match_error=float(errs.min()),
                alternates=tuple(root_sets[i] for i in within[1:]),
            )
        )
    return matches


# --- end-to-end coverage ----------------------------------------------------------

@dataclass(frozen=True)
class CoverageResult:
    """Completeness summary: curves, matches, and the solutions that fed them."""

    matches: list
    root_sets: list
    mode: str

    @property
    def matched_count(self) -> int:
        return sum(1 for m in self.matches if m.matched)

    @property
    def unmatched_count(self) -> int:
        return sum(1 for m in self.matches if not m.matched)

    @property
    def max_match_error(self) -> float:
        matched = [m.match_error for m in self.matches if m.matched]
        return float(np.max(matched)) if matched else np.inf

    @property
    def max_eigen_residual(self) -> float:
        vals = [m.eigen_residual for m in self.matches if m.eigen_residual is not None]
        return float(np.max(vals)) if vals else np.inf


def _eigen_residual(rs: BetheRootSet, curve: Eigencurve, points, samples, params) -> float:
    """max_k |t(u_k) phi - c(u_k) phi| / (|t(u_k)|_F |phi|) for the Bethe vector phi.

    Both sides of t(u) phi = c(u) phi are polynomials of degree 2N+2 in u, so
    the 2N+3 samples of ``dense_spectrum_curves`` test the identity for all u.
    """
    phi = vectors.build_bethe_vector(rs, params)
    resid = np.linalg.norm(samples @ phi - curve(points)[:, None] * phi, axis=1)
    scale = np.linalg.norm(samples, axis=(1, 2)) * np.linalg.norm(phi)
    return float(np.max(resid / np.maximum(scale, 1e-300)))


def cover_spectrum(
    params: ModelParams,
    cfg: SolverConfig | None = None,
    match_tol: float = 1e-8,
) -> CoverageResult:
    """Find the Bethe roots of every eigencurve and match them against the curves.

    For a genuinely off-diagonal left boundary (rho != 0) every curve has N
    roots; when rho = 0 the low-excitation curves have no finite
    representation with N roots, so every diagonal sector M = 0..N is tried
    for each curve instead.  Root sets are deduplicated by signature;
    unmatched curves are reported, not asserted away.  A matched curve's
    eigen-residual tests its Bethe vector against the t(u) samples the
    curves came from.
    """
    cfg = cfg or SolverConfig()
    curves, points, samples = dense_spectrum_curves(params)
    sector_mode = abs(params.rho) <= 1e-12
    mode = "diagonal-sectors" if sector_mode else "general"
    orders = range(params.n_sites + 1) if sector_mode else (params.n_sites,)
    root_sets: list[BetheRootSet] = []
    for curve in curves:
        for m in orders:
            for rs in curve_roots(curve, params, m, cfg):
                if not any(scalars.signatures_match(rs.signature, k.signature) for k in root_sets):
                    root_sets.append(rs)
    root_sets.sort(key=lambda rs: rs.sort_key())
    matches = match_spectrum(curves, root_sets, params, tol=match_tol)

    enriched = []
    for m in matches:
        if m.matched:
            resid = _eigen_residual(m.matched_roots, m.curve, points, samples, params)
            m = replace(m, eigen_residual=resid, excitations=m.matched_roots.n_roots)
        enriched.append(m)
    if any(not m.matched for m in enriched):
        log.info(
            "%d of %d eigencurves unmatched", sum(not m.matched for m in enriched), len(curves)
        )
    return CoverageResult(enriched, root_sets, mode)
