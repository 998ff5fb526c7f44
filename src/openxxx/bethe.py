"""Numerical solution of the Bethe equations and spectrum completeness checks.

Lambda and BE_k are evaluated in batch by the one kernel in ``scalars``.  One
damped Newton driver solves the square reduced Bethe system
G_k = BE_k / (lambda_k (lambda_k + 1)) = 0 (k = 1..M), which has no trivial
zero at lambda_k = 0 or -1, for a batch of rows, one kernel call per stage:
the residuals with their exact Jacobians, the full steps and the rest of the
backtracking ladder, over chunks of at most ``_MAX_ROWS`` rows.  A row
stops when it converges, when no rung of its step lowers the merit, or at
``max_iter``.  The blind multistart ``solve_bethe`` feeds it random starts
drawn around the reflection-symmetric point -1/2.  Every search finishes the
same way: the printed BE_k residual is recomputed from scratch, and converged
solutions are canonicalized under the lambda -> -lambda - 1 reflection,
filtered against pole and degeneracy guards, and merged by their Baxter
polynomial Q(u) = prod_j (u - lambda_j)(u + lambda_j + 1), which names the
eigenstate.

Completeness works curve first.  t(-u-1) = t(u), so t(u), its eigenvalue
curves and the T-Q relation are polynomials in w = u(u+1).  The curves come
from one eigenbasis of the commuting family sampled on a circle in w, the
Bethe roots of each curve from the linear T-Q relation with one Newton
polish.  Each curve is matched to the certified set solved from it with the
smallest T-Q residual, so a curve that none of its own sets satisfies is
unmatched.  The same t(u) samples give each matched curve's eigen-residual.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import model, scalars, vectors
from .errors import TrackingError
from .model import ModelParams
from .scalars import BetheRootSet

log = logging.getLogger(__name__)

# Solver driver: the Newton step fraction tried first, the rungs of the halving
# ladder, and the most rows one residual call takes (the widest start batch,
# 64 * 2^5).  A row stops when it converges, when no rung of its step lowers
# the merit, or at max_iter.
_DAMPING = 1.0
_BACKTRACK_LIMIT = 10
_MAX_ROWS = 2048

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

def be_batch(lam: np.ndarray, params: ModelParams, reduced=False, jacobian=False):
    """Residuals and their term scales for a (batch, M) array of root sets.

    Returns ``(be, scale)`` with ``be[s, k] = BE_k`` of row ``s`` and
    ``scale`` the largest addend magnitude (floored at 1), the natural
    normalization for convergence tests.  ``reduced`` gives G_k =
    BE_k / (lambda_k (lambda_k + 1)) and its scale instead, from the addends
    of ``scalars.reduced_be_terms``, which cancel that factor: G_k is finite
    at lambda_k = 0 and -1.  ``jacobian`` implies ``reduced`` and appends the
    (batch, M, M) exact Jacobian dG_k/dlambda_j.  A call forms the pair and
    theta factors once; the Jacobian's products without one factor come from
    scans of them, so an exact zero factor leaves every entry finite.
    """
    lam = np.asarray(lam, dtype=complex)
    n = lam.shape[1]
    index = scalars.others_index(n)
    lam_t = np.ascontiguousarray(lam.T)
    others = lam_t[index]  # (M-1, M, batch): each product over them is one reduction
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if reduced or jacobian:
            t1, t2, t3, *derivatives = scalars.reduced_be_terms(
                lam_t, others, params, params.rho, jacobian
            )
        else:
            t1, t2, t3 = scalars.be_terms(lam_t, others, params, params.rho)
        be = t1 + t2 + t3
        scale = np.maximum(np.maximum(np.maximum(np.abs(t1), np.abs(t2)), np.abs(t3)), 1.0)
    if not jacobian:
        return be.T, scale.T
    diag, off = derivatives
    jac = np.empty((len(lam), n, n), dtype=complex)
    jac[:, np.arange(n), index] = off.transpose(2, 0, 1)
    jac.reshape(len(lam), -1)[:, :: n + 1] = diag.T
    return be.T, scale.T, jac


def _be_residual(lam, params: ModelParams, reduced=True, jacobian=False):
    """The driver's system: G_k rows (printed BE_k unless ``reduced``), merits[, Jacobians]."""
    be, scale, *jac = be_batch(lam, params, reduced, jacobian)
    merit = (np.abs(be) / scale).max(axis=1)
    return (be, np.where(np.isfinite(merit), merit, np.inf), *jac)


# --- the solver driver ------------------------------------------------------------

def _newton_steps(lam: np.ndarray, system) -> np.ndarray:
    """Newton steps solve(J, -r), NaN rows on failure; r, J from ``system(lam, jacobian=True)``."""
    r, _, jac = system(lam, jacobian=True)
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


def _damped_solve(lam: np.ndarray, system, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Drive every row of ``lam`` toward ``system`` merit <= ``cfg.tol``.

    ``system(rows)`` returns ``(r, merit)``: the residual vectors and a
    per-row merit that is inf when not finite; ``jacobian=True`` appends the
    Jacobians.  Each iteration walks the active rows in chunks of
    ``_MAX_ROWS // _BACKTRACK_LIMIT``, so no call after the first takes more
    than ``_MAX_ROWS`` rows.  A chunk makes at most three calls: the
    ``_newton_steps`` one, one for the full steps ``_DAMPING * delta``, and
    one for the other rungs of the halving ladder on the rows whose full step
    did not lower the merit.  Each row takes its first rung that lowers the
    merit.  A row stops when it converges, when no rung lowers its merit or
    its step is not finite (it keeps its lam and merit, and every call works
    row by row, so a retry would repeat that step), or at ``cfg.max_iter``.
    Returns the final rows and merits.
    """
    lam = lam.copy()
    merit = system(lam)[1]
    n = lam.shape[1]
    chunk = _MAX_ROWS // _BACKTRACK_LIMIT
    ladder = _DAMPING * 0.5 ** np.arange(_BACKTRACK_LIMIT)
    active = merit > cfg.tol
    for _ in range(cfg.max_iter):
        todo = np.nonzero(active)[0]
        if todo.size == 0:
            break
        for rows in np.split(todo, range(chunk, todo.size, chunk)):
            la = lam[rows]
            delta = _newton_steps(la, system)
            base = merit[rows]
            active[rows] = False
            pending = np.nonzero(np.isfinite(delta).all(axis=1))[0]
            for alphas in (ladder[:1], ladder[1:]):
                if pending.size == 0:
                    break
                cand = (la[pending, None] + alphas[:, None] * delta[pending, None]).reshape(-1, n)
                cand_merit = system(cand)[1]
                better = cand_merit.reshape(pending.size, -1) < base[pending, None]
                hit = better.any(axis=1)
                take = np.nonzero(hit)[0] * alphas.size + better.argmax(axis=1)[hit]
                dst = rows[pending[hit]]
                lam[dst], merit[dst] = cand[take], cand_merit[take]
                active[dst] = True
                pending = pending[~hit]
        active &= (merit > cfg.tol) & np.isfinite(lam).all(axis=1)
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

    The driver solves the reduced equations G_k of ``_be_residual``, and each
    set is certified on the printed BE_k merit, its ``residual_norm``.
    Returns one set per solution, merged by Q(u) and sorted by roots (see
    ``_certify``); an empty list is a legal outcome.  A ``stats`` dict, if
    given, is filled with start/convergence/discard counters.  Deterministic
    for fixed (params, cfg) including the seed.
    """
    cfg = cfg or SolverConfig()
    if stats is None:
        stats = {}
    stats.update(n_starts=0, converged=0, discarded_guarded=0, unique=0)
    rng = np.random.default_rng(cfg.seed)
    n_starts = cfg.starts_for(params.n_sites)
    sigma = 1.0 + max((abs(t) for t in params.theta), default=0.0)
    lam = _draw_starts(rng, n_starts, params.n_sites, sigma)
    lam, merit = _damped_solve(lam, partial(_be_residual, params=params), cfg)
    found = _certify(lam[merit <= cfg.tol], params, cfg.tol, stats)
    stats["n_starts"] = n_starts
    if not found:
        log.info("no admissible Bethe solutions from %d starts", n_starts)
    return found


# Q(u) = prod_j (u - lambda_j)(u + lambda_j + 1) at these points names a root
# set up to permutation and reflection; two sets are one solution when their
# values agree to _MERGE_TOL relative.  Lambda(u) has poles at the roots, so
# points for it must be chosen clear of them; Q is a polynomial with no poles,
# so fixed points serve every set.
_MERGE_POINTS = np.array([0.3, 1.1 + 0.7j, -2.4])
_MERGE_TOL = 1e-6


def _certify(lam: np.ndarray, params: ModelParams, tol: float, stats: dict | None = None):
    """Turn the rows a solve converged on into one Bethe root set per solution.

    The printed BE_k merit is recomputed from scratch, never assumed from the
    reduced system the driver solved; rows within ``tol`` are canonicalized
    under the reflection and filtered by the pole and degeneracy guards.
    Taken in order of residual, a row joins the first kept set whose Q values
    at ``_MERGE_POINTS`` it matches, so each solution keeps its lowest-residual
    row.  Returns the sets sorted by their canonical roots.
    """
    final_res = _be_residual(lam, params, reduced=False)[1] if len(lam) else np.empty(0)
    hits = np.nonzero(final_res <= tol)[0]
    candidates = []
    for i in hits:
        roots = _canonical_roots(lam[i])
        if scalars.roots_admissible(roots, params):
            candidates.append((roots, float(final_res[i])))
    n_guarded = hits.size - len(candidates)
    if n_guarded:
        log.debug("discarded %d converged runs at guarded/degenerate roots", n_guarded)
    candidates.sort(key=lambda c: c[1])
    roots = np.array([c[0] for c in candidates], dtype=complex).reshape(-1, lam.shape[1], 1)
    q = np.prod((_MERGE_POINTS - roots) * (_MERGE_POINTS + roots + 1), axis=1)
    kept: list[int] = []
    for i in range(len(candidates)):
        close = np.abs(q[kept] - q[i]) <= _MERGE_TOL * np.maximum(
            1.0, np.maximum(np.abs(q[kept]), np.abs(q[i]))
        )
        if not close.all(axis=1).any():
            kept.append(i)
    unique = sorted(
        (BetheRootSet(*candidates[i]) for i in kept),
        key=lambda rs: tuple((z.real, z.imag) for z in rs.roots),
    )
    if stats is not None:
        stats.update(converged=int(hits.size), discarded_guarded=n_guarded, unique=len(unique))
    return unique


# --- dense spectrum -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Eigencurve:
    """One transfer-matrix eigenvalue branch as a polynomial in w = u(u+1)."""

    coeffs: np.ndarray  # ascending powers of w

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)  # a copy: not a view that keeps its base alive
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __call__(self, u):
        u = np.asarray(u, dtype=complex)
        return np.polynomial.polynomial.polyval(u * (u + 1), self.coeffs)


def circle_nodes(params: ModelParams, k: int, offset: float = 0.0) -> np.ndarray:
    """u = (-1 + sqrt(1 + 4w)) / 2 at the ``k`` nodes w = R exp(2 pi i (j + offset) / k).

    R = (1.9 + max |theta_j|)^2, so w = -1/4 (u = -1/2) is inside; distinct w
    give distinct u, so the nodes test a degree k - 1 in w or in u alike.
    """
    radius = (1.9 + max((abs(t) for t in params.theta), default=0.0)) ** 2
    w = radius * np.exp(2j * np.pi * (np.arange(k) + offset) / k)
    return (-1 + np.sqrt(1 + 4 * w)) / 2


def dense_spectrum_curves(params: ModelParams) -> tuple[list[Eigencurve], np.ndarray, np.ndarray]:
    """Eigenvalue curves of t(u) from one eigenbasis of the commuting family.

    t(u) is a matrix polynomial of degree N+1 in w = u(u+1), so its samples
    at the N+2 ``circle_nodes`` give its exact coefficient matrices C_m by
    FFT in w/R, and C_m / R^m in w.  The family commutes, so the eigenvectors
    V of one generic combination of the samples diagonalize every C_m, and
    the diagonals of V^-1 C_m V are the curves' coefficients.  Returns the
    curves, the sample points u and the t(u) samples there, shape
    (N+2, 2^N, 2^N).  Raises ``TrackingError`` when cond(V) or the relative
    off-diagonal residual shows V is no joint eigenbasis, or when the rotated
    coefficients overflow so that residual cannot be measured.
    """
    k = params.n_sites + 2
    points = circle_nodes(params, k)
    samples = np.array([model.transfer_matrix(u, params) for u in points])
    radius = (points[0] * (points[0] + 1)).real  # node 0 sits at w = R
    coeff_mats = np.fft.fft(samples, axis=0) / (k * radius ** np.arange(k)[:, None, None])
    weights = np.array([1, 1j]) @ np.random.default_rng(_MIX_SEED).standard_normal((2, k))
    _, vecs = np.linalg.eig(np.tensordot(weights, samples, axes=1))
    cond = np.linalg.cond(vecs)
    if not cond <= _COND_LIMIT:
        raise TrackingError(f"joint eigenbasis of t(u) is ill-conditioned (cond {cond:.2e})")
    rotated = np.linalg.solve(vecs, coeff_mats @ vecs)
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(rotated)
    if not np.isfinite(scale):
        raise TrackingError("t(u) coefficients overflow in the joint eigenbasis")
    diag = np.diagonal(rotated, axis1=1, axis2=2)
    off = np.linalg.norm(rotated - diag[:, :, None] * np.eye(params.dim)) / scale
    if not off <= _OFFDIAG_TOL:
        raise TrackingError(f"t(u) samples are not simultaneously diagonal (residual {off:.2e})")
    return [Eigencurve(diag[:, i]) for i in range(params.dim)], points, samples


@lru_cache(maxsize=16)
def _tq_points(params: ModelParams):
    """The T-Q fit points u and the kernel's addends A, D, R at no roots there.

    The 4N+8 points are circle nodes half a step off those of
    ``dense_spectrum_curves``, more than the relation's degree 2N+1 in w
    needs; they depend on the model alone.
    """
    u = circle_nodes(params, 4 * params.n_sites + 8, offset=0.5)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, d, r = scalars.lambda_terms(u, (), params, params.rho)
    return u, a, d, r


def curve_roots(
    curve: Eigencurve, params: ModelParams, m: int, cfg: SolverConfig
) -> list[BetheRootSet]:
    """Bethe roots of ``m`` excitations whose eigenvalue is ``curve``.

    With Q(u) = prod_j (u - lambda_j)(u + lambda_j + 1), the kernel's addends
    at no roots, A, D and R, give the T-Q relation
    c(u) Q(u) = A(u) Q(u-1) + D(u) Q(u+1) + R(u).  It is linear in the
    coefficients of Q, a monic polynomial of degree m in w = u(u+1), so they
    follow by least squares at the points of ``_tq_points`` (rows that are
    not finite are dropped).  The roots of Q in w give lambda = (-1 + sqrt(1 +
    4w))/2, which one Newton polish on G_k and the usual certification turn
    into root sets; an empty list means the curve has no such set.  ``m = 0``
    gives the empty set.
    """
    if m == 0:
        return [BetheRootSet((), 0.0)]
    u, a, d, r = _tq_points(params)
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
    lam, merit = _damped_solve(lam, partial(_be_residual, params=params), cfg)
    return _certify(lam[merit <= cfg.tol], params, cfg.tol)


def _tq_errors(curve: Eigencurve, sets, params: ModelParams) -> np.ndarray:
    """Each set's T-Q residual against ``curve`` at the points of ``_tq_points``.

    max_k |c Q(u) - A Q(u-1) - D Q(u+1) - R| / max(|c Q(u)|, |A Q(u-1)|,
    |D Q(u+1)|, |R|), with Q from the set's roots (Q = 1 for no roots).
    Nothing is divided by Q, so no point has to avoid a root.
    """
    u, a, d, r = _tq_points(params)
    shifted = u + np.array([0.0, -1.0, 1.0])[:, None]
    errs = []
    with np.errstate(over="ignore", invalid="ignore"):
        cad = np.array([curve(u), a, d])
        for rs in sets:
            lam = np.array(rs.roots, dtype=complex)[:, None, None]
            terms = cad * np.prod((shifted - lam) * (shifted + lam + 1), axis=0)
            resid = np.abs(terms[0] - terms[1] - terms[2] - r)
            errs.append(np.max(resid / np.maximum(np.abs(terms).max(axis=0), np.abs(r))))
    return np.array(errs)


# --- matching --------------------------------------------------------------------

# A curve matches its best own set when that set's T-Q residual is at most
# this.  The residual separates right from wrong sets by orders of magnitude:
# at most 6.1e-13 on every matched set against at least 0.14 on every other
# set of the same curve, over 177 covers at N = 1..5.
MATCH_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class SpectrumMatch:
    """One eigencurve's match: ``match_error`` is its best own set's T-Q residual."""

    curve_id: int
    curve: Eigencurve
    matched_roots: BetheRootSet | None
    match_error: float
    eigen_residual: float | None = None

    @property
    def matched(self) -> bool:
        return self.matched_roots is not None

    @property
    def excitations(self) -> int | None:
        return self.matched_roots.n_roots if self.matched else None


# --- end-to-end coverage ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CoverageResult:
    """Completeness summary: one match per eigencurve, in curve order."""

    matches: list
    mode: str

    @property
    def root_sets(self) -> list[BetheRootSet]:
        """The matched root sets in curve order."""
        return [m.matched_roots for m in self.matches if m.matched]

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

    Both sides of t(u) phi = c(u) phi are polynomials of degree N+1 in
    w = u(u+1), so the N+2 samples of ``dense_spectrum_curves`` test the
    identity for all u.
    A vanishing phi is no eigenvector: a zero scale gives inf.
    """
    phi = vectors.build_bethe_vector(rs, params)
    resid = np.linalg.norm(samples @ phi - curve(points)[:, None] * phi, axis=1)
    scale = np.linalg.norm(samples, axis=(1, 2)) * np.linalg.norm(phi)
    return float(np.max(resid / scale)) if scale.all() else np.inf


def cover_spectrum(params: ModelParams, cfg: SolverConfig | None = None) -> CoverageResult:
    """Solve every eigencurve's Bethe roots and match each curve to its own sets.

    For a genuinely off-diagonal left boundary (rho != 0) every curve has N
    roots; when rho = 0 the low-excitation curves have no finite
    representation with N roots, so every diagonal sector M = 0..N is tried
    for each curve instead.  A set's match error is its T-Q residual against
    the curve at the fit points (``_tq_errors``); the curve is matched to its
    best set when that is within ``MATCH_TOL``, and otherwise reports the
    best error (inf without sets).
    A set that reproduces no curve is dropped.  A matched curve's
    eigen-residual tests its Bethe vector against the t(u) samples the
    curves came from.
    """
    cfg = cfg or SolverConfig()
    curves, points, samples = dense_spectrum_curves(params)
    sector_mode = abs(params.rho) <= 1e-12
    mode = "diagonal-sectors" if sector_mode else "general"
    orders = range(params.n_sites + 1) if sector_mode else (params.n_sites,)
    matches = []
    for cid, curve in enumerate(curves):
        sets = [rs for m in orders for rs in curve_roots(curve, params, m, cfg)]
        best, err = None, np.inf
        if sets:
            errs = _tq_errors(curve, sets, params)
            best = int(np.argmin(errs))
            err = float(errs[best])
        if err <= MATCH_TOL:
            resid = _eigen_residual(sets[best], curve, points, samples, params)
            matches.append(SpectrumMatch(cid, curve, sets[best], err, resid))
        else:
            matches.append(SpectrumMatch(cid, curve, None, err))
    cover = CoverageResult(matches, mode)
    if cover.unmatched_count:
        log.info("%d of %d eigencurves unmatched", cover.unmatched_count, len(curves))
    return cover
