"""Numerical solution of the Bethe equations and spectrum completeness checks.

Lambda and BE_k are evaluated in batch by the one kernel in ``scalars``.  One
damped solver driver serves two systems: the square Bethe system BE_k = 0
(k = 1..M), by Newton steps, and the overdetermined curve-targeted fit
Lambda(u_i) = curve(u_i), by Levenberg-regularized Gauss-Newton steps.  Both
use central-difference Jacobians over a batch of random starting points drawn
around the reflection-symmetric point -1/2.  Both finish the same way: the BE
residual is recomputed from scratch, and converged solutions are
canonicalized under the lambda -> -lambda - 1 reflection, filtered against
pole and degeneracy guards, and deduplicated by their eigenvalue signature.
Independently, the dense transfer-matrix spectrum is sampled on a
circle of spectral points, branch-tracked by continuity and fitted by
polynomials; matching Bethe solutions against those curves certifies
completeness a posteriori.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, model, scalars, vectors
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

_BACKTRACK_LIMIT = 10
_STALL_LIMIT = 3
# Iteration cap and merit bound (worst scaled curve mismatch) of the
# curve-targeted fit.
_TARGET_MAX_ITER = 100
_TARGET_FIT_TOL = 1e-11


@dataclass(frozen=True)
class SolverConfig:
    """Multistart Newton settings; ``n_starts=None`` means 64 * 2^N."""

    n_starts: int | None = None
    max_iter: int = 200
    tol: float = 1e-10
    seed: int = 1234
    jacobian_step: float = 1e-7
    damping: float = 1.0

    def __post_init__(self):
        if not 0 < self.tol < float("inf"):
            raise ValueError("tol must be positive and finite")
        if self.n_starts is not None and self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if not 0 < self.jacobian_step < float("inf"):
            raise ValueError("jacobian_step must be positive and finite")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")

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
    return be, _finite_merit((np.abs(be) / scale).max(axis=1))


def _finite_merit(merit: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(merit), merit, np.inf)


def eigenvalue_lambda_grid(points, lam: np.ndarray, params: ModelParams) -> np.ndarray:
    """Eigenvalue formula on a (batch, M) array of root sets at several points.

    Returns shape (batch, n_points).
    """
    u = np.asarray(points, dtype=complex)[None, :]
    roots = np.asarray(lam, dtype=complex).T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return sum(scalars.lambda_terms(u, roots, params, params.rho))


# --- the solver driver ------------------------------------------------------------

def _newton_steps(lam: np.ndarray, r: np.ndarray, residual, step: float) -> np.ndarray:
    """Corrections for every row from central-difference Jacobians of ``residual``.

    A square system takes the Newton step solve(J, -r); an overdetermined one
    the Levenberg-regularized Gauss-Newton step.  NaN rows on failure.
    """
    s, n = lam.shape
    jac = np.empty((s, r.shape[1], n), dtype=complex)
    for j in range(n):
        h = step * (1.0 + np.abs(lam[:, j]))
        up = lam.copy()
        up[:, j] += h
        dn = lam.copy()
        dn[:, j] -= h
        jac[:, :, j] = (residual(up)[0] - residual(dn)[0]) / (2 * h[:, None])
    with np.errstate(all="ignore"):
        if r.shape[1] == n:
            lhs, rhs = jac, -r
        else:
            jh = jac.conj().transpose(0, 2, 1)
            lhs = jh @ jac + 1e-12 * np.eye(n)[None, :, :]
            rhs = -(jh @ r[..., None])[..., 0]
    delta = np.full_like(lam, np.nan)
    good = np.nonzero(np.isfinite(lhs).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1))[0]
    if good.size:
        try:
            delta[good] = np.linalg.solve(lhs[good], rhs[good][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in good:
                try:
                    delta[i] = np.linalg.solve(lhs[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
    return delta


def _damped_solve(lam: np.ndarray, residual, cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Drive every row of ``lam`` toward ``residual`` merit <= ``cfg.tol``.

    ``residual(rows)`` returns ``(r, merit)``: the residual vectors and a
    per-row merit that is inf when not finite.  Each iteration takes one
    ``_newton_steps`` correction per active row and backtracks it from
    ``cfg.damping`` by halving until the merit drops.  A row stops when it
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
        delta = _newton_steps(la, r[rows], residual, cfg.jacobian_step)
        base = merit[rows]
        accepted = np.zeros(rows.size, dtype=bool)
        usable = np.isfinite(delta).all(axis=1)
        alpha = cfg.damping
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
    n_roots: int | None = None,
    spread_scale: float = 1.0,
    stats: dict | None = None,
) -> list[BetheRootSet]:
    """Find Bethe-root sets by multistart damped Newton.

    Returns deduplicated solutions sorted by signature; an empty list is a
    legal outcome.  ``n_roots`` defaults to the chain length (the general
    ansatz); smaller values solve the diagonal-sector systems used at rho=0.
    ``spread_scale`` widens the start distribution (escalation rounds).
    A ``stats`` dict, if given, is filled with start/convergence/discard
    counters.  Deterministic for a fixed (params, cfg, spread_scale)
    including the seed.
    """
    cfg = cfg or SolverConfig()
    if stats is None:
        stats = {}
    stats.update(n_starts=0, converged=0, discarded_guarded=0, unique=0)
    m = params.n_sites if n_roots is None else n_roots
    if m == 0:
        sig = scalars.make_signature((), params, scalars.select_signature_probes([()], params))
        stats.update(converged=1, unique=1)
        return [BetheRootSet((), 0.0, "newton", sig)]

    rng = np.random.default_rng(cfg.seed)
    n_starts = cfg.starts_for(params.n_sites)
    sigma = spread_scale * (1.0 + max((abs(t) for t in params.theta), default=0.0))
    lam = _draw_starts(rng, n_starts, m, sigma)
    lam, merit = _damped_solve(lam, lambda rows: _be_residual(rows, params), cfg)
    found = _certify(lam[merit <= cfg.tol], params, cfg.tol, stats)
    stats["n_starts"] = n_starts
    if not found:
        log.info("no admissible Bethe solutions from %d starts", n_starts)
    return found


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
        probes = scalars.select_signature_probes([c[0] for c in candidates], params)
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


def _greedy_assign(dist: np.ndarray) -> np.ndarray:
    """Greedy nearest-match assignment of columns to rows."""
    d = dist.copy()
    n = d.shape[0]
    sigma = np.full(n, -1, dtype=int)
    for _ in range(n):
        i, k = np.unravel_index(np.argmin(d), d.shape)
        sigma[i] = k
        d[i, :] = np.inf
        d[:, k] = np.inf
    return sigma


def _order_against(prev: np.ndarray, new: np.ndarray) -> np.ndarray | None:
    """Order ``new`` eigenvalues along the branches of ``prev``; None if ambiguous.

    The assignment is safe when every chosen distance beats the next-best
    candidate in both its row and its column by a clear margin, so the
    nearest-match bijection is forced.  Coincident values (identical curves)
    are exempt: any assignment among them yields the same branches.
    """
    n = len(new)
    dist = np.abs(prev[:, None] - new[None, :])
    sigma = _greedy_assign(dist)
    ordered = new[sigma]
    if n == 1:
        return ordered
    scale = max(1.0, float(np.abs(new).max()))
    chosen = dist[np.arange(n), sigma]
    masked = dist.copy()
    masked[np.arange(n), sigma] = np.inf
    runner_row = masked.min(axis=1)
    runner_col = masked.min(axis=0)[sigma]
    runner = np.minimum(runner_row, runner_col)
    safe = (chosen <= 0.35 * runner) | (runner <= 1e-9 * scale) | (chosen <= 1e-12 * scale)
    if safe.all():
        return ordered
    return None


def dense_spectrum_curves(params: ModelParams, n_probe: int | None = None) -> list[Eigencurve]:
    """Diagonalize t(u) on a spectral circle and fit each tracked branch.

    Branches are followed by continuity (greedy nearest match); whenever the
    assignment is ambiguous the step is bisected with extra diagonalizations.
    Each branch must fit a polynomial of degree 2N+2 to 1e-9 relative, the
    a-priori degree of the transfer matrix.
    """
    n = params.n_sites
    degree = 2 * n + 2
    if n_probe is None:
        # dense sampling keeps continuity steps small, so bisection stays rare
        n_probe = 48 * 2 ** max(n - 1, 0)
    if n_probe < 2 * n + 5:
        raise TrackingError(f"need at least {2 * n + 5} probe points, got {n_probe}")
    radius = 1.9 + max((abs(t) for t in params.theta), default=0.0)
    phases = np.exp(2j * np.pi * np.arange(n_probe) / n_probe)
    points = CURVE_CENTER + radius * phases

    def eigvals_at(u: complex) -> np.ndarray:
        return np.linalg.eigvals(model.transfer_matrix(u, params))

    def order_next(u_a: complex, vals_a: np.ndarray, u_b: complex, depth: int) -> np.ndarray:
        ordered = _order_against(vals_a, eigvals_at(u_b))
        if ordered is not None:
            return ordered
        if depth >= 14:
            raise TrackingError(f"branch tracking ambiguous near u = {u_b}")
        u_mid = 0.5 * (u_a + u_b)
        vals_mid = order_next(u_a, vals_a, u_mid, depth + 1)
        return order_next(u_mid, vals_mid, u_b, depth + 1)

    tracks = np.empty((n_probe, params.dim), dtype=complex)
    tracks[0] = linalg.sorted_eigenvalues(model.transfer_matrix(points[0], params))
    for j in range(1, n_probe):
        tracks[j] = order_next(points[j - 1], tracks[j - 1], points[j], 0)

    # Fit in the unit-circle variable s = (u - center)/radius (well conditioned),
    # then recompose to ascending coefficients in u.
    vander = np.vander(phases, degree + 1, increasing=True)
    lin = np.array([-CURVE_CENTER / radius, 1.0 / radius], dtype=complex)
    curves = []
    for branch in range(params.dim):
        values = tracks[:, branch]
        coeff_s, *_ = np.linalg.lstsq(vander, values, rcond=None)
        fit_err = np.abs(vander @ coeff_s - values).max() / max(1.0, np.abs(values).max())
        if fit_err > 1e-9:
            raise TrackingError(
                f"branch {branch} is not a degree-{degree} polynomial (fit residual {fit_err:.2e})"
            )
        poly = np.polynomial.polynomial
        coeffs_u = np.array([coeff_s[-1]], dtype=complex)
        for c in coeff_s[-2::-1]:
            coeffs_u = poly.polyadd(poly.polymul(coeffs_u, lin), [c])
        curves.append(Eigencurve(coeffs_u))
    return curves


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
    points = scalars.select_signature_probes(root_sets, params, 6, MATCH_PROBES)
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
    rounds_used: int

    @property
    def matched_count(self) -> int:
        return sum(1 for m in self.matches if m.matched)

    @property
    def unmatched_count(self) -> int:
        return sum(1 for m in self.matches if not m.matched)

    @property
    def max_match_error(self) -> float:
        matched = [m.match_error for m in self.matches if m.matched]
        return max(matched) if matched else np.inf

    @property
    def max_eigen_residual(self) -> float:
        vals = [m.eigen_residual for m in self.matches if m.eigen_residual is not None]
        return max(vals) if vals else np.inf


def _derived_seed(seed: int, *indices: int) -> int:
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1)[0])


def _targeted_solve(
    params: ModelParams,
    curve: Eigencurve,
    cfg: SolverConfig,
    seed: int,
    n_roots: int,
    n_starts: int | None = None,
) -> list[BetheRootSet]:
    """Hunt roots whose eigenvalue interpolates a specific eigencurve.

    The raw Bethe system has tiny Newton basins for some solutions; the
    curve-interpolation system Lambda(u_i; lam) = curve(u_i), normalized by
    the curve scale, is far better conditioned.  Candidates are certified as
    genuine Bethe solutions by recomputing the normalized BE residual from
    scratch, so the targeting never weakens the acceptance criterion.
    """
    if n_roots == 0:
        return []
    # overdetermined circle of targets, distinct from the points match_spectrum tests at
    n_pts = 2 * n_roots + 3
    radius = 1.35
    pts = CURVE_CENTER + radius * np.exp(2j * np.pi * (np.arange(n_pts) + 0.37) / n_pts)
    targets = curve(pts)
    scale = np.maximum(1.0, np.abs(targets))

    def mismatch(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = (eigenvalue_lambda_grid(pts, lam, params) - targets[None, :]) / scale[None, :]
        return g, _finite_merit(np.abs(g).max(axis=1))

    rng = np.random.default_rng(seed)
    n_starts = n_starts or max(128, cfg.starts_for(params.n_sites) // 4)
    sigma = 1.0 + max((abs(t) for t in params.theta), default=0.0)
    lam = _draw_starts(rng, n_starts, n_roots, sigma)
    fit_cfg = replace(cfg, max_iter=_TARGET_MAX_ITER, tol=_TARGET_FIT_TOL, damping=1.0)
    lam, merit = _damped_solve(lam, mismatch, fit_cfg)
    return _certify(lam[merit <= _TARGET_FIT_TOL], params, cfg.tol)


def _eigen_residual(rs: BetheRootSet, params: ModelParams, points) -> float:
    phi = vectors.build_bethe_vector(rs, params)
    norm_phi = np.linalg.norm(phi)
    worst = 0.0
    for u in points:
        t = model.transfer_matrix(u, params)
        lam = scalars.eigenvalue_Lambda(u, rs, params)
        resid = np.linalg.norm(t @ phi - lam * phi)
        worst = max(worst, resid / max(np.linalg.norm(t) * norm_phi, 1e-300))
    return float(worst)


def cover_spectrum(
    params: ModelParams,
    cfg: SolverConfig | None = None,
    n_probe: int | None = None,
    match_tol: float = 1e-8,
    max_rounds: int = 3,
    residual_samples: int = 4,
) -> CoverageResult:
    """Solve, diagonalize, and match until every eigencurve is covered (or give up).

    For a genuinely off-diagonal left boundary (rho != 0) the chain-length
    root system is solved; when rho = 0 the low-excitation curves have no
    finite representation in that system, so every diagonal sector M = 0..N
    is solved instead.  Unmatched curves trigger deterministic escalation
    rounds with 4x the starts and a derived seed; remaining gaps are
    reported, not asserted away.
    """
    cfg = cfg or SolverConfig()
    curves = dense_spectrum_curves(params, n_probe)
    sector_mode = abs(params.rho) <= 1e-12
    mode = "diagonal-sectors" if sector_mode else "general"

    def solve_round(round_cfg: SolverConfig, spread_scale: float = 1.0) -> list[BetheRootSet]:
        if sector_mode:
            sets: list[BetheRootSet] = []
            for m in range(params.n_sites + 1):
                sets.extend(solve_bethe(params, round_cfg, n_roots=m, spread_scale=spread_scale))
            return sets
        return solve_bethe(params, round_cfg, spread_scale=spread_scale)

    def merge(base: list[BetheRootSet], extra) -> list[BetheRootSet]:
        known = list(base)
        for rs in extra:
            if not any(scalars.signatures_match(rs.signature, k.signature) for k in known):
                known.append(rs)
        return sorted(known, key=lambda rs: rs.sort_key())

    def targeted_pass(matches, root_sets, round_index: int):
        extra: list[BetheRootSet] = []
        orders = range(1, params.n_sites + 1) if sector_mode else (params.n_sites,)
        for m in matches:
            if m.matched:
                continue
            for order in orders:
                extra.extend(
                    _targeted_solve(
                        params, m.curve, cfg,
                        _derived_seed(cfg.seed, round_index, m.curve_id, order), order,
                    )
                )
        return merge(root_sets, extra)

    root_sets = solve_round(cfg)
    matches = match_spectrum(curves, root_sets, params, tol=match_tol)
    rounds = 1
    while any(not m.matched for m in matches) and rounds <= max_rounds:
        # stage 1: curve-guided hunt for exactly the unmatched curves
        root_sets = targeted_pass(matches, root_sets, rounds)
        matches = match_spectrum(curves, root_sets, params, tol=match_tol)
        if not any(not m.matched for m in matches) or rounds == max_rounds:
            break
        # stage 2: blind escalation with more starts and a wider spread
        boosted = replace(
            cfg,
            n_starts=cfg.starts_for(params.n_sites) * 4 ** rounds,
            seed=_derived_seed(cfg.seed, rounds),
        )
        root_sets = merge(root_sets, solve_round(boosted, spread_scale=float(2 ** rounds)))
        matches = match_spectrum(curves, root_sets, params, tol=match_tol)
        rounds += 1

    points = (
        scalars.select_signature_probes(root_sets, params, residual_samples, MATCH_PROBES)
        if root_sets else ()
    )
    enriched = []
    for m in matches:
        if m.matched:
            resid = _eigen_residual(m.matched_roots, params, points)
            m = replace(m, eigen_residual=resid, excitations=m.matched_roots.n_roots)
        enriched.append(m)
    if any(not m.matched for m in enriched):
        log.info(
            "%d of %d eigencurves unmatched after %d rounds",
            sum(not m.matched for m in enriched), len(curves), rounds,
        )
    return CoverageResult(enriched, list(root_sets), mode, rounds)
