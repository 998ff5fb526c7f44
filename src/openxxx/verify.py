"""Named verification checks for every identity the model is built on.

Each check evaluates one identity (an operator equation, a scalar identity,
or an end-to-end spectral property) at randomly sampled spectral points and
yields one relative residual per evaluated sample (several when a sample
tests several identities).  The engine alone reduces them: the reported
residual is the worst one, a non-finite sample makes it non-finite, and a
check passes only when it yielded at least one residual and the worst is
within tolerance.  Residuals are always normalized by the norms of the
objects involved, so tolerances are parameter-scale-free.  The registry
fixes stable check names, the chain lengths each check runs at, its
tolerance, and whether it gates the suite (the length-4 off-shell probe is
recorded as experimental evidence only).

Determinism: every check derives its random stream from (suite seed, check
index, chain length), so verdicts are bitwise reproducible.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bethe, linalg, model, scalars, vectors
from .bethe import SolverConfig
from .errors import FrameUnavailableError, OpenXXXError
from .model import ModelParams

log = logging.getLogger(__name__)

# Sampled spectral points keep this distance from every guarded pole; much
# wider than the hard pole guard so identities stay well conditioned.
SAMPLE_MARGIN = 5e-2
SAMPLE_BOX = 1.5


class SkipCheck(OpenXXXError):
    """Raised inside a check to mark it skipped, with a reason."""


@dataclass
class CheckContext:
    params: ModelParams
    n_sites: int
    rng: np.random.Generator
    n_samples: int
    tol: float
    solver_cfg: SolverConfig
    resamples: int = 0

    def draw_point(self, centers=(), margin: float = SAMPLE_MARGIN) -> complex:
        for _ in range(1000):
            z = complex(
                self.rng.uniform(-SAMPLE_BOX, SAMPLE_BOX),
                self.rng.uniform(-SAMPLE_BOX, SAMPLE_BOX),
            )
            if all(abs(z - c) >= margin for c in centers):
                return z
            self.resamples += 1
        raise OpenXXXError("could not sample a pole-free spectral point")

    def draw_root_cluster(self, count: int) -> list[complex]:
        """Generic, well-separated off-shell roots."""
        centers = list(scalars.root_guard_centers(self.params))
        roots: list[complex] = []
        for _ in range(count):
            lam = self.draw_point(tuple(centers))
            roots.append(lam)
            centers.extend((lam, -lam - 1))
        return roots


@dataclass(frozen=True)
class CheckDef:
    name: str
    fn: object
    sites: tuple
    tol: object  # float or {n_sites: float}
    gating: bool = True

    def tol_at(self, n: int) -> float:
        return self.tol[n] if isinstance(self.tol, dict) else self.tol


_REGISTRY: dict[str, CheckDef] = {}


def _check(name, sites, tol, gating=True):
    def deco(fn):
        _REGISTRY[name] = CheckDef(name, fn, tuple(sites), tol, gating)
        return fn

    return deco


def registry() -> dict[str, CheckDef]:
    return dict(_REGISTRY)


def check_names() -> list[str]:
    return list(_REGISTRY)


# --- foundations ---------------------------------------------------------------

@_check("foundations.yang_baxter", sites=(1,), tol=1e-12)
def _yang_baxter(ctx: CheckContext) -> Iterator[float]:
    eye = np.eye(2, dtype=complex)
    p23 = np.kron(eye, model.PERMUTATION)
    for _ in range(ctx.n_samples):
        u, v = ctx.draw_point(), ctx.draw_point()
        r12 = np.kron(model.r_matrix(u - v), eye)
        r13 = p23 @ np.kron(model.r_matrix(u), eye) @ p23
        r23 = np.kron(eye, model.r_matrix(v))
        lhs = r12 @ r13 @ r23
        rhs = r23 @ r13 @ r12
        yield linalg.rel_residual(lhs - rhs, linalg.frobenius(lhs))


@_check("foundations.gl2_invariance", sites=(1,), tol=1e-12)
def _gl2_invariance(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        while True:
            q = ctx.rng.standard_normal((2, 2)) + 1j * ctx.rng.standard_normal((2, 2))
            if abs(np.linalg.det(q)) > 0.1:
                break
        u = ctx.draw_point()
        yield linalg.commutator_norm(model.r_matrix(u), np.kron(q, q))


def _reflection_residual(k_fn, u, v) -> float:
    eye = np.eye(2, dtype=complex)
    k1 = np.kron(k_fn(u), eye)
    k2 = np.kron(eye, k_fn(v))
    rm, rp = model.r_matrix(u - v), model.r_matrix(u + v)
    lhs = rm @ k1 @ rp @ k2
    rhs = k2 @ rp @ k1 @ rm
    return linalg.rel_residual(lhs - rhs, linalg.frobenius(lhs))


@_check("foundations.reflection_scalar", sites=(1,), tol=1e-12)
def _reflection_scalar(ctx: CheckContext) -> Iterator[float]:
    """K- solves the reflection equation; K+(-u-1) is the dual-side scalar solution."""
    p = ctx.params
    for _ in range(ctx.n_samples):
        u, v = ctx.draw_point(), ctx.draw_point()
        yield _reflection_residual(lambda w: model.k_minus_matrix(w, p), u, v)
        yield _reflection_residual(lambda w: model.k_plus_matrix(-w - 1, p), u, v)


@_check("foundations.reflection_dressed", sites=(1, 2, 3), tol=1e-10)
def _reflection_dressed(ctx: CheckContext) -> Iterator[float]:
    """Dressed reflection equation on aux 1 x aux 2 x chain, with K on aux 1 as P01 (I x K) P01."""
    p = ctx.params
    eye2, chain = np.eye(2, dtype=complex), np.eye(p.dim, dtype=complex)
    p01 = np.kron(model.PERMUTATION, chain)
    for _ in range(ctx.n_samples):
        u, v = ctx.draw_point(), ctx.draw_point()
        k1 = p01 @ np.kron(eye2, model.open_k_matrix(u, p)) @ p01
        k2 = np.kron(eye2, model.open_k_matrix(v, p))
        rm = np.kron(model.r_matrix(u - v), chain)
        rp = np.kron(model.r_matrix(u + v), chain)
        lhs = rm @ k1 @ rp @ k2
        rhs = k2 @ rp @ k1 @ rm
        yield linalg.rel_residual(lhs - rhs, linalg.frobenius(lhs))


@_check("foundations.transfer_commute", sites=(1, 2, 3, 4), tol=1e-10)
def _transfer_commute(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        u, v = ctx.draw_point(), ctx.draw_point()
        yield linalg.commutator_norm(
            model.transfer_matrix(u, ctx.params), model.transfer_matrix(v, ctx.params)
        )


@_check("foundations.trace_vs_entries", sites=(1, 2, 3), tol=1e-12)
def _trace_vs_entries(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        u = ctx.draw_point(centers=(-0.5,))
        t_trace = model.transfer_matrix(u, ctx.params)
        t_entries = model.transfer_matrix_from_entries(u, ctx.params)
        yield linalg.rel_residual(t_trace - t_entries, linalg.frobenius(t_trace))


@_check("foundations.vacuum_actions", sites=(1, 2, 3), tol=1e-12)
def _vacuum_actions(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    omega = model.pseudo_vacuum(p.n_sites)
    for _ in range(ctx.n_samples):
        u = ctx.draw_point(centers=(-0.5,))
        a, _, c, d = model.entry_matrices(u, p)
        yield from (
            linalg.rel_residual(a @ omega - scalars.lambda1(u, p) * omega, linalg.frobenius(a)),
            linalg.rel_residual(d @ omega - scalars.lambda2(u, p) * omega, linalg.frobenius(d)),
            linalg.rel_residual(c @ omega, linalg.frobenius(c)),
        )


@_check("foundations.b_nilpotency", sites=(1, 2, 3), tol=1e-13)
def _b_nilpotency(ctx: CheckContext) -> Iterator[float]:
    """An (N+1)-fold lowering string annihilates the vacuum exactly."""
    p = ctx.params
    for _ in range(ctx.n_samples):
        points = [ctx.draw_point(centers=(-0.5,)) for _ in range(p.n_sites + 1)]
        bs = [model.entry_matrices(x, p)[1] for x in points]
        vec = vectors.operator_tails(bs[::-1], model.pseudo_vacuum(p.n_sites))[0]
        yield float(np.linalg.norm(vec)) / math.prod(max(linalg.frobenius(b), 1.0) for b in bs)


@_check("foundations.hamiltonian_commutes", sites=(1, 2, 3, 4), tol=1e-10)
def _hamiltonian_commutes(ctx: CheckContext) -> Iterator[float]:
    """[H, t(u)] = 0 for the homogeneous chain with eta+- = 0."""
    p = ctx.params
    hom = ModelParams.create(
        (0.0,) * p.n_sites, p.p, p.q, p.xi_plus, p.xi_minus, branch=p.branch
    )
    h = model.hamiltonian_matrix(hom)
    for _ in range(ctx.n_samples):
        u = ctx.draw_point()
        yield linalg.commutator_norm(h, model.transfer_matrix(u, hom))


# --- exchange relations -----------------------------------------------------------

def _draw_exchange_pair(ctx: CheckContext) -> tuple[complex, complex]:
    u = ctx.draw_point(centers=(-0.5,))
    v = ctx.draw_point(centers=(-0.5, u, -u - 1))
    return u, v


def _term_scale(*mats) -> float:
    return max(max(linalg.frobenius(m) for m in mats), 1.0)


@_check("exchange.bb_commute", sites=(1, 2, 3), tol=1e-11)
def _exchange_bb(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        u, v = _draw_exchange_pair(ctx)
        bu = model.entry_matrices(u, ctx.params)[1]
        bv = model.entry_matrices(v, ctx.params)[1]
        yield linalg.commutator_norm(bu, bv)


@_check("exchange.ab_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_ab(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        u, v = _draw_exchange_pair(ctx)
        au, bu = model.entry_matrices(u, p)[:2]
        av, bv, _, dv = model.entry_matrices(v, p)
        terms = (
            au @ bv,
            -scalars.structure_fn("f", u, v) * (bv @ au),
            -scalars.structure_fn("g", u, v) * (bu @ av),
            -scalars.structure_fn("w", u, v) * (bu @ dv),
        )
        yield linalg.rel_residual(sum(terms), _term_scale(*terms))


@_check("exchange.db_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_db(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        u, v = _draw_exchange_pair(ctx)
        _, bu, _, du = model.entry_matrices(u, p)
        av, bv, _, dv = model.entry_matrices(v, p)
        terms = (
            du @ bv,
            -scalars.structure_fn("h", u, v) * (bv @ du),
            -scalars.structure_fn("k", u, v) * (bu @ dv),
            -scalars.structure_fn("n", u, v) * (bu @ av),
        )
        yield linalg.rel_residual(sum(terms), _term_scale(*terms))


@_check("exchange.cb_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_cb(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        u, v = _draw_exchange_pair(ctx)
        au, _, cu, du = model.entry_matrices(u, p)
        av, bv, _, dv = model.entry_matrices(v, p)
        s = scalars.structure_fn
        terms = (
            cu @ bv - bv @ cu,
            -s("m", u, v) * (av @ au),
            -s("l", u, v) * (au @ av),
            -s("q_f", u, v) * (av @ du),
            -s("p_f", u, v) * (au @ dv),
            -s("y", u, v) * (du @ av),
            -s("z", u, v) * (du @ dv),
        )
        yield linalg.rel_residual(sum(terms), _term_scale(*terms))


# --- rotated frame ------------------------------------------------------------------

def _require_frame(ctx: CheckContext) -> vectors.RotatedFrame:
    try:
        return vectors.RotatedFrame.from_params(ctx.params)
    except FrameUnavailableError as exc:
        raise SkipCheck(str(exc)) from exc


@_check("rotated.k_plus_diagonalization", sites=(1,), tol=1e-12)
def _rotated_kplus(ctx: CheckContext) -> Iterator[float]:
    frame = _require_frame(ctx)
    p = ctx.params
    for _ in range(ctx.n_samples):
        u = ctx.draw_point()
        kp = model.k_plus_matrix(u, p)
        lhs = frame.q_inverse @ kp @ frame.q_matrix
        yield linalg.rel_residual(lhs - frame.d_plus(u, p), linalg.frobenius(kp))


@_check("rotated.frame_vacuum_actions", sites=(1, 2, 3), tol=1e-10)
def _rotated_vacuum(ctx: CheckContext) -> Iterator[float]:
    frame = _require_frame(ctx)
    p = ctx.params
    omega = model.pseudo_vacuum(p.n_sites)
    c = p.c_ratio
    for _ in range(ctx.n_samples):
        u = ctx.draw_point(centers=(-0.5,))
        abar, bbar, _, dbar = vectors.rotated_entry_matrices(u, p)
        bvac = bbar @ omega
        res_a = abar @ omega - frame.scale * scalars.lambda1(u, p) * omega + c * bvac
        res_d = (
            dbar @ omega
            - frame.scale * scalars.lambda2(u, p) * omega
            - (2 * (u + 1) / (2 * u + 1)) * c * bvac
        )
        yield linalg.rel_residual(res_a, linalg.frobenius(abar))
        yield linalg.rel_residual(res_d, linalg.frobenius(dbar))


@_check("rotated.transfer_from_frame", sites=(1, 2, 3), tol=1e-11)
def _rotated_transfer(ctx: CheckContext) -> Iterator[float]:
    frame = _require_frame(ctx)
    p = ctx.params
    for _ in range(ctx.n_samples):
        u = ctx.draw_point(centers=(-0.5,))
        abar, _, _, dbar = vectors.rotated_entry_matrices(u, p)
        t_frame = (
            scalars.alpha_bar(u, p) * abar + scalars.delta_bar(u, p) * dbar
        ) / frame.scale
        t = model.transfer_matrix(u, p)
        yield linalg.rel_residual(t - t_frame, linalg.frobenius(t))


@_check("rotated.bbar_commute", sites=(1, 2, 3), tol=1e-10)
def _rotated_bbar_commute(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        u, v = _draw_exchange_pair(ctx)
        bu = vectors.b_bar_matrix(u, ctx.params)
        bv = vectors.b_bar_matrix(v, ctx.params)
        yield linalg.commutator_norm(bu, bv)


# --- off-shell equation ----------------------------------------------------------------

def offshell_residuals(params: ModelParams, roots, points) -> Iterator[float]:
    """Relative residual of the off-shell equation at each of ``points``.

    Bbar(lam_j), BE_k and the tails Bbar(lam_k+1)...Bbar(lam_M)|Omega> (Phi first) are built
    once; Phi_k is Bbar(lam_1)...Bbar(lam_k-1) Bbar(u) on tail k+1, as build_bethe_vector does.
    """
    lams = [complex(r) for r in roots]
    bbars, (phi, *tails) = vectors.bethe_vector_tails(lams, params)
    be = [scalars.bethe_residual(k, lams, params) for k in range(len(lams))]
    for u in map(complex, points):
        t = model.transfer_matrix(u, params)
        lhs = t @ phi - scalars.eigenvalue_Lambda(u, lams, params) * phi
        b_u = [vectors.b_bar_matrix(u, params)] if lams else []
        for k, lam in enumerate(lams):
            phi_k = vectors.operator_tails(bbars[:k] + b_u, tails[k])[0]
            lhs = lhs - scalars.F_factor(u, lam) * be[k] * phi_k
        scale = linalg.frobenius(t) * float(np.linalg.norm(phi))
        yield float(np.linalg.norm(lhs)) / max(scale, 1e-300)


def offshell_residual(params: ModelParams, roots, u) -> float:
    """Relative residual of the off-shell equation at one spectral point."""
    return next(offshell_residuals(params, roots, (u,)))


def _offshell_samples(ctx: CheckContext, params: ModelParams, roots) -> Iterator[float]:
    """Off-shell residuals at ``roots`` for ``ctx.n_samples`` points drawn clear of their poles."""
    guards = tuple(g for lam in roots for g in (lam, -lam - 1))
    guards += scalars.root_guard_centers(params)
    return offshell_residuals(params, roots, [ctx.draw_point(guards) for _ in range(ctx.n_samples)])


def _offshell_check(ctx: CheckContext, params: ModelParams, counts) -> Iterator[float]:
    """Off-shell residuals of ``params`` for one root cluster per size in ``counts``.

    ``params`` may differ from ``ctx.params`` only in the xi couplings, so
    drawing the roots from ``ctx`` (whose guards depend on p and theta
    alone) gives the same draws as drawing them from ``params``.
    """
    for m in counts:
        yield from _offshell_samples(ctx, params, ctx.draw_root_cluster(m))


@_check("offshell.general", sites=(1, 2, 3), tol=1e-9)
def _offshell_general(ctx: CheckContext) -> Iterator[float]:
    return _offshell_check(ctx, ctx.params, counts=(ctx.params.n_sites,))


@_check("offshell.n4_probe", sites=(4,), tol=1e-6, gating=False)
def _offshell_probe(ctx: CheckContext) -> Iterator[float]:
    """Length-4 evidence for the unproven case; recorded, never gating."""
    return _offshell_check(ctx, ctx.params, counts=(4,))


@_check("offshell.diagonal", sites=(1, 2, 3), tol=1e-9)
def _offshell_diagonal(ctx: CheckContext) -> Iterator[float]:
    """Classic diagonal-boundary off-shell relation for every excitation number."""
    diag = ctx.params.replace_couplings(xi_plus=0.0, xi_minus=0.0)
    return _offshell_check(ctx, diag, counts=range(diag.n_sites + 1))


@_check("offshell.triangular", sites=(1, 2, 3), tol=1e-9)
def _offshell_triangular(ctx: CheckContext) -> Iterator[float]:
    """xi- = 0 limit: the dressed construction with c = -xi+/2 stays off-shell exact."""
    tri = ModelParams.create(
        ctx.params.theta, ctx.params.p, ctx.params.q, ctx.params.xi_plus, 0.0,
        branch="principal",
    )
    return _offshell_check(ctx, tri, counts=(tri.n_sites,))


# --- length-1 proof mechanics ------------------------------------------------------------

def _rel_err(a, b) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _u_diag(u, lam, params: ModelParams) -> complex:
    s = scalars.structure_fn
    return (
        scalars.alpha_bar_diag(u, params) * s("g", u, lam)
        + scalars.delta_bar_diag(u, params) * s("n", u, lam)
    ) * scalars.lambda1(lam, params) + (
        scalars.alpha_bar_diag(u, params) * s("w", u, lam)
        + scalars.delta_bar_diag(u, params) * s("k", u, lam)
    ) * scalars.lambda2(lam, params)


def _g_function(u, lam, params: ModelParams) -> complex:
    s = scalars.structure_fn
    return scalars.lambda1(u, params) * (
        (s("m", u, lam) + s("l", u, lam)) * scalars.lambda1(lam, params)
        + s("p_f", u, lam) * scalars.lambda2(lam, params)
    ) + scalars.lambda2(u, params) * (
        (s("q_f", u, lam) + s("y", u, lam)) * scalars.lambda1(lam, params)
        + s("z", u, lam) * scalars.lambda2(lam, params)
    )


def _w_coeff_n1(lam, params: ModelParams) -> complex:
    return params.c_ratio * (
        (2 * lam / (2 * lam + 1)) * scalars.lambda1(lam, params)
        - scalars.lambda2(lam, params)
    )


def _draw_n1_pair(ctx: CheckContext) -> tuple[complex, complex]:
    lam = ctx.draw_root_cluster(1)[0]
    guards = scalars.root_guard_centers(ctx.params) + (lam, -lam - 1)
    u = ctx.draw_point(guards)
    return u, lam


@_check("n1.unwanted_term", sites=(1,), tol=1e-11)
def _n1_unwanted(ctx: CheckContext) -> Iterator[float]:
    for _ in range(ctx.n_samples):
        u, lam = _draw_n1_pair(ctx)
        lhs = _u_diag(u, lam, ctx.params)
        rhs = scalars.F_factor(u, lam) * scalars.bethe_residual_diag(0, (lam,), ctx.params)
        yield _rel_err(lhs, rhs)


@_check("n1.g_function", sites=(1,), tol=1e-11)
def _n1_g(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    omega = model.pseudo_vacuum(1)
    for _ in range(ctx.n_samples):
        u, lam = _draw_n1_pair(ctx)
        cu = model.entry_matrices(u, p)[2]
        blam = model.entry_matrices(lam, p)[1]
        vec = cu @ (blam @ omega)
        res = vec - _g_function(u, lam, p) * omega
        yield linalg.rel_residual(res, linalg.frobenius(cu), linalg.frobenius(blam))


@_check("n1.omega_brackets", sites=(1,), tol=1e-10)
def _n1_brackets(ctx: CheckContext) -> Iterator[float]:
    """The coefficients of both basis vectors in the length-1 proof vanish."""
    p = ctx.params
    for _ in range(ctx.n_samples):
        u, lam = _draw_n1_pair(ctx)
        z1 = lambda x: 2 * x * (p.p - p.theta[0])
        f_be_gen = scalars.F_factor(u, lam) * scalars.bethe_residual_gen(0, (lam,), p)
        lam_gen = scalars.eigenvalue_Lambda_gen(u, (lam,), p)
        w_lam = _w_coeff_n1(lam, p)
        terms_down = (
            -p.rho * lam_gen * z1(lam),
            (-p.rho * f_be_gen + p.xi_minus * (u + 1) * w_lam) * z1(u),
        )
        vac = (
            scalars.alpha_bar_diag(u, p) * scalars.lambda1(u, p)
            + scalars.delta_bar_diag(u, p) * scalars.lambda2(u, p)
        )
        terms_up = (
            (vac - scalars.eigenvalue_Lambda(u, (lam,), p)) * w_lam,
            p.xi_plus * (u + 1) * _g_function(u, lam, p),
            -scalars.F_factor(u, lam) * scalars.bethe_residual(0, (lam,), p) * _w_coeff_n1(u, p),
        )
        for terms in (terms_down, terms_up):
            scale = max(max(abs(t) for t in terms), 1.0)
            yield abs(sum(terms)) / scale


# --- golden coefficient formulas -----------------------------------------------------------

def _w1_coeff_n2(l1, l2, params: ModelParams) -> complex:
    s = scalars.structure_fn
    return params.c_ratio * (
        (2 * l2 / (2 * l2 + 1)) * scalars.lambda1(l2, params) * s("f", l2, l1)
        - scalars.lambda2(l2, params) * s("h", l2, l1)
    )


def _w_empty_n2(l1, l2, params: ModelParams) -> complex:
    lam1, lam2 = scalars.lambda1, scalars.lambda2
    c2 = params.c_ratio ** 2
    return c2 * (
        (l1 + l2 + 2) / (l1 + l2 + 1) * lam2(l1, params) * lam2(l2, params)
        - (2 * l2 / (2 * l2 + 1)) * (l1 - l2 + 1) / (l1 - l2) * lam2(l1, params) * lam1(l2, params)
        - (2 * l1 / (2 * l1 + 1)) * (l2 - l1 + 1) / (l2 - l1) * lam1(l1, params) * lam2(l2, params)
        + (2 * l1 / (2 * l1 + 1)) * (2 * l2 / (2 * l2 + 1))
        * (l1 + l2) / (l1 + l2 + 1) * lam1(l1, params) * lam1(l2, params)
    )


def _v_coeff(u, lams, j: int) -> complex:
    """V^j for the order-1 relation: a ratio of products over the other roots."""
    num = u
    den = lams[j]
    for i, lam in enumerate(lams):
        if i == j:
            continue
        num *= (u - lam) * (u + lam + 1)
        den *= (lams[j] - lam) * (lams[j] + lam + 1)
    return num / den


@_check("golden.w_n1", sites=(1,), tol=1e-10)
def _golden_w1(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        lam = ctx.draw_root_cluster(1)
        tables = vectors.extract_W(lam, p)
        yield _rel_err(tables[0][()], _w_coeff_n1(lam[0], p))
        yield _rel_err(tables[1][(1,)], 1.0)


@_check("golden.z_n1", sites=(1,), tol=1e-10)
def _golden_z1(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        x = ctx.draw_point(centers=(-0.5,))
        yield _rel_err(vectors.partition_Z((x,), p), 2 * x * (p.p - p.theta[0]))


@_check("golden.w_n2", sites=(2,), tol=1e-10)
def _golden_w2(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        l1, l2 = ctx.draw_root_cluster(2)
        tables = vectors.extract_W((l1, l2), p)
        yield from (
            _rel_err(tables[1][(1,)], _w1_coeff_n2(l1, l2, p)),
            _rel_err(tables[1][(2,)], _w1_coeff_n2(l2, l1, p)),
            _rel_err(tables[0][()], _w_empty_n2(l1, l2, p)),
            _rel_err(tables[2][(1, 2)], 1.0),
        )


@_check("golden.v_n2", sites=(2,), tol=1e-10)
def _golden_v2(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        lams = ctx.draw_root_cluster(2)
        guards = [g for lam in lams for g in (lam, -lam - 1)] + [0.0, -0.5, -1.0]
        u = ctx.draw_point(tuple(guards))
        table = vectors.extract_V(u, (), lams, p)
        yield _rel_err(table[(1,)], _v_coeff(u, lams, 0))
        yield _rel_err(table[(2,)], _v_coeff(u, lams, 1))
        # consistency at u = lambda_1: the relation collapses to the identity
        at_root = vectors.extract_V(lams[0], (), lams, p)
        yield _rel_err(at_root[(1,)], 1.0)
        yield abs(at_root[(2,)])
        # order-N relation: ratio of lowering-string contractions
        full = vectors.extract_V(u, (2,), lams, p)
        z_ratio = vectors.partition_Z((u, lams[1]), p) / vectors.partition_Z(lams, p)
        yield _rel_err(full[(1, 2)], z_ratio)


@_check("golden.v_n3", sites=(3,), tol=1e-10)
def _golden_v3(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        lams = ctx.draw_root_cluster(3)
        guards = [g for lam in lams for g in (lam, -lam - 1)] + [0.0, -0.5, -1.0]
        u = ctx.draw_point(tuple(guards))
        table = vectors.extract_V(u, (), lams, p)
        for j in range(3):
            yield _rel_err(table[(j + 1,)], _v_coeff(u, lams, j))
        full = vectors.extract_V(u, (2, 3), lams, p)
        z_ratio = vectors.partition_Z((u, lams[1], lams[2]), p) / vectors.partition_Z(lams, p)
        yield _rel_err(full[(1, 2, 3)], z_ratio)


# --- on-shell checks ----------------------------------------------------------------------

_ONSHELL_TOL = {1: 1e-8, 2: 1e-8, 3: 1e-7}


@lru_cache(maxsize=16)
def _cached_cover(params: ModelParams, cfg: SolverConfig) -> bethe.CoverageResult:
    """One cover per model and solver setting, shared by the on-shell checks."""
    return bethe.cover_spectrum(params, cfg)


@_check("spectrum.completeness", sites=(1, 2, 3), tol=_ONSHELL_TOL)
def _spectrum_completeness(ctx: CheckContext) -> Iterator[float]:
    cover = _cached_cover(ctx.params, ctx.solver_cfg)
    yield float("inf") if cover.unmatched_count else cover.max_match_error


@_check("onshell.eigen_residual", sites=(1, 2, 3), tol=_ONSHELL_TOL)
def _onshell_eigen(ctx: CheckContext) -> Iterator[float]:
    cover = _cached_cover(ctx.params, ctx.solver_cfg)
    yield float("inf") if cover.unmatched_count else cover.max_eigen_residual


@_check("onshell.polynomiality", sites=(1, 2, 3), tol=1e-8)
def _onshell_poly(ctx: CheckContext) -> Iterator[float]:
    """On shell, Lambda(u) interpolates a polynomial of the transfer-matrix degree."""
    p = ctx.params
    # the cover holds the certified root sets of every eigencurve
    sets = _cached_cover(p, ctx.solver_cfg).root_sets
    if not sets:
        raise SkipCheck("no converged Bethe solutions to test")
    degree = 2 * p.n_sites + 2
    n_fit = degree + 3  # 2N+5 sample points
    for rs in sets:
        # interpolation circle, nudged until clear of the eigenvalue poles
        for attempt in range(50):
            radius = 1.45 + 0.08 * attempt
            pts = bethe.CURVE_CENTER + radius * np.exp(
                2j * np.pi * (np.arange(n_fit) + 0.3) / n_fit
            )
            guards = [g for lam in rs.roots for g in (lam, -lam - 1)]
            guards.append(-0.5)
            if all(abs(pt - g) > 1e-2 for pt in pts for g in guards):
                break
        else:
            raise SkipCheck("could not place interpolation circle away from poles")
        vals = np.array([scalars.eigenvalue_Lambda(pt, rs, p) for pt in pts])
        phases = (pts - bethe.CURVE_CENTER) / radius
        coeff, *_ = np.linalg.lstsq(np.vander(phases, degree + 1, increasing=True), vals, rcond=None)
        # deviation measured at interleaved probe points, not the fit points
        probes = bethe.CURVE_CENTER + radius * np.exp(
            2j * np.pi * (np.arange(n_fit) + 0.8) / n_fit
        )
        scale = max(1.0, float(np.abs(vals).max()))
        for pt in probes:
            if any(abs(pt - g) <= 1e-2 for g in guards):
                continue
            fit_val = np.polynomial.polynomial.polyval((pt - bethe.CURVE_CENTER) / radius, coeff)
            yield abs(scalars.eigenvalue_Lambda(pt, rs, p) - fit_val) / scale


# --- engine ------------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CheckOutcome:
    name: str
    n_sites: int
    n_samples: int
    residual: float | None
    tol: float
    verdict: str  # pass | fail | skipped
    gating: bool
    wall_time: float
    reason: str | None = None


@dataclass(frozen=True, slots=True)
class VerificationReport:
    checks: tuple
    params: ModelParams
    seed: int

    @property
    def all_pass(self) -> bool:
        """At least one gating check passed and none failed (skipped ones never gate)."""
        verdicts = {c.verdict for c in self.checks if c.gating}
        return "pass" in verdicts and "fail" not in verdicts

    def by_name(self, name: str) -> list[CheckOutcome]:
        return [c for c in self.checks if c.name == name]


def select_checks(names) -> list[CheckDef]:
    if names == "all" or names is None:
        return list(_REGISTRY.values())
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise OpenXXXError(f"unknown check names: {unknown}")
    return [_REGISTRY[n] for n in names]


def run_suite(
    params: ModelParams,
    checks="all",
    seed: int = 0,
    n_samples: int = 10,
    solver_cfg: SolverConfig | None = None,
    max_sites: int | None = None,
) -> VerificationReport:
    """Run the named checks at every registered chain length.

    The supplied params fix the boundary couplings; inhomogeneities are
    sliced or zero-padded per chain length.  ``max_sites`` truncates the
    lengths (the length-4 probes are the slowest entries).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    solver_cfg = solver_cfg or SolverConfig(seed=seed)
    outcomes = []
    for idx, cdef in enumerate(select_checks(checks)):
        for n in cdef.sites:
            if max_sites is not None and n > max_sites:
                continue
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, n]))
            ctx = CheckContext(
                params.with_sites(n), n, rng, n_samples, cdef.tol_at(n), solver_cfg
            )
            outcomes.append(_run_check(cdef.name, cdef.fn, ctx, cdef.gating))
    outcomes.sort(key=lambda c: (c.name, c.n_sites))
    return VerificationReport(tuple(outcomes), params, seed)


def _run_check(name: str, fn, ctx: CheckContext, gating: bool) -> CheckOutcome:
    """Run one check on its context: time it, judge its worst residual against ``ctx.tol``.

    This is the only place residuals are reduced.  ``np.max`` propagates NaN,
    so a non-finite sample fails the check, and a check that evaluated no
    samples fails instead of passing vacuously.  A package error raised inside
    the check fails it alone, with the error as its reason and no residual.
    """
    start = time.perf_counter()
    residual: float | None = None
    reason: str | None = None
    try:
        values = [float(r) for r in fn(ctx)]
        if values:
            residual = float(np.max(values))
            verdict = "pass" if residual <= ctx.tol else "fail"
        else:
            verdict, reason = "fail", "no samples evaluated"
    except SkipCheck as exc:
        verdict, reason = "skipped", str(exc)
    except OpenXXXError as exc:
        verdict, reason = "fail", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if ctx.resamples:
        log.info("%s[N=%d]: resampled %d pole-adjacent draws", name, ctx.n_sites, ctx.resamples)
    return CheckOutcome(
        name=name,
        n_sites=ctx.n_sites,
        n_samples=ctx.n_samples,
        residual=residual,
        tol=ctx.tol,
        verdict=verdict,
        gating=gating,
        wall_time=elapsed,
        reason=reason,
    )


def check_offshell(params, roots, seed=0, n_samples=10) -> VerificationReport:
    """The off-shell action of the transfer matrix on the dressed vectors at ``roots``.

    The residual is evaluated at exactly those roots (validated for
    genericity) on a chain of ``len(roots)`` sites, at ``n_samples`` drawn
    spectral points; the registry's off-shell checks draw their own roots.
    """
    lams = [complex(r) for r in roots]
    site_params = params.with_sites(len(lams))
    if not scalars.roots_admissible(lams, site_params):
        raise OpenXXXError("supplied off-shell roots violate the pole/separation guards")
    cdef = _REGISTRY["offshell.general" if len(lams) <= 3 else "offshell.n4_probe"]
    ctx = CheckContext(
        site_params, len(lams), np.random.default_rng(np.random.SeedSequence([seed])),
        n_samples, cdef.tol_at(len(lams)), SolverConfig(seed=seed),
    )
    outcome = _run_check(
        cdef.name, lambda c: _offshell_samples(c, site_params, lams), ctx, cdef.gating
    )
    return VerificationReport((outcome,), site_params, seed)


def random_params(rng: np.random.Generator, n_sites: int, branch: str = "principal") -> ModelParams:
    """Generic boundary draw avoiding the measure-zero degeneracies."""

    def draw(lo: float, hi: float) -> complex:
        return rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())

    while True:
        p, q = draw(0.5, 3.0), draw(0.5, 3.0)
        xp, xm = draw(0.3, 1.5), draw(0.3, 1.5)
        if abs(xp * xm + 1) < 1e-3:
            continue
        theta = tuple(draw(0.05, 0.4) for _ in range(n_sites))
        return ModelParams.create(theta, p, q, xp, xm, branch=branch)
