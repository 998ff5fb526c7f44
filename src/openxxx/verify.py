"""Named verification checks for every identity the model is built on.

Each check evaluates one identity (an operator equation, a scalar identity,
or an end-to-end spectral property).  A matrix-valued identity is evaluated
on the whole stack of its samples at once and yields one array of relative
residuals per stack (per identity when it tests several); the scalar ones
yield one residual per evaluation.  A one-variable polynomial identity of
degree d is evaluated at d + 1 nodes of the curve circle in w = u(u+1),
which tests it for all u: d is the degree in w for t(u) alone (t(-u-1) =
t(u)), in u for the A, B, C, D entries.  The on-shell checks read the
spectrum cover, and the other identities are evaluated at randomly sampled
spectral points, all drawn before one batched build.  The engine alone
reduces the residuals, flattened: the reported residual is the worst one, a
non-finite sample makes it non-finite, and a check passes only when it
yielded at least one residual and the worst is within tolerance.  Residuals
are always normalized by the norms of the objects involved, so tolerances
are parameter-scale-free.  The registry fixes stable check names, the chain
lengths each check runs at, its tolerance, and whether it gates the suite
(the length-4 off-shell probe is recorded as experimental evidence only).

Determinism: every check derives its random stream from (suite seed, the
check's position in the registry, chain length), so verdicts are bitwise
reproducible, and a check run alone draws what it draws in the full suite.
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
            z = complex(*self.rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, 2))
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

def _draw_pairs(ctx: CheckContext) -> list[tuple[complex, complex]]:
    return [(ctx.draw_point(), ctx.draw_point()) for _ in range(ctx.n_samples)]


@_check("foundations.yang_baxter", sites=(1,), tol=1e-12)
def _yang_baxter(ctx: CheckContext) -> Iterator[np.ndarray]:
    u, v = np.array(_draw_pairs(ctx)).T
    r12 = linalg.with_identity(model.r_matrix(u - v), 4, 2)
    r13 = linalg.with_identity(model.r_matrix(u), 2, 2)
    r23 = linalg.with_identity(model.r_matrix(v), 1, 2)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    yield linalg.rel_residual_rows(lhs - rhs, linalg.frobenius_rows(lhs))


@_check("foundations.gl2_invariance", sites=(1,), tol=1e-12)
def _gl2_invariance(ctx: CheckContext) -> Iterator[np.ndarray]:
    qs, us = [], []
    for _ in range(ctx.n_samples):
        while True:
            q = ctx.rng.standard_normal((2, 2)) + 1j * ctx.rng.standard_normal((2, 2))
            if abs(np.linalg.det(q)) > 0.1:
                break
        qs.append(q)
        us.append(ctx.draw_point())
    q = np.array(qs)
    qq = (q[:, :, None, :, None] * q[:, None, :, None, :]).reshape(-1, 4, 4)  # np.kron(q, q)
    yield linalg.commutator_norm_rows(model.r_matrix(np.array(us)), qq)


def _reflection_residuals(k_u, k_v, u, v) -> np.ndarray:
    """R(u-v) K1(u) R(u+v) K2(v) = K2(v) R(u+v) K1(u) R(u-v) for stacks of K on aux x chain.

    R acts on aux 1 x aux 2, K1 on aux 1 x chain and K2 on aux 2 x chain.
    """
    k1, k2 = linalg.with_identity(k_u, 2, 2), linalg.with_identity(k_v, 1, 2)
    m = k_u.shape[-1] // 2
    rm, rp = (linalg.with_identity(model.r_matrix(w), 4, m) for w in (u - v, u + v))
    lhs = rm @ k1 @ rp @ k2
    rhs = k2 @ rp @ k1 @ rm
    return linalg.rel_residual_rows(lhs - rhs, linalg.frobenius_rows(lhs))


@_check("foundations.reflection_scalar", sites=(1,), tol=1e-12)
def _reflection_scalar(ctx: CheckContext) -> Iterator[np.ndarray]:
    """K- solves the reflection equation; K+(-u-1) is the dual-side scalar solution."""
    p = ctx.params
    pairs = _draw_pairs(ctx)
    for k_fn in (lambda w: model.k_minus_matrix(w, p), lambda w: model.k_plus_matrix(-w - 1, p)):
        k_u, k_v = (np.array([k_fn(w) for w in ws]) for ws in zip(*pairs))
        yield _reflection_residuals(k_u, k_v, *np.array(pairs).T)


@_check("foundations.reflection_dressed", sites=(1, 2, 3), tol=1e-10)
def _reflection_dressed(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Dressed reflection equation on aux 1 x aux 2 x chain, with K on aux 1 x chain."""
    pairs = np.array(_draw_pairs(ctx))
    k_u, k_v = model.open_k_matrix(pairs, ctx.params).swapaxes(0, 1)
    yield _reflection_residuals(k_u, k_v, *pairs.T)


@_check("foundations.transfer_commute", sites=(1, 2, 3, 4), tol=1e-10)
def _transfer_commute(ctx: CheckContext) -> Iterator[np.ndarray]:
    """[t(u), t(v)]: degree N+1 in w(u) and w(v), zero at u = v: pairs i < j of N+2 nodes."""
    p = ctx.params
    ts = model.transfer_matrix(bethe.circle_nodes(p, p.n_sites + 2), p)
    i, j = np.triu_indices(len(ts), 1)
    yield linalg.commutator_norm_rows(ts[i], ts[j])


@_check("foundations.trace_vs_entries", sites=(1, 2, 3), tol=1e-12)
def _trace_vs_entries(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Trace form against the entry recombination: degree 2N+3 with (2u+1) cleared."""
    nodes = bethe.circle_nodes(ctx.params, 2 * ctx.n_sites + 4)
    traces = model.transfer_matrix(nodes, ctx.params)
    diff = traces - model.transfer_matrix_from_entries(nodes, ctx.params)
    yield linalg.rel_residual_rows(diff, linalg.frobenius_rows(traces))


@_check("foundations.vacuum_actions", sites=(1, 2, 3), tol=1e-12)
def _vacuum_actions(ctx: CheckContext) -> Iterator[np.ndarray]:
    """A, D and C on the vacuum: degree 2N+2 with (2u+1) cleared."""
    p = ctx.params
    omega = model.pseudo_vacuum(p.n_sites)
    nodes = bethe.circle_nodes(p, 2 * p.n_sites + 3)
    a, _, c, d = model.entry_matrices(nodes, p)
    for op, vac in ((a, scalars.lambda1), (d, scalars.lambda2)):
        vac_omega = np.array([[vac(u, p)] for u in nodes]) * omega
        yield linalg.rel_residual_rows(op @ omega - vac_omega, linalg.frobenius_rows(op))
    yield linalg.rel_residual_rows(c @ omega, linalg.frobenius_rows(c))


@_check("foundations.b_nilpotency", sites=(1, 2, 3), tol=1e-13)
def _b_nilpotency(ctx: CheckContext) -> Iterator[np.ndarray]:
    """An (N+1)-fold lowering string annihilates the vacuum exactly."""
    p = ctx.params
    n = p.n_sites + 1
    points = [[ctx.draw_point(centers=(-0.5,)) for _ in range(n)] for _ in range(ctx.n_samples)]
    bs = model.entry_matrices(np.array(points), p)[1]
    vec = vectors.operator_tails(bs.swapaxes(0, 1)[::-1], model.pseudo_vacuum(p.n_sites))[0]
    norms = linalg.frobenius_rows(bs.reshape((-1,) + bs.shape[2:])).reshape(len(bs), n)
    yield linalg.rel_residual_rows(vec, *np.maximum(norms, 1.0).T)


@_check("foundations.hamiltonian_commutes", sites=(1, 2, 3, 4), tol=1e-10)
def _hamiltonian_commutes(ctx: CheckContext) -> Iterator[np.ndarray]:
    """[H, t(u)] = 0 for the homogeneous chain with eta+- = 0: degree N+1 in w."""
    p = ctx.params
    hom = ModelParams.create(
        (0.0,) * p.n_sites, p.p, p.q, p.xi_plus, p.xi_minus, branch=p.branch
    )
    ts = model.transfer_matrix(bethe.circle_nodes(hom, p.n_sites + 2), hom)
    yield linalg.commutator_norm_rows(np.broadcast_to(model.hamiltonian_matrix(hom), ts.shape), ts)


# --- exchange relations -----------------------------------------------------------

def _exchange_pairs(ctx: CheckContext) -> list[tuple[complex, complex]]:
    """``n_samples`` pairs u, v clear of -1/2 and of v = u, -u - 1."""
    pairs = []
    for _ in range(ctx.n_samples):
        u = ctx.draw_point(centers=(-0.5,))
        pairs.append((u, ctx.draw_point(centers=(-0.5, u, -u - 1))))
    return pairs


def _exchange_rows(ctx: CheckContext, *names) -> tuple[list, np.ndarray]:
    """A, B, C, D at the ``_exchange_pairs`` and the named structure functions there.

    Each entry comes as its stacks at u and at v.  The structure functions are
    evaluated pair by pair (on arrays they round differently), one row each.
    """
    pairs = _exchange_pairs(ctx)
    entries = [m.swapaxes(0, 1) for m in model.entry_matrices(np.array(pairs), ctx.params)]
    values = [[scalars.structure_fn(name, u, v) for name in names] for u, v in pairs]
    return entries, np.array(values, dtype=complex).T[..., None, None]


def _relation_residuals(*terms) -> np.ndarray:
    """Each row of sum(terms) relative to its largest addend, floored at 1."""
    norms = linalg.frobenius_rows(np.concatenate(terms)).reshape(len(terms), -1)
    return linalg.rel_residual_rows(sum(terms), np.maximum(norms.max(axis=0), 1.0))


@_check("exchange.bb_commute", sites=(1, 2, 3), tol=1e-11)
def _exchange_bb(ctx: CheckContext) -> Iterator[np.ndarray]:
    (_, (bu, bv), _, _), _ = _exchange_rows(ctx)
    yield linalg.commutator_norm_rows(bu, bv)


@_check("exchange.ab_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_ab(ctx: CheckContext) -> Iterator[np.ndarray]:
    ((au, av), (bu, bv), _, (_, dv)), (f, g, w) = _exchange_rows(ctx, "f", "g", "w")
    yield _relation_residuals(au @ bv, -f * (bv @ au), -g * (bu @ av), -w * (bu @ dv))


@_check("exchange.db_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_db(ctx: CheckContext) -> Iterator[np.ndarray]:
    ((_, av), (bu, bv), _, (du, dv)), (h, k, n) = _exchange_rows(ctx, "h", "k", "n")
    yield _relation_residuals(du @ bv, -h * (bv @ du), -k * (bu @ dv), -n * (bu @ av))


@_check("exchange.cb_relation", sites=(1, 2, 3), tol=1e-10)
def _exchange_cb(ctx: CheckContext) -> Iterator[np.ndarray]:
    ((au, av), (_, bv), (cu, _), (du, dv)), s = _exchange_rows(
        ctx, "m", "l", "q_f", "p_f", "y", "z"
    )
    yield _relation_residuals(
        cu @ bv - bv @ cu, -s[0] * (av @ au), -s[1] * (au @ av), -s[2] * (av @ du),
        -s[3] * (au @ dv), -s[4] * (du @ av), -s[5] * (du @ dv),
    )


# --- rotated frame ------------------------------------------------------------------

def _require_frame(ctx: CheckContext) -> vectors.RotatedFrame:
    try:
        return vectors.RotatedFrame.from_params(ctx.params)
    except FrameUnavailableError as exc:
        raise SkipCheck(str(exc)) from exc


@_check("rotated.k_plus_diagonalization", sites=(1,), tol=1e-12)
def _rotated_kplus(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Q^-1 K+(u) Q = D+(u): degree 1."""
    frame = _require_frame(ctx)
    p = ctx.params
    nodes = bethe.circle_nodes(p, 2)
    kp = np.array([model.k_plus_matrix(u, p) for u in nodes])
    diff = frame.q_inverse @ kp @ frame.q_matrix - np.array([frame.d_plus(u, p) for u in nodes])
    yield linalg.rel_residual_rows(diff, linalg.frobenius_rows(kp))


@_check("rotated.frame_vacuum_actions", sites=(1, 2, 3), tol=1e-10)
def _rotated_vacuum(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Abar and Dbar on the vacuum: degree 2N+2 with (2u+1) cleared."""
    frame = _require_frame(ctx)
    p = ctx.params
    omega = model.pseudo_vacuum(p.n_sites)
    c = p.c_ratio
    nodes = bethe.circle_nodes(p, 2 * p.n_sites + 3)
    abars, bbars, _, dbars = vectors.rotated_entry_matrices(nodes, p)
    bvac = bbars @ omega
    coeffs = np.array([
        (frame.scale * scalars.lambda1(u, p), frame.scale * scalars.lambda2(u, p),
         (2 * (u + 1) / (2 * u + 1)) * c)
        for u in nodes
    ]).T[..., None]
    res_a = abars @ omega - coeffs[0] * omega + c * bvac
    res_d = dbars @ omega - coeffs[1] * omega - coeffs[2] * bvac
    yield linalg.rel_residual_rows(res_a, linalg.frobenius_rows(abars))
    yield linalg.rel_residual_rows(res_d, linalg.frobenius_rows(dbars))


@_check("rotated.transfer_from_frame", sites=(1, 2, 3), tol=1e-11)
def _rotated_transfer(ctx: CheckContext) -> Iterator[np.ndarray]:
    """t(u) from the rotated entries: degree 2N+3 with (2u+1) cleared."""
    frame = _require_frame(ctx)
    p = ctx.params
    nodes = bethe.circle_nodes(p, 2 * p.n_sites + 4)
    abars, _, _, dbars = vectors.rotated_entry_matrices(nodes, p)
    alpha, delta = np.array(
        [(scalars.alpha_bar(u, p), scalars.delta_bar(u, p)) for u in nodes]
    ).T[..., None, None]
    t = model.transfer_matrix(nodes, p)
    t_frame = (alpha * abars + delta * dbars) / frame.scale
    yield linalg.rel_residual_rows(t - t_frame, linalg.frobenius_rows(t))


@_check("rotated.bbar_commute", sites=(1, 2, 3), tol=1e-10)
def _rotated_bbar_commute(ctx: CheckContext) -> Iterator[np.ndarray]:
    pairs = np.array(_exchange_pairs(ctx))
    yield linalg.commutator_norm_rows(*vectors.b_bar_matrix(pairs, ctx.params).swapaxes(0, 1))


# --- off-shell equation ----------------------------------------------------------------

def offshell_residuals(params: ModelParams, roots, points) -> np.ndarray:
    """Relative residual of the off-shell equation at each of ``points``.

    Bbar(lam_j), BE_k and the tails Bbar(lam_k+1)...Bbar(lam_M)|Omega> (Phi first) are built
    once, t(u) and Bbar(u) (none without roots) in one call each for all points; Phi_k is
    Bbar(lam_1)...Bbar(lam_k-1) Bbar(u) on tail k+1, as build_bethe_vector does, by matvecs
    per point.  Lambda(u) and F(u, lam_k) are taken point by point: evaluated on an array
    they round differently.  A vanishing Phi certifies nothing: a zero scale gives inf.
    """
    lams = [complex(r) for r in roots]
    points = [complex(u) for u in points]
    bbars, (phi, *tails) = vectors.bethe_vector_tails(lams, params)
    be = [scalars.bethe_residual(k, lams, params) for k in range(len(lams))]
    ts = model.transfer_matrix(np.array(points), params)
    lhs = ts @ phi - np.array([[scalars.eigenvalue_Lambda(u, lams, params)] for u in points]) * phi
    b_us = vectors.b_bar_matrix(np.array(points), params) if lams else None
    for k, lam in enumerate(lams):
        phi_k = vectors.operator_tails(bbars[:k] + [b_us], tails[k])[0]
        lhs = lhs - np.array([[scalars.F_factor(u, lam) * be[k]] for u in points]) * phi_k
    with np.errstate(all="ignore"):
        scale = linalg.frobenius_rows(ts) * linalg.frobenius(phi)
        return np.where(scale != 0, linalg.frobenius_rows(lhs) / scale, math.inf)


def offshell_residual(params: ModelParams, roots, u) -> float:
    """Relative residual of the off-shell equation at one spectral point."""
    return float(offshell_residuals(params, roots, (u,))[0])


def _offshell_samples(ctx: CheckContext, params: ModelParams, roots) -> np.ndarray:
    """Off-shell residuals at ``roots`` for ``ctx.n_samples`` points drawn clear of their poles."""
    guards = tuple(g for lam in roots for g in (lam, -lam - 1))
    guards += scalars.root_guard_centers(params)
    return offshell_residuals(params, roots, [ctx.draw_point(guards) for _ in range(ctx.n_samples)])


def _offshell_check(ctx: CheckContext, params: ModelParams, counts) -> Iterator[np.ndarray]:
    """Off-shell residuals of ``params`` for one root cluster per size in ``counts``.

    ``params`` may differ from ``ctx.params`` only in the xi couplings, so
    drawing the roots from ``ctx`` (whose guards depend on p and theta
    alone) gives the same draws as drawing them from ``params``.
    """
    for m in counts:
        yield _offshell_samples(ctx, params, ctx.draw_root_cluster(m))


@_check("offshell.general", sites=(1, 2, 3), tol=1e-9)
def _offshell_general(ctx: CheckContext) -> Iterator[np.ndarray]:
    return _offshell_check(ctx, ctx.params, counts=(ctx.params.n_sites,))


@_check("offshell.n4_probe", sites=(4,), tol=1e-6, gating=False)
def _offshell_probe(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Length-4 evidence for the unproven case; recorded, never gating."""
    return _offshell_check(ctx, ctx.params, counts=(4,))


@_check("offshell.diagonal", sites=(1, 2, 3), tol=1e-9)
def _offshell_diagonal(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Classic diagonal-boundary off-shell relation for every excitation number."""
    diag = ctx.params.replace_couplings(xi_plus=0.0, xi_minus=0.0)
    return _offshell_check(ctx, diag, counts=range(diag.n_sites + 1))


@_check("offshell.triangular", sites=(1, 2, 3), tol=1e-9)
def _offshell_triangular(ctx: CheckContext) -> Iterator[np.ndarray]:
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
    pairs = [_draw_n1_pair(ctx) for _ in range(ctx.n_samples)]
    _, b, c, _ = model.entry_matrices(np.array(pairs), p)
    for (u, lam), cu, blam in zip(pairs, c[:, 0], b[:, 1]):
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


# --- golden coefficient identities ----------------------------------------------------------

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
    """V^j = (u/lam_j) prod_{i != j} (w(u) - w(lam_i)) / (w(lam_j) - w(lam_i)), w = u(u+1).

    A Lagrange basis in w: (u - lam)(u + lam + 1) = w(u) - w(lam).
    """
    num = u
    den = lams[j]
    for i, lam in enumerate(lams):
        if i == j:
            continue
        num *= (u - lam) * (u + lam + 1)
        den *= (lams[j] - lam) * (lams[j] + lam + 1)
    return num / den


def _expansion_residuals(params: ModelParams, samples) -> Iterator[np.ndarray]:
    """Phi = sum_S W_S B(lam_S)|Omega> over root subsets S, one residual per order m = |S|.

    Each sample is its roots and ``coeffs``, mapping each subset (0-based, ordered)
    to W_S; every sample has the same subsets.  An order-m string lies in the
    m-down-spin sector, so each order is its own identity against the sector-m
    part of Phi, and a small low-order term is judged on its own scale.
    """
    roots = np.array([lams for lams, _ in samples])
    coeffs = {sub: np.array([c[sub] for _, c in samples], dtype=complex)[:, None]
              for sub in samples[0][1]}
    omega = model.pseudo_vacuum(params.n_sites)
    downs = np.array([bin(i).count("1") for i in range(params.dim)])
    bbars = vectors.b_bar_matrix(roots, params).swapaxes(0, 1)
    phi = vectors.operator_tails(bbars, omega)[0]
    bs = model.entry_matrices(roots, params)[1]
    for m in range(roots.shape[1] + 1):
        terms = [np.where(downs == m, phi, 0)] + [
            -w * vectors.operator_tails([bs[:, i] for i in sub], omega)[0]
            for sub, w in coeffs.items() if len(sub) == m
        ]
        yield _relation_residuals(*terms)


@_check("golden.w_n1", sites=(1,), tol=1e-10)
def _golden_w1(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Bbar(lam)|Omega> = (W + B(lam))|Omega> with the length-1 W."""
    p = ctx.params
    clusters = [ctx.draw_root_cluster(1) for _ in range(ctx.n_samples)]
    samples = [(lams, {(): _w_coeff_n1(lams[0], p), (0,): 1.0}) for lams in clusters]
    return _expansion_residuals(p, samples)


@_check("golden.z_n1", sites=(1,), tol=1e-10)
def _golden_z1(ctx: CheckContext) -> Iterator[float]:
    p = ctx.params
    for _ in range(ctx.n_samples):
        x = ctx.draw_point(centers=(-0.5,))
        yield _rel_err(vectors.partition_Z((x,), p), 2 * x * (p.p - p.theta[0]))


@_check("golden.w_n2", sites=(2,), tol=1e-10)
def _golden_w2(ctx: CheckContext) -> Iterator[np.ndarray]:
    """Bbar(l1)Bbar(l2)|Omega> = (W + W^1 B(l1) + W^2 B(l2) + B(l1)B(l2))|Omega>."""
    p = ctx.params
    samples = []
    for l1, l2 in [ctx.draw_root_cluster(2) for _ in range(ctx.n_samples)]:
        coeffs = {
            (): _w_empty_n2(l1, l2, p),
            (0,): _w1_coeff_n2(l1, l2, p),
            (1,): _w1_coeff_n2(l2, l1, p),
            (0, 1): 1.0,
        }
        samples.append(((l1, l2), coeffs))
    return _expansion_residuals(p, samples)


def _golden_v(ctx: CheckContext) -> Iterator[np.ndarray]:
    """B(u)|Omega> = sum_j V^j B(lam_j)|Omega>, and the order-N relation per sample.

    The order-N relation is B(u)B(lam_2)...B(lam_N)|Omega> = (Z(u, lam_2, ...) / Z(lam))
    B(lam_1)...B(lam_N)|Omega>, each Z read as the all-down entry of its string.
    B(u) and each B(lam_j) are built once, every sample in one call.
    """
    p = ctx.params
    omega = model.pseudo_vacuum(p.n_sites)
    samples = []
    for _ in range(ctx.n_samples):
        lams = ctx.draw_root_cluster(p.n_sites)
        guards = [g for lam in lams for g in (lam, -lam - 1)] + [0.0, -0.5, -1.0]
        samples.append([ctx.draw_point(tuple(guards))] + lams)
    b_u, *bs = model.entry_matrices(np.array(samples), p)[1].swapaxes(0, 1)
    v = np.array([[_v_coeff(u, lams, j) for j in range(len(lams))] for u, *lams in samples])
    yield _relation_residuals(b_u @ omega, *(-v[:, [j]] * (b @ omega) for j, b in enumerate(bs)))
    string, tail = vectors.operator_tails(bs, omega)[:2]
    swapped = vectors.operator_tails([b_u], tail)[0]
    yield _relation_residuals(swapped, -(swapped[:, -1:] / string[:, -1:]) * string)


_check("golden.v_n2", sites=(2,), tol=1e-10)(_golden_v)
_check("golden.v_n3", sites=(3,), tol=1e-10)(_golden_v)


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
    """On shell, Lambda(u) is its curve's polynomial of degree N+1 in w; yields each match error.

    The T-Q relation c Q(u) = A Q(u-1) + D Q(u+1) + R has degree at most 2N+1
    in w = u(u+1), and the match tests it at 4N+8 w-nodes, so it holds for all u.
    """
    matches = [m for m in _cached_cover(ctx.params, ctx.solver_cfg).matches if m.matched]
    if not matches:
        raise SkipCheck("no converged Bethe solutions to test")
    yield from (m.match_error for m in matches)


# Registered last: a check's random stream is seeded by its registry position.
@_check("foundations.crossing", sites=(1, 2, 3, 4), tol=1e-12)
def _crossing(ctx: CheckContext) -> Iterator[np.ndarray]:
    """t(-u-1) = t(u): the difference is (2u+1) g(w) with g of degree N, so N+1 nodes."""
    p = ctx.params
    nodes = bethe.circle_nodes(p, p.n_sites + 1)
    ts = model.transfer_matrix(np.concatenate([nodes, -nodes - 1]), p)
    t, t_crossed = ts[:len(nodes)], ts[len(nodes):]
    yield linalg.rel_residual_rows(t - t_crossed, linalg.frobenius_rows(t))


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
    with_sites = lru_cache(maxsize=None)(params.with_sites)  # one model per chain length
    position = {name: i for i, name in enumerate(_REGISTRY)}
    outcomes = []
    for cdef in select_checks(checks):
        idx = position[cdef.name]
        for n in cdef.sites:
            if max_sites is not None and n > max_sites:
                continue
            rng = np.random.default_rng(np.random.SeedSequence([seed, idx, n]))
            ctx = CheckContext(
                with_sites(n), n, rng, n_samples, cdef.tol_at(n), solver_cfg
            )
            outcomes.append(_run_check(cdef.name, cdef.fn, ctx, cdef.gating))
    outcomes.sort(key=lambda c: (c.name, c.n_sites))
    return VerificationReport(tuple(outcomes), params, seed)


def _run_check(name: str, fn, ctx: CheckContext, gating: bool) -> CheckOutcome:
    """Run one check on its context: time it, judge its worst residual against ``ctx.tol``.

    This is the only place residuals are reduced: the arrays (or numbers) the
    check yields are flattened into one.  ``np.max`` propagates NaN,
    so a non-finite sample fails the check, and a check that evaluated no
    samples fails instead of passing vacuously.  A package error raised inside
    the check fails it alone, with the error as its reason and no residual.
    ``n_samples`` counts the residuals the check yielded: 0 when it raised.
    """
    start = time.perf_counter()
    values = np.empty(0)
    residual: float | None = None
    reason: str | None = None
    try:
        values = np.concatenate([values, *(np.ravel(r) for r in fn(ctx))])
        if values.size:
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
        n_samples=values.size,
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
        cdef.name, lambda c: [_offshell_samples(c, site_params, lams)], ctx, cdef.gating
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
