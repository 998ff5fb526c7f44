import tracemalloc
from functools import partial

import numpy as np
import pytest

from openxxx import bethe, config, model, scalars, vectors, verify
from openxxx.bethe import SolverConfig

from conftest import XI_MINUS, eigvals_error, make_params
from test_scalars import diag_be_polynomial_n1


def test_solver_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.starts_for(2) == 256
    assert SolverConfig(n_starts=10).starts_for(3) == 10
    with pytest.raises(ValueError):
        SolverConfig(tol=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=-1)
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)


def test_batch_matches_scalar_residuals(params_n3, rng):
    lam = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    be, scale = bethe.be_batch(lam, params_n3)
    for s in range(6):
        for k in range(3):
            t1, t2, t3 = scalars.bethe_terms(k, lam[s], params_n3)
            assert abs(be[s, k] - (t1 + t2 + t3)) < 1e-10 * max(1, abs(be[s, k]))
            assert abs(scale[s, k] - max(abs(t1), abs(t2), abs(t3), 1.0)) < 1e-8 * scale[s, k]


def test_driver_rows_times_the_trivial_factor_are_be(params_n3, rng):
    # G_k lambda_k (lambda_k + 1) = BE_k: the reduced rows only drop the factor
    lam = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    g, _ = bethe._be_residual(lam, params_n3)
    be, scale = bethe.be_batch(lam, params_n3)
    assert np.all(np.abs(g * lam * (lam + 1) - be) <= 1e-14 * scale)


def _central_jacobian(lam, params, h=1e-6):
    """Central differences of the driver's rows G_k, one column per root."""
    cols = []
    for step in h * np.eye(lam.shape[1]):
        plus, minus = (bethe._be_residual(lam + sign * step, params)[0] for sign in (1, -1))
        cols.append((plus - minus) / (2 * h))
    return np.stack(cols, axis=-1)


def _jacobian_error(lam, params):
    """Each row's largest |exact - central| entry relative to its largest exact entry."""
    jac = bethe._be_residual(lam, params, jacobian=True)[2]
    assert np.isfinite(jac).all()
    err = np.abs(jac - _central_jacobian(lam, params)).max(axis=(1, 2))
    return err / np.abs(jac).max(axis=(1, 2))


@pytest.mark.parametrize("boundary", [
    {}, {"xi_minus": 0.0}, {"xi_plus": 0.0, "xi_minus": 0.0},
], ids=["generic", "triangular", "diagonal"])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
def test_exact_jacobian_matches_central_differences(n_sites, boundary):
    rng = np.random.default_rng(n_sites)
    params = verify.random_params(rng, n_sites).replace_couplings(**boundary)
    lam = bethe._draw_starts(rng, 100, n_sites, 1.0)
    assert _jacobian_error(lam, params).max() <= 1e-6


def test_jacobian_is_finite_where_the_kernel_cancels_a_factor(params_n3):
    # a root at -p zeroes the factor u + p of the first addend, one at p - 1
    # the factor p - u - 1 of the second; the two points are each other's
    # reflection, so a set holding both sits on the pole u + l + 1 = 0 and
    # each gets a set of its own.  A lone root at +-theta_j zeroes the theta
    # factor u^2 - theta_j^2, where a log-derivative would divide by 0.
    p = params_n3
    for point in (-p.p, p.p - 1, p.theta[0], -p.theta[0]):
        lam = np.array([[point, 0.43 + 0.77j, -0.21 - 0.53j]])
        assert scalars.roots_admissible(lam[0], p)
        assert _jacobian_error(lam, p)[0] <= 1e-6


def test_reduced_rows_and_jacobian_are_finite_at_the_trivial_zero(params_n3):
    # G_k = BE_k / (l_k (l_k + 1)) has that factor cancelled, not divided out:
    # at l_k = 0 or -1 the rows and the Jacobian take their limits
    others = [0.43 + 0.77j, -0.21 - 0.53j]
    for point in (0.0, -1.0):
        lam = np.array([[point, *others], [point + 1e-7, *others]])
        g, _, jac = bethe._be_residual(lam, params_n3, jacobian=True)
        assert np.isfinite(g).all() and np.isfinite(jac).all()
        assert np.abs(g[0] - g[1]).max() <= 1e-5 * np.abs(g[1]).max()
        assert np.abs(jac[0] - jac[1]).max() <= 1e-5 * np.abs(jac[1]).max()


def test_kernel_memory_peaks_stay_within_budget():
    # N = 5: a residual call on the driver's widest batch and a Jacobian call
    # on one Newton chunk; traced peaks 3.6 MB and 1.1 MB when this was
    # written.  Holding the pair and theta stacks at once doubled the first.
    params = verify.random_params(np.random.default_rng(5), 5)
    chunk = bethe._MAX_ROWS // bethe._BACKTRACK_LIMIT
    for rows, jacobian, budget in ((bethe._MAX_ROWS, False, 4 * 2**20), (chunk, True, 1.6e6)):
        lam = bethe._draw_starts(np.random.default_rng(rows), rows, 5, 1.0)
        tracemalloc.start()
        try:
            bethe.be_batch(lam, params, reduced=True, jacobian=jacobian)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (rows, jacobian, peak)


# Off-shell points at which a returned set's Lambda must be an eigenvalue of t(u).
EIGVALS_POINTS = (0.31 + 0.12j, -0.87 + 0.64j, 0.68 - 0.79j)

# A set the blind solve on the default N = 3 model returned when its driver
# solved BE_k itself: printed merit 8.7e-11, under the default tol, with two
# roots within 3.1e-4 of 0, where every addend of BE_k is small.
SPURIOUS_N3 = (
    -0.4157042190197019 + 0.3089331140863268j,
    -7.643902237173907e-05 - 0.00029825417208005867j,
    7.643853542501108e-05 + 0.00029825349182402227j,
)


def test_spurious_set_near_the_trivial_zero_fails_the_driver_merit():
    cfg = config.default_config()
    params = cfg.model.with_sites(3)
    lam = np.array([SPURIOUS_N3])
    assert eigvals_error(SPURIOUS_N3, params, EIGVALS_POINTS) > 1e-3
    assert bethe._be_residual(lam, params, reduced=False)[1][0] <= cfg.solver.tol
    assert bethe._be_residual(lam, params)[1][0] > cfg.solver.tol


# A set the blind solve on the default N = 3 model (seed 0) returned once its
# Newton steps used exact Jacobians: G_k of both roots of a pair l, -l falls as
# |l| whatever the third root is, so the pair near 0 passes the driver merit.
PAIR_N3 = (
    -6.193553087063819e-07 - 8.08545487306003e-07j,
    6.193553090394488e-07 + 8.085454868252589e-07j,
    0.8576663116412222 + 0.15257531790848916j,
)


def test_a_pair_l_minus_l_near_zero_passes_the_merit_and_fails_the_guards():
    cfg = config.default_config()
    params = cfg.model.with_sites(3)
    assert eigvals_error(PAIR_N3, params, EIGVALS_POINTS) > 1e-3
    assert bethe._be_residual(np.array([PAIR_N3]), params)[1][0] <= cfg.solver.tol
    assert not scalars.roots_admissible(PAIR_N3, params)
    assert scalars.roots_admissible(PAIR_N3[1:], params)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_every_blind_set_on_the_default_model_is_an_eigenvalue(n_sites, seed):
    params = config.default_config().model.with_sites(n_sites)
    sets = bethe.solve_bethe(params, SolverConfig(seed=seed))
    assert sets
    for rs in sets:
        assert eigvals_error(rs, params, EIGVALS_POINTS) <= 1e-8, rs.roots


def test_solve_bethe_diagonal_n1_matches_polynomial_oracle():
    p = make_params(1, xi_plus=0.0, xi_minus=0.0)
    oracle_roots = [
        r for r in np.roots(diag_be_polynomial_n1(p)[::-1])
        if scalars.roots_admissible((r,), p)
    ]
    sets = bethe.solve_bethe(p, SolverConfig(seed=3))
    assert sets
    for rs in sets:
        root = rs.roots[0]
        assert any(
            min(abs(root - r), abs(root + r + 1)) < 1e-7 for r in oracle_roots
        ), f"solver root {root} not among polynomial-oracle roots"
        assert rs.residual_norm <= 1e-10


def test_solve_bethe_n1_generic_covers_both_curves(params_n1):
    sets = bethe.solve_bethe(params_n1, SolverConfig(seed=3))
    assert len(sets) == 2
    # each set's Lambda reproduces a distinct eigencurve of the 2x2 transfer matrix
    curves, _, _ = bethe.dense_spectrum_curves(params_n1)
    pts = np.array([0.52 + 0.41j, -0.37 + 0.93j, 1.42 - 0.27j, -1.13 - 0.62j, 0.91 + 1.21j,
                    2.02 + 0.33j])
    hits = []
    for rs in sets:
        lam = np.array([scalars.eigenvalue_Lambda(pt, rs, params_n1) for pt in pts])
        errs = [np.max(np.abs(lam - c(pts)) / np.maximum(1.0, np.abs(c(pts)))) for c in curves]
        hits.append([i for i, err in enumerate(errs) if err <= 1e-8])
    assert sorted(hits) == [[0], [1]]


def test_solve_bethe_residual_postcondition(params_n2):
    sets = bethe.solve_bethe(params_n2, SolverConfig(seed=5))
    assert sets
    for rs in sets:
        assert scalars.normalized_be_residual(rs.roots, params_n2) <= 1e-10
        assert scalars.roots_admissible(rs.roots, params_n2)


def test_solve_bethe_deterministic(params_n2):
    a = bethe.solve_bethe(params_n2, SolverConfig(seed=11))
    b = bethe.solve_bethe(params_n2, SolverConfig(seed=11))
    assert a == b


def test_solve_bethe_empty_sector(params_n2):
    curve = bethe.dense_spectrum_curves(params_n2)[0][0]
    sets = bethe.curve_roots(curve, params_n2, 0, SolverConfig(seed=1))
    assert len(sets) == 1 and sets[0].roots == ()


def _count_calls(monkeypatch, *names):
    """Wrap bethe functions to count their calls and the widest row batch."""
    counts = {name: 0 for name in names}
    counts["max_rows"] = 0

    def wrap(name, fn):
        def counted(lam, *args):
            counts[name] += 1
            counts["max_rows"] = max(counts["max_rows"], len(lam))
            return fn(lam, *args)
        return counted

    for name in names:
        monkeypatch.setattr(bethe, name, wrap(name, getattr(bethe, name)))
    return counts


def test_one_row_polish_makes_at_most_three_kernel_calls_per_iteration(params_n3, rng, monkeypatch):
    counts = _count_calls(monkeypatch, "be_batch", "_newton_steps")
    start = -0.5 + rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
    system = partial(bethe._be_residual, params=params_n3)
    bethe._damped_solve(start, system, SolverConfig(max_iter=30))
    # one row is one chunk, so each iteration makes one _newton_steps call, whose
    # residuals and Jacobian are one kernel call, then at most two ladder calls
    assert counts["_newton_steps"] >= 1
    assert counts["be_batch"] <= 1 + 3 * counts["_newton_steps"]


def test_batched_solve_agrees_with_solving_each_row_alone(params_n3):
    # 300 rows walk in chunks of _MAX_ROWS // _BACKTRACK_LIMIT = 204 rows
    starts = bethe._draw_starts(np.random.default_rng(5), 300, 3, 1.5)
    system = partial(bethe._be_residual, params=params_n3)
    cfg = SolverConfig()
    lam, merit = bethe._damped_solve(starts, system, cfg)
    alone = [bethe._damped_solve(row[None, :], system, cfg) for row in starts]
    alone_lam = np.concatenate([a[0] for a in alone])
    alone_merit = np.concatenate([a[1] for a in alone])
    assert np.count_nonzero(merit <= cfg.tol) > 0
    np.testing.assert_array_equal(merit <= cfg.tol, alone_merit <= cfg.tol)
    np.testing.assert_allclose(lam, alone_lam, rtol=1e-12)
    np.testing.assert_allclose(merit, alone_merit, rtol=1e-12)


def test_no_kernel_call_is_wider_than_the_start_batch_or_the_row_cap(params_n3, monkeypatch):
    # unchunked, 600 starts would make 5,400-row calls for the last nine ladder rungs
    counts = _count_calls(monkeypatch, "be_batch")
    bethe.solve_bethe(params_n3, SolverConfig(n_starts=600, seed=2))
    assert counts["be_batch"] > 0
    assert counts["max_rows"] <= max(600, bethe._MAX_ROWS)


@pytest.mark.parametrize("kind", ["constant", "flat_merit"])
def test_a_row_no_step_improves_stops_after_one_newton_stage(kind, monkeypatch):
    # a constant residual has a zero Jacobian, so no finite step; r = lam with
    # the identity Jacobian gives the finite step -lam, but its merit stays 1
    # on every rung
    counts = _count_calls(monkeypatch, "_newton_steps")
    start = np.array([[0.3 + 0.1j, -0.7 + 0.2j, 1.1 - 0.5j]] * 4)

    def system(rows, jacobian=False):
        constant = kind == "constant"
        r = np.ones_like(rows) if constant else rows.copy()
        jac = np.zeros((len(rows), 3, 3)) if constant else np.tile(np.eye(3), (len(rows), 1, 1))
        return (r, np.ones(len(rows))) + ((jac,) if jacobian else ())

    lam, merit = bethe._damped_solve(start, system, SolverConfig())
    assert counts["_newton_steps"] == 1
    np.testing.assert_array_equal(lam, start)
    np.testing.assert_array_equal(merit, 1.0)


def test_rejected_rows_come_back_unchanged_after_one_newton_stage_per_chunk(params_n3,
                                                                           monkeypatch):
    system = partial(bethe._be_residual, params=params_n3)
    lam, merit = bethe._damped_solve(
        bethe._draw_starts(np.random.default_rng(5), 300, 3, 1.5), system, SolverConfig()
    )
    stuck = lam[merit > SolverConfig().tol]
    # keep the rows that stopped before max_iter: one more iteration leaves them as they are
    again, _ = bethe._damped_solve(stuck, system, SolverConfig(max_iter=1))
    rejected = stuck[(again == stuck).all(axis=1)]
    chunk = bethe._MAX_ROWS // bethe._BACKTRACK_LIMIT
    assert len(rejected) > chunk
    counts = _count_calls(monkeypatch, "_newton_steps")
    out, out_merit = bethe._damped_solve(rejected, system, SolverConfig())
    assert counts["_newton_steps"] == int(np.ceil(len(rejected) / chunk))
    np.testing.assert_array_equal(out, rejected)
    np.testing.assert_array_equal(out_merit, system(rejected)[1])


def test_certify_of_no_rows_makes_no_kernel_call(params_n3, monkeypatch):
    counts = _count_calls(monkeypatch, "be_batch")
    stats = {}
    assert bethe._certify(np.empty((0, 3), dtype=complex), params_n3, 1e-10, stats) == []
    assert counts["be_batch"] == 0
    assert stats == {"converged": 0, "discarded_guarded": 0, "unique": 0}


def test_certify_merges_permuted_and_reflected_copies():
    # Q(u) is unchanged when the roots are permuted or one is reflected
    # (lambda -> -lambda - 1), so every copy of a set merges back into it
    cfg = config.default_config()
    params = cfg.model.with_sites(2)
    sets = bethe.solve_bethe(params, cfg.solver)
    assert len(sets) >= 2
    rows = []
    for rs in sets:
        a, b = rs.roots
        rows += [(a, b), (b, a), (-a - 1, b), (b, -a - 1), (-b - 1, -a - 1)]
    stats = {}
    merged = bethe._certify(np.array(rows), params, cfg.solver.tol, stats)
    assert stats == {"converged": len(rows), "discarded_guarded": 0, "unique": len(sets)}
    for got, rs in zip(merged, sets):
        assert np.allclose(got.roots, rs.roots, rtol=0, atol=1e-12)


def test_dense_spectrum_curve_count_and_trace(params_n1, params_n2):
    for params in (params_n1, params_n2):
        curves, points, _ = bethe.dense_spectrum_curves(params)
        assert len(curves) == params.dim
        # the samples sit at the u of the N+2 w-circle nodes, bitwise as this formula places them
        k, radius = params.n_sites + 2, (1.9 + max(abs(t) for t in params.theta)) ** 2
        w = radius * np.exp(2j * np.pi * np.arange(k) / k)
        assert np.array_equal(points, (-1 + np.sqrt(1 + 4 * w)) / 2)
        for u in (0.37 + 0.81j, -1.24 + 0.33j):
            total = sum(c(u) for c in curves)
            tr = np.trace(model.transfer_matrix(u, params))
            assert abs(total - tr) < 1e-10 * max(1, abs(tr))
        assert all(len(c.coeffs) == params.n_sites + 2 for c in curves)
        # each curve owns its coefficients, not a view that keeps every sample alive
        assert all(c.coeffs.base is None for c in curves)


def test_cover_spectrum_generic_n2(params_n2):
    cover = bethe.cover_spectrum(params_n2, SolverConfig(seed=11))
    assert cover.mode == "general"
    assert cover.unmatched_count == 0
    assert cover.matched_count == 4
    assert cover.max_match_error <= 1e-8
    assert cover.max_eigen_residual <= 1e-8
    # matched vectors are genuine eigenvectors: independent residual check
    for m in cover.matches:
        phi = vectors.build_bethe_vector(m.matched_roots, params_n2)
        u = 0.66 + 0.47j
        t = model.transfer_matrix(u, params_n2)
        lam = scalars.eigenvalue_Lambda(u, m.matched_roots, params_n2)
        res = np.linalg.norm(t @ phi - lam * phi) / (np.linalg.norm(t) * np.linalg.norm(phi))
        assert res < 1e-8


def test_eigen_residual_rejects_a_vector_paired_with_another_curve(params_n2, monkeypatch):
    curves, points, samples = bethe.dense_spectrum_curves(params_n2)
    cover = bethe.cover_spectrum(params_n2, SolverConfig(seed=11))
    m = cover.matches[0]
    own = bethe._eigen_residual(m.matched_roots, m.curve, points, samples, params_n2)
    other = bethe._eigen_residual(m.matched_roots, curves[1], points, samples, params_n2)
    assert own <= 1e-8 and other > 1e-3
    # nor does a vanishing vector certify its curve
    monkeypatch.setattr(vectors, "build_bethe_vector", lambda rs, p: np.zeros(p.dim, complex))
    zero = bethe._eigen_residual(m.matched_roots, m.curve, points, samples, params_n2)
    assert zero == np.inf


def test_cover_spectrum_diagonal_sectors():
    p = make_params(2, xi_plus=0.0, xi_minus=0.0)
    cover = bethe.cover_spectrum(p, SolverConfig(seed=7))
    assert cover.mode == "diagonal-sectors"
    assert cover.unmatched_count == 0
    # excitation numbers 0..N all appear across the matched curves
    ms = {m.excitations for m in cover.matches}
    assert ms == {0, 1, 2}


def test_cover_spectrum_triangular_sectors():
    p = make_params(2, xi_minus=0.0)
    cover = bethe.cover_spectrum(p, SolverConfig(seed=7))
    assert cover.mode == "diagonal-sectors"
    assert cover.unmatched_count == 0
    assert cover.max_eigen_residual <= 1e-8


def test_onshell_lambda_is_polynomial(params_n1):
    # residue cancellation: on-shell Lambda interpolates a degree-(2N+2) polynomial
    sets = bethe.solve_bethe(params_n1, SolverConfig(seed=3))
    degree = 2 * params_n1.n_sites + 2
    pts = 1.6 * np.exp(2j * np.pi * (np.arange(degree + 3) + 0.3) / (degree + 3))
    for rs in sets:
        vals = np.array([scalars.eigenvalue_Lambda(pt, rs, params_n1) for pt in pts])
        coeff = np.polynomial.polynomial.polyfit(pts, vals, degree)
        probes = 1.6 * np.exp(2j * np.pi * (np.arange(5) + 0.77) / 7)
        scale = max(1.0, np.abs(vals).max())
        for pt in probes:
            got = scalars.eigenvalue_Lambda(pt, rs, params_n1)
            fit = np.polynomial.polynomial.polyval(pt, coeff)
            assert abs(got - fit) / scale < 1e-8


def test_coverage_maxima_keep_non_finite_entries():
    rs = bethe.BetheRootSet((), 0.0)
    errors = (1e-12, float("nan"), 1e-13)
    matches = [
        bethe.SpectrumMatch(i, None, rs, err, eigen_residual=err) for i, err in enumerate(errors)
    ]
    cover = bethe.CoverageResult(matches, "general")
    assert np.isnan(cover.max_match_error) and np.isnan(cover.max_eigen_residual)


def _tq_residual(curve, roots, params):
    """The T-Q residual of ``roots`` against ``curve``, written out from the relation.

    max over the u of the 4N+8 fit points w of |c Q(u) - A Q(u-1) - D Q(u+1) - R|
    over the largest of the four magnitudes, Q(x) = prod_j (x - l_j)(x + l_j + 1).
    """
    n_pts = 4 * params.n_sites + 8
    radius = (1.9 + max(abs(t) for t in params.theta)) ** 2
    w = radius * np.exp(2j * np.pi * (np.arange(n_pts) + 0.5) / n_pts)
    u = (-1 + np.sqrt(1 + 4 * w)) / 2
    a, d, r = scalars.lambda_terms(u, (), params, params.rho)

    def q(x):
        out = np.ones_like(x)
        for lam in roots:
            out = out * ((x - lam) * (x + lam + 1))
        return out

    terms = (curve(u) * q(u), a * q(u - 1), d * q(u + 1), r)
    resid = np.abs(terms[0] - terms[1] - terms[2] - terms[3])
    return float(np.max(resid / np.max(np.abs(terms), axis=0)))


@pytest.mark.parametrize("n_sites, xi_minus, mode", [
    (3, 0.0, "diagonal-sectors"), (4, XI_MINUS, "general"),
])
def test_match_error_is_the_tq_residual(n_sites, xi_minus, mode):
    params = make_params(n_sites, xi_minus=xi_minus)
    cover = bethe.cover_spectrum(params, SolverConfig(seed=7))
    assert cover.mode == mode and cover.unmatched_count == 0
    for m in cover.matches:
        assert m.match_error == _tq_residual(m.curve, m.matched_roots.roots, params)
