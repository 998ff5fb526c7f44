import numpy as np
import pytest

from openxxx import bethe, model, scalars, vectors
from openxxx.bethe import SolverConfig

from conftest import XI_MINUS, make_params
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


def test_lambda_grid_matches_scalar(params_n2, rng):
    lam = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    pts = [0.52 + 0.41j, -0.37 + 0.93j, 1.42 - 0.27j]
    grid = bethe.eigenvalue_lambda_grid(pts, lam, params_n2)
    for s in range(4):
        for i, pt in enumerate(pts):
            expected = scalars.eigenvalue_Lambda(pt, lam[s], params_n2)
            assert abs(grid[s, i] - expected) < 1e-10 * max(1, abs(expected))


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
        rs.validate(params_n2)


def test_solve_bethe_deterministic(params_n2):
    a = bethe.solve_bethe(params_n2, SolverConfig(seed=11))
    b = bethe.solve_bethe(params_n2, SolverConfig(seed=11))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.roots == y.roots
        assert x.signature == y.signature
        assert x.residual_norm == y.residual_norm


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
    residual = lambda rows: bethe._be_residual(rows, params_n3)  # noqa: E731
    bethe._damped_solve(start, residual, SolverConfig(max_iter=30))
    # one row is one chunk, so each iteration makes one _newton_steps call
    assert counts["_newton_steps"] >= 1
    assert counts["be_batch"] <= 1 + 3 * counts["_newton_steps"]


def test_batched_solve_agrees_with_solving_each_row_alone(params_n3):
    # 300 rows at M = 3 walk in chunks of _MAX_ROWS // 16 = 128 rows
    starts = bethe._draw_starts(np.random.default_rng(5), 300, 3, 1.5)
    residual = lambda rows: bethe._be_residual(rows, params_n3)  # noqa: E731
    cfg = SolverConfig()
    lam, merit = bethe._damped_solve(starts, residual, cfg)
    alone = [bethe._damped_solve(row[None, :], residual, cfg) for row in starts]
    alone_lam = np.concatenate([a[0] for a in alone])
    alone_merit = np.concatenate([a[1] for a in alone])
    assert np.count_nonzero(merit <= cfg.tol) > 0
    np.testing.assert_array_equal(merit <= cfg.tol, alone_merit <= cfg.tol)
    np.testing.assert_allclose(lam, alone_lam, rtol=1e-12)
    np.testing.assert_allclose(merit, alone_merit, rtol=1e-12)


def test_no_kernel_call_is_wider_than_the_start_batch_or_the_row_cap(params_n3, monkeypatch):
    # unchunked, 600 starts at M = 3 would make 3,600-row Jacobian calls
    counts = _count_calls(monkeypatch, "be_batch")
    bethe.solve_bethe(params_n3, SolverConfig(n_starts=600, seed=2))
    assert counts["be_batch"] > 0
    assert counts["max_rows"] <= max(600, bethe._MAX_ROWS)


@pytest.mark.parametrize("kind", ["constant", "flat_merit"])
def test_a_row_no_step_improves_stops_after_one_newton_stage(kind, monkeypatch):
    # a constant residual has a singular Jacobian, so no finite step; r = lam
    # gives the finite step -lam, but its merit stays 1 on every rung
    counts = _count_calls(monkeypatch, "_newton_steps")
    start = np.array([[0.3 + 0.1j, -0.7 + 0.2j, 1.1 - 0.5j]] * 4)

    def residual(rows):
        r = np.ones_like(rows) if kind == "constant" else rows.copy()
        return r, np.ones(len(rows))

    lam, merit = bethe._damped_solve(start, residual, SolverConfig())
    assert counts["_newton_steps"] == 1
    np.testing.assert_array_equal(lam, start)
    np.testing.assert_array_equal(merit, 1.0)


def test_rejected_rows_come_back_unchanged_after_one_newton_stage_per_chunk(params_n3,
                                                                           monkeypatch):
    residual = lambda rows: bethe._be_residual(rows, params_n3)  # noqa: E731
    lam, merit = bethe._damped_solve(
        bethe._draw_starts(np.random.default_rng(5), 300, 3, 1.5), residual, SolverConfig()
    )
    stuck = lam[merit > SolverConfig().tol]
    # keep the rows that stopped before max_iter: one more iteration leaves them as they are
    again, _ = bethe._damped_solve(stuck, residual, SolverConfig(max_iter=1))
    rejected = stuck[(again == stuck).all(axis=1)]
    chunk = bethe._MAX_ROWS // (2 * 3 + bethe._BACKTRACK_LIMIT)
    assert len(rejected) > chunk
    counts = _count_calls(monkeypatch, "_newton_steps")
    out, out_merit = bethe._damped_solve(rejected, residual, SolverConfig())
    assert counts["_newton_steps"] == int(np.ceil(len(rejected) / chunk))
    np.testing.assert_array_equal(out, rejected)
    np.testing.assert_array_equal(out_merit, residual(rejected)[1])


def test_certify_of_no_rows_makes_no_kernel_call(params_n3, monkeypatch):
    counts = _count_calls(monkeypatch, "be_batch")
    stats = {}
    assert bethe._certify(np.empty((0, 3), dtype=complex), params_n3, 1e-10, stats) == []
    assert counts["be_batch"] == 0
    assert stats == {"converged": 0, "discarded_guarded": 0, "unique": 0}


def test_dense_spectrum_curve_count_and_trace(params_n1, params_n2):
    for params in (params_n1, params_n2):
        curves, _, _ = bethe.dense_spectrum_curves(params)
        assert len(curves) == params.dim
        for u in (0.37 + 0.81j, -1.24 + 0.33j):
            total = sum(c(u) for c in curves)
            tr = np.trace(model.transfer_matrix(u, params))
            assert abs(total - tr) < 1e-10 * max(1, abs(tr))
        assert all(c.degree <= 2 * params.n_sites + 2 for c in curves)


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


def test_eigen_residual_rejects_a_vector_paired_with_another_curve(params_n2):
    curves, points, samples = bethe.dense_spectrum_curves(params_n2)
    cover = bethe.cover_spectrum(params_n2, SolverConfig(seed=11))
    m = cover.matches[0]
    own = bethe._eigen_residual(m.matched_roots, m.curve, points, samples, params_n2)
    other = bethe._eigen_residual(m.matched_roots, curves[1], points, samples, params_n2)
    assert own <= 1e-8 and other > 1e-3


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
    rs = bethe.BetheRootSet((), 0.0, "newton", ())
    errors = (1e-12, float("nan"), 1e-13)
    matches = [
        bethe.SpectrumMatch(i, None, rs, err, eigen_residual=err) for i, err in enumerate(errors)
    ]
    cover = bethe.CoverageResult(matches, "general")
    assert np.isnan(cover.max_match_error) and np.isnan(cover.max_eigen_residual)


def _tq_residual(curve, roots, params):
    """The T-Q residual of ``roots`` against ``curve``, written out from the relation.

    max over the 4N+8 fit points u of |c Q(u) - A Q(u-1) - D Q(u+1) - R| over
    the largest of the four magnitudes, Q(x) = prod_j (x - l_j)(x + l_j + 1).
    """
    n_pts = 4 * params.n_sites + 8
    radius = 1.9 + max(abs(t) for t in params.theta)
    u = bethe.CURVE_CENTER + radius * np.exp(2j * np.pi * (np.arange(n_pts) + 0.5) / n_pts)
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
