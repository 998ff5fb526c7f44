import numpy as np
import pytest

from openxxx import bethe, model, scalars, vectors
from openxxx.bethe import SolverConfig

from conftest import make_params
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
    # each signature reproduces one eigencurve of the 2x2 transfer matrix
    curves, _, _ = bethe.dense_spectrum_curves(params_n1)
    matches = bethe.match_spectrum(curves, sets, params_n1, tol=1e-8)
    assert all(m.matched for m in matches)
    sigs = {id(m.matched_roots) for m in matches}
    assert len(sigs) == 2


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


def test_dense_spectrum_curve_count_and_trace(params_n1, params_n2):
    for params in (params_n1, params_n2):
        curves, _, _ = bethe.dense_spectrum_curves(params)
        assert len(curves) == params.dim
        for u in (0.37 + 0.81j, -1.24 + 0.33j):
            total = sum(c(u) for c in curves)
            tr = np.trace(model.transfer_matrix(u, params))
            assert abs(total - tr) < 1e-10 * max(1, abs(tr))
        assert all(c.degree <= 2 * params.n_sites + 2 for c in curves)


def test_match_spectrum_flags_unmatched(params_n2):
    curves, _, _ = bethe.dense_spectrum_curves(params_n2)
    matches = bethe.match_spectrum(curves, [], params_n2)
    assert all(not m.matched for m in matches)
    assert all(np.isinf(m.match_error) for m in matches)


def test_match_spectrum_flags_degenerate(params_n1):
    # two inequivalent representatives of the same solution class (reflected
    # roots) both reproduce the curve: reported as alternates, flagged
    sets = bethe.solve_bethe(params_n1, SolverConfig(seed=3))
    rs = sets[0]
    twin = scalars.BetheRootSet(
        tuple(-r - 1 for r in rs.roots), rs.residual_norm, "manual", rs.signature
    )
    curves, _, _ = bethe.dense_spectrum_curves(params_n1)
    matches = bethe.match_spectrum(curves, [rs, twin], params_n1, tol=1e-8)
    hit = [m for m in matches if m.matched]
    assert hit
    assert any(m.degenerate and len(m.alternates) == 1 for m in hit)


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
    cover = bethe.CoverageResult(matches, [rs], "general")
    assert np.isnan(cover.max_match_error) and np.isnan(cover.max_eigen_residual)
