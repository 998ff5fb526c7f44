"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance and budget is pinned here; the slow completeness runs are
shared between the criteria that consume them via module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from openxxx import bethe, scalars, verify
from openxxx.bethe import SolverConfig

ACCEPT_SEED = 2024


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def draws():
    rng = np.random.default_rng(ACCEPT_SEED)
    return [verify.random_params(rng, 3) for _ in range(5)]


@pytest.fixture(scope="module")
def coverage():
    """Shared completeness runs for criteria 7 and 8."""
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    out = {}
    for n in (1, 2, 3):
        params = verify.random_params(rng, n)
        t0 = time.perf_counter()
        cover = bethe.cover_spectrum(params, SolverConfig(seed=ACCEPT_SEED + n))
        out[n] = (params, cover, time.perf_counter() - t0)
    return out


def run_draws(draws, checks, seed, n_samples=10, max_sites=None):
    worst = {}
    for i, params in enumerate(draws):
        rep = verify.run_suite(
            params, checks=checks, seed=seed + i, n_samples=n_samples, max_sites=max_sites
        )
        for c in rep.checks:
            if c.verdict == "skipped":
                continue
            key = (c.name, c.n_sites)
            worst[key] = max(worst.get(key, 0.0), c.residual)
    return worst


def test_criterion_1_foundations(draws):
    t0 = time.perf_counter()
    checks = [
        "foundations.yang_baxter",
        "foundations.gl2_invariance",
        "foundations.reflection_scalar",
        "foundations.reflection_dressed",
        "foundations.transfer_commute",
        "foundations.trace_vs_entries",
        "foundations.vacuum_actions",
        "foundations.b_nilpotency",
        "foundations.hamiltonian_commutes",
    ]
    worst = run_draws(draws, checks, seed=100, n_samples=10)
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report(
        "1 foundations",
        not bad and elapsed < 30,
        f"max residual {max(worst.values()):.2e} over {len(worst)} entries, {elapsed:.1f}s",
    )


def test_criterion_2_exchange_relations(draws):
    t0 = time.perf_counter()
    checks = [
        "exchange.bb_commute",
        "exchange.ab_relation",
        "exchange.db_relation",
        "exchange.cb_relation",
    ]
    worst = run_draws(draws, checks, seed=200, n_samples=10, max_sites=3)
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report(
        "2 exchange",
        not bad and elapsed < 30,
        f"max residual {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_rotated_frame(draws):
    checks = [
        "rotated.k_plus_diagonalization",
        "rotated.frame_vacuum_actions",
        "rotated.transfer_from_frame",
        "rotated.bbar_commute",
    ]
    worst = run_draws(draws, checks, seed=300, n_samples=10, max_sites=3)
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report("3 rotated frame", not bad, f"max residual {max(worst.values()):.2e}")


def test_criterion_4_offshell(draws):
    worst = run_draws(draws, ["offshell.general"], seed=400, n_samples=10, max_sites=3)
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    # the length-4 probe: recorded evidence for the open conjecture, non-gating
    probe_rep = verify.run_suite(
        draws[0], checks=["offshell.n4_probe"], seed=404, n_samples=10
    )
    (probe,) = probe_rep.checks
    assert not probe.gating
    report(
        "4 off-shell",
        not bad,
        f"max residual N<=3 {max(worst.values()):.2e}; "
        f"N=4 probe {probe.residual:.2e} (experimental, expected <= 1e-6: "
        f"{'yes' if probe.residual <= 1e-6 else 'no'})",
    )


def test_criterion_5_diagonal_reduction(draws):
    worst = run_draws(draws, ["offshell.diagonal"], seed=500, n_samples=10, max_sites=3)
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    report("5 diagonal reduction", not bad, f"max residual {max(worst.values()):.2e}")


def test_criterion_6_golden_formulas(draws):
    checks = ["golden.w_n1", "golden.w_n2", "golden.v_n2", "golden.v_n3", "golden.z_n1"]
    worst = run_draws(draws, checks, seed=600, n_samples=5)
    bad = {k: v for k, v in worst.items() if v > 1e-10}
    report("6 golden coefficients", not bad, f"max residual {max(worst.values()):.2e}")


def test_criterion_7_completeness(coverage):
    total = sum(t for _, _, t in coverage.values())
    ok = total < 300
    details = []
    for n, (params, cover, _) in coverage.items():
        tol = 1e-7 if n == 3 else 1e-8
        full = cover.unmatched_count == 0 and len(cover.matches) == 2 ** n
        ok = ok and full and cover.max_match_error <= tol and cover.max_eigen_residual <= tol
        details.append(
            f"N={n}: {cover.matched_count}/{2 ** n} match<={cover.max_match_error:.1e} "
            f"resid<={cover.max_eigen_residual:.1e}"
        )
    report("7 completeness", ok, "; ".join(details) + f"; total {total:.1f}s")


def test_criterion_8_onshell_polynomiality(coverage):
    worst = 0.0
    for n, (params, cover, _) in coverage.items():
        degree = 2 * n + 2
        n_fit = degree + 3
        for m in cover.matches:
            rs = m.matched_roots
            radius = 1.55
            pts = radius * np.exp(2j * np.pi * (np.arange(n_fit) + 0.29) / n_fit) + 0.11 + 0.23j
            vals = np.array([scalars.eigenvalue_Lambda(pt, rs, params) for pt in pts])
            coeff = np.polynomial.polynomial.polyfit(pts, vals, degree)
            probes = radius * np.exp(2j * np.pi * (np.arange(7) + 0.81) / 7) + 0.11 + 0.23j
            scale = max(1.0, float(np.abs(vals).max()))
            for pt in probes:
                lam = scalars.eigenvalue_Lambda(pt, rs, params)
                fit = np.polynomial.polynomial.polyval(pt, coeff)
                worst = max(worst, abs(lam - fit) / scale)
    report("8 on-shell polynomiality", worst <= 1e-8, f"max deviation {worst:.2e}")


def test_criterion_9_determinism(draws):
    params = draws[0].with_sites(2)
    cfg = SolverConfig(seed=909)
    sets_a = bethe.solve_bethe(params, cfg)
    sets_b = bethe.solve_bethe(params, cfg)
    roots_same = all(
        a.roots == b.roots and a.signature == b.signature
        for a, b in zip(sets_a, sets_b)
    ) and len(sets_a) == len(sets_b)
    checks = ["foundations.vacuum_actions", "exchange.ab_relation", "offshell.general"]
    rep_a = verify.run_suite(params, checks=checks, seed=909, n_samples=5, max_sites=2)
    rep_b = verify.run_suite(params, checks=checks, seed=909, n_samples=5, max_sites=2)
    verdicts_same = [(c.name, c.n_sites, c.verdict, c.residual) for c in rep_a.checks] == [
        (c.name, c.n_sites, c.verdict, c.residual) for c in rep_b.checks
    ]
    report(
        "9 determinism",
        roots_same and verdicts_same,
        f"{len(sets_a)} root sets and {len(rep_a.checks)} check verdicts bitwise equal",
    )
