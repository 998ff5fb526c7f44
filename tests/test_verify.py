import numpy as np
import pytest

from openxxx import bethe, config, linalg, model, scalars, vectors, verify
from openxxx.bethe import SolverConfig
from openxxx.errors import OpenXXXError
from openxxx.model import ModelParams

from conftest import XI_MINUS, make_params

FAST_CHECKS = [
    "foundations.yang_baxter",
    "foundations.trace_vs_entries",
    "foundations.vacuum_actions",
    "exchange.ab_relation",
    "rotated.transfer_from_frame",
    "offshell.general",
    "offshell.diagonal",
    "offshell.triangular",
    "n1.unwanted_term",
    "n1.g_function",
    "n1.omega_brackets",
    "golden.w_n2",
]


def test_registry_names_are_stable():
    names = verify.check_names()
    assert "foundations.yang_baxter" in names
    assert "offshell.n4_probe" in names
    assert "spectrum.completeness" in names
    assert not verify.registry()["offshell.n4_probe"].gating
    assert verify.registry()["offshell.general"].gating


# Each check's random stream is seeded by its registry position, so a check
# inserted before others would change what they draw: new checks go last.
REGISTRY_ORDER = [
    "foundations.yang_baxter", "foundations.gl2_invariance", "foundations.reflection_scalar",
    "foundations.reflection_dressed", "foundations.transfer_commute",
    "foundations.trace_vs_entries", "foundations.vacuum_actions", "foundations.b_nilpotency",
    "foundations.hamiltonian_commutes", "exchange.bb_commute", "exchange.ab_relation",
    "exchange.db_relation", "exchange.cb_relation", "rotated.k_plus_diagonalization",
    "rotated.frame_vacuum_actions", "rotated.transfer_from_frame", "rotated.bbar_commute",
    "offshell.general", "offshell.n4_probe", "offshell.diagonal", "offshell.triangular",
    "n1.unwanted_term", "n1.g_function", "n1.omega_brackets", "golden.w_n1", "golden.z_n1",
    "golden.w_n2", "golden.v_n2", "golden.v_n3", "spectrum.completeness",
    "onshell.eigen_residual", "onshell.polynomiality", "foundations.crossing",
]


def test_registry_order_is_pinned():
    assert verify.check_names()[:len(REGISTRY_ORDER)] == REGISTRY_ORDER


def test_crossing_check_fails_on_a_transfer_matrix_that_is_not_crossing_symmetric(
    params_n2, monkeypatch
):
    build = model.transfer_matrix
    monkeypatch.setattr(
        model, "transfer_matrix",
        lambda u, p: build(u, p) + np.asarray(u)[..., None, None] * np.eye(p.dim),
    )
    report = verify.run_suite(params_n2, checks=["foundations.crossing"], seed=0, n_samples=1)
    assert [c.verdict for c in report.checks] == ["fail"] * 4


def test_select_checks_rejects_unknown():
    with pytest.raises(OpenXXXError):
        verify.select_checks(["no.such.check"])


def test_suite_passes_on_generic_params(params_n2):
    report = verify.run_suite(params_n2, checks=FAST_CHECKS, seed=5, n_samples=4)
    assert report.all_pass
    for c in report.checks:
        assert c.verdict == "pass"
        assert c.residual <= c.tol
        assert c.wall_time >= 0


def test_suite_deterministic_residuals(params_n2):
    a = verify.run_suite(params_n2, checks=FAST_CHECKS, seed=9, n_samples=3)
    b = verify.run_suite(params_n2, checks=FAST_CHECKS, seed=9, n_samples=3)
    assert [c.verdict for c in a.checks] == [c.verdict for c in b.checks]
    assert [c.residual for c in a.checks] == [c.residual for c in b.checks]


def test_a_check_run_alone_reproduces_its_full_suite_outcome():
    # each check seeds its draws from its registry position, so the checks
    # selected alongside it do not change what it draws
    params = config.default_config().model
    full = verify.run_suite(params, seed=3, n_samples=3, max_sites=2)
    for name in verify.check_names():
        alone = verify.run_suite(params, checks=[name], seed=3, n_samples=3, max_sites=2)
        key = [(c.n_sites, c.verdict, c.residual) for c in alone.checks]
        assert key == [(c.n_sites, c.verdict, c.residual) for c in full.by_name(name)], name


def test_rotated_checks_skip_without_frame():
    tri = ModelParams.create([0.1, -0.2], 1.5, 0.7, xi_plus=0.8, xi_minus=0.0)
    report = verify.run_suite(
        tri, checks=["rotated.k_plus_diagonalization", "rotated.bbar_commute"], seed=2,
        n_samples=3,
    )
    kplus = report.by_name("rotated.k_plus_diagonalization")
    assert all(c.verdict == "skipped" and "xi_minus" in c.reason for c in kplus)
    # bbar needs only the stored coupling ratio, so it still runs
    assert all(c.verdict == "pass" for c in report.by_name("rotated.bbar_commute"))
    assert report.all_pass  # skipped checks never gate


def test_n4_probe_reported_not_gating(params_n2):
    report = verify.run_suite(params_n2, checks=["offshell.n4_probe"], seed=4, n_samples=2)
    (probe,) = report.checks
    assert probe.n_sites == 4
    assert not probe.gating
    assert probe.residual < 1e-6  # recorded as evidence; does not gate either way


@pytest.mark.parametrize("checks, xi_minus", [
    ([], XI_MINUS),
    (["rotated.k_plus_diagonalization", "rotated.frame_vacuum_actions"], 0.0),
    (["offshell.n4_probe"], XI_MINUS),
], ids=["no-checks", "all-skipped", "non-gating-only"])
def test_suite_without_a_passing_gating_check_does_not_pass(checks, xi_minus):
    params = make_params(2, xi_minus=xi_minus)
    report = verify.run_suite(params, checks=checks, seed=1, n_samples=1)
    assert all(c.verdict != "fail" for c in report.checks)
    assert not report.all_pass


def test_max_sites_truncation(params_n2):
    report = verify.run_suite(
        params_n2, checks=["foundations.transfer_commute"], seed=1, n_samples=2, max_sites=2
    )
    assert {c.n_sites for c in report.checks} == {1, 2}


def test_onshell_checks_with_solver(params_n1):
    report = verify.run_suite(
        params_n1,
        checks=["spectrum.completeness", "onshell.eigen_residual", "onshell.polynomiality"],
        seed=6,
        n_samples=2,
        solver_cfg=SolverConfig(seed=6),
        max_sites=1,
    )
    assert report.all_pass, [(c.name, c.verdict, c.residual) for c in report.checks]


def test_check_family_wrappers(params_n2):
    def family(prefix):
        return [n for n in verify.check_names() if n.startswith(prefix)]

    rep = verify.run_suite(params_n2, checks=family("exchange."), seed=3, n_samples=2,
                           max_sites=2)
    assert rep.all_pass
    assert all(c.name.startswith("exchange.") for c in rep.checks)
    rep = verify.run_suite(params_n2, checks=family("n1."), seed=3, n_samples=2)
    assert rep.all_pass and {c.n_sites for c in rep.checks} == {1}


def test_check_offshell_with_explicit_roots(params_n2):
    roots = (0.43 + 0.77j, -0.21 - 0.53j)
    rep = verify.check_offshell(params_n2, roots=roots, seed=5, n_samples=4)
    (outcome,) = rep.checks
    assert outcome.verdict == "pass" and outcome.residual <= 1e-9
    with pytest.raises(OpenXXXError):
        verify.check_offshell(params_n2, roots=(0.0, 0.3), seed=5)
    # direct single-point residual helper
    u = 1.21 - 0.66j
    assert verify.offshell_residual(params_n2, roots, u) < 1e-12


def test_random_params_avoid_degeneracies(rng):
    for _ in range(20):
        p = verify.random_params(rng, 2)
        assert 0.5 <= abs(p.p) <= 3.0
        assert 0.5 <= abs(p.q) <= 3.0
        assert abs(p.xi_plus * p.xi_minus + 1) >= 1e-3
        assert abs(p.rho) > 1e-6


def test_sampler_resamples_near_poles(params_n1):
    # a guard centered on the whole box forces at least one resample attempt
    ctx = verify.CheckContext(
        params_n1, 1, np.random.default_rng(0), 1, 1e-9, SolverConfig()
    )
    pt = ctx.draw_point(centers=(0.0,), margin=0.5)
    assert abs(pt) >= 0.5
    assert ctx.resamples >= 0
    ctx2 = verify.CheckContext(
        params_n1, 1, np.random.default_rng(0), 1, 1e-9, SolverConfig()
    )
    with pytest.raises(OpenXXXError):
        ctx2.draw_point(centers=(0.0,), margin=10.0)  # nothing admissible in the box
    assert ctx2.resamples == 1000


def test_offshell_at_explicit_roots_runs_through_the_engine(params_n2):
    report = verify.check_offshell(params_n2, roots=[0.43 + 0.77j, -0.21 - 0.53j], seed=3,
                                   n_samples=3)
    (outcome,) = report.checks
    assert (outcome.name, outcome.n_sites, outcome.n_samples) == ("offshell.general", 2, 3)
    assert outcome.verdict == "pass" and outcome.gating
    assert outcome.wall_time > 0


def test_run_suite_rejects_zero_samples(params_n2):
    with pytest.raises(ValueError):
        verify.run_suite(params_n2, checks=FAST_CHECKS[:1], n_samples=0)


def _engine_outcome(params, check):
    ctx = verify.CheckContext(params, 2, np.random.default_rng(0), 3, 1e-9, SolverConfig())
    return verify._run_check("test.check", check, ctx, gating=True)


def test_engine_fails_a_check_with_no_samples(params_n2):
    outcome = _engine_outcome(params_n2, lambda ctx: iter(()))
    assert (outcome.verdict, outcome.residual) == ("fail", None)
    assert outcome.reason == "no samples evaluated"
    assert outcome.n_samples == 0


def test_engine_fails_a_check_with_a_nan_sample(params_n2):
    outcome = _engine_outcome(params_n2, lambda ctx: iter((1e-12, float("nan"), 0.0)))
    assert outcome.verdict == "fail" and np.isnan(outcome.residual)
    outcome = _engine_outcome(params_n2, lambda ctx: iter((1e-12, 0.0)))
    assert (outcome.verdict, outcome.residual) == ("pass", 1e-12)


# --- golden identities ---------------------------------------------------------------------

GOLDEN_IDENTITIES = ["golden.w_n1", "golden.w_n2", "golden.v_n2", "golden.v_n3"]


def test_golden_identities_yield_one_residual_per_order(params_n2):
    # W: one residual per order m = 0..N; V: the order-1 and the order-N relation
    report = verify.run_suite(params_n2, checks=GOLDEN_IDENTITIES, seed=3, n_samples=2)
    assert report.all_pass
    assert [(c.name, c.n_samples) for c in report.checks] == [
        ("golden.v_n2", 4), ("golden.v_n3", 4), ("golden.w_n1", 4), ("golden.w_n2", 6),
    ]


@pytest.mark.parametrize("formula, checks", [
    ("_w_coeff_n1", ["golden.w_n1"]),
    ("_w_empty_n2", ["golden.w_n2"]),
    ("_w1_coeff_n2", ["golden.w_n2"]),
    ("_v_coeff", ["golden.v_n2", "golden.v_n3"]),
])
def test_golden_identities_fail_on_a_perturbed_coefficient(monkeypatch, params_n2, formula, checks):
    exact = getattr(verify, formula)
    monkeypatch.setattr(verify, formula, lambda *args: 1.001 * exact(*args))
    report = verify.run_suite(params_n2, checks=checks, seed=3, n_samples=2)
    assert all(c.verdict == "fail" for c in report.checks)


def test_golden_identities_hold_at_the_fusion_point():
    # theta_1 - theta_2 = 1 with theta_2 = -theta_1: the B-strings are linearly
    # dependent there, but each identity still holds
    m = config.default_config().model
    params = ModelParams.create((0.5, -0.5), m.p, m.q, m.xi_plus, m.xi_minus)
    report = verify.run_suite(params, checks=["golden.w_n2", "golden.v_n2", "golden.v_n3"])
    assert [c.verdict for c in report.checks] == ["pass"] * 3


def test_hamiltonian_commutes_reads_a_residual_through_overflowing_norms():
    # with p = 1e160 the Frobenius norm of t(u) overflows a plain norm; the
    # residual must still be measured, not read as 0 against an infinite scale
    params = config.parse_config_dict({"model": {"p": [1e160, 0.0]}}).model
    report = verify.run_suite(params, checks=["foundations.hamiltonian_commutes"])
    assert all(c.verdict == "pass" and 0 < c.residual for c in report.checks)


# --- checks on circle nodes -----------------------------------------------------------------

# Residuals each node check yields at N sites: one per node (2 per node for the
# rotated vacuum, 3 for the vacuum), and one per pair of nodes for [t(u), t(v)].
NODE_CHECK_YIELDS = {
    "foundations.transfer_commute": lambda n: (n + 2) * (n + 1) // 2,
    "foundations.trace_vs_entries": lambda n: 2 * n + 4,
    "foundations.vacuum_actions": lambda n: 3 * (2 * n + 3),
    "foundations.hamiltonian_commutes": lambda n: n + 2,
    "rotated.k_plus_diagonalization": lambda n: 2,
    "rotated.frame_vacuum_actions": lambda n: 2 * (2 * n + 3),
    "rotated.transfer_from_frame": lambda n: 2 * n + 4,
    "foundations.crossing": lambda n: n + 1,
}


def test_node_checks_depend_on_neither_seed_nor_sample_count(params_n2):
    reports = [
        verify.run_suite(params_n2, checks=list(NODE_CHECK_YIELDS), seed=seed, n_samples=n)
        for seed in (0, 1234) for n in (1, 10)
    ]
    first = reports[0].checks
    for report in reports[1:]:
        assert [(c.name, c.n_sites, c.residual) for c in report.checks] == [
            (c.name, c.n_sites, c.residual) for c in first
        ]
    for c in first:
        assert c.verdict == "pass"
        assert c.n_samples == NODE_CHECK_YIELDS[c.name](c.n_sites)


def test_polynomiality_yields_the_match_errors(params_n2):
    cfg = SolverConfig(seed=6)
    ctx = verify.CheckContext(params_n2, 2, np.random.default_rng(0), 1, 1e-8, cfg)
    residuals = list(verify.registry()["onshell.polynomiality"].fn(ctx))
    cover = bethe.cover_spectrum(params_n2, cfg)
    assert residuals == [m.match_error for m in cover.matches if m.matched]
    assert len(residuals) == 4


# --- off-shell residuals: bitwise pin and monodromy build count ---------------------------

OFFSHELL_ROOTS = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)
OFFSHELL_POINTS = (1.21 - 0.66j, -0.37 + 0.92j, 0.58 + 0.14j, -1.1 - 0.45j)


def _offshell_reference(params, lams, u):
    """One-point off-shell residual with Phi and every swapped vector built from scratch."""
    t = model.transfer_matrix(u, params)
    phi = vectors.build_bethe_vector(lams, params)
    lhs = t @ phi - scalars.eigenvalue_Lambda(u, lams, params) * phi
    for k in range(len(lams)):
        swapped = list(lams)
        swapped[k] = u
        lhs = lhs - (
            scalars.F_factor(u, lams[k])
            * scalars.bethe_residual(k, lams, params)
            * vectors.build_bethe_vector(swapped, params)
        )
    scale = linalg.frobenius(t) * float(np.linalg.norm(phi))
    return float(np.linalg.norm(lhs)) / max(scale, 1e-300)


@pytest.mark.parametrize("n_sites, m", [(n, m) for n in (1, 2, 3) for m in range(n + 1)])
def test_offshell_residuals_bitwise_equal_per_point_reference(monkeypatch, n_sites, m):
    # M < N is the diagonal-sector relation, which holds only for diagonal boundaries.
    diag = {} if m == n_sites else {"xi_plus": 0.0, "xi_minus": 0.0}
    params, lams = make_params(n_sites, **diag), list(OFFSHELL_ROOTS[:m])
    expected = [_offshell_reference(params, lams, u) for u in OFFSHELL_POINTS]
    assert max(expected) < 1e-9
    built = []
    b_bar = vectors.b_bar_matrix
    monkeypatch.setattr(
        vectors, "b_bar_matrix", lambda u, p: built.append(np.size(u)) or b_bar(u, p)
    )
    assert list(verify.offshell_residuals(params, lams, OFFSHELL_POINTS)) == expected
    # each Bbar once: the roots in one call, the points in another; no Bbar(u) without roots
    assert [n for n in built if n] == ([m, len(OFFSHELL_POINTS)] if m else [])
    for u, res in zip(OFFSHELL_POINTS, expected):
        assert verify.offshell_residual(params, lams, u) == res


def test_offshell_residual_of_a_vanishing_vector_is_inf(monkeypatch, params_n2):
    tails = vectors.bethe_vector_tails

    def zero_tails(lams, params):
        bbars, vecs = tails(lams, params)
        return bbars, [np.zeros_like(v) for v in vecs]

    monkeypatch.setattr(vectors, "bethe_vector_tails", zero_tails)
    residuals = list(verify.offshell_residuals(params_n2, OFFSHELL_ROOTS[:2], OFFSHELL_POINTS))
    assert residuals == [float("inf")] * len(OFFSHELL_POINTS)


def test_offshell_builds_m_plus_two_monodromies_per_point(monkeypatch, params_n2):
    # Each root's Bbar once per root set, then t(u) and Bbar(u) per point: M + 2 * n_samples
    # monodromies, in three calls (the roots, t at the points, Bbar at the points).
    points, calls = {}, {}
    open_k = model.open_k_matrix

    def counting(u, params):
        points[params.n_sites] = points.get(params.n_sites, 0) + np.size(u)
        calls[params.n_sites] = calls.get(params.n_sites, 0) + 1
        return open_k(u, params)

    monkeypatch.setattr(model, "open_k_matrix", counting)
    report = verify.run_suite(params_n2, checks=["offshell.general"], seed=1, n_samples=10)
    assert report.all_pass
    assert points == {1: 21, 2: 22, 3: 23}
    assert calls == {1: 3, 2: 3, 3: 3}
    points.clear()
    calls.clear()
    report = verify.run_suite(params_n2, checks=["offshell.n4_probe"], seed=1, n_samples=10)
    assert [c.verdict for c in report.checks] == ["pass"]
    assert points == {4: 24}
    assert calls == {4: 3}
