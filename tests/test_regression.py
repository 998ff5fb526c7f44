"""Pinned solver and cover outcomes on the default configuration's model.

The cover values were recorded from the implementation with separate Newton
and Gauss-Newton loops, separate batch formulas and a cover built from blind
and curve-targeted solves; every later implementation must reproduce them: the
same counts, and each set's eigenvalue Lambda(u) at ``PROBES`` to 1e-8
relative, compared as lists sorted by those values.  A blind solve must return
its pinned number of sets, each an eigenstate: one of the cover's pinned sets,
or a Lambda in the spectrum of t(u) at ``PROBES``.
"""

from collections import Counter

import numpy as np
import pytest

from openxxx import bethe, config, scalars, verify
from openxxx.model import ModelParams

from conftest import eigvals_error

# Each pin is a set's Lambda(u) at these three points.
PROBES = (0.3 + 0.0j, 1.1 + 0.7j, -2.4 + 0.0j)

COVER_N2 = (4, [
    ((1.6751567096460436-0.5637779443710669j), (-44.90142499720444+21.796994827976977j), (77.98120595404201-5.603799252290188j)),
    ((3.3999788834143043-1.2124311101108622j), (-4.980836311269158-24.899366597892044j), (15.151629475946589-24.00159588687899j)),
    ((6.68626351487866-0.525711560477127j), (-21.009186044882238+45.67884568465379j), (114.58640411365953-4.092012378886506j)),
    ((11.28563717780388-0.49106071908757626j), (-47.21502497884475+190.6626491543962j), (319.87375278354693+6.322529768382753j)),
])
COVER_N3 = (8, [
    ((1.0540108399666201-0.3917371179155578j), (-41.207489726641946-39.60291738122306j), (140.0456594458846-28.571791411147263j)),
    ((2.151076663418493-0.5201972397725363j), (-250.1516182399681-49.15515992259253j), (427.2312915553733-4.940539615648674j)),
    ((4.6947868682037-1.6319532663268315j), (12.512298349546416-104.08878558119414j), (83.63385462229144-77.71659109245847j)),
    ((5.934265061828039-2.245076879180843j), (176.5565921156372-98.47368389924827j), (-95.27225086128328-155.69684172101245j)),
    ((5.936444222548891-1.0327599688242854j), (-233.49408158483178-2.033853007273396j), (494.65414334521597-13.048666566373484j)),
    ((10.137236417761589-0.3944860492526144j), (-1.976946993886303+29.760453736644443j), (236.40614644516512-11.53127716173119j)),
    ((14.161851328353473-0.6566031408926671j), (-272.27770041516123+260.12972520067376j), (847.840533869568+12.637619479973186j)),
    ((19.176613497931847-0.839328334594903j), (-763.6044299445107+620.1148530230851j), (1869.1577002468293+44.18668127479013j)),
])
# Blind multistart returns eigenstates only.  At N = 3 it returns five sets,
# each one of the cover's pinned sets above.  On the draws of default_rng(11)
# over sizes (4, 4, 4, 5, 5, 5), the benchmark's solve instances, it returns
# two on the 3rd (n4-2) and one on the 4th (n5-0), each with its Lambda in the
# spectrum of t(u) at the probes.  The n5-0 set comes from a single row of its
# 2,048 starts, so it is the pin most exposed to a change of the Newton steps.
SOLVE_N3_COUNT = 5
SOLVE_N4_DRAW_COUNT = 2
SOLVE_N5_DRAW_COUNT = 1


def _key(values):
    return tuple((z.real, z.imag) for z in values)


def _lambda_at_probes(rs, params):
    return tuple(scalars.eigenvalue_Lambda(u, rs, params) for u in PROBES)


def _close(a, b):
    return all(abs(x - y) <= 1e-8 * max(1.0, abs(x), abs(y)) for x, y in zip(a, b))


def _assert_pinned(sets, params, pinned):
    got = sorted((_lambda_at_probes(rs, params) for rs in sets), key=_key)
    assert len(got) == len(pinned)
    for a, b in zip(got, sorted(pinned, key=_key)):
        assert _close(a, b), (a, b)


@pytest.mark.parametrize("n, pinned", [(2, COVER_N2), (3, COVER_N3)])
def test_cover_spectrum_default_model_is_pinned(n, pinned):
    cfg = config.default_config()
    params = cfg.model.with_sites(n)
    cover = bethe.cover_spectrum(params, cfg.solver)
    matched, values = pinned
    assert cover.matched_count == matched
    _assert_pinned(cover.root_sets, params, values)


def test_solve_bethe_default_model_n3_is_pinned():
    cfg = config.default_config()
    params = cfg.model.with_sites(3)
    sets = bethe.solve_bethe(params, cfg.solver)
    assert len(sets) == SOLVE_N3_COUNT
    for rs in sets:
        assert any(_close(_lambda_at_probes(rs, params), pin) for pin in COVER_N3[1]), rs.roots


def _check_solve_benchmark_draw(index, count):
    rng = np.random.default_rng(11)
    params = [verify.random_params(rng, n) for n in (4, 4, 4, 5, 5, 5)][index]
    sets = bethe.solve_bethe(params, bethe.SolverConfig())
    assert len(sets) == count
    for rs in sets:
        assert eigvals_error(rs, params, PROBES) <= 1e-8, rs.roots


def test_solve_bethe_n4_benchmark_draw_is_pinned():
    _check_solve_benchmark_draw(2, SOLVE_N4_DRAW_COUNT)


def test_solve_bethe_n5_benchmark_draw_is_pinned():
    _check_solve_benchmark_draw(3, SOLVE_N5_DRAW_COUNT)


def test_cover_spectrum_n4_draw_that_broke_branch_tracking():
    # the 4th draw of default_rng(7) for n = 1..4 raised TrackingError when
    # curves were followed by continuity on the sampling circle
    rng = np.random.default_rng(7)
    params = [verify.random_params(rng, n) for n in (1, 2, 3, 4)][3]
    cover = bethe.cover_spectrum(params, bethe.SolverConfig(seed=7))
    assert cover.matched_count == 16
    assert cover.max_eigen_residual <= 1e-7


def test_cover_spectrum_n5_draw_with_roots_at_minus_p():
    # the 5th draw of default_rng(11) for sizes (4, 4, 4, 5, 5, 5): two curves'
    # root sets have a root within 1e-6 of -p, which was guarded as a pole
    rng = np.random.default_rng(11)
    params = [verify.random_params(rng, n) for n in (4, 4, 4, 5, 5, 5)][4]
    cover = bethe.cover_spectrum(params, bethe.SolverConfig())
    assert cover.matched_count == 32
    assert cover.max_eigen_residual <= 1e-7


@pytest.mark.parametrize("boundary", [
    {}, {"xi_minus": 0.0}, {"xi_plus": 0.0, "xi_minus": 0.0},
], ids=["generic", "triangular", "diagonal"])
@pytest.mark.parametrize("theta, matched", [
    ((0.3, 1.3), 4),
    ((0.1 + 0.2j, 1.1 + 0.2j), 4),
    ((0.2, 1.2, 2.2), 8),
    ((0.3, 1.3, -0.4, 0.6), 16),
    ((0.5, -0.5), 3),
])
def test_cover_spectrum_at_fusion_points(theta, matched, boundary):
    # fusion points theta_i - theta_j = 1: genuine eigenstates have a root at
    # +-theta_j, and only a set holding both theta_j and -theta_j is spurious;
    # theta = (0.5, -0.5), where one curve stays unmatched, is pinned as it is
    m = config.default_config().model
    params = ModelParams.create(theta, m.p, m.q, m.xi_plus, m.xi_minus)
    params = params.replace_couplings(**boundary)
    cover = bethe.cover_spectrum(params, config.default_config().solver)
    assert cover.matched_count == matched
    assert cover.max_eigen_residual <= 1e-8


def test_cover_spectrum_triangular_n3_keeps_only_matched_sets():
    # the 3rd draw of default_rng(107) for sizes (1, 2, 3, 4) with xi- = 0: one
    # curve's certified sets include one with two roots ~1e-5 from the guarded
    # point 0 that reproduces no curve; it must not reach the cover's root sets
    rng = np.random.default_rng(107)
    params = [verify.random_params(rng, n) for n in (1, 2, 3, 4)][2]
    cover = bethe.cover_spectrum(params.replace_couplings(xi_minus=0.0), bethe.SolverConfig())
    assert cover.matched_count == len(cover.matches) == 8
    assert Counter(m.excitations for m in cover.matches) == {0: 1, 1: 3, 2: 3, 3: 1}
    assert len(cover.root_sets) == 8
    assert all(abs(r) > 1e-4 for rs in cover.root_sets for r in rs.roots)
