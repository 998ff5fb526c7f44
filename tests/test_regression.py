"""Pinned solver and cover outcomes on the default configuration's model.

The values were recorded from the implementation with separate Newton and
Gauss-Newton loops, separate batch formulas and a cover built from blind and
curve-targeted solves; every later implementation must reproduce them: the
same counts, and every eigenvalue signature to 1e-8 relative.
"""

import numpy as np
import pytest

from openxxx import bethe, config, scalars, verify

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
# Blind multistart at N = 3; the first and third sets reproduce no eigencurve
# of the cover above, and are pinned as they are.
SOLVE_N3 = [
    ((0.9849023291811375-0.39450553095476687j), (9.840489975278278-32.499404049768785j), (70.07028549433862-56.78592701767495j)),
    ((1.0540108399666201-0.3917371179155578j), (-41.207489726641946-39.60291738122306j), (140.0456594458846-28.571791411147263j)),
    ((5.1391317092909-0.17258419948315168j), (-20.698043720003874-92.71455315897468j), (95.03945467955268-34.0184995884583j)),
    ((5.934265061828039-2.245076879180843j), (176.5565921156372-98.47368389924827j), (-95.27225086128328-155.69684172101245j)),
    ((14.161851328353473-0.6566031408926671j), (-272.27770041516123+260.12972520067376j), (847.840533869568+12.637619479973186j)),
]


def _sig_key(sig):
    return tuple((z.real, z.imag) for z in sig)


def _assert_signatures(got, pinned):
    assert len(got) == len(pinned)
    for a, b in zip(got, pinned):
        assert scalars.signatures_match(a, b, tol=1e-8), (a, b)


@pytest.mark.parametrize("n, pinned", [(2, COVER_N2), (3, COVER_N3)])
def test_cover_spectrum_default_model_is_pinned(n, pinned):
    cfg = config.default_config()
    cover = bethe.cover_spectrum(cfg.model.with_sites(n), cfg.solver)
    matched, sigs = pinned
    assert cover.matched_count == matched
    got = sorted((m.matched_roots.signature for m in cover.matches if m.matched), key=_sig_key)
    _assert_signatures(got, sigs)


def test_solve_bethe_default_model_n3_is_pinned():
    cfg = config.default_config()
    sets = bethe.solve_bethe(cfg.model.with_sites(3), cfg.solver)
    _assert_signatures([rs.signature for rs in sets], SOLVE_N3)


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
