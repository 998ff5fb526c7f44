import re

import numpy as np
import pytest

from openxxx import bethe, scalars
from openxxx.errors import ParameterError, PoleError
from openxxx.model import ModelParams

from conftest import make_params

poly = np.polynomial.polynomial


# --- vacuum eigenvalues ------------------------------------------------------------

def test_lambda_values():
    p = ModelParams.create([0.0], 2.0, 1.0)
    assert scalars.lambda2(0, p) == 0
    assert scalars.lambda1(-p.p, p) == 0
    # N=1, theta=0, p=2: lambda1(1) = (1+2) * (2^2 - 0) = 12
    assert abs(scalars.lambda1(1, p) - 12) < 1e-14


def test_lambda2_pole_guard(params_n1):
    with pytest.raises(PoleError):
        scalars.lambda2(-0.5 + 1e-9j, params_n1)


# --- alpha / delta -------------------------------------------------------------------

def test_alpha_delta_diagonal_limit():
    p = make_params(1, xi_plus=0.0, xi_minus=0.0)
    u = 0.37 + 0.19j
    assert p.rho == 0
    assert abs(scalars.alpha_bar(u, p) - 2 * (u + 1) * (u + p.q) / (2 * u + 1)) < 1e-14
    assert abs(scalars.alpha_bar(u, p) - scalars.alpha_bar_diag(u, p)) < 1e-14
    assert abs(scalars.delta_bar(u, p) - scalars.delta_bar_diag(u, p)) < 1e-14


def test_delta_bar_root(params_n2):
    u = params_n2.q / (1 - params_n2.rho) - 1
    assert abs(scalars.delta_bar(u, params_n2)) < 1e-13


def test_delta_bar_explicit_rho():
    # xi+ xi- = 3 on the principal branch: rho = 1 - 2 = -1, delta = q - 2(u+1)
    p = ModelParams.create([0.1], 1.3, 0.8, xi_plus=1.5, xi_minus=2.0)
    assert abs(p.rho + 1) < 1e-14
    u = 0.27 - 0.64j
    assert abs(scalars.delta_bar(u, p) - (p.q - 2 * (u + 1))) < 1e-14


# --- F and structure functions --------------------------------------------------------

def test_f_factor_values():
    assert scalars.F_factor(-1, 0.3 + 0.2j) == 0
    assert abs(scalars.F_factor(1, 2) - complex(1, 0) / 6) < 1e-15
    with pytest.raises(PoleError):
        scalars.F_factor(0.5, 0.5 + 1e-9)


def test_f_factor_simple_poles():
    # |F| ~ C/|lambda - u|: log-log slope -1 as the distance shrinks
    u = 0.4 + 0.3j
    for pole in (u, -u - 1):
        ds = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        vals = np.array([abs(scalars.F_factor(u, pole + d * (0.6 + 0.8j))) for d in ds])
        slope = np.polyfit(np.log(ds), np.log(vals), 1)[0]
        assert abs(slope + 1) < 0.05


def test_structure_function_values():
    assert abs(scalars.structure_fn("f", 3, 1) - 0.4) < 1e-15
    assert abs(scalars.structure_fn("h", 2, 1) - 2.5) < 1e-15
    with pytest.raises(ParameterError):
        scalars.structure_fn("nope", 1, 2)
    with pytest.raises(PoleError):
        scalars.structure_fn("f", 1.0, 1.0 + 1e-9)


# The twelve structure functions as written out one by one, each with the
# linear factors it guards, in guard order: the reference for the table.
STRUCTURE_REFERENCE = {
    "f": (lambda u, v: (u - v - 1) * (u + v) / ((u - v) * (u + v + 1)), ("u-v", "u+v+1")),
    "h": (lambda u, v: (u - v + 1) * (u + v + 2) / ((u - v) * (u + v + 1)), ("u-v", "u+v+1")),
    "w": (lambda u, v: -1 / (u + v + 1), ("u+v+1",)),
    "g": (lambda u, v: 2 * v / ((2 * v + 1) * (u - v)), ("2v+1", "u-v")),
    "k": (lambda u, v: -2 * (u + 1) / ((u - v) * (2 * u + 1)), ("u-v", "2u+1")),
    "n": (
        lambda u, v: 4 * v * (u + 1) / ((u + v + 1) * (2 * v + 1) * (2 * u + 1)),
        ("u+v+1", "2v+1", "2u+1"),
    ),
    "m": (
        lambda u, v: 2 * u * (u - v + 1) / ((2 * u + 1) * (u + v + 1) * (u - v)),
        ("2u+1", "u+v+1", "u-v"),
    ),
    "l": (lambda u, v: -2 * u / ((2 * u + 1) * (2 * v + 1) * (u - v)), ("2u+1", "2v+1", "u-v")),
    "q_f": (lambda u, v: (u + v) / ((u + v + 1) * (u - v)), ("u+v+1", "u-v")),
    "p_f": (lambda u, v: -2 * u / ((2 * u + 1) * (u - v)), ("2u+1", "u-v")),
    "y": (lambda u, v: -1 / ((u + v + 1) * (2 * v + 1)), ("u+v+1", "2v+1")),
    "z": (lambda u, v: -1 / (u + v + 1), ("u+v+1",)),
}


def _on_factor(label, u, v):
    """(u, v) moved so that the linear factor ``label`` vanishes."""
    return {"u-v": (u, u), "u+v+1": (u, -u - 1), "2u+1": (-0.5, v), "2v+1": (u, -0.5)}[label]


@pytest.mark.parametrize("name", sorted(STRUCTURE_REFERENCE))
def test_structure_function_pinned_to_reference(name, rng):
    reference, factors = STRUCTURE_REFERENCE[name]
    assert set(scalars.STRUCTURE_FUNCTIONS) == set(STRUCTURE_REFERENCE)
    for _ in range(20):
        u, v = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        assert scalars.structure_fn(name, u, v) == reference(u, v)
        for label in factors:
            with pytest.raises(PoleError, match=re.escape(f"|{label}|")):
                scalars.structure_fn(name, *_on_factor(label, u, v))


def test_structure_function_reflection_invariance(rng):
    for _ in range(10):
        u, v = (complex(*rng.uniform(-2, 2, 2)) for _ in range(2))
        try:
            f1 = scalars.structure_fn("f", u, v)
            f2 = scalars.structure_fn("f", u, -v - 1)
            h1 = scalars.structure_fn("h", u, v)
            h2 = scalars.structure_fn("h", u, -v - 1)
        except PoleError:
            continue
        assert abs(f1 - f2) < 1e-12 * max(1, abs(f1))
        assert abs(h1 - h2) < 1e-12 * max(1, abs(h1))


# --- eigenvalue split ------------------------------------------------------------------

def test_eigenvalue_split_identity(params_n3, rng):
    lams = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)
    for _ in range(10):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        try:
            full = scalars.eigenvalue_Lambda(u, lams, params_n3)
            diag = scalars.eigenvalue_Lambda_diag(u, lams, params_n3)
            gen = scalars.eigenvalue_Lambda_gen(u, lams, params_n3)
        except PoleError:
            continue
        assert abs(full - (diag + params_n3.rho * gen)) < 1e-12 * max(1, abs(full))


def test_bethe_residual_split_identity(params_n2):
    lams = (0.43 + 0.77j, -0.21 - 0.53j)
    for k in range(2):
        full = scalars.bethe_residual(k, lams, params_n2)
        diag = scalars.bethe_residual_diag(k, lams, params_n2)
        gen = scalars.bethe_residual_gen(k, lams, params_n2)
        assert abs(full - (diag + params_n2.rho * gen)) < 1e-12 * max(1, abs(full))


def test_rho_term_is_the_printed_form_with_removable_factors_cancelled(params_n3, rng):
    # rho c(u) lambda1 lambda2 prod_j g(u, l_j), c(u) = (u+1)(2u+1)/((u+p)(p-u-1))
    p = params_n3
    lams = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)
    for _ in range(20):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        c = (u + 1) * (2 * u + 1) / ((u + p.p) * (p.p - u - 1))
        printed = p.rho * c * scalars.lambda1(u, p) * scalars.lambda2(u, p)
        for lam in lams:
            printed /= (u - lam) * (u + lam + 1)
        t3 = scalars.lambda_terms(u, lams, p, p.rho)[2]
        assert abs(t3 - printed) <= 1e-12 * abs(printed)


def test_kernel_reductions_match_the_printed_products(params_n3, rng):
    # lambda_terms reduces over the roots and the theta_j as whole arrays; the
    # reference multiplies the printed factors one by one
    p = params_n3
    lams = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)
    for _ in range(20):
        u = complex(*rng.uniform(-1.5, 1.5, 2))
        plus = minus = 1
        for t in p.theta:
            plus, minus = plus * ((u + 1) ** 2 - t ** 2), minus * (u ** 2 - t ** 2)
        t1 = scalars.alpha_bar(u, p) * (u + p.p) * plus
        t2 = scalars.delta_bar(u, p) * (2 * u / (2 * u + 1)) * (p.p - u - 1) * minus
        t3 = 2 * p.rho * u * (u + 1) * plus * minus
        for lam in lams:
            d, s = u - lam, u + lam + 1
            t1 = t1 * (d - 1) * (s - 1) / (d * s)
            t2 = t2 * (d + 1) * (s + 1) / (d * s)
            t3 = t3 / (d * s)
        for got, want in zip(scalars.lambda_terms(u, lams, p, p.rho), (t1, t2, t3)):
            assert abs(got - want) <= 1e-13 * abs(want)


def test_lambda_and_be_are_finite_at_minus_p_and_p_minus_1(params_n2):
    p = params_n2
    lams = (0.43 + 0.77j, -0.21 - 0.53j)
    for point in (-p.p, p.p - 1):
        value = scalars.eigenvalue_Lambda(point, lams, p)
        # a removable point: the value is the limit of its neighbours
        near = scalars.eigenvalue_Lambda(point + 1e-7, lams, p)
        assert np.isfinite(value) and abs(value - near) < 1e-5 * max(1, abs(value))
        be = scalars.bethe_residual(0, (point, lams[1]), p)
        assert np.isfinite(be)


def test_bethe_residual_is_residue_of_eigenvalue(params_n3):
    # BE_k = (2 lambda_k + 1) Res_{u=lambda_k} Lambda(u); the symmetric
    # difference quotient of (u - lambda_k) Lambda(u) has an O(eps^2) error
    lams = (0.43 + 0.77j, -0.21 - 0.53j, 1.13 + 0.29j)
    eps = 1e-4 * (0.6 + 0.8j)
    for k, lam in enumerate(lams):
        res = 0.5 * sum(
            e * scalars.eigenvalue_Lambda(lam + e, lams, params_n3) for e in (eps, -eps)
        )
        be = scalars.bethe_residual(k, lams, params_n3)
        assert abs((2 * lam + 1) * res - be) < 1e-6 * max(1, abs(be))


def test_bethe_residual_reflection_invariance(params_n2):
    # reflecting a non-k root leaves BE_k unchanged (f, h invariance)
    lams = [0.43 + 0.77j, -0.21 - 0.53j]
    base = scalars.bethe_residual(0, lams, params_n2)
    reflected = scalars.bethe_residual(0, [lams[0], -lams[1] - 1], params_n2)
    assert abs(base - reflected) < 1e-12 * max(1, abs(base))


def test_bethe_residual_generic_nonzero(params_n2, rng):
    lams = [complex(*rng.uniform(-1, 1, 2)) for _ in range(2)]
    assert scalars.normalized_be_residual(lams, params_n2) > 1e-4


def test_normalized_be_residual_is_non_finite_with_the_batch_merit(params_n2):
    # lambda_1 = 1e60 makes every addend of BE_0 NaN while BE_1 stays finite
    roots = (1e60, 0.3 + 0.1j)
    _, merit = bethe._be_residual(np.array([roots]), params_n2)
    assert not np.isfinite(merit[0])
    assert not np.isfinite(scalars.normalized_be_residual(roots, params_n2))
    assert scalars.normalized_be_residual((), params_n2) == 0.0


def diag_be_polynomial_n1(p):
    """Independent oracle: (2l+1) BE^diag up to the trivial -4 l (l+1) factor.

    P(l) = (l+q)(l+p) prod((l+1)^2 - th^2) - (q-l-1)(p-l-1) prod(l^2 - th^2),
    built by exact polynomial arithmetic.
    """
    term1 = poly.polyfromroots([-p.q, -p.p])
    term2 = poly.polyfromroots([p.q - 1, p.p - 1])
    for t in p.theta:
        term1 = poly.polymul(term1, poly.polyfromroots([-1 + t, -1 - t]))
        term2 = poly.polymul(term2, poly.polyfromroots([t, -t]))
    return poly.polysub(term1, term2)


def test_diagonal_roots_solve_bethe_equations():
    p = make_params(1, xi_plus=0.0, xi_minus=0.0)
    roots = np.roots(diag_be_polynomial_n1(p)[::-1])
    good = [r for r in roots if scalars.roots_admissible((r,), p)]
    assert good, "oracle polynomial should have admissible roots"
    for r in good:
        assert scalars.normalized_be_residual((r,), p) < 1e-10


def test_trivial_zero_roots_are_guarded(params_n2):
    # lambda = 0 and -1 solve BE identically but are excluded
    assert abs(scalars.bethe_residual(0, (0.0, 0.6 + 0.3j), params_n2)) < 1e-12
    assert abs(scalars.bethe_residual(0, (-1.0, 0.6 + 0.3j), params_n2)) < 1e-10
    assert not scalars.roots_admissible((0.0, 0.6 + 0.3j), params_n2)
    assert not scalars.roots_admissible((-1.0, 0.6 + 0.3j), params_n2)


def test_roots_admissible_guards(params_n2):
    assert scalars.roots_admissible((0.43 + 0.77j, -0.21 - 0.53j), params_n2)
    # pairwise and reflection degeneracies
    assert not scalars.roots_admissible((0.4 + 0.2j, 0.4 + 0.2j + 1e-10), params_n2)
    assert not scalars.roots_admissible((0.4 + 0.2j, -1.4 - 0.2j), params_n2)
    # guard centers; -p is no pole of Lambda or BE_k, so a root there is admissible
    assert scalars.roots_admissible((-params_n2.p, 0.4 + 0.2j), params_n2)
    # a lone root at theta_j is admissible; theta_j with -theta_j, or with its
    # reflection theta_j - 1, makes both BE_k vanish identically
    t = params_n2.theta[0]
    assert scalars.roots_admissible((t, 0.4 + 0.2j), params_n2)
    assert not scalars.roots_admissible((t, -t), params_n2)
    assert not scalars.roots_admissible((t, t - 1), params_n2)


def test_root_set_invariants():
    rs = scalars.BetheRootSet([0.43 + 0.77j, 2], 1e-12)
    assert rs.roots == (0.43 + 0.77j, 2 + 0j) and rs.n_roots == 2
    assert all(type(r) is complex for r in rs.roots)
    with pytest.raises(ParameterError):
        scalars.BetheRootSet((complex("nan"),), 0.0)
    with pytest.raises(ParameterError):
        scalars.BetheRootSet((0.1,), float("inf"))


def test_a_near_two_string_away_from_zero_is_admissible(params_n2):
    # l, -l + 1e-9 zeroes s - 1 to 1e-9: the blind attractor near 0 is
    # rejected, the same pair at |l| ~ 0.14 is left to the certificates
    for lam, admissible in ((2e-5 + 1e-5j, False), (-0.1045 + 0.0941j, True)):
        pair = (lam, -lam + 1e-9, 0.6 + 0.3j)
        assert scalars.roots_admissible(pair, params_n2) is admissible
        # the reflection of a root stands for the root itself
        assert scalars.roots_admissible((-pair[0] - 1,) + pair[1:], params_n2) is admissible
    # d = 0 and s = 0 stay rejected away from zero
    assert not scalars.roots_admissible((0.4 + 0.2j, 0.4 + 0.2j + 1e-10), params_n2)
    assert not scalars.roots_admissible((0.4 + 0.2j, -1.4 - 0.2j + 1e-10), params_n2)
