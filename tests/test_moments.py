"""Closed-form decision moments against an independently keyed reference.

The reference polynomials below were transcribed separately from the
module and are deliberately kept as plain expressions, so any slip in the
module's table assembly (powers, bit gating, PRD grouping) shows up as a
disagreement here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from cubicber import SystemParams, decision_moments, derive, fit_from_moments
from cubicber.lp3 import NoSolutionError
from cubicber.moments import (VAR_NOISE_PRD_COEFF, mean_decision,
                              second_moment, third_moment, variance_decision)
from cubicber.params import ParamError
from conftest import make_system


def _pref(sp, dp):
    return dp.responsivity * sp.k * sp.gamma_nl ** 2


def ref_mu1(sp, dp, bit):
    s2, pr = dp.sigma0_sq, bit * sp.p_r
    return _pref(sp, dp) * (
        48 * s2**3 + (72 * s2**2 * pr + 12 * s2 * pr**2 + 0.55 * pr**3) / sp.prd)


def ref_mu2(sp, dp, bit):
    s2, pr, d = dp.sigma0_sq, bit * sp.p_r, sp.prd
    return _pref(sp, dp) ** 2 * (
        2304 * s2**6
        + (35834 * s2**6 + 6912 * s2**5 * pr + 1152 * s2**4 * pr**2
           + 52.8 * s2**3 * pr**3) / d
        + (106320 * s2**5 * pr + 47319 * s2**4 * pr**2 + 8661.7 * s2**3 * pr**3
           + 691.2 * s2**2 * pr**4 + 24.15 * s2 * pr**5 + 0.3025 * pr**6) / d**2)


def ref_mu3(sp, dp, bit):
    s2, pr, d = dp.sigma0_sq, bit * sp.p_r, sp.prd
    g0 = 110592 * s2**9
    g1 = (5.16e6 * s2**9 + 4.977e5 * s2**8 * pr + 8.3e4 * s2**7 * pr**2
          + 3.8e3 * s2**6 * pr**3)
    g2 = (1.0538e8 * s2**9 + 2.308e7 * s2**8 * pr + 8.133e6 * s2**7 * pr**2
          + 1.306e6 * s2**6 * pr**3 + 9.956e4 * s2**5 * pr**4
          + 3.479e3 * s2**4 * pr**5 + 43.56 * s2**3 * pr**6)
    g3 = (4.671e8 * s2**8 * pr + 3.241e8 * s2**7 * pr**2
          + 1.027e8 * s2**6 * pr**3 + 1.647e7 * s2**5 * pr**4
          + 1.451e6 * s2**4 * pr**5 + 7.232e4 * s2**3 * pr**6
          + 2.014e3 * s2**2 * pr**7 + 28.97 * s2 * pr**8 + 0.1664 * pr**9)
    return _pref(sp, dp) ** 3 * (g0 + g1 / d + g2 / d**2 + g3 / d**3)


GRID = [
    dict(prd=10.0), dict(prd=25.0, p_r_dbm=33.0), dict(prd=50.0, p_r_dbm=36.0),
    dict(prd=100.0, p_r_dbm=0.0), dict(prd=10.0, p_r_dbm=36.0),
    dict(prd=25.0, p_r_dbm=30.0, g_amp=1e4),
    dict(prd=10.0, p_r_dbm=33.0, l2=0.5, eta=0.5),
    dict(prd=1.0, p_r_dbm=20.0),
    dict(prd=200.0, p_r_dbm=35.0, k=0.05, gamma_nl=0.3),
]


@pytest.mark.parametrize("kw", GRID)
@pytest.mark.parametrize("bit", [0, 1])
def test_mu1_against_reference(kw, bit):
    sp = make_system(**kw)
    dp = derive(sp)
    assert mean_decision(sp, dp, bit) == pytest.approx(
        ref_mu1(sp, dp, bit), rel=1e-13)


@pytest.mark.parametrize("kw", GRID)
@pytest.mark.parametrize("bit", [0, 1])
def test_mu2_against_reference(kw, bit):
    # the module rebuilds the variance from the underlying term table, the
    # reference keeps the rounded printed coefficients: they agree to the
    # rounding level of those 4-digit constants, not to machine precision
    sp = make_system(**kw)
    dp = derive(sp)
    assert second_moment(sp, dp, bit) == pytest.approx(
        ref_mu2(sp, dp, bit), rel=1e-3)


@pytest.mark.parametrize("kw", GRID)
@pytest.mark.parametrize("bit", [0, 1])
def test_mu3_against_reference(kw, bit):
    sp = make_system(**kw)
    dp = derive(sp)
    assert third_moment(sp, dp, bit) == pytest.approx(
        ref_mu3(sp, dp, bit), rel=1e-12)


def test_noise_only_closed_values():
    sp = make_system(prd=10.0, p_r_dbm=33.0)
    dp = derive(sp)
    pref = _pref(sp, dp)
    s2 = dp.sigma0_sq
    assert mean_decision(sp, dp, 0) == pytest.approx(
        pref * 48 * s2**3, rel=1e-14)
    # the mu2 term constant in PRD is exactly mu1^2, so it cancels from the
    # variance: only the 1/PRD noise contribution survives at bit 0
    assert variance_decision(sp, dp, 0) == pytest.approx(
        pref**2 * s2**6 * VAR_NOISE_PRD_COEFF / 10.0, rel=1e-14)
    assert second_moment(sp, dp, 0) == pytest.approx(
        pref**2 * s2**6 * (2304 + VAR_NOISE_PRD_COEFF / 10.0), rel=1e-14)


def test_noise_prd_coefficient_assembly():
    assert VAR_NOISE_PRD_COEFF == pytest.approx(
        2304 * 0.55 + 20736 * 0.667 + 20736 * 1.0, rel=1e-15)
    # agrees with the rounded 35834 to the digits that constant carries
    assert VAR_NOISE_PRD_COEFF == pytest.approx(35834.0, rel=1e-5)


def test_bit_zero_equals_zero_power():
    sp1 = make_system(prd=25.0, p_r_dbm=36.0)
    sp0 = make_system(prd=25.0)
    dp = derive(sp1)
    assert mean_decision(sp1, dp, 0) == mean_decision(sp0, dp, 1)
    assert second_moment(sp1, dp, 0) == second_moment(sp0, dp, 1)
    assert third_moment(sp1, dp, 0) == third_moment(sp0, dp, 1)


def test_second_moment_identity():
    sp = make_system(prd=50.0, p_r_dbm=35.0)
    dp = derive(sp)
    for bit in (0, 1):
        assert second_moment(sp, dp, bit) == pytest.approx(
            variance_decision(sp, dp, bit) + mean_decision(sp, dp, bit) ** 2,
            rel=1e-15)


def test_moments_scale_as_responsivity_power():
    hi = make_system(prd=10.0, p_r_dbm=33.0, eta=0.8)
    lo = make_system(prd=10.0, p_r_dbm=33.0, eta=0.4)
    dh, dl = derive(hi), derive(lo)
    assert dl.responsivity == pytest.approx(0.5 * dh.responsivity, rel=1e-15)
    for bit in (0, 1):
        assert mean_decision(lo, dl, bit) == pytest.approx(
            0.5 * mean_decision(hi, dh, bit), rel=1e-13)
        assert second_moment(lo, dl, bit) == pytest.approx(
            0.25 * second_moment(hi, dh, bit), rel=1e-13)
        assert third_moment(lo, dl, bit) == pytest.approx(
            0.125 * third_moment(hi, dh, bit), rel=1e-13)


def test_decision_moments_bundles_the_three():
    sp = make_system(prd=25.0, p_r_dbm=33.0)
    dp = derive(sp)
    assert decision_moments(sp, dp, 1) == (mean_decision(sp, dp, 1),
                                           second_moment(sp, dp, 1),
                                           third_moment(sp, dp, 1))


def test_moment_triple_validation():
    # the fit checks the sign of a moment triple; decision_moments the bit
    for bad in ((0.0, 1.0, 1.0), (1.0, -1.0, 1.0)):
        with pytest.raises(NoSolutionError, match="moments must be positive"):
            fit_from_moments(bad)
    sp = make_system()
    with pytest.raises(ParamError):
        decision_moments(sp, derive(sp), 2)


def test_bad_bit_rejected():
    sp = make_system()
    dp = derive(sp)
    for fn in (mean_decision, second_moment, third_moment):
        with pytest.raises(ParamError):
            fn(sp, dp, 2)


@st.composite
def _systems(draw):
    prd = draw(st.floats(1.0, 1000.0))
    p_r = draw(st.floats(0.0, 10.0))
    g_amp = draw(st.floats(10.0, 1e6))
    k = draw(st.floats(1e-3, 1.0))
    gamma_nl = draw(st.floats(1e-3, 1.0))
    eta = draw(st.floats(0.05, 1.0))
    return make_system(prd=prd, g_amp=g_amp, k=k, gamma_nl=gamma_nl,
                       eta=eta, p_r=p_r)


@settings(max_examples=200, deadline=None)
@given(_systems(), st.sampled_from([0, 1]))
def test_moment_invariants_hold(sp, bit):
    # positivity and mu2 > mu1^2 (needed downstream by the law fit)
    dp = derive(sp)
    m1 = mean_decision(sp, dp, bit)
    m2 = second_moment(sp, dp, bit)
    m3 = third_moment(sp, dp, bit)
    assert m1 > 0 and m2 > 0 and m3 > 0
    assert m2 > m1 * m1
    assert variance_decision(sp, dp, bit) > 0


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-4, 5.0), st.floats(2e-4, 10.0), st.floats(1.0, 500.0))
def test_mu1_monotone_in_power(p_lo, dp_r, prd):
    lo = make_system(prd=prd, p_r=p_lo)
    hi = make_system(prd=prd, p_r=p_lo + dp_r)
    d = derive(lo)
    assert mean_decision(hi, d, 1) > mean_decision(lo, d, 1)


# --------------------------------------------------------------------------
# first-principles oracle for mu1: Gaussian raw moments of the field plus
# full-line sinc-power integrals
# --------------------------------------------------------------------------

def gaussian_raw_moment(a, sigma, order):
    """E{X^n} for X ~ Normal(a, sigma^2), n in {2, 4, 6}."""
    s2 = sigma * sigma
    return {2: a**2 + s2,
            4: a**4 + 6 * a**2 * s2 + 3 * s2**2,
            6: a**6 + 15 * a**4 * s2 + 45 * a**2 * s2**2 + 15 * s2**3}[order]


# full-line integrals of sinc^p, the PRD >> 1 limits of the window integrals
SINC_POWER = {2: 1.0, 4: 2.0 / 3.0, 6: 11.0 / 20.0}


def test_gaussian_raw_moment_central_cases():
    s = 0.7
    assert gaussian_raw_moment(0.0, s, 2) == pytest.approx(s**2, rel=1e-15)
    assert gaussian_raw_moment(0.0, s, 4) == pytest.approx(3 * s**4, rel=1e-15)
    assert gaussian_raw_moment(0.0, s, 6) == pytest.approx(15 * s**6, rel=1e-15)


@pytest.mark.parametrize("a,s", [(0.3, 1.1), (2.0, 0.5), (-1.2, 0.8)])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_gaussian_raw_moment_vs_quadrature(a, s, order):
    pdf = lambda x: math.exp(-0.5 * ((x - a) / s) ** 2) / (s * math.sqrt(2 * math.pi))
    val, err = quad(lambda x: x**order * pdf(x), a - 12 * s, a + 12 * s,
                    epsabs=1e-14, epsrel=1e-12, limit=200)
    assert gaussian_raw_moment(a, s, order) == pytest.approx(val, rel=1e-9)


def test_sinc_power_integrals():
    # integrate over [0, X] and add the mean tail 1/(2 pi^2 X) of sinc^2;
    # the sinc^4 and sinc^6 tails are below 1e-9 at X = 200
    x_max = 200.0
    for p, want in SINC_POWER.items():
        val, _ = quad(lambda u: np.sinc(u) ** p, 0.0, x_max, limit=2000)
        tail = 1.0 / (2.0 * math.pi**2 * x_max) if p == 2 else 0.0
        assert 2.0 * (val + tail) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("kw", GRID[:5])
@pytest.mark.parametrize("bit", [0, 1])
def test_mu1_is_window_integral_of_gaussian_moments(kw, bit):
    # r = a + X + iZ with real a = sqrt(b P_r) sinc(u), X, Z ~ N(0, s2):
    # E|r|^6 = E(X'^2 + Z^2)^3, X' = a + X, expands by the binomial theorem
    # into a cubic in a^2. Its a^2j term integrates over the window to
    # (b P_r)^j SINC_POWER[2j]; the a^0 term to PRD.
    sp = make_system(**kw)
    dp = derive(sp)
    s2, bp = dp.sigma0_sq, bit * sp.p_r

    def e_r6(a):  # in units of s2 = 1
        g = lambda m, n: gaussian_raw_moment(m, 1.0, n) if n else 1.0
        return sum(math.comb(3, k) * g(a, 2 * k) * g(0.0, 6 - 2 * k)
                   for k in range(4))

    t = np.arange(4.0)
    c = np.polynomial.polynomial.polyfit(t, [e_r6(math.sqrt(v)) for v in t], 3)
    assert c == pytest.approx([48.0, 72.0, 18.0, 1.0], rel=1e-12)
    window = (c[0] * s2**3 * sp.prd
              + sum(c[j] * s2**(3 - j) * bp**j * SINC_POWER[2 * j]
                    for j in (1, 2, 3)))
    assert mean_decision(sp, dp, bit) == pytest.approx(
        _pref(sp, dp) * window / sp.prd, rel=1e-12)
