"""Electrical noise folding, threshold optimization, Gaussian baseline."""

import math

import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from cubicber import (Lp3Params, NoisePhysics,
                      cdf_shot_thermal, derive, error_probability,
                      fit_from_moments, gaussian_approx_ber, noise_physics,
                      optimize_threshold)
from cubicber import detection
from cubicber.detection import BracketError, QuadratureError
from cubicber.lp3 import cdf as lp3_cdf
from cubicber.lp3 import moment, quantile
from cubicber.moments import decision_moments
from cubicber.params import K_BOLTZMANN, ParamError, Q_ELECTRON
from conftest import lp3_pdf, make_system


def _cubic_law(prd=10.0, p_r_dbm=35.0, bit=1):
    sp = make_system(prd=prd, p_r_dbm=p_r_dbm)
    dp = derive(sp)
    return fit_from_moments(decision_moments(sp, dp, bit)), sp, dp


# --------------------------------------------------------------------------
# NoisePhysics
# --------------------------------------------------------------------------

def test_noise_physics_variance_formula():
    # Y within ~5e-6 relative of y0, so Y + N is close to Normal(y0,
    # sigma^2(y0)) with sigma^2(y) = (2 q_e y + 4 k_B T_r / R_L) / T_p;
    # thermal noise dominates at 3 uA, shot noise at 1 mA
    for y0, t_p in ((3e-6, 1e-12), (1e-3, 5e-12)):
        law = Lp3Params(alpha=1e12, beta=1e-12, gamma=math.log(y0) - 1.0)
        phys = NoisePhysics(t_r=300.0, r_l=1000.0, t_p=t_p)
        s = math.sqrt((2 * Q_ELECTRON * y0
                       + 4 * K_BOLTZMANN * 300.0 / 1000.0) / t_p)
        for k in (-2.0, -0.5, 0.0, 1.0, 3.0):
            want = 0.5 * math.erfc(-k / math.sqrt(2.0))
            assert cdf_shot_thermal(law, y0 + k * s, phys) == pytest.approx(
                want, abs=1e-8)


def test_noise_physics_validation():
    with pytest.raises(ParamError):
        NoisePhysics(t_r=0.0)
    with pytest.raises(ParamError):
        NoisePhysics(r_l=-1.0)
    with pytest.raises(ParamError):
        NoisePhysics(t_p=0.0)


def test_noise_physics_from_system():
    sp = make_system(prd=25.0, r_l=10_000.0, t_r=77.0)
    dp = derive(sp)
    phys = noise_physics(sp, dp)
    assert phys.r_l == 10_000.0
    assert phys.t_r == 77.0
    assert phys.t_p == dp.t_p
    assert phys.q_e == Q_ELECTRON and phys.k_b == K_BOLTZMANN


# --------------------------------------------------------------------------
# shot/thermal cdf
# --------------------------------------------------------------------------

def test_cdf_shot_thermal_degenerate_noise_limit():
    # scaling q_e and T_r to nothing must reproduce the bare LP3 law
    law, sp, dp = _cubic_law()
    tiny = NoisePhysics(q_e=Q_ELECTRON * 1e-12, t_r=300.0 * 1e-12,
                        r_l=sp.r_l, t_p=dp.t_p)
    for prob in np.linspace(0.05, 0.95, 10):
        x = quantile(law, prob)
        assert cdf_shot_thermal(law, x, tiny) == pytest.approx(
            float(lp3_cdf(law, x)), abs=1e-6, rel=1e-6)


def test_cdf_shot_thermal_monotone_and_saturates():
    law, sp, dp = _cubic_law()
    phys = noise_physics(sp, dp)
    xs = np.geomspace(quantile(law, 1e-3) * 0.1, quantile(law, 1 - 1e-6) * 3,
                      25)
    vals = [cdf_shot_thermal(law, x, phys) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    far = quantile(law, 1 - 1e-9) * 10
    assert cdf_shot_thermal(law, far, phys) == pytest.approx(1.0, abs=1e-9)


def test_cdf_shot_thermal_widens_the_law():
    # extra electrical noise moves mass outward: below the mean the folded
    # cdf exceeds the bare one
    law, sp, dp = _cubic_law(p_r_dbm=33.0)
    phys = NoisePhysics(t_r=300.0, r_l=100.0, t_p=dp.t_p)  # strong thermal
    lo = quantile(law, 0.01)
    assert cdf_shot_thermal(law, lo, phys) > float(lp3_cdf(law, lo))
    hi = quantile(law, 0.99)
    assert cdf_shot_thermal(law, hi, phys) < float(lp3_cdf(law, hi))


def test_cdf_shot_thermal_against_sampling_oracle():
    # direct simulation of Y + N(0, sigma^2(Y)): empirical cdf within
    # Monte Carlo error of the quadrature result
    law, sp, dp = _cubic_law(prd=10.0, p_r_dbm=35.0)
    phys = NoisePhysics(t_r=300.0, r_l=100.0, t_p=dp.t_p)
    n = 400_000
    rng = np.random.default_rng(321)
    g = rng.gamma(law.alpha, size=n)
    y = np.exp(law.gamma + law.beta * g)
    sig = np.sqrt((2 * phys.q_e * y + 4 * phys.k_b * phys.t_r / phys.r_l)
                  / phys.t_p)
    x = y + sig * rng.standard_normal(n)
    x.sort()
    for prob in (0.1, 0.3, 0.5, 0.7, 0.9):
        q = x[int(prob * n)]
        se = math.sqrt(prob * (1 - prob) / n)
        assert cdf_shot_thermal(law, q, phys) == pytest.approx(
            prob, abs=4 * se)


def _st_laws(p_r_dbm=37.0, r_l=1000.0):
    sp = make_system(prd=10.0, p_r_dbm=p_r_dbm, r_l=r_l)
    dp = derive(sp)
    phys = noise_physics(sp, dp)
    law0, law1 = (fit_from_moments(decision_moments(sp, dp, b))
                  for b in (0, 1))
    return law0, law1, phys


def _st_quad(law, x, phys):
    # independent reference: adaptive quadrature of the same integral, with
    # scipy's incomplete gamma for the LP3 cdf
    qe_tp = phys.q_e / phys.t_p
    th_tp = 4.0 * phys.k_b * phys.t_r / (phys.r_l * phys.t_p)

    def sigma(y):
        return math.sqrt(2.0 * qe_tp * y + th_tp)

    def f_y(y):
        z = (math.log(y) - law.gamma) / law.beta
        if z <= 0.0:
            return 0.0 if law.beta > 0 else 1.0
        return sc.gammainc(law.alpha, z) if law.beta > 0 else sc.gammaincc(
            law.alpha, z)

    def integrand(y):
        s = sigma(y)
        return ((qe_tp * (x + y) + th_tp) / (s ** 3 * math.sqrt(2 * math.pi))
                * math.exp(-(x - y) ** 2 / (2 * s * s)) * f_y(y))

    lo = quantile(law, 1e-14)
    s_x = sigma(x)
    hi = max(quantile(law, 1 - 1e-12), x + 10 * s_x)
    pts = [x - 8 * s_x, x, x + 8 * s_x]
    pts += list(quantile(law, np.array([1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9])))
    val, _ = quad(integrand, lo, hi, points=sorted(p for p in pts
                                                   if lo < p < hi),
                  epsabs=1e-15, epsrel=1e-13, limit=1000)
    return val + 0.5 * math.erfc((hi - x) / (sigma(hi) * math.sqrt(2.0)))


def test_cdf_shot_thermal_array_matches_adaptive_quadrature():
    law0, law1, phys = _st_laws()
    grid = np.geomspace(moment(law0, 1) / 100.0, moment(law1, 1) * 10.0, 256)
    for law in (law0, law1):
        got = cdf_shot_thermal(law, grid, phys)
        assert got.shape == grid.shape
        want = [_st_quad(law, x, phys) for x in grid]
        assert np.abs(got - want).max() <= 1e-12
        # a scalar threshold runs the same panels
        for i in (0, 128, 255):
            assert cdf_shot_thermal(law, grid[i], phys) == got[i]


def test_cdf_shot_thermal_rejects_nonfinite_thresholds():
    law0, _, phys = _st_laws()
    for bad in (math.nan, math.inf):
        with pytest.raises(ParamError):
            cdf_shot_thermal(law0, np.array([1e-6, bad]), phys)


def test_cdf_shot_thermal_error_gate(monkeypatch):
    # one panel edge besides the kernel centre: far too coarse, and the
    # Kronrod-Gauss difference says so
    _, law1, phys = _st_laws()
    monkeypatch.setattr(detection, "_EDGE_PROBS", np.array([0.5]))
    monkeypatch.setattr(detection, "_KERNEL_W", np.array([0.0]))
    with pytest.raises(QuadratureError):
        cdf_shot_thermal(law1, moment(law1, 1), phys)


# (P_r dBm, R_L ohm, th_opt, PE) of the PRD-10 shot/thermal search as
# computed by the adaptive quadrature (scipy quad) that the panel rule
# replaced
ADAPTIVE_SEARCHES = [
    (29.0, 1000.0, 6.232687962061391e-06, 0.291620894679514),
    (33.0, 1000.0, 1.1140659839122386e-05, 0.049690568236865455),
    (37.0, 1000.0, 3.697687595576255e-05, 0.00012260574252593483),
    (33.0, 100.0, 2.184712759475504e-05, 0.12517926142599722),
    (33.0, 10000.0, 7.809579608115099e-06, 0.03296087795001704),
]


@pytest.mark.parametrize("p_r_dbm,r_l,th_ref,pe_ref", ADAPTIVE_SEARCHES)
def test_shot_thermal_search_matches_adaptive(p_r_dbm, r_l, th_ref, pe_ref):
    th, pe = optimize_threshold(*_st_laws(p_r_dbm, r_l))
    assert th == pytest.approx(th_ref, rel=1e-6)
    assert pe == pytest.approx(pe_ref, rel=1e-6)


def test_shot_thermal_search_call_count(monkeypatch):
    # host-independent cost guard: the search bisects on densities, so the
    # cdf quadrature runs once per bit, on the crossings and the two ends
    sizes = []
    real = detection.cdf_shot_thermal

    def counting(law, x, phys):
        sizes.append(np.size(x))
        return real(law, x, phys)

    monkeypatch.setattr(detection, "cdf_shot_thermal", counting)
    optimize_threshold(*_st_laws())
    assert len(sizes) == 2 and sizes[0] == sizes[1] >= 3


def _st_pdf_quad(law, x, phys):
    # independent reference: adaptive quadrature of the density of Y + N,
    # the integral of f_Y(y) phi(x; y, sigma^2(y)), with the LP3 density
    # of conftest
    qe_tp = phys.q_e / phys.t_p
    th_tp = 4.0 * phys.k_b * phys.t_r / (phys.r_l * phys.t_p)

    def integrand(y):
        s2 = 2.0 * qe_tp * y + th_tp
        return (lp3_pdf(law, y) * math.exp(-(x - y) ** 2 / (2.0 * s2))
                / math.sqrt(2.0 * math.pi * s2))

    s_x = math.sqrt(2.0 * qe_tp * x + th_tp)
    lo, hi = quantile(law, np.array([1e-16, 1.0 - 1e-15]))
    pts = [x - 8 * s_x, x, x + 8 * s_x]
    pts += list(quantile(law, np.array([1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9])))
    val, _ = quad(integrand, lo, hi, points=sorted(p for p in pts
                                                   if lo < p < hi),
                  epsabs=0.0, epsrel=1e-13, limit=1000)
    return val


@pytest.mark.parametrize("prd,p_r_dbm",
                         [(prd, dbm) for prd in (10.0, 25.0)
                          for dbm in (29.0, 31.0, 33.0, 35.0, 37.0)])
def test_lp3_threshold_is_where_the_densities_cross(prd, p_r_dbm):
    # PE'(th) = (f1 - f0)/2: the optimum equates the two bit densities
    law0, sp, dp = _cubic_law(prd=prd, p_r_dbm=p_r_dbm, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    th, _ = optimize_threshold(law0, law1)
    f0, f1 = lp3_pdf(law0, th), lp3_pdf(law1, th)
    assert abs(f1 - f0) <= 1e-9 * f1


@pytest.mark.parametrize("p_r_dbm,r_l", [c[:2] for c in ADAPTIVE_SEARCHES])
def test_shot_thermal_threshold_is_where_the_densities_cross(p_r_dbm, r_l):
    law0, law1, phys = _st_laws(p_r_dbm, r_l)
    th, _ = optimize_threshold(law0, law1, phys)
    f0, f1 = (_st_pdf_quad(law, th, phys) for law in (law0, law1))
    assert abs(f1 - f0) <= 1e-9 * f1


# --------------------------------------------------------------------------
# the law of one bit in the error probability
# --------------------------------------------------------------------------

def test_bit_conditioned_law_lp3():
    # F_b is the bare LP3 cdf of the bit's law, or the shot/thermal cdf
    # when noise physics is given
    law0, sp, dp = _cubic_law(bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    phys = noise_physics(sp, dp)
    for th in (-1.0, 0.0):
        assert error_probability(law0, law1, th) == 0.5
    th = quantile(law1, 0.4)
    want = 0.5 * (1.0 - lp3_cdf(law0, th)) + 0.5 * 0.4
    assert error_probability(law0, law1, th) == pytest.approx(want,
                                                              rel=1e-9)
    want = (0.5 * (1.0 - cdf_shot_thermal(law0, th, phys))
            + 0.5 * cdf_shot_thermal(law1, th, phys))
    assert error_probability(law0, law1, th, phys) == want


# --------------------------------------------------------------------------
# threshold optimization
# --------------------------------------------------------------------------

def test_error_probability_formula():
    # law1 is law0 scaled by 2 (gamma + log 2), so F1(th) = F0(th / 2); at
    # the 0.9 quantile of law0, PE = (1 - 0.9)/2 + F0(th / 2)/2
    law0 = Lp3Params(alpha=2.0, beta=0.5, gamma=0.0)
    law1 = Lp3Params(alpha=2.0, beta=0.5, gamma=math.log(2.0))
    th = quantile(law0, 0.9)
    want = 0.5 * (1.0 - 0.9) + 0.5 * lp3_cdf(law0, th / 2.0)
    assert 0.05 < want < 0.5
    assert error_probability(law0, law1, th) == pytest.approx(want,
                                                              rel=1e-9)


def test_optimize_threshold_beats_probes():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    th, pe = optimize_threshold(law0, law1)
    m0, m1 = moment(law0, 1), moment(law1, 1)
    assert 0.0 < pe < 0.5
    assert m0 < th < m1
    for t in np.geomspace(m0 / 10, m1 * 2, 100):
        assert pe <= error_probability(law0, law1, t) + 1e-12


def test_optimize_threshold_extremes_give_half():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    tiny = quantile(law0, 1e-12) * 1e-3
    huge = quantile(law1, 1 - 1e-12) * 1e3
    for th in (tiny, huge):
        assert error_probability(law0, law1, th) == pytest.approx(0.5,
                                                                  abs=1e-9)


def test_optimize_threshold_rejects_inverted_laws():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    with pytest.raises(BracketError):  # laws swapped on purpose
        optimize_threshold(law1, law0)


# --------------------------------------------------------------------------
# Gaussian baseline
# --------------------------------------------------------------------------

def test_gaussian_equal_variance_closed_form():
    th, pe = gaussian_approx_ber(0.0, 1.0, 2.0, 1.0)
    assert th == 1.0
    assert pe == pytest.approx(0.5 * math.erfc(1.0 / math.sqrt(2.0)),
                               rel=1e-15)
    assert pe == pytest.approx(0.15865525393145707, rel=1e-12)


def test_gaussian_unequal_variance_vs_brute_force():
    m0, v0, m1, v1 = 0.0, 1.0, 10.0, 4.0
    th, pe = gaussian_approx_ber(m0, v0, m1, v1)
    grid = np.linspace(m0, m1, 200_001)
    pes = (0.25 * sc.erfc((grid - m0) / math.sqrt(2 * v0))
           + 0.25 * sc.erfc((m1 - grid) / math.sqrt(2 * v1)))
    i = int(np.argmin(pes))
    assert th == pytest.approx(grid[i], rel=5e-5)
    assert pe <= pes[i] + 1e-15
    # the optimum equates the two densities
    d0 = math.exp(-(th - m0) ** 2 / (2 * v0)) / math.sqrt(v0)
    d1 = math.exp(-(th - m1) ** 2 / (2 * v1)) / math.sqrt(v1)
    assert d0 == pytest.approx(d1, rel=1e-9)


def test_gaussian_degenerate_and_domain():
    th, pe = gaussian_approx_ber(3.0, 1.0, 3.0, 2.0)
    assert (th, pe) == (3.0, 0.5)
    with pytest.raises(ParamError):
        gaussian_approx_ber(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ParamError):
        gaussian_approx_ber(0.0, 0.0, 1.0, 1.0)


def test_gaussian_threshold_between_means():
    for m0, v0, m1, v1 in [(0.0, 1.0, 5.0, 9.0), (1.0, 0.01, 2.0, 0.5),
                           (0.0, 4.0, 1.0, 0.09)]:
        th, pe = gaussian_approx_ber(m0, v0, m1, v1)
        assert m0 < th < m1
        assert 0.0 < pe < 0.5
