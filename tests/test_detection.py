"""Electrical noise folding, threshold optimization, Gaussian baseline."""

import math

import numpy as np
import pytest
import scipy.special as sc

from cubicber import (BitConditionedLaw, Lp3Params, NoisePhysics,
                      cdf_shot_thermal, derive, error_probability,
                      fit_from_moments, gaussian_approx_ber, noise_physics,
                      optimize_threshold)
from cubicber.detection import BracketError
from cubicber.lp3 import cdf as lp3_cdf
from cubicber.lp3 import moment, quantile
from cubicber.moments import decision_moments
from cubicber.params import K_BOLTZMANN, ParamError, Q_ELECTRON
from conftest import make_system


def _cubic_law(prd=10.0, p_r_dbm=35.0, bit=1):
    sp = make_system(prd=prd, p_r_dbm=p_r_dbm)
    dp = derive(sp)
    return fit_from_moments(decision_moments(sp, dp, bit)), sp, dp


# --------------------------------------------------------------------------
# NoisePhysics
# --------------------------------------------------------------------------

def test_noise_physics_variance_formula():
    phys = NoisePhysics(t_r=300.0, r_l=1000.0, t_p=1e-12)
    y = 3e-6
    want = (2 * Q_ELECTRON * y + 4 * K_BOLTZMANN * 300.0 / 1000.0) / 1e-12
    assert phys.variance_at(y) == pytest.approx(want, rel=1e-15)
    # negative levels contribute no shot term
    floor = 4 * K_BOLTZMANN * 300.0 / 1000.0 / 1e-12
    assert phys.variance_at(-1.0) == pytest.approx(floor, rel=1e-15)
    assert phys.variance_at(0.0) == pytest.approx(floor, rel=1e-15)


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


# --------------------------------------------------------------------------
# BitConditionedLaw
# --------------------------------------------------------------------------

def test_bit_conditioned_law_lp3():
    law, sp, dp = _cubic_law()
    f = BitConditionedLaw(bit=1, law=law)
    assert f.physics is None
    assert f.cdf(-1.0) == 0.0 and f.cdf(0.0) == 0.0
    assert f.cdf(quantile(law, 0.4)) == pytest.approx(0.4, rel=1e-9)
    assert f.mean() == pytest.approx(moment(law, 1), rel=1e-15)
    g = BitConditionedLaw(bit=1, law=law, physics=noise_physics(sp, dp))
    mid = quantile(law, 0.5)
    assert g.cdf(mid) == pytest.approx(cdf_shot_thermal(
        law, mid, noise_physics(sp, dp)), rel=1e-9)


def test_bit_conditioned_law_validation():
    law = Lp3Params(alpha=2.0, beta=0.1, gamma=0.0)
    with pytest.raises(ParamError):
        BitConditionedLaw(bit=3, law=law)
    with pytest.raises(ParamError):
        BitConditionedLaw(bit=0, law=[])
    with pytest.raises(ParamError):
        BitConditionedLaw(bit=0, law=[1.0, 2.0], physics=NoisePhysics())


# --------------------------------------------------------------------------
# threshold optimization
# --------------------------------------------------------------------------

def test_error_probability_formula():
    # law1 is law0 scaled by 2 (gamma + log 2), so F1(th) = F0(th / 2); at
    # the 0.9 quantile of law0, PE = (1 - 0.9)/2 + F0(th / 2)/2
    law0 = Lp3Params(alpha=2.0, beta=0.5, gamma=0.0)
    law1 = Lp3Params(alpha=2.0, beta=0.5, gamma=math.log(2.0))
    f0 = BitConditionedLaw(bit=0, law=law0)
    f1 = BitConditionedLaw(bit=1, law=law1)
    th = quantile(law0, 0.9)
    want = 0.5 * (1.0 - 0.9) + 0.5 * lp3_cdf(law0, th / 2.0)
    assert 0.05 < want < 0.5
    assert error_probability(f0, f1, th) == pytest.approx(want, rel=1e-9)


def test_optimize_threshold_beats_probes():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    f0 = BitConditionedLaw(bit=0, law=law0)
    f1 = BitConditionedLaw(bit=1, law=law1)
    th, pe = optimize_threshold(f0, f1)
    assert 0.0 < pe < 0.5
    assert f0.mean() < th < f1.mean()
    for t in np.geomspace(f0.mean() / 10, f1.mean() * 2, 100):
        assert pe <= error_probability(f0, f1, t) + 1e-12


def test_optimize_threshold_extremes_give_half():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    f0 = BitConditionedLaw(bit=0, law=law0)
    f1 = BitConditionedLaw(bit=1, law=law1)
    tiny = quantile(law0, 1e-12) * 1e-3
    huge = quantile(law1, 1 - 1e-12) * 1e3
    assert error_probability(f0, f1, tiny) == pytest.approx(0.5, abs=1e-9)
    assert error_probability(f0, f1, huge) == pytest.approx(0.5, abs=1e-9)


def test_optimize_threshold_rejects_inverted_laws():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    f0 = BitConditionedLaw(bit=0, law=law1)  # swapped on purpose
    f1 = BitConditionedLaw(bit=1, law=law0)
    with pytest.raises(BracketError):
        optimize_threshold(f0, f1, search=(f1.mean() / 100, f0.mean() * 10))


def test_optimize_threshold_bad_bracket():
    law, sp, dp = _cubic_law()
    f = BitConditionedLaw(bit=1, law=law)
    with pytest.raises(BracketError):
        optimize_threshold(f, f, search=(2.0, 1.0))


def test_optimize_threshold_custom_search_matches_default():
    law0, sp, dp = _cubic_law(p_r_dbm=35.0, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    f0 = BitConditionedLaw(bit=0, law=law0)
    f1 = BitConditionedLaw(bit=1, law=law1)
    th_a, pe_a = optimize_threshold(f0, f1)
    th_b, pe_b = optimize_threshold(f0, f1, search=(f0.mean() / 50,
                                                    f1.mean() * 5))
    assert th_b == pytest.approx(th_a, rel=1e-6)
    assert pe_b == pytest.approx(pe_a, rel=1e-9)


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
