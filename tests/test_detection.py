"""Electrical noise folding, threshold optimization, Gaussian baseline."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from dataclasses import replace

from cubicber import (Lp3Params, NormalLaw, ShotThermalLaw,
                      cdf_shot_thermal, derive, empirical_ber,
                      error_probability, fit_from_moments, generate_samples,
                      optimize_threshold)
from cubicber import detection, lp3
from cubicber.detection import BracketError, QuadratureError
from cubicber.lp3 import cdf as lp3_cdf
from cubicber.lp3 import moment, quantile
from cubicber.moments import decision_moments
from cubicber.montecarlo import sample_moments
from cubicber.params import K_BOLTZMANN, ParamError, Q_ELECTRON
from conftest import lp3_pdf, make_system


def _cubic_law(prd=10.0, p_r_dbm=35.0, bit=1):
    sp = make_system(prd=prd, p_r_dbm=p_r_dbm)
    dp = derive(sp)
    return fit_from_moments(decision_moments(sp, dp, bit)), sp, dp


# --------------------------------------------------------------------------
# shot/thermal noise terms
# --------------------------------------------------------------------------

def test_noise_physics_variance_formula():
    # Y within ~5e-6 relative of y0, so Y + N is close to Normal(y0,
    # sigma^2(y0)) with sigma^2(y) = (2 q_e y + 4 k_B T_r / R_L) / T_p;
    # thermal noise dominates at 3 uA, shot noise at 1 mA
    for y0, prd in ((3e-6, 10.0), (1e-3, 50.0)):
        law = Lp3Params(alpha=1e12, beta=1e-12, gamma=math.log(y0) - 1.0)
        dp = derive(make_system(prd=prd, t_r=300.0, r_l=1000.0))
        st = ShotThermalLaw(law, dp)
        s = math.sqrt((2 * Q_ELECTRON * y0
                       + 4 * K_BOLTZMANN * 300.0 / 1000.0) / dp.t_p)
        for k in (-2.0, -0.5, 0.0, 1.0, 3.0):
            want = 0.5 * math.erfc(-k / math.sqrt(2.0))
            assert cdf_shot_thermal(st, y0 + k * s) == pytest.approx(
                want, abs=1e-8)


def test_noise_physics_validation():
    # a hand-built DerivedParams is not validated: the law checks the two
    # terms of sigma^2(y) that it reads
    law, _, dp = _cubic_law()
    for bad in (0.0, -1e-9, math.nan, math.inf):
        for term in ("qe_tp", "thermal_var"):
            with pytest.raises(ParamError, match="must be > 0"):
                ShotThermalLaw(law, replace(dp, **{term: bad}))


def test_noise_physics_from_system():
    # derive's detector scale, shot term and thermal variance: their
    # formulas, in their operation order
    sp = make_system(prd=25.0, r_l=10_000.0, t_r=77.0)
    dp = derive(sp)
    assert dp.t_p == 25.0 * sp.tau_c
    assert dp.cubic_scale == dp.responsivity * sp.k * sp.gamma_nl**2
    assert dp.qe_tp == Q_ELECTRON / dp.t_p
    assert dp.thermal_var == 4.0 * K_BOLTZMANN * 77.0 / (10_000.0 * dp.t_p)


# --------------------------------------------------------------------------
# shot/thermal cdf
# --------------------------------------------------------------------------

def test_cdf_shot_thermal_degenerate_noise_limit():
    # scaling sigma^2(y), which goes as 1/T_p = 1/(PRD tau_c), to nothing
    # must reproduce the bare LP3 law
    law, sp, dp = _cubic_law()
    tiny = derive(replace(sp, tau_c=sp.tau_c * 1e12))
    for prob in np.linspace(0.05, 0.95, 10):
        x = quantile(law, prob)
        assert cdf_shot_thermal(ShotThermalLaw(law, tiny), x) == \
            pytest.approx(float(lp3_cdf(law, x)), abs=1e-6, rel=1e-6)


def test_cdf_shot_thermal_monotone_and_saturates():
    law, sp, dp = _cubic_law()
    st = ShotThermalLaw(law, dp)
    xs = np.geomspace(quantile(law, 1e-3) * 0.1, quantile(law, 1 - 1e-6) * 3,
                      25)
    vals = [cdf_shot_thermal(st, x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    far = quantile(law, 1 - 1e-9) * 10
    assert cdf_shot_thermal(st, far) == pytest.approx(1.0, abs=1e-9)


def test_cdf_shot_thermal_widens_the_law():
    # extra electrical noise moves mass outward: below the mean the folded
    # cdf exceeds the bare one
    law, sp, dp = _cubic_law(p_r_dbm=33.0)
    st = ShotThermalLaw(law, derive(replace(sp, r_l=100.0)))  # strong thermal
    lo = quantile(law, 0.01)
    assert cdf_shot_thermal(st, lo) > float(lp3_cdf(law, lo))
    hi = quantile(law, 0.99)
    assert cdf_shot_thermal(st, hi) < float(lp3_cdf(law, hi))


def test_cdf_shot_thermal_against_sampling_oracle():
    # direct simulation of Y + N(0, sigma^2(Y)): empirical cdf within
    # Monte Carlo error of the quadrature result
    law, sp, _ = _cubic_law(prd=10.0, p_r_dbm=35.0)
    dp = derive(replace(sp, r_l=100.0))
    n = 400_000
    rng = np.random.default_rng(321)
    g = rng.gamma(law.alpha, size=n)
    y = np.exp(law.gamma + law.beta * g)
    sig = np.sqrt((2 * Q_ELECTRON * y + 4 * K_BOLTZMANN * sp.t_r / 100.0)
                  / dp.t_p)
    x = y + sig * rng.standard_normal(n)
    x.sort()
    for prob in (0.1, 0.3, 0.5, 0.7, 0.9):
        q = x[int(prob * n)]
        se = math.sqrt(prob * (1 - prob) / n)
        assert cdf_shot_thermal(ShotThermalLaw(law, dp), q) == \
            pytest.approx(prob, abs=4 * se)


def _st_laws(p_r_dbm=37.0, r_l=1000.0):
    # the shot/thermal laws of bits 0 and 1
    sp = make_system(prd=10.0, p_r_dbm=p_r_dbm, r_l=r_l)
    dp = derive(sp)
    return tuple(ShotThermalLaw(fit_from_moments(decision_moments(sp, dp, b)),
                                dp) for b in (0, 1))


def _st_quad(st, x):
    # independent reference: adaptive quadrature of the cdf rewritten by
    # parts, the integral of (-u'(y)) F_Y(y) with u(y) = P{N <= x - y | y}
    # plus the tail above the cut, with scipy's incomplete gamma for F_Y;
    # cdf_shot_thermal integrates the conditional form instead
    law, dp = st.clean, st.dp
    qe_tp, th_tp = dp.qe_tp, dp.thermal_var

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
    st0, st1 = _st_laws()
    grid = np.geomspace(moment(st0.clean, 1) / 100.0,
                        moment(st1.clean, 1) * 10.0, 256)
    for st in (st0, st1):
        got = cdf_shot_thermal(st, grid)
        assert got.shape == grid.shape
        want = [_st_quad(st, x) for x in grid]
        assert np.abs(got - want).max() <= 1e-12
        # a scalar threshold runs the same panels
        for i in (0, 128, 255):
            assert cdf_shot_thermal(st, grid[i]) == got[i]


@pytest.mark.parametrize("prd,p_r_dbm",
                         [(10.0, 33.0), (10.0, 37.0), (25.0, 35.0)])
def test_cdf_shot_thermal_derivative_is_the_density(prd, p_r_dbm):
    # the cdf and the density integrate the same law against the
    # conditional Gaussian cdf and density, so one is the other's derivative
    law0, sp, dp = _cubic_law(prd=prd, p_r_dbm=p_r_dbm, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    for law in (law0, law1):
        st = ShotThermalLaw(law, dp)
        x = quantile(law, np.array([0.05, 0.25, 0.5, 0.75, 0.95]))
        h = 1e-4 * x
        slope = (cdf_shot_thermal(st, x + h)
                 - cdf_shot_thermal(st, x - h)) / (2.0 * h)
        dens = np.exp(st.logpdf(x))
        assert np.abs(slope / dens - 1.0).max() <= 1e-6


def test_cdf_shot_thermal_takes_one_lp3_cdf_per_block(monkeypatch):
    # the law enters the panels through its density only: no incomplete
    # gamma per node, and one lp3.cdf call per 16-threshold block for the
    # mass below each threshold's panels
    calls = []
    real = lp3.cdf

    def counting(law, y):
        calls.append(np.size(y))
        return real(law, y)

    monkeypatch.setattr(lp3, "cdf", counting)
    for st in _st_laws():
        calls.clear()
        got = cdf_shot_thermal(st, np.geomspace(1e-7, 1e-4, 32))
        assert ((got >= 0.0) & (got <= 1.0)).all()
        assert calls == [16, 16]


def test_cdf_shot_thermal_rejects_nonfinite_thresholds():
    st0, _ = _st_laws()
    for bad in (math.nan, math.inf):
        with pytest.raises(ParamError):
            cdf_shot_thermal(st0, np.array([1e-6, bad]))


def test_cdf_shot_thermal_error_gate(monkeypatch):
    # one panel edge besides the kernel centre: far too coarse, and the
    # Kronrod-Gauss difference says so
    _, st1 = _st_laws()
    monkeypatch.setattr(detection, "_EDGE_PROBS", np.array([0.5]))
    monkeypatch.setattr(detection, "_KERNEL_W", np.array([0.0]))
    with pytest.raises(QuadratureError):
        cdf_shot_thermal(st1, moment(st1.clean, 1))


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
    # host-independent cost guard: the search bisects on densities, so a
    # tail quadrature runs once per bit, sf for bit 0 and cdf for bit 1, on
    # the crossings and the two ends; a law computes its panel cuts once,
    # for the ~100 density calls and its tail call alike
    tails = []
    real = detection._shot_thermal

    def counting(law, x, kind):
        if kind != "pdf":
            tails.append((law, kind, np.size(x)))
        return real(law, x, kind)

    quantiles = []
    real_quantile = lp3.quantile

    def counting_quantile(law, p):
        quantiles.append(law)
        return real_quantile(law, p)

    monkeypatch.setattr(detection, "_shot_thermal", counting)
    monkeypatch.setattr(lp3, "quantile", counting_quantile)
    st0, st1 = _st_laws()
    optimize_threshold(st0, st1)
    assert [t[:2] for t in tails] == [(st0, "sf"), (st1, "cdf")]
    assert tails[0][2] == tails[1][2] >= 3
    assert len(quantiles) == 2 and {*quantiles} == {st0.clean, st1.clean}


def _st_pdf_quad(st, x):
    # independent reference: adaptive quadrature of the density of Y + N,
    # the integral of f_Y(y) phi(x; y, sigma^2(y)), with the LP3 density
    # of conftest
    law, dp = st.clean, st.dp
    qe_tp, th_tp = dp.qe_tp, dp.thermal_var

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
    st0, st1 = _st_laws(p_r_dbm, r_l)
    th, _ = optimize_threshold(st0, st1)
    f0, f1 = (_st_pdf_quad(st, th) for st in (st0, st1))
    assert abs(f1 - f0) <= 1e-9 * f1


# --------------------------------------------------------------------------
# the law of one bit in the error probability
# --------------------------------------------------------------------------

@pytest.mark.parametrize("law", [
    Lp3Params(alpha=2.0, beta=0.5, gamma=0.0),
    Lp3Params(alpha=30.0, beta=-0.05, gamma=1.0),
    _cubic_law(bit=0)[0],
    _cubic_law(bit=1)[0]])
def test_lp3_law_methods_are_the_module_functions(law):
    # the law interface of Lp3Params adds nothing to lp3's functions: the
    # same bits on scalars and arrays, inside and outside the support
    ys = np.concatenate([[-1.0, 0.0], quantile(law, np.array(
        [1e-12, 1e-3, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9])), [1e300]])
    for y in [*ys, ys, ys.reshape(2, -1)]:
        for got, want in ((law.cdf(y), lp3.cdf(law, y)),
                          (law.sf(y), lp3.sf(law, y)),
                          (law.logpdf(y), lp3.logpdf(law, y))):
            assert type(got) is type(want)
            assert np.array_equal(got, want)
    assert law.mean() == moment(law, 1)


def test_shot_thermal_law_methods():
    # cdf is cdf_shot_thermal, logpdf the log of the density that the
    # search bisects on, sf the complement of cdf, mean the clean law's:
    # noise N has mean 0
    st0, st1 = _st_laws()
    xs = np.geomspace(st0.mean(), st1.mean(), 7)
    assert np.array_equal(st1.cdf(xs), cdf_shot_thermal(st1, xs))
    assert st1.cdf(xs[3]) == cdf_shot_thermal(st1, xs[3])
    assert np.array_equal(st1.logpdf(xs),
                          np.log(detection._shot_thermal(st1, xs, "pdf")))
    assert st1.sf(xs[3]) == st1.sf(xs)[3]
    # both leave out the clean law's mass below its lower cut, 1e-14
    assert np.abs(st1.sf(xs) + st1.cdf(xs) - 1.0).max() <= 2e-14
    assert st1.mean() == moment(st1.clean, 1)


def test_bit_conditioned_law_lp3():
    # PE takes bit 0's tail from its law's sf, never as 1 - cdf: the LP3
    # kernel's other output, or the shot/thermal integral of the
    # complementary conditional cdf
    law0, sp, dp = _cubic_law(bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    st0, st1 = (ShotThermalLaw(law, dp)
                for law in (law0, law1))
    for th in (-1.0, 0.0):
        assert error_probability(law0, law1, th) == 0.5
    th = quantile(law1, 0.4)
    want = 0.5 * lp3.sf(law0, th) + 0.5 * 0.4
    assert error_probability(law0, law1, th) == pytest.approx(want,
                                                              rel=1e-9)
    assert error_probability(law0, law1, th) == \
        0.5 * lp3.sf(law0, th) + 0.5 * lp3_cdf(law1, th)
    want = 0.5 * st0.sf(th) + 0.5 * cdf_shot_thermal(st1, th)
    assert error_probability(st0, st1, th) == want


def _mp_lp3_tail(law, th, upper):
    # P{Y <= th}, or P{Y > th} if upper, at 40 digits: the regularized
    # incomplete gamma of z = (ln th - gamma)/beta, on the side that the
    # sign of beta sets
    with mpmath.workdps(40):
        z = (mpmath.log(th) - law.gamma) / law.beta
        if (law.beta > 0) != upper:
            return mpmath.gammainc(law.alpha, 0, z, regularized=True)
        return mpmath.gammainc(law.alpha, z, mpmath.inf, regularized=True)


@pytest.mark.parametrize("prd", [10.0, 25.0])
@pytest.mark.parametrize("p_r_dbm", [37.0, 39.0, 41.0, 43.0, 45.0])
def test_lp3_pe_keeps_its_digits_at_low_ber(prd, p_r_dbm):
    # PE down to ~1e-24 at the search's own threshold: 1 - cdf of bit 0
    # was 2.4e-7 off at 41 dBm and 62% off at 45 dBm (PRD 10)
    law0, sp, dp = _cubic_law(prd=prd, p_r_dbm=p_r_dbm, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    th, pe = optimize_threshold(law0, law1)
    want = 0.5 * _mp_lp3_tail(law0, th, True) + 0.5 * _mp_lp3_tail(
        law1, th, False)
    assert abs(pe / float(want) - 1.0) <= 1e-10


def _mp_st(st, x, kind):
    # P{Y + N > x} (kind "sf"), P{Y + N <= x} ("cdf") or the density of Y +
    # N at x ("pdf"), at 40 digits, integrated in the gamma variable g of
    # the clean law, Y = exp(gamma + beta g): the conditional kernel at
    # y(g) times the gamma density of g, split at the kernel's steps around
    # x and at the gamma law's bulk
    law = st.clean
    with mpmath.workdps(40):
        a, b, g0 = (mpmath.mpf(v) for v in (law.alpha, law.beta, law.gamma))
        qe_tp, th_tp = mpmath.mpf(st.dp.qe_tp), mpmath.mpf(st.dp.thermal_var)
        lg = mpmath.loggamma(a)

        def kernel(y):
            s = mpmath.sqrt(2 * qe_tp * y + th_tp)
            if kind == "pdf":
                return mpmath.npdf(x, y, s)
            return mpmath.ncdf((y - x) / s if kind == "sf" else (x - y) / s)

        def integrand(g):
            return kernel(mpmath.exp(g0 + b * g)) * mpmath.exp(
                (a - 1) * mpmath.log(g) - g - lg)

        gx = (mpmath.log(x) - g0) / b
        w = mpmath.sqrt(2 * qe_tp * x + th_tp) / (x * abs(b))
        pts = [gx + k * w for k in range(-40, 41, 4)]
        pts += [a + k * mpmath.sqrt(a) for k in range(-8, 60, 2)]
        return mpmath.quad(integrand, sorted({mpmath.mpf(0), *(
            p for p in pts if p > 0)}) + [mpmath.inf])


@pytest.mark.parametrize("prd", [10.0, 25.0])
@pytest.mark.parametrize("p_r_dbm", [37.0, 41.0, 43.0])
def test_shot_thermal_bit0_tail_keeps_its_digits(prd, p_r_dbm):
    # 1 - cdf was 1.2e-4 off at 41 dBm and 430x off at 43 dBm (PRD 10)
    law0, sp, dp = _cubic_law(prd=prd, p_r_dbm=p_r_dbm, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    st0, st1 = (ShotThermalLaw(law, dp)
                for law in (law0, law1))
    th, _ = optimize_threshold(st0, st1)
    assert abs(st0.sf(th) / float(_mp_st(st0, th, "sf")) - 1.0) <= 1e-10


@pytest.mark.parametrize("prd", [10.0, 25.0])
@pytest.mark.parametrize("p_r_dbm", [41.0, 43.0, 45.0])
def test_shot_thermal_bit1_cdf_and_density_keep_their_digits(prd, p_r_dbm):
    # at the search's threshold, which lies below the clean bit-1 law's
    # 1e-14 quantile from 43 dBm on: panels that started at that quantile
    # put the cdf 1.4e-4 off at 41 dBm and 100% off at 43 and 45 dBm (PRD
    # 10). Both agree to 2e-14; 1e-10 is the bit-0 tail's bound.
    law0, sp, dp = _cubic_law(prd=prd, p_r_dbm=p_r_dbm, bit=0)
    law1 = fit_from_moments(decision_moments(sp, dp, 1))
    st0, st1 = (ShotThermalLaw(law, dp)
                for law in (law0, law1))
    th, _ = optimize_threshold(st0, st1)
    assert abs(st1.cdf(th) / float(_mp_st(st1, th, "cdf")) - 1.0) <= 1e-10
    dens = math.exp(st1.logpdf(th))
    assert abs(dens / float(_mp_st(st1, th, "pdf")) - 1.0) <= 1e-10


def _prd1_laws(prd, r_l):
    # 37 dBm: bit 0's clean law at PRD 1 (alpha 13.5, beta -0.76) spans 21
    # decades, where the fixed panels failed the error estimate
    sp = make_system(prd=prd, p_r_dbm=37.0, r_l=r_l)
    dp = derive(sp)
    return [ShotThermalLaw(fit_from_moments(decision_moments(sp, dp, b)), dp)
            for b in (0, 1)]


@pytest.mark.parametrize("r_l", [100.0, 1000.0, 10000.0])
@pytest.mark.parametrize("prd", [1.0, 1.05, 1.1])
def test_shot_thermal_search_runs_at_prd_1(prd, r_l):
    th, pe = optimize_threshold(*_prd1_laws(prd, r_l))
    assert 0.0 < th and 1e-5 < pe < 1e-4


@pytest.mark.parametrize("r_l", [100.0, 1000.0, 10000.0])
def test_shot_thermal_split_panels_keep_their_digits(r_l):
    # the failing thresholds are integrated again on split panels; at the
    # search's threshold bit 0's sf and both cdfs agree to 4.4e-14
    st0, st1 = _prd1_laws(1.0, r_l)
    th, _ = optimize_threshold(st0, st1)
    for st, kind in ((st0, "sf"), (st0, "cdf"), (st1, "cdf")):
        got = getattr(st, kind)(th)
        assert abs(got / float(_mp_st(st, th, kind)) - 1.0) <= 1e-12


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
# Gaussian baseline: NormalLaw
# --------------------------------------------------------------------------

def _two_gaussian_root(m0, v0, m1, v1):
    # oracle: PE is stationary where the two normal densities are equal, a
    # quadratic in th for unequal variances and the midpoint for equal
    # ones; of the two roots the one with the smaller PE
    if v0 == v1:
        return 0.5 * (m0 + m1)
    qa = 1.0 / v0 - 1.0 / v1
    qb = -2.0 * (m0 / v0 - m1 / v1)
    qc = m0 * m0 / v0 - m1 * m1 / v1 + math.log(v0 / v1)
    rt = math.sqrt(qb * qb - 4.0 * qa * qc)
    return min(((-qb - rt) / (2.0 * qa), (-qb + rt) / (2.0 * qa)),
               key=lambda t: _two_gaussian_pe(m0, v0, m1, v1, t))


def _two_gaussian_pe(m0, v0, m1, v1, th):
    return 0.25 * (sc.erfc((th - m0) / math.sqrt(2 * v0))
                   + sc.erfc((m1 - th) / math.sqrt(2 * v1)))


GAUSS_CASES = [(0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 10.0, 4.0),
               (0.0, 1.0, 5.0, 9.0), (1.0, 0.01, 2.0, 0.5),
               (0.0, 4.0, 1.0, 0.09),
               (0.0, 1.0, 20.0, 1.0)]  # PE 7.6e-24: no 1 - cdf holds it


@pytest.mark.parametrize("m0,v0,m1,v1", GAUSS_CASES)
def test_normal_law_search_matches_the_two_gaussian_root(m0, v0, m1, v1):
    th, pe = optimize_threshold(NormalLaw(m0, v0), NormalLaw(m1, v1))
    want = _two_gaussian_root(m0, v0, m1, v1)
    assert m0 < th < m1
    assert th == pytest.approx(want, rel=1e-13, abs=0.0)
    assert pe == pytest.approx(_two_gaussian_pe(m0, v0, m1, v1, want),
                               rel=1e-13, abs=0.0)
    assert 0.0 < pe < 0.5


def test_normal_law_equal_variance_value():
    th, pe = optimize_threshold(NormalLaw(0.0, 1.0), NormalLaw(2.0, 1.0))
    assert th == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert pe == pytest.approx(0.15865525393145707, rel=1e-12, abs=0.0)


def test_normal_law_unequal_variance_vs_brute_force():
    m0, v0, m1, v1 = 0.0, 1.0, 10.0, 4.0
    th, pe = optimize_threshold(NormalLaw(m0, v0), NormalLaw(m1, v1))
    grid = np.linspace(m0, m1, 200_001)
    pes = _two_gaussian_pe(m0, v0, m1, v1, grid)
    i = int(np.argmin(pes))
    assert th == pytest.approx(grid[i], rel=5e-5)
    assert pe <= pes[i] + 1e-15
    # the optimum equates the two densities
    d0 = math.exp(-(th - m0) ** 2 / (2 * v0)) / math.sqrt(v0)
    d1 = math.exp(-(th - m1) ** 2 / (2 * v1)) / math.sqrt(v1)
    assert d0 == pytest.approx(d1, rel=1e-9)


def test_normal_law_methods():
    law = NormalLaw(3.0, 4.0)
    xs = np.array([-200.0, -5.0, 0.0, 3.0, 4.5, 11.0, 40.0, 90.0])
    z = (xs - 3.0) / 2.0
    assert np.allclose(law.cdf(xs), sc.ndtr(z), rtol=1e-14, atol=0.0)
    # the upper tail is its own function: 1 - cdf would round it to 0
    assert np.allclose(law.sf(xs), sc.ndtr(-z), rtol=1e-14, atol=0.0)
    assert law.sf(40.0) > 0.0 and law.cdf(40.0) == 1.0
    assert np.allclose(law.logpdf(xs),
                       -0.5 * z * z - math.log(2.0 * math.sqrt(2.0 * math.pi)),
                       rtol=1e-14, atol=0.0)
    assert law.mean() == 3.0
    for v in (0.0, -1.0, math.nan):
        with pytest.raises(ParamError, match="variances must be > 0"):
            NormalLaw(0.0, v)


def test_normal_law_inverted_means_raise():
    with pytest.raises(BracketError):
        optimize_threshold(NormalLaw(1.0, 1.0), NormalLaw(0.0, 1.0))


# --------------------------------------------------------------------------
# the ASE-only variants do not depend on the detector scale: Y -> cY leaves
# PE unchanged and moves th_opt to c th_opt, so order 2's placeholder scale
# cannot enter an lp3 or gauss_approx row
# --------------------------------------------------------------------------

def _ase_only_results(moments):
    """(th_opt, PE) of the LP3 and of the Gaussian pair of both bits'
    raw moments."""
    lp3_pair = [fit_from_moments(m) for m in moments]
    gauss_pair = [NormalLaw(m[0], m[1] - m[0] ** 2) for m in moments]
    return optimize_threshold(*lp3_pair), optimize_threshold(*gauss_pair)


def _assert_scaled(got, ref, c, lp3_pe, th, gauss_pe):
    (th_l, pe_l), (th_g, pe_g) = got
    (ref_th_l, ref_pe_l), (ref_th_g, ref_pe_g) = ref
    assert pe_l == pytest.approx(ref_pe_l, rel=lp3_pe, abs=0.0)
    assert th_l / c == pytest.approx(ref_th_l, rel=th, abs=0.0)
    assert pe_g == pytest.approx(ref_pe_g, rel=gauss_pe, abs=0.0)
    assert th_g / c == pytest.approx(ref_th_g, rel=th, abs=0.0)


@pytest.mark.parametrize("c", [1e3, 1e-3])
def test_ase_only_variants_ignore_the_cubic_scale(c):
    # order 3, closed-form moments; measured over this grid: LP3 PE within
    # 4.6e-12 relative, th_opt / c within 1.9e-13, Gaussian PE within
    # 8.9e-16
    for prd in (10.0, 25.0, 100.0):
        for p_r_dbm in (29.0, 33.0, 37.0, 41.0):
            sp = make_system(prd=prd, p_r_dbm=p_r_dbm)
            dp = derive(sp)
            scaled = replace(dp, cubic_scale=c * dp.cubic_scale)
            ref, got = (_ase_only_results([decision_moments(sp, d, bit)
                                           for bit in (0, 1)])
                        for d in (dp, scaled))
            _assert_scaled(got, ref, c, lp3_pe=1e-10, th=1e-12,
                           gauss_pe=1e-13)


def test_ase_only_variants_ignore_the_responsivity():
    # orders 1 and 2 take their moments from samples, drawn with the
    # scaled responsivity; measured at c = 1e3 and 1e-3: LP3 PE within
    # 2.7e-13 relative, th_opt / c within 2.2e-14, Gaussian PE within
    # 1.9e-14, and empirical_ber's PE identical
    for p_r_dbm in (31.0, 35.0):
        sp = make_system(prd=10.0, p_r_dbm=p_r_dbm)
        dp = derive(sp)

        def draw(d):
            return [generate_samples(sp, d, bit, 20_000, orders=(1, 2),
                                     seed=3) for bit in (0, 1)]

        ref_sets = draw(dp)
        for c in (1e3, 1e-3):
            sets = draw(replace(dp, responsivity=c * dp.responsivity))
            for order in (1, 2):
                ref, got = (_ase_only_results(
                    [sample_moments(s[order].values)[0] for s in pair])
                    for pair in (ref_sets, sets))
                _assert_scaled(got, ref, c, lp3_pe=1e-10, th=1e-12,
                               gauss_pe=1e-13)
                assert (empirical_ber(*(s[order] for s in sets))[1]
                        == empirical_ber(*(s[order] for s in ref_sets))[1])


# --------------------------------------------------------------------------
# searches of law lists: every pair as its own search, bit for bit
# --------------------------------------------------------------------------

STACK_DBMS = tuple(range(29, 47, 2))


@pytest.fixture(scope="module")
def sweep_pairs():
    """{variant: [(law0, law1)]} of PRD 10/25/100 x 29-45 dBm x orders 1-3,
    and of PRD 10, order 3 at 60 dBm, whose LP3 densities do not cross.

    Order 3 takes the closed-form moments. The package has no closed form
    for orders 1 and 2, so they take sample moments of the draw whose bytes
    test_frozen_bits.SAMPLE_DIGESTS pins (2048 trials from trial 100, seed
    11), as the sweep's rows of those orders do."""
    pairs = {"lp3": [], "gauss_approx": []}

    def add(mus):
        pairs["lp3"].append([fit_from_moments(m) for m in mus])
        pairs["gauss_approx"].append([NormalLaw(m[0], m[1] - m[0] ** 2)
                                      for m in mus])

    for prd in (10.0, 25.0, 100.0):
        sps = [make_system(prd=prd, p_r_dbm=dbm) for dbm in STACK_DBMS]
        dp = derive(sps[0])
        sets0 = generate_samples(sps[0], dp, 0, 2048, orders=(1, 2),
                                 seed=11, start_trial=100)
        sets1 = generate_samples(sps[0], dp, 1, 2048, orders=(1, 2),
                                 seed=11, start_trial=100,
                                 powers=[sp.p_r for sp in sps])
        for sp, s1 in zip(sps, sets1):
            for order in (1, 2):
                add([sample_moments(s[order].values)[0]
                     for s in (sets0, s1)])
            add([decision_moments(sp, derive(sp), b) for b in (0, 1)])
    sp = make_system(prd=10.0, p_r_dbm=60.0)
    add([decision_moments(sp, derive(sp), b) for b in (0, 1)])
    return pairs


# shape above 1e8 (the asymptotic kernel), both signs of beta: ln Y shifts
# by 5 standard deviations from bit 0 to bit 1
HUGE_SHAPE_PAIRS = [
    [Lp3Params(4e8, 5e-6, -2000.0), Lp3Params(4e8, 5e-6, -1999.5)],
    [Lp3Params(4e8, -5e-6, 2000.0), Lp3Params(4e8, -5e-6, 2000.5)],
]


def _outcome(law0, law1):
    try:
        return optimize_threshold(law0, law1)
    except Exception as exc:
        return exc


def _assert_stack_is_each_pair(pairs):
    # the outcomes of one call on the pairs' lists are the single searches'
    # (th_opt, PE) bit for bit, or their errors' type and message
    got = optimize_threshold(*([p[b] for p in pairs] for b in (0, 1)))
    assert len(got) == len(pairs)
    for g, pair in zip(got, pairs):
        want = _outcome(*pair)
        if isinstance(want, Exception):
            assert (type(g), str(g)) == (type(want), str(want))
        else:
            assert type(g) is tuple and g == want
    return got


@pytest.mark.parametrize("variant", ["lp3", "gauss_approx"])
def test_stacked_search_is_each_pair_bit_for_bit(sweep_pairs, variant,
                                                 monkeypatch):
    pairs = sweep_pairs[variant]
    if variant == "lp3":
        pairs = pairs + HUGE_SHAPE_PAIRS
        laws = [law for pair in pairs for law in pair]
        shapes = np.array([law.alpha for law in laws])
        betas = np.array([law.beta for law in laws])
        assert (shapes < 100).any() and (shapes > 1e8).any()
        assert ((shapes >= 100) & (shapes <= 1e8)).any()
        assert (betas > 0).any() and (betas < 0).any()

    def refuse(law0, law1):
        raise AssertionError("a stacked kernel raised")

    # these stacks run through without a pair searched again alone
    monkeypatch.setattr(detection, "_alone", refuse)
    got = _assert_stack_is_each_pair(pairs)
    failed = [str(g) for g in got if isinstance(g, Exception)]
    assert failed == (["the bit densities do not cross in the bracket"]
                      if variant == "lp3" else [])


def test_stacked_search_keeps_each_failing_pairs_error(sweep_pairs):
    # a law whose mean diverges raises in the stacked kernel, so the pairs
    # are searched again alone; an inverted and an empty bracket fail
    # without a kernel error
    lp3_pairs = sweep_pairs["lp3"][:12]
    _, swapped = _assert_stack_is_each_pair(
        [lp3_pairs[0], lp3_pairs[11][::-1]])  # PRD 10, 35 dBm, order 3
    assert isinstance(swapped, BracketError)
    got = _assert_stack_is_each_pair(
        [lp3_pairs[2], [lp3_pairs[3][0], Lp3Params(2.0, 1.5, 0.0)],
         lp3_pairs[3]])
    assert isinstance(got[1], lp3.DivergentMomentError)
    gauss = sweep_pairs["gauss_approx"][:2]
    got = _assert_stack_is_each_pair(
        [gauss[0], [NormalLaw(1.0, 1.0), NormalLaw(-1.0, 1.0)], gauss[1]])
    assert str(got[1]) == "invalid threshold bracket (0.01, -10.0)"


def test_a_mixed_list_is_each_pair_bit_for_bit(monkeypatch):
    # the LP3, Gaussian and shot/thermal pairs of PRD 10 at 33/35/37 dBm
    # and 100 ohm / 1 kohm, and one swapped pair of each kind, in one
    # shuffled call: only the shot/thermal pairs are searched alone
    pairs = []
    for dbm in (33.0, 35.0, 37.0):
        for r_l in (100.0, 1000.0):
            sp = make_system(prd=10.0, p_r_dbm=dbm, r_l=r_l)
            mus = [decision_moments(sp, derive(sp), b) for b in (0, 1)]
            lp3_pair = [fit_from_moments(m) for m in mus]
            pairs += [lp3_pair,
                      [NormalLaw(m[0], m[1] - m[0] ** 2) for m in mus],
                      [ShotThermalLaw(law, derive(sp)) for law in lp3_pair]]
    pairs += [pair[::-1] for pair in pairs[-3:]]
    order = np.random.default_rng(5).permutation(len(pairs))
    pairs = [pairs[i] for i in order]
    alone = []
    real = detection._alone

    def spy(law0, law1):
        alone.append(type(law0))
        return real(law0, law1)

    monkeypatch.setattr(detection, "_alone", spy)
    got = _assert_stack_is_each_pair(pairs)
    assert alone == [ShotThermalLaw] * 7
    failed = [type(g) for g in got if isinstance(g, Exception)]
    assert failed == [BracketError] * 3
    assert optimize_threshold([], []) == []
    with pytest.raises(ValueError):
        optimize_threshold(pairs[0][:1], pairs[0])
