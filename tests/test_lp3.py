"""Log-Pearson-III law: gamma kernels, cdf/quantile, three-moment fit."""

import math

import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from cubicber import Lp3Params, fit_from_moments
from cubicber.lp3 import (DivergentMomentError, Lp3Error, NoSolutionError,
                          _gamma_pq, cdf, logpdf, moment, quantile,
                          reg_gamma_p)
from conftest import lp3_pdf as pdf


def gamma_q(a, x):
    # the Q side of the package's incomplete-gamma kernel
    return _gamma_pq(a, x)[1]


# --------------------------------------------------------------------------
# regularized incomplete gamma
# --------------------------------------------------------------------------

# Reference values for the extreme-shape deep tails, where double-precision
# library routines are not trustworthy: 50-digit quadratures of the gamma
# density (test_frozen_extreme_references re-derives them).
FROZEN_EXTREME = [
    ("p", 5e7, 49_950_000.0, 7.5602850527274779e-13),
    ("p", 9.99e7, 99_800_100.0, 7.7518570002858812e-24),
    ("p", 1e10, 9_999_000_000.0, 7.5945012109770733e-24),
    ("p", 1e12, 999_990_000_000.0, 7.6173142106034659e-24),
    ("q", 1e10, 10_001_000_000.0, 7.6452856435125053e-24),
    ("q", 1e12, 1.00001e12, 7.6223926457786912e-24),
]


@pytest.mark.parametrize("kind,a,x,ref", FROZEN_EXTREME)
def test_reg_gamma_extreme_shape_tails(kind, a, x, ref):
    fn = reg_gamma_p if kind == "p" else gamma_q
    assert fn(a, x) == pytest.approx(ref, rel=2e-9)


def _mp_tail(mpmath, kind, a, x, layout):
    # P (kind "p") or Q of the gamma law at 50 digits, by quadrature of its
    # density: layout 0 in the standard score u = (t - a)/sqrt(a) with
    # knots at even u out to |u| = 60, layout 1 in t itself over 189
    # Gauss-Legendre panels of 0.37 sqrt(a) from x outward
    with mpmath.workdps(50):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        s, lg = mpmath.sqrt(a), mpmath.loggamma(a)
        sign = 1 if kind == "q" else -1
        if layout == 0:
            def density(u):
                t = a + u * s
                return s * mpmath.exp((a - 1) * mpmath.log(t) - t - lg)

            ux = (x - a) / s
            knots = [mpmath.mpf(k) for k in range(-60, 61, 2)
                     if sign * (k - ux) > 0]
            return mpmath.quad(density,
                               [ux] + knots if kind == "q" else knots + [ux])

        def density(t):
            return mpmath.exp((a - 1) * mpmath.log(t) - t - lg)

        edges = [x + sign * s * mpmath.mpf("0.37") * i for i in range(190)]
        return abs(mpmath.quad(density, edges, method="gauss-legendre"))


def test_frozen_extreme_references():
    mpmath = pytest.importorskip("mpmath")
    for kind, a, x, ref in FROZEN_EXTREME:
        for layout in (0, 1):
            val = float(_mp_tail(mpmath, kind, a, x, layout))
            assert ref == pytest.approx(val, rel=1e-15), (kind, a, layout)


def test_reg_gamma_matches_scipy_moderate_shape():
    # scipy is solid for a <= 1e6; both routines should agree closely there
    rng = np.random.default_rng(5)
    shapes = 10.0 ** rng.uniform(-3, 6, 60)
    ratios = np.array([0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0])
    for a in shapes:
        for r in ratios:
            x = a * r
            p_ref = sc.gammainc(a, x)
            q_ref = sc.gammaincc(a, x)
            if p_ref > 1e-280:
                assert reg_gamma_p(a, x) == pytest.approx(p_ref, rel=5e-11)
            if q_ref > 1e-280:
                assert gamma_q(a, x) == pytest.approx(q_ref, rel=5e-11)


def test_reg_gamma_matches_mpmath_spot():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a, x in [(0.5, 0.3), (3.0, 7.0), (50.0, 30.0), (1e4, 10200.0)]:
        p_ref = float(mpmath.gammainc(a, 0, x, regularized=True))
        q_ref = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert reg_gamma_p(a, x) == pytest.approx(p_ref, rel=1e-12)
        assert gamma_q(a, x) == pytest.approx(q_ref, rel=1e-12)


def test_reg_gamma_complement_identity():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-2, 7)
        x = a * rng.uniform(0.3, 3.0)
        assert reg_gamma_p(a, x) + gamma_q(a, x) == pytest.approx(
            1.0, abs=1e-14)


def test_reg_gamma_edges_and_domain():
    assert reg_gamma_p(3.0, 0.0) == 0.0
    assert gamma_q(3.0, 0.0) == 1.0
    assert reg_gamma_p(3.0, math.inf) == 1.0
    with pytest.raises(Lp3Error):
        reg_gamma_p(0.0, 1.0)
    with pytest.raises(Lp3Error):
        reg_gamma_p(2.0, -1.0)


def test_reg_gamma_vectorized_matches_scalar():
    xs = np.array([0.5, 2.0, 9.0, 30.0])
    vec = reg_gamma_p(4.0, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert v == reg_gamma_p(4.0, float(x))


def _mp_gamma_pq(mpmath, a, x):
    # (P, Q) at 40 digits. mpmath.gammainc for moderate shape; above 1e8 its
    # series stall, so there integrate the gamma density in the standard
    # score u = (t - a)/sqrt(a) over unit-scale panels.
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if a < 1e8:
        return (float(mpmath.gammainc(a, 0, x, regularized=True)),
                float(mpmath.gammainc(a, x, mpmath.inf, regularized=True)))
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    s, lg = mpmath.sqrt(a), mpmath.loggamma(a)

    def density(u):
        t = a + u * s
        return s * mpmath.exp((a - 1) * mpmath.log(t) - t - lg)

    ux = (x - a) / s
    knots = [mpmath.mpf(k) for k in range(-60, 61, 2)]
    return (float(mpmath.quad(density, [k for k in knots if k < ux] + [ux])),
            float(mpmath.quad(density, [ux] + [k for k in knots if k > ux])))


def test_reg_gamma_mixed_array_matches_mpmath_and_scalars():
    # one array per shape mixing x = 0, inf, series (x < a + 1) and
    # continued-fraction points, or asymptotic points above a = 1e8
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a in (0.5, 3.0, 50.0, 1e4, 1e10, 1e12):
        s = math.sqrt(a)
        xs = np.array([0.0, 0.2 * a, max(a - 7 * s, 0.5 * a), a, a + 0.5,
                       a + 1.0, a + s, a + 7 * s, 4 * a + 10, math.inf])
        p, q = reg_gamma_p(a, xs), gamma_q(a, xs)
        rel = 1e-12 if a < 1e8 else 2e-9
        for x, pv, qv in zip(xs, p, q):
            p_ref, q_ref = _mp_gamma_pq(mpmath, a, x)
            assert pv == pytest.approx(p_ref, rel=rel, abs=1e-300)
            assert qv == pytest.approx(q_ref, rel=rel, abs=1e-300)
            # a scalar call is the same kernel on a 1-element array
            assert reg_gamma_p(a, float(x)) == pv
            assert gamma_q(a, float(x)) == qv


def test_reg_gamma_array_errors(monkeypatch):
    xs = np.array([0.5, 2.0, 9.0])
    with pytest.raises(Lp3Error):
        reg_gamma_p(2.0, np.array([0.5, math.nan, 9.0]))
    with pytest.raises(Lp3Error):
        gamma_q(2.0, np.array([0.5, -1.0]))
    with pytest.raises(Lp3Error):
        reg_gamma_p(xs, 1.0)  # the shape is a scalar
    # no term or step can fall below a zero tolerance: both the series and
    # the continued fraction run out of iterations and say so
    monkeypatch.setattr("cubicber.lp3._EPS", 0.0)
    with pytest.raises(Lp3Error, match="series"):
        reg_gamma_p(4.0, xs[:2])
    with pytest.raises(Lp3Error, match="continued fraction"):
        reg_gamma_p(4.0, xs[2:])


# --------------------------------------------------------------------------
# parameter validation
# --------------------------------------------------------------------------

def test_param_validation():
    with pytest.raises(Lp3Error):
        Lp3Params(alpha=0.0, beta=0.1, gamma=0.0)
    with pytest.raises(Lp3Error):
        Lp3Params(alpha=1.0, beta=0.0, gamma=0.0)
    with pytest.raises(Lp3Error):
        Lp3Params(alpha=1.0, beta=math.inf, gamma=0.0)
    with pytest.raises(Lp3Error):
        Lp3Params(alpha=1.0, beta=0.1, gamma=math.nan)


# --------------------------------------------------------------------------
# cdf / quantile, and the density oracle of the tests
# --------------------------------------------------------------------------

CASES = [
    Lp3Params(alpha=2.5, beta=0.2, gamma=0.3),
    Lp3Params(alpha=4.0, beta=-0.25, gamma=-1.0),
    Lp3Params(alpha=0.7, beta=0.1, gamma=2.0),
    Lp3Params(alpha=50.0, beta=-0.02, gamma=1.0),
]


@pytest.mark.parametrize("p", CASES)
def test_cdf_monotone_and_limits(p):
    probs = np.linspace(0.001, 0.999, 40)
    ys = quantile(p, probs)
    vals = cdf(p, ys)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))
    # outside the support the cdf saturates; in the y -> 0 limit it
    # vanishes for both skew directions (for beta < 0 that is the far
    # upper tail of the standardized variable)
    edge = math.exp(p.gamma)
    if p.beta > 0:
        assert cdf(p, edge * 0.5) == 0.0
    else:
        assert cdf(p, edge * 2.0) == 1.0
    assert cdf(p, 1e-300) == pytest.approx(0.0, abs=1e-100)
    # Y > 0 surely: the cdf is 0 on y <= 0, on the scalar and array paths
    y = float(ys[20])
    assert cdf(p, 0.0) == 0.0 and cdf(p, -1.0) == 0.0
    assert np.array_equal(cdf(p, [-1.0, 0.0, y]), [0.0, 0.0, cdf(p, y)])
    with pytest.raises(Lp3Error):
        cdf(p, math.nan)
    with pytest.raises(Lp3Error):
        cdf(p, [1.0, math.nan])


@pytest.mark.parametrize("p", CASES)
def test_quantile_round_trip(p):
    probs = np.concatenate([[1e-6, 1e-4], np.linspace(0.01, 0.99, 21),
                            [1 - 1e-4, 1 - 1e-6]])
    ys = quantile(p, probs)
    assert np.all(np.diff(ys) > 0)  # quantile increases for either skew sign
    back = cdf(p, ys)
    assert back == pytest.approx(probs, rel=1e-9)


def test_quantile_domain():
    p = CASES[0]
    with pytest.raises(Lp3Error):
        quantile(p, 0.0)
    with pytest.raises(Lp3Error):
        quantile(p, 1.0)


@pytest.mark.parametrize("p", [CASES[0], CASES[1], CASES[3]])
def test_pdf_is_cdf_derivative(p):
    probs = np.linspace(0.05, 0.95, 19)
    for y in quantile(p, probs):
        h = 1e-6 * y
        num = (cdf(p, y + h) - cdf(p, y - h)) / (2 * h)
        assert pdf(p, y) == pytest.approx(num, rel=1e-6)


@pytest.mark.parametrize("p", [CASES[0], CASES[1], CASES[3]])
def test_pdf_integrates_to_one(p):
    lo, hi = sorted([quantile(p, 1e-12), quantile(p, 1 - 1e-12)])
    val, err = quad(lambda y: pdf(p, y), lo, hi,
                    points=list(quantile(p, np.array([0.1, 0.5, 0.9]))),
                    epsabs=1e-12, epsrel=1e-10, limit=400)
    assert val == pytest.approx(1.0, abs=5e-9)


def test_pdf_outside_support_and_boundary():
    # the oracle's edge cases; gamma = 0 puts the support edge at y = 1
    # exactly, so the z == 0 branch is reachable in floating point
    p = Lp3Params(alpha=2.5, beta=0.2, gamma=0.0)
    assert pdf(p, 0.9) == 0.0
    assert pdf(p, 1.0) == 0.0  # alpha > 1: density vanishes at the edge
    with pytest.raises(ValueError):
        pdf(p, 0.0)
    assert pdf(Lp3Params(alpha=0.7, beta=0.1, gamma=0.0), 1.0) == math.inf
    flat = Lp3Params(alpha=1.0, beta=0.5, gamma=0.0)
    assert pdf(flat, 1.0) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("p", CASES + [
    Lp3Params(alpha=323.0, beta=0.01, gamma=-15.0)])  # a bit-0-like law
def test_logpdf_matches_the_density_oracle(p):
    ys = quantile(p, np.array([1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9]))
    want = [math.log(pdf(p, y)) for y in ys]
    assert logpdf(p, ys) == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert logpdf(p, float(ys[3])) == pytest.approx(want[3], rel=1e-13)
    # off the support, at y <= 0 and at y = inf the log density is -inf
    off = math.exp(p.gamma) * (0.5 if p.beta > 0 else 2.0)
    assert np.all(logpdf(p, [off, 0.0, -1.0, math.inf]) == -math.inf)
    assert logpdf(p, off) == -math.inf


def test_extreme_shape_cdf_quantile_consistency():
    # exercises the asymptotic gamma branch plus the Newton polish
    p = Lp3Params(alpha=1e10, beta=1e-5, gamma=-1e5)
    for prob in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6):
        y = quantile(p, prob)
        assert math.isfinite(y) and y > 0
        assert cdf(p, y) == pytest.approx(prob, rel=1e-6)


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [CASES[0], CASES[1]])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_matches_quadrature(p, n):
    def integrand(z):
        return math.exp(n * (p.gamma + p.beta * z) - z
                        + (p.alpha - 1.0) * math.log(z)
                        - math.lgamma(p.alpha))
    val, err = quad(integrand, 0, np.inf, epsabs=1e-13, epsrel=1e-11,
                    limit=400)
    assert moment(p, n) == pytest.approx(val, rel=1e-9)


def test_moment_divergence_and_domain():
    p = Lp3Params(alpha=2.0, beta=0.4, gamma=0.0)
    assert moment(p, 1) > 0
    with pytest.raises(DivergentMomentError):
        moment(p, 3)  # 3 * 0.4 >= 1
    with pytest.raises(Lp3Error):
        moment(p, 0)


# --------------------------------------------------------------------------
# three-moment fit
# --------------------------------------------------------------------------

def exact_moments(p):
    return tuple(moment(p, n) for n in (1, 2, 3))


@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 50.0])
@pytest.mark.parametrize("beta", [-0.3, -0.1, -0.01, 0.01, 0.1, 0.3])
@pytest.mark.parametrize("gamma", [-5.0, 0.0, 5.0])
def test_fit_round_trip(alpha, beta, gamma):
    p = Lp3Params(alpha=alpha, beta=beta, gamma=gamma)
    q = fit_from_moments(exact_moments(p))
    assert q.beta == pytest.approx(beta, abs=1e-9)
    assert q.alpha == pytest.approx(alpha, rel=1e-7)
    assert q.gamma == pytest.approx(gamma, rel=1e-7, abs=1e-7)


def test_fit_accepts_moment_triple():
    # any (mu1, mu2, mu3) sequence, e.g. decision_moments' tuple or an array
    p = Lp3Params(alpha=3.0, beta=0.15, gamma=-2.0)
    m = exact_moments(p)
    for seq in (m, list(m), np.array(m)):
        assert fit_from_moments(seq) == fit_from_moments(m)
    assert fit_from_moments(m).alpha == pytest.approx(3.0, rel=1e-7)


def test_fit_moment_readback():
    # fitted parameters reproduce the inputs through moment()
    p = Lp3Params(alpha=7.0, beta=-0.12, gamma=1.5)
    m = exact_moments(p)
    q = fit_from_moments(m)
    for n in (1, 2, 3):
        assert moment(q, n) == pytest.approx(m[n - 1], rel=1e-9)


def test_fit_rejects_infeasible_moments():
    with pytest.raises(NoSolutionError):
        fit_from_moments((1.0, 0.9, 2.0))
    with pytest.raises(NoSolutionError, match="moments must be positive"):
        fit_from_moments((-1.0, 2.0, 2.0))
    # rho <= 1: third moment too small for any LP3 law
    with pytest.raises(NoSolutionError):
        fit_from_moments((1.0, 2.0, 1.5))
    with pytest.raises(NoSolutionError):
        fit_from_moments((1.0, 2.0, 2.0))


def test_fit_near_lognormal_fallback():
    # rho == 3 exactly: lognormal moments; beta is pinned to +/-1e-9 and
    # (mu1, mu2) are still matched to the documented ~1e-6 level
    mu, s2 = 0.4, 0.09
    m1 = math.exp(mu + s2 / 2)
    m2 = math.exp(2 * mu + 2 * s2)
    m3 = math.exp(3 * mu + 4.5 * s2)
    q = fit_from_moments((m1, m2, m3))
    assert abs(q.beta) == pytest.approx(1e-9)
    assert moment(q, 1) == pytest.approx(m1, rel=1e-5)
    assert moment(q, 2) == pytest.approx(m2, rel=1e-5)


def test_fit_speed():
    import time
    p = Lp3Params(alpha=10.0, beta=0.1, gamma=0.0)
    m = exact_moments(p)
    t0 = time.perf_counter()
    for _ in range(100):
        fit_from_moments(m)
    assert time.perf_counter() - t0 < 1.0
