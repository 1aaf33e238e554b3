"""Log-Pearson-III law: gamma kernels, cdf/quantile, three-moment fit."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.special as sc
from scipy.integrate import quad

from cubicber import Lp3Params, fit_from_moments
from cubicber._rng import _log_ndtr, _ndtr
from cubicber.lp3 import (DivergentMomentError, Lp3Error, NoSolutionError,
                          _gamma_inv, _gamma_pq, _phi, cdf, logpdf, moment,
                          quantile, reg_gamma_p, sf)
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


@pytest.mark.parametrize("size", [300, 9000])
@pytest.mark.parametrize("a", [0.5, 50.0, 322.879774755266, 1e4, 1e10])
def test_element_bits_do_not_depend_on_the_array(a, size):
    # Arrays wider than 256 elements, and longer than one 8192-element
    # kernel chunk, mixing series and continued-fraction points with points
    # near the peak (|x/a - 1| < 0.1, the small-|dl| series of the density
    # prefactor): a sample of elements must equal 1-element calls bit for
    # bit in P, the cdf of either skew and the log-density.
    rng = np.random.default_rng(size + int(math.log(a) * 100))
    near = a * (1.0 + rng.uniform(-0.1, 0.1, size))
    far = a * np.exp(rng.uniform(-5.0, 2.0, size))
    x = np.where(rng.random(size) < 0.5, near, far)
    assert (x < a + 1.0).any() and (x >= a + 1.0).any()
    laws = [Lp3Params(alpha=a, beta=b / a, gamma=0.1) for b in (1.0, -1.0)]
    ys = [np.exp(law.gamma + law.beta * x) for law in laws]
    p = reg_gamma_p(a, x)
    cdfs = [cdf(law, y) for law, y in zip(laws, ys)]
    logs = [logpdf(law, y) for law, y in zip(laws, ys)]
    for i in rng.choice(size, 100, replace=False):
        assert reg_gamma_p(a, float(x[i])) == p[i]
        for law, y, c, lg in zip(laws, ys, cdfs, logs):
            assert cdf(law, float(y[i])) == c[i]
            assert logpdf(law, float(y[i])) == lg[i]


def _phi_grid():
    # dl = x/a - 1 for _phi: 0, subnormal and tiny |dl|, log-spaced |dl|
    # up to the series' cut at 0.1, the 8 floats below 0.1 and 0.1 itself,
    # random dl inside the cut and on the log branch beyond it
    rng = np.random.default_rng(20261020)
    mag = [5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308,
           *np.geomspace(1e-300, 0.1, 4000)]
    edge = 0.1
    for _ in range(8):
        edge = np.nextafter(edge, 0.0)
        mag.append(edge)
    mag = np.array(mag)
    return np.concatenate([[0.0], mag, -mag,
                           rng.uniform(-0.1, 0.1, 20_000),
                           rng.uniform(-0.99, 3.0, 5000)])


PHI_DIGEST = ("4e678026b19f77422888abf01eae88ee"
              "ce3bfe12e73aeb28b60da0e686c7c11b")


def test_phi_keeps_its_bits():
    # SHA-256 of dl - ln(1 + dl) over _phi_grid; an element's bits do not
    # depend on the others in its array, or on the array's shape
    dl = _phi_grid()
    out = _phi(dl, 1.0 + dl)
    assert hashlib.sha256(out.astype("<f8").tobytes()).hexdigest() == \
        PHI_DIGEST
    d2 = dl[:dl.size // 2 * 2].reshape(2, -1)
    assert np.array_equal(_phi(d2, 1.0 + d2).ravel(), out[:d2.size])
    for i in np.random.default_rng(5).choice(dl.size, 200, replace=False):
        one = dl[i:i + 1]
        assert _phi(one, 1.0 + one)[0] == out[i]


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
def test_sf_is_the_other_tail(p):
    # sf is 1 - cdf in the bulk, 1 off the support's lower side, and in the
    # upper tail, where cdf rounds to 1, a 40-digit incomplete gamma at the
    # same z: Q for beta > 0, P for beta < 0
    mpmath = pytest.importorskip("mpmath")
    ys = quantile(p, np.linspace(0.001, 0.999, 40))
    assert sf(p, ys) == pytest.approx(1.0 - cdf(p, ys), abs=2e-16)
    assert sf(p, 0.0) == sf(p, -1.0) == 1.0
    assert np.array_equal(sf(p, [-1.0, 0.0, ys[7]]), [1.0, 1.0, sf(p, ys[7])])
    with pytest.raises(Lp3Error):
        sf(p, [1.0, math.nan])
    for tail in (1e-20, 1e-60):
        zq = _gamma_inv(p.alpha, tail, p.beta > 0)
        y = math.exp(p.gamma + p.beta * zq)
        z = (math.log(y) - p.gamma) / p.beta  # as sf maps y
        with mpmath.workdps(40):
            want = (mpmath.gammainc(p.alpha, z, mpmath.inf, regularized=True)
                    if p.beta > 0 else
                    mpmath.gammainc(p.alpha, 0, z, regularized=True))
        assert cdf(p, y) == 1.0
        assert sf(p, y) == pytest.approx(float(want), rel=1e-12, abs=0.0)


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
    # exercises the asymptotic gamma branch plus the quantile polish
    p = Lp3Params(alpha=1e10, beta=1e-5, gamma=-1e5)
    for prob in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6):
        y = quantile(p, prob)
        assert math.isfinite(y) and y > 0
        assert cdf(p, y) == pytest.approx(prob, rel=1e-6)


# --------------------------------------------------------------------------
# the numpy normal tail and gamma-cdf inverse, against independent oracles
# --------------------------------------------------------------------------

def test_ndtr_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # below z = -37 Phi nears the subnormals, where relative error means
    # nothing
    zs = np.linspace(-37.0, 8.0, 901)
    with mpmath.workdps(40):
        want = [float(mpmath.ncdf(z)) for z in zs]
    assert _ndtr(zs) == pytest.approx(want, rel=5e-13, abs=0.0)


def test_log_ndtr_matches_mpmath():
    # relative to ln Phi for z <= 0, where gof uses it; above 0, where
    # ln Phi nears 0, to 1e-15 absolute
    mpmath = pytest.importorskip("mpmath")
    zs = np.concatenate([-np.logspace(5.0, -3.0, 400),
                         np.linspace(-40.0, 0.0, 401)])
    up = np.linspace(0.1, 8.0, 80)
    with mpmath.workdps(40):
        want = [float(mpmath.log(mpmath.ncdf(z))) for z in zs]
        want_up = [float(mpmath.log(mpmath.ncdf(z))) for z in up]
    assert _log_ndtr(zs) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert _log_ndtr(up) == pytest.approx(want_up, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("fn,at_inf", [(_ndtr, (0.0, 1.0)),
                                       (_log_ndtr, (-math.inf, 0.0))])
def test_normal_tail_shapes_and_infinities(fn, at_inf):
    assert np.shape(fn(0.3)) == () and fn(0.3) == fn([0.3])[0]
    grid = np.linspace(-40.0, 8.0, 6).reshape(2, 3)
    assert np.array_equal(fn(grid), fn(grid.ravel()).reshape(2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tuple(fn([-math.inf, math.inf])) == at_inf


# p from 1e-300 to 1 - 1e-16
ROUND_TRIP_PROBS = np.concatenate([np.logspace(-300.0, -1.0, 61),
                                   np.linspace(0.15, 0.85, 15),
                                   1.0 - np.logspace(-1.0, -16.0, 31)])


@pytest.mark.parametrize("a", [0.5, 7.6, 615.0, 1e6, 1e10, 1e12])
@pytest.mark.parametrize("upper", [False, True])  # beta > 0, beta < 0
def test_gamma_inv_round_trip(a, upper):
    _assert_round_trip(a, ROUND_TRIP_PROBS, upper)


def test_gamma_inv_round_trip_far_below_the_shape():
    # z = 0.106 at a = 110.5: 1 + (z - a)/a keeps z/a to ~eps a/z only, so a
    # kernel taking ln(z/a) as log1p((z - a)/a) missed the bound by 18x
    _assert_round_trip(110.5, np.array([1.1e-287]), False)


def test_cdf_at_the_support_edge_of_a_large_shape_is_zero():
    # z = ln(y)/beta = 2.2e-14 << a: (z - a)/a rounds to -1, where
    # log1p(-1) warned (an error under the test filter)
    assert cdf(Lp3Params(615, 0.01, 0.0), 1.0000000000000002) == 0.0
    assert tuple(_gamma_pq(1e10, np.array([1e-7]))[0]) == (0.0,)


def _assert_round_trip(a, probs, upper):
    # z-space check on the smaller tail F (P or Q) through the kernel: ln F
    # misses ln t by at most its conditioning z f(z)/F(z) times a few ulps
    # of z, plus the kernel's own error
    z = _gamma_inv(a, probs, upper)
    small = probs <= 0.5
    t = np.where(small, probs, 1.0 - probs)
    p, q = _gamma_pq(a, z)
    lower = small != upper
    f = np.where(lower, p, q)
    # a lower-tail root below the smallest normal float has no usable z:
    # there P(a, z) ~ z^a / Gamma(a + 1) at z = tiny already exceeds t
    tiny = np.finfo(float).tiny
    deep = lower & (np.log(t) < a * math.log(tiny) - math.lgamma(a + 1.0))
    assert np.all(z[deep] < tiny)
    z, f, t = z[~deep], f[~deep], t[~deep]
    cond = np.exp(a * np.log(z) - z - math.lgamma(a) - np.log(f))
    assert np.all(np.abs(np.log(f / t))
                  <= 1e-13 + 8.0 * np.finfo(float).eps * cond)


def test_quantile_at_shape_1e6_matches_mpmath():
    # scipy's gammaincinv misses P = 1e-6 here by 7.1e-6 relative
    mpmath = pytest.importorskip("mpmath")
    law = Lp3Params(alpha=1e6, beta=1e-6, gamma=0.0)
    y = quantile(law, 1e-6)
    with mpmath.workdps(40):
        z = mpmath.log(mpmath.mpf(y)) / mpmath.mpf(law.beta)
        back = mpmath.gammainc(law.alpha, 0, z, regularized=True)
        assert abs(float(back / mpmath.mpf(1e-6) - 1)) <= 1e-10


@pytest.mark.parametrize("a", [0.5, 0.7, 1.0, 2.5, 7.6, 50.0, 615.0, 1e4])
def test_gamma_inv_matches_scipy(a):
    # scipy as an oracle where it is sound: moderate shape, p not extreme
    probs = np.concatenate([np.logspace(-14.0, -1.0, 27),
                            np.linspace(0.1, 0.9, 17),
                            1.0 - np.logspace(-1.0, -12.0, 23)])
    assert _gamma_inv(a, probs, False) == pytest.approx(
        sc.gammaincinv(a, probs), rel=1e-13, abs=0.0)
    assert _gamma_inv(a, probs, True) == pytest.approx(
        sc.gammainccinv(a, probs), rel=1e-13, abs=0.0)


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
    with pytest.raises(NoSolutionError, match="moments must be finite"):
        fit_from_moments((1e160, math.inf, math.inf))
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


# Moment ratios rho of the triples (1, e^l, e^(rho l)) in FIT_DIGESTS, one
# or more per bracket of the beta solver: below 2 and above g(1/3 - 2.3e-16)
# = 117.2 (errors); 2.0005-2.9, the x256 growth toward -1e300; 3 +- 1e-10,
# the near-lognormal fallback; 3 +- 1e-8 and 3.5, the first step at 1e-10;
# and the steps toward 1/3, whose ends give g = 6.07, 24.0, 56.0, 88.0, 117.2.
FIT_RHOS = [1.5, 1.99, 2.0, 2.0005, 2.001, 2.01, 2.07, 2.2, 2.55, 2.9,
            3.0 - 1e-8, 3.0 - 1e-10, 3.0 + 1e-10, 3.0 + 1e-8, 3.5, 4.0, 6.0,
            10.0, 24.0, 30.0, 56.0, 70.0, 88.0, 100.0, 117.0, 118.0, 150.0,
            200.0]
# SHA-256 of the fitted (alpha, beta, gamma) as little-endian doubles, and
# of the NoSolutionError messages, one per line, in grid order
FIT_DIGESTS = (880, 240,
               "d5fb325dbd8c404220f3edf2ca489b9e43e8744b61e46602e9c462a2c76621e9",
               "da103f88481c8ea42fc28cc836e459070cf9b7a45bc81398e7aff1fafa6bc39d")


def test_fit_keeps_its_bits():
    params, errors = hashlib.sha256(), hashlib.sha256()
    nfit = nerr = 0
    for rho in FIT_RHOS:
        for l in np.geomspace(1e-3, 3.0, 40):
            try:
                p = fit_from_moments((1.0, math.exp(l), math.exp(rho * l)))
            except NoSolutionError as exc:
                errors.update(str(exc).encode() + b"\n")
                nerr += 1
            else:
                params.update(struct.pack("<3d", p.alpha, p.beta, p.gamma))
                nfit += 1
    assert (nfit, nerr, params.hexdigest(), errors.hexdigest()) == FIT_DIGESTS


def test_fit_speed():
    import time
    p = Lp3Params(alpha=10.0, beta=0.1, gamma=0.0)
    m = exact_moments(p)
    t0 = time.perf_counter()
    for _ in range(100):
        fit_from_moments(m)
    assert time.perf_counter() - t0 < 1.0
