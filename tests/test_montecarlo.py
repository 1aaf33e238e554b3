"""Field synthesis and decision-variable sampling."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicber import derive, empirical_ber, generate_samples
from cubicber.montecarlo import (SampleSet, _grid, load_csv,
                                 sample_moments, save_csv)
from cubicber.moments import mean_decision
from cubicber.params import ParamError, dbm_to_watts
from conftest import make_system


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_generate_samples_validation(ref_system):
    sp, dp = ref_system
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 2, 10)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 0)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, seed=-1)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, start_trial=-5)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, orders=())
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, orders=(4,))
    # the Philox key holds 64 bits and trial indices are int64: no aliasing
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, seed=2**64 + 5)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, start_trial=2**63 - 9)
    last = generate_samples(sp, dp, 1, 1, orders=(3,), seed=2**64 - 1,
                            start_trial=2**63 - 1)
    assert np.isfinite(last[3].values).all()


def test_sample_set_validation():
    with pytest.raises(ParamError):
        SampleSet(order=4, bit=1, values=np.ones(3))
    with pytest.raises(ParamError):
        SampleSet(order=1, bit=2, values=np.ones(3))
    with pytest.raises(ParamError):
        SampleSet(order=1, bit=1, values=np.array([]))
    with pytest.raises(ParamError):
        SampleSet(order=1, bit=1, values=np.array([1.0, -2.0]))
    with pytest.raises(ParamError):
        SampleSet(order=1, bit=1, values=np.array([1.0, math.nan]))
    s = SampleSet(order=2, bit=0, values=[3.0, 1.0, 2.0])
    assert s.values.shape == (3,)
    assert s.values.dtype == np.float64


# --------------------------------------------------------------------------
# shapes, determinism, slicing
# --------------------------------------------------------------------------

def test_generate_samples_shapes(ref_system):
    sp, dp = ref_system
    out = generate_samples(sp, dp, 1, 50, orders=(3, 1), seed=9)
    assert sorted(out) == [1, 3]
    for o, s in out.items():
        assert s.order == o and s.bit == 1 and s.values.shape == (50,)
        assert s.start_trial == 0
        assert np.all(s.values >= 0) and np.all(np.isfinite(s.values))


def test_same_seed_reproduces_and_seeds_differ(ref_system):
    sp, dp = ref_system
    a = generate_samples(sp, dp, 1, 200, orders=(3,), seed=4)[3].values
    b = generate_samples(sp, dp, 1, 200, orders=(3,), seed=4)[3].values
    c = generate_samples(sp, dp, 1, 200, orders=(3,), seed=5)[3].values
    d = generate_samples(sp, dp, 0, 200, orders=(3,), seed=4)[3].values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)  # bit streams are independent


def test_trial_slicing_is_bitwise(ref_system):
    # any partition of the trial range reproduces the one-shot run exactly
    sp, dp = ref_system
    full = generate_samples(sp, dp, 1, 1500, orders=(1, 2, 3), seed=5)
    chunks = [(0, 600), (600, 1), (601, 399), (1000, 500)]
    for o in (1, 2, 3):
        glued = np.concatenate([
            generate_samples(sp, dp, 1, n, orders=(o,), seed=5,
                             start_trial=s)[o].values
            for s, n in chunks])
        assert np.array_equal(full[o].values, glued)


def _same_sets(a, b):
    assert sorted(a) == sorted(b)
    for o in a:
        assert (a[o].order, a[o].bit, a[o].start_trial) == \
            (b[o].order, b[o].bit, b[o].start_trial)
        assert np.array_equal(a[o].values, b[o].values)


@pytest.mark.parametrize("bit, start, n, orders, g_amp", [
    (1, 0, 2048, (1, 2, 3), 1e5),   # one whole block
    (1, 700, 3000, (3,), 1e5),      # unaligned start, ragged length
    (1, 4095, 2, (2, 1), 1e5),      # straddles a block edge
    (0, 100, 2500, (1, 3), 1e5),    # bit 0: no signal at any power
    (1, 5, 20, (1, 2, 3), 1.0),     # sigma0 = 0: no noise drawn
])
def test_power_batch_is_bitwise_the_per_power_draws(bit, start, n, orders,
                                                    g_amp):
    # one noise field serves every power, and each power gets the bits it
    # would get from a call of its own
    sp = make_system(prd=10.0, g_amp=g_amp)
    dp = derive(sp)
    powers = [dbm_to_watts(x) for x in (37.0, 29.0, 33.0, 37.0)]
    batch = generate_samples(sp, dp, bit, n, orders=orders, seed=8,
                             start_trial=start, powers=powers)
    assert len(batch) == len(powers)
    for p, got in zip(powers, batch):
        _same_sets(got, generate_samples(replace(sp, p_r=p), dp, bit, n,
                                         orders=orders, seed=8,
                                         start_trial=start))


def test_power_batch_validation(ref_system):
    sp, dp = ref_system
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, powers=[])
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, powers=[1.0, -1.0])
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, powers=[math.inf])


# --------------------------------------------------------------------------
# physics limits
# --------------------------------------------------------------------------

def test_noiseless_limit_matches_analytic():
    # g_amp = 1 turns the amplifier noise off; every trial is the same
    # deterministic pulse functional, computable in closed form
    sp = make_system(prd=100.0, p_r_dbm=33.0, g_amp=1.0)
    dp = derive(sp)
    assert dp.sigma0_sq == 0.0
    out = generate_samples(sp, dp, 1, 5, seed=0)
    for o in (1, 2, 3):
        assert np.ptp(out[o].values) == 0.0
    r = dp.responsivity
    expect = {
        1: r * sp.p_r * 1.0 / sp.prd,
        2: r * sp.p_r**2 * (2.0 / 3.0) / sp.prd,
        3: r * sp.k * sp.gamma_nl**2 * sp.p_r**3 * 0.55 / sp.prd,
    }
    for o in (1, 2, 3):
        assert out[o].values[0] == pytest.approx(expect[o], rel=5e-3)
    # the sinc^6 overlap is band-exact, so the cubic order is much tighter
    assert out[3].values[0] == pytest.approx(expect[3], rel=1e-9)
    zero = generate_samples(sp, dp, 0, 3, seed=0)
    for o in (1, 2, 3):
        assert np.all(zero[o].values == 0.0)


def test_noise_autocovariance():
    # i.i.d. unit coefficients make the per-quadrature covariance of the
    # synthesized field, in units of sigma0^2, exactly S S^T; the target is
    # sinc(u_i - u_j). Truncating the coefficients WINDOW = 32 past the
    # span leaves < 0.55% between nodes (measured max 5.5e-3 at PRD 10,
    # 5.0e-3 at a span of 20).
    for span_u in (10.0, 20.0):
        u, S, w = _grid(span_u)
        assert np.allclose(np.diff(u), 1.0 / 16, rtol=0, atol=1e-12)
        assert u[-1] - u[0] == pytest.approx(span_u, rel=1e-12)
        assert w.sum() == pytest.approx(span_u, rel=1e-12)  # trapezoid
        cov = S @ S.T
        assert np.abs(cov - np.sinc(u[:, None] - u[None, :])).max() <= 1e-2
        # from a node on the integer lattice the sum collapses to one term
        m = u.size // 2
        assert u[m] == 0.0
        for lag_u in (0.0, 0.5, 1.0, 2.5):
            j = m + int(lag_u * 16)
            assert abs(cov[m, j] - np.sinc(lag_u)) <= 1e-12


def test_grid_spans_a_fractional_window():
    # PRD 10.03 at OVERSAMPLE = 16 is 160.48 steps: the nodes must still run
    # from -PRD/2 to +PRD/2 in equal steps and the trapezoid weights must
    # sum to PRD, the divisor of the decision sum
    u, S, w = _grid(10.03)
    assert u.size == 161
    assert u[0] == -5.015
    assert u[-1] == pytest.approx(5.015, rel=1e-15)
    assert np.allclose(np.diff(u), 10.03 / 160, rtol=0, atol=1e-14)
    assert w.sum() == pytest.approx(10.03, rel=1e-14)


def _pair_moment(n, rho):
    # E|z_i|^2n |z_j|^2n / (n! (2 sigma^2)^n)^2 for circular complex
    # Gaussians of correlation rho (Isserlis: a permanent of the pair
    # covariance); n = 3 gives 1 + 9 rho^2 + 9 rho^4 + rho^6
    return sum(math.comb(n, k) ** 2 * rho ** (2 * k) for k in range(n + 1))


def test_bit0_moments_match_the_discrete_model(mc_small):
    # The sampler alone, no closed form: with noise covariance sigma0^2 G,
    # G = S S^T, the decision sum y = c sum_i w_i |r_i|^2n has the exact
    # moments mu1 = c sum_i w_i n! (2 sigma0^2 G_ii)^n and
    # mu2 = c^2 sum_ij w_i w_j E|r_i|^2n |r_j|^2n, for every order n.
    sp, dp, sets = mc_small
    u, S, w = _grid(sp.prd)
    G = S @ S.T
    g = np.sqrt(np.diag(G))
    rho = G / np.outer(g, g)
    for n in (1, 2, 3):
        c = (dp.cubic_scale if n == 3 else dp.responsivity) / sp.prd
        one = math.factorial(n) * (2.0 * dp.sigma0_sq * g * g) ** n
        mu1 = c * (w @ one)
        mu2 = c * c * (w * one) @ _pair_moment(n, rho) @ (w * one)
        mus, se = sample_moments(sets[0][n].values)
        assert abs(mus[0] - mu1) <= 4.0 * se[0], n
        assert abs(mus[1] - mu2) <= 4.0 * se[1], n


def _order1_kernel(prd):
    # A = S^T W S: the order-1 decision sum is c (a^T A a + b^T A b) for the
    # in-phase and quadrature coefficients a, b
    u, S, w = _grid(prd)
    return S.T @ (w[:, None] * S)


def _window_sinc2(span):
    # int (L - |t|) sinc^2(t) dt over |t| <= L = span, in closed form:
    # 2 L int_0^L sinc^2 less Cin(2 pi L) / pi^2
    pi, x = mpmath.pi, 2 * mpmath.pi * span
    cin = mpmath.euler + mpmath.log(x) - mpmath.ci(x)
    return float(2 * span * (mpmath.si(x) / pi - mpmath.sin(pi * span) ** 2
                             / (pi * pi * span)) - cin / (pi * pi))


# (PRD, tr(A)/PRD - 1, the window integral of sinc^2, ||A||_F^2 / it - 1)
ORDER1_KERNEL = [
    (10.0, -2.7178e-3, 9.420704, -3.1895e-3),
    (25.0, -2.3397e-3, 24.327843, -2.1966e-3),
    (100.0, -1.4238e-3, 99.187378, -1.2868e-3),
]


@pytest.mark.parametrize("prd, tr_bias, window, fro_bias", ORDER1_KERNEL)
def test_order1_kernel_truncation(prd, tr_bias, window, fro_bias):
    # With every integer m kept and exact integrals, A would be the sinc
    # kernel on the window: tr(A) = PRD and ||A||_F^2 the window integral of
    # sinc^2. tr(A) and ||A||_F^2 are the sum of A's eigenvalues and of
    # their squares; the truncation leaves both low.
    a = _order1_kernel(prd)
    exact = _window_sinc2(prd)
    assert exact == pytest.approx(window, abs=1e-6)
    assert np.trace(a) / prd - 1.0 == pytest.approx(tr_bias, abs=1e-7)
    assert (a * a).sum() / exact - 1.0 == pytest.approx(fro_bias, abs=1e-7)


# (PRD, bit, received dBm); z of the mean, the variance and kappa3 at
# seed 11, measured: bit 0 -0.83 / 0.45 / 0.74, -0.06 / 0.29 / -0.85,
# 0.46 / -0.96 / 0.38; bit 1 -0.11 / 0.67 / 0.02, -0.08 / 0.37 / 0.23,
# -0.17 / 0.65 / 1.71, -0.50 / 0.08 / 1.61, -0.79 / 0.59 / 0.09,
# -1.04 / 0.71 / -0.09
ORDER1_DRAWS = [(10.0, 0, None), (25.0, 0, None), (100.0, 0, None),
                (10.0, 1, 33.0), (10.0, 1, 37.0), (25.0, 1, 33.0),
                (25.0, 1, 37.0), (100.0, 1, 33.0), (100.0, 1, 37.0)]


@pytest.mark.parametrize("prd, bit, p_r_dbm", ORDER1_DRAWS, ids=[
    f"{prd}" if dbm is None else f"{prd}-{dbm}dBm"
    for prd, _, dbm in ORDER1_DRAWS])
def test_order1_samples_match_their_kernel(prd, bit, p_r_dbm):
    # With c = R/PRD, the pulse s = sqrt(P_r) sinc(u) on the grid (0 for
    # bit 0) and b = S^T W s, order 1 has the exact cumulants
    # k1 = c (s^T W s + 2 sigma0^2 tr A),
    # k2 = c^2 (4 sigma0^4 ||A||_F^2 + 4 sigma0^2 ||b||^2),
    # k3 = c^3 (16 sigma0^6 tr A^3 + 24 sigma0^4 b^T A b);
    # 20k trials land within 3 standard errors of each
    sp = make_system(prd=prd, p_r_dbm=p_r_dbm)
    dp = derive(sp)
    y = generate_samples(sp, dp, bit, 20_000, orders=(1,), seed=11)[1].values
    u, S, w = _grid(prd)
    a = _order1_kernel(prd)
    s = math.sqrt(sp.p_r) * np.sinc(u) if bit else np.zeros_like(u)
    b = S.T @ (w * s)
    c, v = dp.responsivity / prd, dp.sigma0_sq
    mus, se = sample_moments(y)
    assert abs(mus[0] - c * (s @ (w * s) + 2.0 * v * np.trace(a))) \
        <= 3.0 * se[0]
    d = y - y.mean()
    var = d @ d / (y.size - 1)
    se_var = math.sqrt(((d ** 4).mean() - var * var) / y.size)
    want = c * c * (4.0 * v * v * (a * a).sum() + 4.0 * v * (b @ b))
    assert abs(var - want) <= 3.0 * se_var
    m3 = (d ** 3).mean()
    se_m3 = math.sqrt(((d ** 3 - m3) ** 2).mean() / y.size)
    want = c ** 3 * (16.0 * v ** 3 * np.trace(a @ a @ a)
                     + 24.0 * v * v * (b @ a @ b))
    assert abs(m3 - want) <= 3.0 * se_m3


def test_sample_moments_match_closed_form(mc_small):
    # 20k trials: agreement within 5 standard errors, cubic order only
    # (the closed forms cover the cubic receiver)
    sp, dp, sets = mc_small
    for bit in (0, 1):
        mus, se = sample_moments(sets[bit][3].values)
        closed = mean_decision(sp, dp, bit)
        assert abs(mus[0] - closed) < 5.0 * se[0]


def test_sample_moments_of_huge_values_overflow_quietly():
    # y^6, which the standard error of mu3 needs, overflows first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mus, ses = sample_moments(np.array([1e60, 2e60, 3e60]))
    assert mus == pytest.approx((2e60, 14e120 / 3, 12e180))
    assert math.isfinite(ses[1]) and ses[2] == math.inf


def test_sample_moments_has_no_size_floor():
    # no size floor and no sign check: the CLI sets the trial floor
    assert sample_moments(np.zeros(5)) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


# --------------------------------------------------------------------------
# empirical error rate
# --------------------------------------------------------------------------

def _sset(order, bit, vals):
    return SampleSet(order=order, bit=bit, values=np.asarray(vals, float))


def test_empirical_ber_separable():
    th, pe = empirical_ber(_sset(3, 0, [1, 2, 3]), _sset(3, 1, [10, 20, 30]))
    assert pe == 0.0
    assert 3 < th < 10


def test_empirical_ber_overlapping():
    th, pe = empirical_ber(_sset(3, 0, [0, 2]), _sset(3, 1, [1, 3]))
    assert pe == 0.25


def test_empirical_ber_inverted_and_identical():
    th, pe = empirical_ber(_sset(3, 0, [10, 20]), _sset(3, 1, [1, 2]))
    assert pe == 0.5
    assert th > 20  # pushed past every sample
    vals = [1.0, 2.0, 3.0, 4.0]
    th, pe = empirical_ber(_sset(3, 0, vals), _sset(3, 1, vals))
    assert pe == 0.5


def test_empirical_ber_order_mismatch():
    with pytest.raises(ParamError):
        empirical_ber(_sset(1, 0, [1.0]), _sset(3, 1, [2.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1e3), min_size=1, max_size=40),
       st.lists(st.floats(0, 1e3), min_size=1, max_size=40))
def test_empirical_ber_range_property(v0, v1):
    th, pe = empirical_ber(_sset(3, 0, v0), _sset(3, 1, v1))
    assert 0.0 <= pe <= 0.5
    assert math.isfinite(th)


def test_empirical_ber_improves_with_separation(ref_system):
    sp, dp = ref_system
    s1 = generate_samples(sp, dp, 1, 4000, orders=(3,), seed=8)[3]
    s0 = generate_samples(sp, dp, 0, 4000, orders=(3,), seed=8)[3]
    th, pe = empirical_ber(s0, s1)
    assert 0.0 <= pe < 0.5
    assert s0.values.mean() < th < s1.values.mean()


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, ref_system):
    sp, dp = ref_system
    sets = generate_samples(sp, dp, 1, 64, orders=(1, 3), seed=6,
                            start_trial=100)
    other = generate_samples(sp, dp, 0, 64, orders=(3,), seed=6)
    path = tmp_path / "samples.csv"
    save_csv(path, [sets[1], sets[3], other[3]])
    back = load_csv(path)
    assert [(s.order, s.bit) for s in back] == [(1, 1), (3, 0), (3, 1)]
    lookup = {(s.order, s.bit): s for s in back}
    assert np.array_equal(lookup[(1, 1)].values, sets[1].values)
    assert np.array_equal(lookup[(3, 1)].values, sets[3].values)
    assert lookup[(3, 1)].start_trial == 100


def test_save_single_set_and_header_check(tmp_path, ref_system):
    sp, dp = ref_system
    s = generate_samples(sp, dp, 0, 16, orders=(2,))[2]
    path = tmp_path / "one.csv"
    save_csv(path, [s])
    assert load_csv(path)[0].order == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParamError):
        load_csv(bad)


@pytest.mark.parametrize("trials", [[0, 0, 5], [0, 0, 1], [3, 4, 6]])
def test_load_csv_rejects_repeated_or_gapped_trials(tmp_path, trials):
    path = tmp_path / "gaps.csv"
    rows = "".join(f"{t},3,1,{1.0 + i}\n" for i, t in enumerate(trials))
    path.write_text("trial,order,bit,value\n" + rows)
    with pytest.raises(ParamError, match="not contiguous"):
        load_csv(path)
