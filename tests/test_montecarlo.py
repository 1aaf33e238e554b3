"""Field synthesis and decision-variable sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubicber import derive, empirical_ber, generate_samples
from cubicber.montecarlo import (MIN_OVERSAMPLE, MIN_WINDOW, SampleSet,
                                 _grid, _order_prefactor, load_csv,
                                 sample_moments, save_csv)
from cubicber.moments import mean_decision
from cubicber.params import ParamError
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
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, oversample=MIN_OVERSAMPLE - 1)
    with pytest.raises(ParamError):
        generate_samples(sp, dp, 1, 10, window=MIN_WINDOW - 1)
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
    # sinc(u_i - u_j). Truncating the coefficients `window` past the span
    # leaves < 0.55% between nodes at window 32 (measured max 5.5e-3 at
    # PRD 10, 5.0e-3 at a span of 20).
    for span_u in (10.0, 20.0):
        u, S, w = _grid(span_u, 16, 32)
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
    # PRD 10.03 at oversample 16 is 160.48 steps: the nodes must still run
    # from -PRD/2 to +PRD/2 in equal steps and the trapezoid weights must
    # sum to PRD, the divisor of the decision sum
    u, S, w = _grid(10.03, 16, 32)
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
    u, S, w = _grid(sp.prd, 16, 32)
    G = S @ S.T
    g = np.sqrt(np.diag(G))
    rho = G / np.outer(g, g)
    for n in (1, 2, 3):
        c = _order_prefactor(n, sp, dp) / sp.prd
        one = math.factorial(n) * (2.0 * dp.sigma0_sq * g * g) ** n
        mu1 = c * (w @ one)
        mu2 = c * c * (w * one) @ _pair_moment(n, rho) @ (w * one)
        mus, se = sample_moments(sets[0][n].values)
        assert abs(mus[0] - mu1) <= 4.0 * se[0], n
        assert abs(mus[1] - mu2) <= 4.0 * se[1], n


def test_sample_moments_match_closed_form(mc_small):
    # 20k trials: agreement within 5 standard errors, cubic order only
    # (the closed forms cover the cubic receiver)
    sp, dp, sets = mc_small
    for bit in (0, 1):
        mus, se = sample_moments(sets[bit][3].values)
        closed = mean_decision(sp, dp, bit)
        assert abs(mus[0] - closed) < 5.0 * se[0]


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
