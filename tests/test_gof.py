"""Goodness-of-fit statistics and candidate-law ranking."""

import math

import numpy as np
import pytest
import scipy.stats as ss

from cubicber import GofReport, Lp3Params, gof, rank_distributions
from cubicber.gof import (BinningError, BoundaryError, GofError,
                          ad_statistic, chi2_statistic, ks_statistic)
from cubicber.lp3 import cdf as lp3_cdf
from cubicber.lp3 import quantile
from cubicber.montecarlo import SampleSet


# --------------------------------------------------------------------------
# statistic values on constructed inputs; each statistic takes the cdf
# values at the sorted samples
# --------------------------------------------------------------------------

def test_ks_single_sample():
    d = ks_statistic(np.array([0.5]))
    assert d == 0.5


def test_ks_plugin_quantiles():
    # samples at the exact (i - 1/2)/N quantiles of the fitted cdf: the
    # empirical staircase brackets the cdf symmetrically, D = 1/(2N)
    n = 40
    f = (np.arange(1, n + 1) - 0.5) / n
    d = ks_statistic(f)
    assert d == pytest.approx(1.0 / (2 * n), rel=1e-12)


def test_ks_matches_scipy():
    rng = np.random.default_rng(10)
    x = np.sort(rng.normal(3.0, 2.0, 500))
    cdf = lambda v: ss.norm.cdf(v, 3.0, 2.0)
    ref = ss.kstest(x, cdf).statistic
    assert ks_statistic(cdf(x)) == pytest.approx(ref, rel=1e-12)


def test_ks_monotone_transform_invariance():
    # KS depends only on the probability transform, so pushing samples
    # and law through exp() changes nothing
    rng = np.random.default_rng(11)
    x = np.sort(rng.normal(0.0, 1.0, 300))
    d_lin = ks_statistic(ss.norm.cdf(x))
    d_exp = ks_statistic(ss.norm.cdf(np.log(np.exp(x))))
    assert d_lin == d_exp


def test_ad_single_sample_exact():
    a2 = ad_statistic(np.array([0.5]))
    assert a2 == pytest.approx(-1.0 + 2.0 * math.log(2.0), rel=1e-15)


def test_ad_matches_direct_formula():
    rng = np.random.default_rng(12)
    f = np.sort(rng.uniform(0.01, 0.99, 200))
    a2 = ad_statistic(f)
    n = f.size
    ref = -n - sum((2 * i - 1) * (math.log(f[i - 1])
                                  + math.log(1 - f[n - i]))
                   for i in range(1, n + 1)) / n
    assert a2 == pytest.approx(ref, rel=1e-12)


def test_ad_boundary_error():
    with pytest.raises(BoundaryError):
        ad_statistic(np.array([0.5, 1.0]))
    with pytest.raises(BoundaryError):
        ad_statistic(np.array([0.0, 0.5]))


def test_chi2_two_bin_perturbation():
    # 20 PIT values, 11 below 1/2 and 9 above: chi2 = (1 + 1)/10
    f = np.concatenate([np.linspace(0.02, 0.48, 11),
                        np.linspace(0.52, 0.98, 9)])
    val = chi2_statistic(f, bins=2)
    assert val == pytest.approx(0.2, rel=1e-12)


def test_chi2_uniform_is_zero():
    f = (np.arange(100) + 0.5) / 100
    assert chi2_statistic(f, bins=10) == 0.0


def test_chi2_matches_histogram_reference():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 5000)
    bins = 25
    val = chi2_statistic(x, bins=bins)
    observed, _ = np.histogram(x, bins=bins, range=(0.0, 1.0))
    expected = x.size / bins
    ref = float(((observed - expected) ** 2 / expected).sum())
    assert val == pytest.approx(ref, rel=1e-12)


def test_chi2_binning_errors():
    f = np.linspace(0.01, 0.99, 100)
    with pytest.raises(BinningError):
        chi2_statistic(f, bins=0)
    with pytest.raises(BinningError):
        chi2_statistic(f, bins=25)  # expected count 4 < 5


# --------------------------------------------------------------------------
# candidate ranking
# --------------------------------------------------------------------------

CANDIDATES = ["log_pearson3", "normal", "lognormal", "gamma",
              "inverse_gaussian"]


def _row(report, distribution):
    return {r.distribution: r for r in report.rows}[distribution]


@pytest.fixture(scope="module")
def lp3_sample():
    # inverse-cdf draws from a known skewed law, big enough to rank;
    # 6*|beta| < 1 keeps the sixth moment finite so the sample third
    # moment (and hence the moment fit) is stable at this n
    law = Lp3Params(alpha=3.0, beta=-0.15, gamma=-13.0)
    rng = np.random.default_rng(99)
    y = quantile(law, rng.uniform(1e-12, 1 - 1e-12, 50_000))
    return law, SampleSet(order=3, bit=1, values=y)


def test_rank_distributions_recovers_lp3(lp3_sample):
    law, s = lp3_sample
    report = rank_distributions(s)
    assert isinstance(report, GofReport)
    assert report.n == 50_000
    assert report.bins == 50_000 // 50
    assert [r.distribution for r in report.rows] == CANDIDATES
    best = _row(report, "log_pearson3")
    assert best.fitted
    assert best.ks_rank == 1 and best.ad_rank == 1 and best.chi2_rank == 1
    assert best.ks < 0.01
    norm = _row(report, "normal")
    assert not (norm.ks < 5 * best.ks)  # holds also if norm.ks is nan


def test_rank_columns_are_permutations(lp3_sample):
    _, s = lp3_sample
    report = rank_distributions(s)
    for col in ("ks_rank", "ad_rank", "chi2_rank"):
        assert sorted(getattr(r, col) for r in report.rows) == [1, 2, 3, 4, 5]


def test_rank_normal_data_prefers_normal():
    rng = np.random.default_rng(14)
    s = SampleSet(order=1, bit=1,
                  values=rng.normal(50.0, 3.0, 30_000).clip(min=1e-9))
    report = rank_distributions(s)
    norm = _row(report, "normal")
    assert norm.fitted and norm.ks_rank <= 2  # lp3 can tie within noise
    assert norm.ks < 0.02


def test_rank_requires_10000():
    # the one minimum that mc-validate also reads
    assert gof.MIN_SAMPLES == 10_000
    s = SampleSet(order=3, bit=1, values=np.ones(9999))
    with pytest.raises(GofError, match="^need at least 10000 samples, got "
                       "9999$"):
        rank_distributions(s)


def test_rank_degenerate_sample():
    s = SampleSet(order=3, bit=1, values=np.full(10_000, 2.5))
    report = rank_distributions(s)
    assert report.bins == 10_000 // 50
    for r in report.rows:
        assert not r.fitted
        assert r.error == "degenerate sample variance"
        assert math.isnan(r.ks)
    # all-NaN columns fall back to alphabetical order
    by_name = sorted(CANDIDATES)
    for r in report.rows:
        assert r.ks_rank == by_name.index(r.distribution) + 1


def test_rank_overflowing_variance_fits_nothing():
    # the mean is finite, the variance 2.5e319 is not
    s = SampleSet(order=3, bit=1, values=np.tile([1e160, 2e160], 5_000))
    report = rank_distributions(s)
    for r in report.rows:
        assert not r.fitted
        assert r.error == "sample variance overflows a float"
        assert math.isnan(r.ks) and math.isnan(r.ad) and math.isnan(r.chi2)


@pytest.mark.parametrize("scale, error", [
    (1e100, None), (1e110, "mean**3 overflows a float")])
def test_rank_inverse_gaussian_names_its_overflow(scale, error):
    # lam = mean**3 / v: a mean above ~5.6e102 overflows its cube
    values = np.random.default_rng(1).lognormal(0.0, 0.3, 10_000) * scale
    ig = _row(rank_distributions(SampleSet(order=3, bit=1, values=values)),
              "inverse_gaussian")
    assert ig.fitted == (error is None) and ig.error == error


def test_rank_cdf_at_1_fails_only_ad():
    # the normal cdf rounds to 1 at the lognormal's far right tail: only
    # AD needs its log there, so KS and chi^2 stay finite
    s = SampleSet(order=3, bit=1,
                  values=np.random.default_rng(3).lognormal(0.0, 1.0, 10_000))
    report = rank_distributions(s)
    assert report.bins == 10_000 // 50
    norm = _row(report, "normal")
    assert norm.fitted
    assert norm.error == "ad: cdf reached 0 or 1 at a sample point"
    assert math.isnan(norm.ad) and norm.ad_rank == 5
    assert math.isfinite(norm.ks) and math.isfinite(norm.chi2)


def test_report_lines_name_each_failure():
    # one row per candidate; a fitted row whose statistic failed ends in
    # [ad: ...], an unfitted one in [unfit: ...], any other in no note
    s = SampleSet(order=3, bit=1,
                  values=np.random.default_rng(3).lognormal(0.0, 1.0, 10_000))
    lines = rank_distributions(s).lines()
    assert [line.split()[0] for line in lines] == CANDIDATES
    for name, line in zip(CANDIDATES, lines):
        assert line.startswith(f"  {name} ")
        assert line.partition("  [")[2] == (
            "ad: cdf reached 0 or 1 at a sample point]" if name == "normal"
            else "")
    flat = SampleSet(order=3, bit=1, values=np.full(10_000, 2.5))
    for line in rank_distributions(flat).lines():
        assert line.partition("  [")[2] == "unfit: degenerate sample variance]"


def test_report_row_and_csv(lp3_sample):
    _, s = lp3_sample
    report = rank_distributions(s)
    lines = report.csv_lines()
    assert lines[0] == "distribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank"
    assert len(lines) == 1 + len(CANDIDATES)
    first = lines[1].split(",")
    assert first[0] == "log_pearson3"
    assert float(first[1]) == _row(report, "log_pearson3").ks
    assert int(first[2]) == 1
