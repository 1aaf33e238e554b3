"""Goodness-of-fit statistics and a distribution-ranking harness.

Given decision-variable samples, fits a small candidate set (LP3 by
three-moment solve, the rest by two-moment matching), evaluates
Kolmogorov-Smirnov, Anderson-Darling and chi-squared statistics against
each fitted cdf, and ranks the candidates per statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from . import lp3
from .montecarlo import SampleSet, sample_moments
from .params import ParamError


class GofError(ValueError):
    """Invalid input to a goodness-of-fit computation."""


class BoundaryError(GofError):
    """A cdf value hit 0 or 1 exactly where the statistic needs its log."""


class BinningError(GofError):
    """Bin layout violates the expected-count floor."""


# Each statistic takes f, the cdf values F(x_i) at the N samples sorted
# ascending (N >= 1).
def ks_statistic(f) -> float:
    """Two-sided KS distance between the empirical and the given cdf.

    D = max_i max(i/N - F(x_i), F(x_i) - (i-1)/N).
    """
    n = f.size
    i = np.arange(1, n + 1)
    d_plus = (i / n - f).max()
    d_minus = (f - (i - 1) / n).max()
    return float(max(d_plus, d_minus))


def ad_statistic(f) -> float:
    """Anderson-Darling A^2 against the given cdf.

    A^2 = -N - (1/N) sum_i (2i-1) (ln F(x_i) + ln(1 - F(x_{N+1-i}))).
    """
    if (f <= 0.0).any() or (f >= 1.0).any():
        raise BoundaryError("cdf reached 0 or 1 at a sample point")
    n = f.size
    i = np.arange(1, n + 1)
    s = ((2 * i - 1) * (np.log(f) + np.log1p(-f[::-1]))).sum()
    return float(-n - s / n)


def chi2_statistic(f, bins: int) -> float:
    """Pearson chi-squared over equal-probability bins.

    Bins are laid out on the probability axis (the cdf transform of the
    samples is histogrammed against a uniform grid), so every bin carries
    the same expected count N/bins; that count must be >= 5.
    """
    if bins < 1:
        raise BinningError("bins must be >= 1")
    expected = f.size / bins
    if expected < 5.0:
        raise BinningError(
            f"expected count {expected:.2f} per bin is below 5")
    u = np.clip(f, 0.0, np.nextafter(1.0, 0.0))
    observed = np.bincount((u * bins).astype(np.intp), minlength=bins)
    return float(((observed - expected) ** 2).sum() / expected)


def default_bins(n: int) -> int:
    # grows with N but keeps every expected count comfortably above 5
    return int(min(max(10, n // 50), n // 5))


# ---------------------------------------------------------------------------
# candidate laws, two-moment matched except LP3

def _fit_lp3(x, m, v):
    p = lp3.fit_from_moments(sample_moments(x)[0])
    return lambda y: lp3.cdf(p, y)


def _fit_normal(x, m, v):
    s = math.sqrt(v)
    return lambda y: ndtr((np.asarray(y, np.float64) - m) / s)


def _fit_lognormal(x, m, v):
    if m <= 0.0:
        raise GofError("lognormal needs a positive mean")
    s2 = math.log1p(v / (m * m))
    mu = math.log(m) - 0.5 * s2
    s = math.sqrt(s2)

    def f(y):
        y = np.asarray(y, np.float64)
        out = np.zeros(y.shape, np.float64)
        pos = y > 0.0
        out[pos] = ndtr((np.log(y[pos]) - mu) / s)
        return out

    return f


def _fit_gamma(x, m, v):
    if m <= 0.0:
        raise GofError("gamma needs a positive mean")
    shape = m * m / v
    scale = v / m

    def f(y):
        y = np.asarray(y, np.float64)
        out = np.zeros(y.shape, np.float64)
        pos = y > 0.0
        out[pos] = lp3.reg_gamma_p(shape, y[pos] / scale)
        return out

    return f


def _fit_inverse_gaussian(x, m, v):
    if m <= 0.0:
        raise GofError("inverse Gaussian needs a positive mean")
    lam = m ** 3 / v

    def f(y):
        y = np.asarray(y, np.float64)
        out = np.zeros(y.shape, np.float64)
        pos = y > 0.0
        yp = y[pos]
        r = np.sqrt(lam / yp)
        # second term computed in log space: exp(2 lam/m) alone overflows
        t1 = ndtr(r * (yp / m - 1.0))
        t2 = np.exp(2.0 * lam / m + log_ndtr(-r * (yp / m + 1.0)))
        out[pos] = np.clip(t1 + t2, 0.0, 1.0)
        return out

    return f


_CANDIDATES = (
    ("log_pearson3", _fit_lp3),
    ("normal", _fit_normal),
    ("lognormal", _fit_lognormal),
    ("gamma", _fit_gamma),
    ("inverse_gaussian", _fit_inverse_gaussian),
)


@dataclass
class CandidateResult:
    distribution: str
    fitted: bool
    error: str | None = None
    ks: float = math.nan
    ad: float = math.nan
    chi2: float = math.nan
    ks_rank: int = 0
    ad_rank: int = 0
    chi2_rank: int = 0


@dataclass
class GofReport:
    n: int
    bins: int
    rows: list

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            fh.write("distribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank\n")
            for r in self.rows:
                fh.write(f"{r.distribution},{r.ks:.17g},{r.ks_rank},"
                         f"{r.ad:.17g},{r.ad_rank},"
                         f"{r.chi2:.17g},{r.chi2_rank}\n")


def _assign_ranks(rows, stat_name, rank_name) -> None:
    # NaN (unfit or failed statistic) sorts last; ties break by name
    def key(r):
        v = getattr(r, stat_name)
        return (math.isnan(v), v if not math.isnan(v) else 0.0,
                r.distribution)

    for pos, r in enumerate(sorted(rows, key=key), start=1):
        setattr(r, rank_name, pos)


def rank_distributions(s: SampleSet, bins: int | None = None) -> GofReport:
    """Fit every candidate to the sample set and rank by KS, AD, chi^2.

    Candidates that fail to fit (or whose statistic is unevaluable, e.g.
    a cdf hitting an exact 0/1 at a sample) keep NaN for the affected
    statistics and rank behind every finite value.
    """
    x = np.sort(np.asarray(s.values, np.float64))
    n = x.size
    if n < 10_000:
        raise GofError(f"need at least 10000 samples, got {n}")
    nb = default_bins(n) if bins is None else int(bins)

    m = float(x.mean())
    v = float(x.var())
    rows = []
    for name, fitter in _CANDIDATES:
        row = CandidateResult(distribution=name, fitted=False)
        rows.append(row)
        if not v > 0.0:
            row.error = "degenerate sample variance"
            continue
        try:
            f = fitter(x, m, v)
        except (GofError, ParamError, lp3.Lp3Error, ValueError,
                ZeroDivisionError, OverflowError) as exc:
            row.error = str(exc)
            continue
        row.fitted = True
        fx = np.asarray(f(x), np.float64)  # one cdf pass feeds all three
        for stat_name, fn in (("ks", lambda: ks_statistic(fx)),
                              ("ad", lambda: ad_statistic(fx)),
                              ("chi2", lambda: chi2_statistic(fx, nb))):
            try:
                setattr(row, stat_name, fn())
            except GofError as exc:
                if row.error is None:
                    row.error = f"{stat_name}: {exc}"

    _assign_ranks(rows, "ks", "ks_rank")
    _assign_ranks(rows, "ad", "ad_rank")
    _assign_ranks(rows, "chi2", "chi2_rank")
    return GofReport(n=n, bins=nb, rows=rows)
