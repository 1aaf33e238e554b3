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

from . import lp3
from .detection import NormalLaw
from ._rng import _log_ndtr, _ndtr
from .montecarlo import SampleSet, sample_moments

# the fewest samples rank_distributions ranks
MIN_SAMPLES = 10_000


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
        raise BinningError(f"expected count {expected:.2f} per bin is below 5")
    u = np.clip(f, 0.0, np.nextafter(1.0, 0.0))
    observed = np.bincount((u * bins).astype(np.intp), minlength=bins)
    return float(((observed - expected) ** 2).sum() / expected)


# ---------------------------------------------------------------------------
# candidate cdfs fitted from the raw sample moments mus and the variance v.
# The rank takes them only at its samples, all >= 0; each is 0 at y = 0.

def _fit_lognormal(mus, v):
    s2 = math.log1p(v / (mus[0] * mus[0]))
    mu = math.log(mus[0]) - 0.5 * s2
    s = math.sqrt(s2)

    def f(y):
        with np.errstate(divide="ignore"):  # ln 0 = -inf
            return _ndtr((np.log(y) - mu) / s)

    return f


def _fit_gamma(mus, v):
    shape, scale = mus[0] * mus[0] / v, v / mus[0]
    return lambda y: lp3.reg_gamma_p(shape, y / scale)


def _fit_inverse_gaussian(mus, v):
    m = mus[0]
    try:
        lam = m ** 3 / v
    except OverflowError:  # ** raises where * would give inf
        raise GofError("mean**3 overflows a float") from None

    def f(y):
        with np.errstate(divide="ignore"):  # lam / 0 = inf
            r = np.sqrt(lam / y)
        # second term computed in log space: exp(2 lam/m) alone overflows
        t1 = _ndtr(r * (y / m - 1.0))
        t2 = np.exp(2.0 * lam / m + _log_ndtr(-r * (y / m + 1.0)))
        return np.clip(t1 + t2, 0.0, 1.0)

    return f


_CANDIDATES = (
    ("log_pearson3", lambda mus, v: lp3.fit_from_moments(mus).cdf),
    ("normal", lambda mus, v: NormalLaw(mus[0], v).cdf),
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

    def csv_lines(self) -> list[str]:
        """The report's CSV header and rows, without the schema line."""
        return ["distribution,ks,ks_rank,ad,ad_rank,chi2,chi2_rank"] + [
            f"{r.distribution},{r.ks:.17g},{r.ks_rank},{r.ad:.17g},"
            f"{r.ad_rank},{r.chi2:.17g},{r.chi2_rank}" for r in self.rows]

    def lines(self) -> list[str]:
        """One text row per candidate, naming a failed fit or statistic."""
        return [f"  {r.distribution:18s} ks={r.ks:.6g} r{r.ks_rank} "
                f"ad={r.ad:.6g} r{r.ad_rank} chi2={r.chi2:.6g} r{r.chi2_rank}"
                + ("" if r.error is None else
                   f"  [{'' if r.fitted else 'unfit: '}{r.error}]")
                for r in self.rows]


def _assign_ranks(rows, stat_name) -> None:
    # NaN (unfit or failed statistic) sorts last; ties break by name
    def key(r):
        v = getattr(r, stat_name)
        return (math.isnan(v), v if not math.isnan(v) else 0.0,
                r.distribution)

    for pos, r in enumerate(sorted(rows, key=key), start=1):
        setattr(r, f"{stat_name}_rank", pos)


def rank_distributions(s: SampleSet) -> GofReport:
    """Fit every candidate to the sample set and rank by KS, AD, chi^2.

    Chi^2 takes N // 50 bins, 50 expected samples a bin. Candidates that
    fail to fit keep NaN for every statistic, and those whose cdf hits an
    exact 0 or 1 at a sample keep NaN for AD; NaN ranks behind every
    finite value.
    """
    x = np.sort(np.asarray(s.values, np.float64))
    n = x.size
    if n < MIN_SAMPLES:
        raise GofError(f"need at least {MIN_SAMPLES} samples, got {n}")
    nb = n // 50

    mus = sample_moments(x)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        v = float(x.var())  # two passes: mu2 - mu1^2 cancels at small spread
    rows = []
    for name, fitter in _CANDIDATES:
        row = CandidateResult(distribution=name, fitted=False)
        rows.append(row)
        try:
            if not math.isfinite(v):
                raise GofError("sample variance overflows a float")
            if not v > 0.0:
                raise GofError("degenerate sample variance")
            f = fitter(mus, v)
        except (ValueError, ArithmeticError) as exc:
            row.error = str(exc)
            continue
        row.fitted = True
        fx = np.asarray(f(x), np.float64)  # one cdf pass feeds all three
        row.ks = ks_statistic(fx)
        row.chi2 = chi2_statistic(fx, nb)
        try:
            row.ad = ad_statistic(fx)
        except BoundaryError as exc:
            row.error = f"ad: {exc}"

    for stat_name in ("ks", "ad", "chi2"):
        _assign_ranks(rows, stat_name)
    return GofReport(n=n, bins=nb, rows=rows)
