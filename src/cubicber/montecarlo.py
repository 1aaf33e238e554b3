"""Monte-Carlo generation of receiver decision-variable samples.

The optical field over the decision window is reconstructed from its
Nyquist-rate samples: r(u) = b*sqrt(P_r)*sinc(u) + sum_m c_m sinc(u - m)
in normalized time u = t/tau_c, with i.i.d. complex Gaussian coefficients
c_m of per-quadrature standard deviation sigma0. Over all integers m the
noise autocorrelation would be exactly sinc; the sum keeps m only up to
WINDOW = 32 past each end of the window, which leaves the bit-0 moments
mu1, mu2 and mu3 low by about 0.8%, 1.5% and 2.1% at PRD 10. Decision
variables are trapezoid integrals of |r|^2n over the window at step
1/OVERSAMPLE = 1/16 (exactly, when PRD * 16 is whole), divided by PRD
and scaled by the order's detector scale.

Randomness is counter-based: a sample is a pure function of (seed, bit,
trial index, config), so trials can be generated in any order and in
chunks of any size, with bitwise-identical results. The noise field does
not depend on the received power, so one draw of it serves several
powers (generate_samples with powers=), bitwise as separate draws.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _mc_numpy
from .params import DerivedParams, ParamError, SystemParams

OVERSAMPLE = 16      # grid nodes per tau_c
WINDOW = 32          # sinc coefficients kept past each end of the span
SEED_LIMIT = 2**64   # Philox key width
TRIAL_LIMIT = 2**63  # trial indices are int64


@dataclass(frozen=True)
class SampleSet:
    """Decision-variable samples for one receiver order and one bit."""

    order: int
    bit: int
    values: np.ndarray  # amperes
    start_trial: int = 0

    def __post_init__(self) -> None:
        if self.order not in (1, 2, 3):
            raise ParamError("order must be 1, 2, or 3")
        if self.bit not in (0, 1):
            raise ParamError("bit must be 0 or 1")
        vals = np.asarray(self.values, np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ParamError("values must be a nonempty 1-d array")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ParamError("decision samples must be finite and >= 0")


def _grid(span_u: float):
    # span_u: integration span in units of tau_c. The nodes split it into
    # n = round(span_u * OVERSAMPLE) equal steps, exactly 1/OVERSAMPLE when
    # span_u * OVERSAMPLE is whole; coefficient indices run WINDOW past
    # the span edge, and the sinc tails beyond are discarded.
    n = max(1, int(round(span_u * OVERSAMPLE)))
    u = -0.5 * span_u + np.arange(n + 1) / (n / span_u)
    mmax = int(math.floor(0.5 * span_u + WINDOW))
    coeffs = np.arange(-mmax, mmax + 1)
    basis = np.sinc(u[:, None] - coeffs[None, :])
    weights = np.full(n + 1, span_u / n)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return u, basis, weights


def generate_samples(sp: SystemParams, dp: DerivedParams, bit: int,
                     n_trials: int, orders=(1, 2, 3), seed: int = 0,
                     start_trial: int = 0, powers=None):
    """Decision samples for one bit, all requested receiver orders at once.

    The three orders share the same synthesized field, so requesting them
    together costs the same as any single one. Returns {order: SampleSet}.

    With powers, a sequence of received powers p_r in watts, returns one
    {order: SampleSet} per power, each bitwise the one that
    generate_samples(replace(sp, p_r=p), ...) returns. The noise field does
    not depend on p_r, so it is drawn and synthesized once for all of them.
    """
    if bit not in (0, 1):
        raise ParamError("bit must be 0 or 1")
    if n_trials < 1:
        raise ParamError("n_trials must be >= 1")
    if not 0 <= seed < SEED_LIMIT:
        raise ParamError("seed must be in [0, 2^64)")
    if not 0 <= start_trial <= TRIAL_LIMIT - n_trials:
        raise ParamError("trial indices must lie in [0, 2^63)")
    orders = tuple(orders)
    if not orders or any(o not in (1, 2, 3) for o in orders):
        raise ParamError("orders must be a nonempty subset of {1, 2, 3}")
    systems = [sp] if powers is None else [replace(sp, p_r=p) for p in powers]
    if not systems:
        raise ParamError("powers must be nonempty")
    u, basis, weights = _grid(sp.prd)
    pulse = np.sinc(u)
    sigs = np.stack([(math.sqrt(s.p_r) if bit == 1 else 0.0) * pulse
                     for s in systems])
    sigma0 = math.sqrt(dp.sigma0_sq)
    sums = _mc_numpy.decision_sums(seed, start_trial, n_trials, bit, basis,
                                   weights, sigs, sigma0)
    # the detector scale of order 3 is R k Gamma^2; order 1's is R, and
    # order 2 takes R as a placeholder: a unit quartic detector efficiency
    scale = {o: (dp.cubic_scale if o == 3 else dp.responsivity) / sp.prd
             for o in orders}
    out = [{o: SampleSet(order=o, bit=bit, values=scale[o] * s[:, o - 1],
                         start_trial=start_trial) for o in orders}
           for s in sums]
    return out[0] if powers is None else out


def sample_moments(values):
    """Raw sample moments and their standard errors.

    Returns ((mu1, mu2, mu3), (se1, se2, se3)). The jackknife standard
    error of a sample mean reduces exactly to std(ddof=1)/sqrt(N), so it is
    computed that way for each power (NaN for a single value). No sign
    check: all-zero samples give exact zero moments.
    """
    y = np.asarray(values, np.float64)
    n = y.size
    # y^2, y^3 and the y^6 of se3 overflow for large y, to an inf moment
    # or an inf or NaN standard error; callers check what they use
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [y**k for k in (1, 2, 3)]
        mus = tuple(float(yk.mean()) for yk in powers)
        ses = tuple(float(yk.std(ddof=1) / math.sqrt(n)) if n > 1
                    else math.nan for yk in powers)
    return mus, ses


def empirical_ber(s0: SampleSet, s1: SampleSet):
    """Optimal-threshold empirical error rate between two sample sets.

    Thresholds are taken at the midpoints of adjacent pooled order
    statistics (exact optimum for a pair of empirical cdfs). The decision
    rule is "bit 1 iff y > th", applied consistently to both sides, so
    pe = (P{s0 > th} + P{s1 <= th}) / 2; with a strict < on the second
    count, a threshold that collides with tied sample values would credit
    the ties as correct for both bits at once, which no deterministic
    detector can do. Returns (threshold, pe).
    """
    if s0.order != s1.order:
        raise ParamError("sample sets must have the same receiver order")
    a = np.sort(s0.values)
    b = np.sort(s1.values)
    pooled = np.sort(np.concatenate([a, b]))
    mids = 0.5 * (pooled[1:] + pooled[:-1])
    frac0_above = 1.0 - np.searchsorted(a, mids, side="right") / a.size
    frac1_below = np.searchsorted(b, mids, side="right") / b.size
    pe = 0.5 * (frac0_above + frac1_below)
    i = int(np.argmin(pe))
    best = float(pe[i])
    if best > 0.5:  # degenerate orderings: an extreme threshold does better
        return float(pooled[-1] + 1.0), 0.5
    return float(mids[i]), best


def save_csv(path, sample_sets) -> None:
    """Write a list of sample sets as CSV: columns trial,order,bit,value."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["trial", "order", "bit", "value"])
        for s in sample_sets:
            for i, v in enumerate(s.values, start=s.start_trial):
                wr.writerow([i, s.order, s.bit, f"{v:.17g}"])


def load_csv(path) -> list[SampleSet]:
    """Read sample sets written by save_csv, grouped by (order, bit).

    Each group must hold one contiguous run of trial indices.
    """
    groups: dict[tuple[int, int], list[tuple[int, float]]] = {}
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != ["trial", "order", "bit", "value"]:
            raise ParamError(f"unrecognized sample CSV header: {header}")
        for row in rd:
            if not row:
                continue
            trial, order, bit, value = row
            groups.setdefault((int(order), int(bit)), []).append(
                (int(trial), float(value)))
    out = []
    for (order, bit), rows in sorted(groups.items()):
        rows.sort()
        first = rows[0][0]
        if [t for t, _ in rows] != list(range(first, first + len(rows))):
            raise ParamError(f"trial indices of order={order} bit={bit} "
                             "repeat or are not contiguous")
        vals = np.array([v for _, v in rows])
        out.append(SampleSet(order=order, bit=bit, values=vals,
                             start_trial=first))
    return out
