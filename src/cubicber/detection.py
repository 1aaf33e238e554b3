"""Error probability of the on-off keyed receiver.

The decision variable under each bit follows a fitted LP3 law (or an
empirical sample law). Post-detection shot and thermal noise, conditionally
Gaussian given the decision level y with variance

    sigma^2(y) = 2 q_e y / T_p + 4 K_B T_r / (R_L T_p),

is folded in by integrating the level-dependent Gaussian kernel against the
clean-law cdf. The error probability for a threshold is the usual average
of the two conditional tail probabilities, optimized here by a coarse log
grid plus golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _si

from . import lp3
from .params import (
    DerivedParams,
    K_BOLTZMANN,
    ParamError,
    Q_ELECTRON,
    SystemParams,
)


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach tolerance."""


class BracketError(ValueError):
    """Threshold search bracket does not contain the optimum."""


@dataclass(frozen=True)
class NoisePhysics:
    """Shot/thermal noise constants of the electrical front end."""

    q_e: float = Q_ELECTRON   # coulombs
    k_b: float = K_BOLTZMANN  # joules/kelvin
    t_r: float = 300.0        # kelvin
    r_l: float = 1000.0       # ohms
    t_p: float = 5e-12        # seconds

    def __post_init__(self) -> None:
        for name in ("q_e", "k_b", "t_r", "r_l", "t_p"):
            if not getattr(self, name) > 0:
                raise ParamError(f"{name} must be > 0")

    def variance_at(self, y: float) -> float:
        """Conditional shot+thermal variance at decision level y (A^2)."""
        return (2.0 * self.q_e * max(y, 0.0)
                + 4.0 * self.k_b * self.t_r / self.r_l) / self.t_p


def noise_physics(sp: SystemParams, dp: DerivedParams) -> NoisePhysics:
    """NoisePhysics with the physical constants and the system's T_r, R_L."""
    return NoisePhysics(t_r=sp.t_r, r_l=sp.r_l, t_p=dp.t_p)


def cdf_shot_thermal(law0: lp3.Lp3Params, x: float,
                     phys: NoisePhysics) -> float:
    """cdf of Y + N at x, N | Y=y ~ Normal(0, sigma^2(y)), Y ~ LP3(law0).

    Written as integral over y of (-u'(y)) F_Y(y), u(y) = P{N <= x - y | y},
    obtained from the conditional form by parts; the truncated upper tail
    contributes u(y_hi) * P{Y > y_hi} ~ u(y_hi) exactly enough at the
    (1 - 1e-12) quantile cut.
    """
    x = float(x)
    qe_tp = phys.q_e / phys.t_p
    th_tp = 4.0 * phys.k_b * phys.t_r / (phys.r_l * phys.t_p)

    def sigma(y: float) -> float:
        return math.sqrt(2.0 * qe_tp * y + th_tp)

    def neg_uprime(y: float) -> float:
        s = sigma(y)
        wexp = (x - y) ** 2 / (2.0 * s * s)
        if wexp > 709.0:
            return 0.0
        return ((qe_tp * (x + y) + th_tp) / (s**3 * math.sqrt(2.0 * math.pi))
                * math.exp(-wexp))

    y_lo = lp3.quantile(law0, 1e-14)
    y_hi = lp3.quantile(law0, 1.0 - 1e-12)
    s_x = sigma(max(x, 0.0))
    hi = max(y_hi, x + 10.0 * s_x)
    lo = y_lo

    def integrand(y: float) -> float:
        return neg_uprime(y) * lp3.cdf(law0, y)

    pts = [p for p in (x - 8.0 * s_x, x, x + 8.0 * s_x) if lo < p < hi]
    val, err = _si.quad(integrand, lo, hi, points=pts or None,
                        epsabs=1e-12, epsrel=1e-10, limit=300)
    if err > 1e-9 + 1e-6 * abs(val):
        raise QuadratureError(
            f"shot/thermal cdf integral error estimate {err:g} too large")
    # tail above the cut: F_Y ~ 1 there, so it integrates to u(hi)
    s_hi = sigma(hi)
    tail = 0.5 * math.erfc((hi - x) / (s_hi * math.sqrt(2.0)))
    return min(max(val + tail, 0.0), 1.0)


@dataclass(frozen=True)
class BitConditionedLaw:
    """cdf of the decision variable conditioned on one transmitted bit.

    law is either an Lp3Params or a 1-d sample array (empirical law);
    attaching a NoisePhysics folds shot/thermal noise into an LP3 law.
    """

    bit: int
    law: object
    physics: NoisePhysics | None = None

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ParamError("bit must be 0 or 1")
        if isinstance(self.law, lp3.Lp3Params):
            return
        samples = np.sort(np.asarray(self.law, np.float64).ravel())
        if samples.size == 0:
            raise ParamError("empirical law needs at least one sample")
        if self.physics is not None:
            raise ParamError(
                "shot/thermal folding is only supported for LP3 laws")
        object.__setattr__(self, "law", samples)

    @property
    def with_shot_thermal(self) -> bool:
        return self.physics is not None

    def cdf(self, x: float) -> float:
        if isinstance(self.law, lp3.Lp3Params):
            if self.physics is not None:
                return cdf_shot_thermal(self.law, x, self.physics)
            return lp3.cdf(self.law, x)
        return float(np.searchsorted(self.law, x, side="right")) / self.law.size

    def mean(self) -> float:
        if isinstance(self.law, lp3.Lp3Params):
            return lp3.moment(self.law, 1)
        return float(self.law.mean())


def error_probability(f0: BitConditionedLaw, f1: BitConditionedLaw,
                      th: float) -> float:
    """PE at a fixed threshold: (1 - F0(th))/2 + F1(th)/2."""
    return 0.5 * (1.0 - f0.cdf(th)) + 0.5 * f1.cdf(th)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_threshold(f0: BitConditionedLaw, f1: BitConditionedLaw,
                       search=None):
    """Minimize PE over the threshold. Returns (th_opt, pe_min).

    search: optional (lo, hi) bracket; default spans mean0/100 to mean1*10.
    A coarse 256-point log grid locates the basin (PE is unimodal for
    stochastically ordered laws); golden-section then refines to 1e-10
    relative width. Raises BracketError when the minimum sits at a bracket
    endpoint, i.e. the optimum was not enclosed.
    """
    if search is None:
        lo = f0.mean() / 100.0
        hi = f1.mean() * 10.0
        if not lo > 0.0:
            lo = hi * 1e-18
    else:
        lo, hi = float(search[0]), float(search[1])
    if not (0.0 < lo < hi):
        raise BracketError(f"invalid threshold bracket ({lo}, {hi})")

    grid = np.geomspace(lo, hi, 256)
    pe = np.array([error_probability(f0, f1, t) for t in grid])
    interior_min = pe[1:-1].min()
    if min(pe[0], pe[-1]) < interior_min * (1.0 - 1e-9):
        raise BracketError(
            "PE decreases toward a bracket endpoint; widen the search")
    i = 1 + int(np.argmin(pe[1:-1]))

    a, b = grid[i - 1], grid[i + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = error_probability(f0, f1, c)
    fd = error_probability(f0, f1, d)
    best_t, best_p = (grid[i], float(pe[i]))
    while (b - a) > 1e-10 * b:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = error_probability(f0, f1, c)
            t, p = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = error_probability(f0, f1, d)
            t, p = d, fd
        if p < best_p:
            best_t, best_p = t, p
    return float(best_t), float(best_p)


def gaussian_approx_ber(m0: float, v0: float, m1: float, v1: float):
    """Optimal threshold and PE when both bit laws are taken Gaussian.

    The PE stationary point solves f0(th) = f1(th); for unequal variances
    that is a quadratic in th and the minimizing root lies between the
    means. Returns (th_opt, pe_min).
    """
    if not (v0 > 0.0 and v1 > 0.0):
        raise ParamError("variances must be > 0")
    if m1 < m0:
        raise ParamError("expected m0 <= m1")

    def pe_at(th: float) -> float:
        a = 0.5 * math.erfc((th - m0) / math.sqrt(2.0 * v0))
        b = 0.5 * math.erfc((m1 - th) / math.sqrt(2.0 * v1))
        return 0.5 * (a + b)

    if m0 == m1:
        return float(m0), 0.5
    if v0 == v1:
        th = 0.5 * (m0 + m1)
        return th, pe_at(th)
    # equate the two normal densities: quadratic coefficients
    qa = 1.0 / v0 - 1.0 / v1
    qb = -2.0 * (m0 / v0 - m1 / v1)
    qc = m0 * m0 / v0 - m1 * m1 / v1 + math.log(v0 / v1)
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:  # numerically degenerate; fall back to the midpoint
        th = 0.5 * (m0 + m1)
        return th, pe_at(th)
    rt = math.sqrt(disc)
    cands = [(-qb - rt) / (2.0 * qa), (-qb + rt) / (2.0 * qa)]
    th, pe = min(((t, pe_at(t)) for t in cands), key=lambda tp: tp[1])
    return float(th), float(pe)
