"""Error probability of the on-off keyed receiver.

The decision variable under each bit follows a fitted LP3 law.
Post-detection shot and thermal noise, conditionally Gaussian given the
decision level y with variance

    sigma^2(y) = 2 q_e y / T_p + 4 K_B T_r / (R_L T_p),

is folded in by integrating the level-dependent Gaussian kernel against the
clean-law cdf, or density. Both run on one fixed Gauss-Kronrod 7/15 panel
rule for a whole array of thresholds at once: the panel edges are about 30
LP3 quantiles (1e-13 to 1 - 1e-10, for the steep lower tail of the bit-0
law) and, per threshold x, the levels y where (y - x)/sigma(y) runs over
-10..14 in unit steps. The error gate is the summed |K15 - G7| over the
panels: above 1e-9 + 1e-6 |value| it raises QuadratureError.

PE, the average of the two conditional tail probabilities, has derivative
(f1 - f0)/2, so its minimum is a crossing of the two bit densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sc

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


def noise_physics(sp: SystemParams, dp: DerivedParams) -> NoisePhysics:
    """NoisePhysics with the physical constants and the system's T_r, R_L."""
    return NoisePhysics(t_r=sp.t_r, r_l=sp.r_l, t_p=dp.t_p)


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): nodes, Kronrod
# weights, and the Gauss weights on the same nodes (0 at the Kronrod-only
# nodes).
_GK_X = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
_GK_WK = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
_GK_WG = np.array([
    0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189,
    0.0, 0.4179591836734694, 0.0, 0.3818300505051189, 0.0, 0.27970539148927664,
    0.0, 0.1294849661688697, 0.0])

# Panel edges that do not move with the threshold: LP3 quantiles that
# resolve the steep lower tail of the bit-0 law.
_EDGE_PROBS = np.concatenate([
    10.0 ** np.arange(-13.0, -1.0),
    [0.03, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.97],
    1.0 - 10.0 ** np.arange(-2.0, -11.0, -1.0)])
# Panel edges at the threshold x: the levels y with (y - x)/sigma(y) = w.
_KERNEL_W = np.linspace(-10.0, 14.0, 25)
# Thresholds per array pass: bounds the (threshold, panel, node) arrays.
_BLOCK = 16


def cdf_shot_thermal(law0: lp3.Lp3Params, x, phys: NoisePhysics):
    """cdf of Y + N at x, N | Y=y ~ Normal(0, sigma^2(y)), Y ~ LP3(law0).

    x is a scalar or an ndarray of thresholds. Written as the integral over
    y of (-u'(y)) F_Y(y), u(y) = P{N <= x - y | y}, obtained from the
    conditional form by parts, over [quantile(1e-14), max(quantile(1 -
    1e-12), x + 10 sigma(x))]; the truncated upper tail contributes u(hi)
    * P{Y > hi} ~ u(hi), exactly enough at the cut. The integral is a sum
    of fixed Gauss-Kronrod 7/15 panels (see _st_block); a threshold whose
    summed |K15 - G7| exceeds 1e-9 + 1e-6 |value| raises QuadratureError.
    """
    return _shot_thermal(law0, x, phys, density=False)


def _shot_thermal(law0, x, phys, density):
    # cdf_shot_thermal, or with density the density of Y + N at x
    xs = np.asarray(x, float)
    if not np.isfinite(xs).all():
        raise ParamError("threshold x must be finite")
    # the two cuts and the fixed edges, once per call
    cuts = lp3.quantile(law0, np.concatenate(
        [[1e-14], _EDGE_PROBS, [1.0 - 1e-12]]))
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for k in range(0, flat.size, _BLOCK):
        out[k:k + _BLOCK] = _st_block(law0, flat[k:k + _BLOCK], cuts, phys,
                                      density)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _st_block(law0, x, cuts, phys, density):
    # One pass of _shot_thermal over the thresholds x (1-d). The panel
    # edges of threshold x_i are the fixed quantile edges plus its kernel
    # edges, clipped to [lo, hi_i]; clipped edges give empty panels, so
    # every threshold has the same panel count and the sums stay
    # per-row.
    qe_tp = phys.q_e / phys.t_p
    th_tp = 4.0 * phys.k_b * phys.t_r / (phys.r_l * phys.t_p)
    lo, y_hi = cuts[0], cuts[-1]
    s_x = np.sqrt(2.0 * qe_tp * np.maximum(x, 0.0) + th_tp)
    hi = np.maximum(y_hi, x + 10.0 * s_x)
    # (y - x)^2 = w^2 sigma^2(y) solved for y on the side sign(w)
    w = _KERNEL_W
    kern = (x[:, None] + qe_tp * w * w
            + w * np.sqrt(s_x[:, None] ** 2 + (qe_tp * w) ** 2))
    edges = np.concatenate(
        [np.broadcast_to(cuts, (x.size, cuts.size)), kern, hi[:, None]],
        axis=1)
    edges = np.sort(np.clip(edges, lo, hi[:, None]), axis=1)
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    y = mid[..., None] + half[..., None] * _GK_X  # (threshold, panel, node)
    xb = np.broadcast_to(x[:, None, None], y.shape)
    # phi(x; y, sigma^2(y)) for the density, -u'(y) for the cdf; it
    # underflows to 0 far from x, where the law is not needed
    s2 = 2.0 * qe_tp * y + th_tp
    f = np.exp(-(xb - y) ** 2 / (2.0 * s2))
    if density:
        f /= np.sqrt(2.0 * math.pi * s2)
    else:
        f *= (qe_tp * (xb + y) + th_tp) / (s2 * np.sqrt(2.0 * math.pi * s2))
    live = f > 0.0
    f[live] *= (np.exp(lp3.logpdf(law0, y[live])) if density
                else lp3.cdf(law0, y[live]))
    kron = (f * _GK_WK).sum(axis=2) * half
    gauss = (f * _GK_WG).sum(axis=2) * half
    val = kron.sum(axis=1)
    err = np.abs(kron - gauss).sum(axis=1)
    if (err > 1e-9 + 1e-6 * np.abs(val)).any():
        raise QuadratureError(f"shot/thermal integral error estimate "
                              f"{err.max():g} too large")
    if density:  # the mass beyond the cuts is below 1e-12
        return val
    # tail above the cut: F_Y ~ 1 there, so it integrates to u(hi)
    s_hi = np.sqrt(2.0 * qe_tp * hi + th_tp)
    tail = 0.5 * _sc.erfc((hi - x) / (s_hi * math.sqrt(2.0)))
    return np.clip(val + tail, 0.0, 1.0)


def error_probability(law0: lp3.Lp3Params, law1: lp3.Lp3Params, th,
                      phys: NoisePhysics | None = None):
    """PE at a threshold th, scalar or ndarray: (1 - F0(th))/2 + F1(th)/2.

    F_b is the cdf of the fitted LP3 law of bit b; with phys, shot/thermal
    noise is folded into it (cdf_shot_thermal).
    """
    if phys is None:
        f0, f1 = lp3.cdf(law0, th), lp3.cdf(law1, th)
    else:
        f0 = cdf_shot_thermal(law0, th, phys)
        f1 = cdf_shot_thermal(law1, th, phys)
    return 0.5 * (1.0 - f0) + 0.5 * f1


def optimize_threshold(law0: lp3.Lp3Params, law1: lp3.Lp3Params,
                       phys: NoisePhysics | None = None):
    """Minimize PE over the threshold. Returns (th_opt, pe_min).

    phys as in error_probability. ln f1 - ln f0 is scanned on a 256-point
    log grid from mean0/100 to mean1*10, each rise through 0 is bisected to
    adjacent floats, and PE is evaluated at the crossings and the grid
    ends. Raises BracketError when an end beats every crossing, or there is
    none although the densities differ; coincident laws give PE 1/2.
    """
    lo = lp3.moment(law0, 1) / 100.0
    hi = lp3.moment(law1, 1) * 10.0
    if not lo > 0.0:
        lo = hi * 1e-18
    if not (0.0 < lo < hi):
        raise BracketError(f"invalid threshold bracket ({lo}, {hi})")

    def gap(th):
        if phys is None:
            return lp3.logpdf(law1, th) - lp3.logpdf(law0, th)
        return (np.log(_shot_thermal(law1, th, phys, density=True))
                - np.log(_shot_thermal(law0, th, phys, density=True)))

    with np.errstate(divide="ignore", invalid="ignore"):  # 0 densities
        grid = np.geomspace(lo, hi, 256)
        d = gap(grid)
        rise = np.flatnonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))
        a, b = grid[rise], grid[rise + 1]
        while True:
            mid = 0.5 * (a + b)
            if not ((a < mid) & (mid < b)).any():
                break
            below = gap(mid) < 0.0
            a, b = np.where(below, mid, a), np.where(below, b, mid)
    if rise.size == 0 and (np.abs(d) > 0.0).any():
        raise BracketError("the bit densities do not cross in the bracket")
    cands = np.concatenate([[lo], b, [hi]])
    pe = error_probability(law0, law1, cands, phys)
    i = 1 + int(np.argmin(pe[1:-1])) if rise.size else int(np.argmin(pe))
    if min(pe[0], pe[-1]) < pe[i] * (1.0 - 1e-9):
        raise BracketError("PE decreases toward a bracket endpoint")
    return float(cands[i]), float(pe[i])


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
