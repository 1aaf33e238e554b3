"""Error probability of the on-off keyed receiver.

Each bit's decision variable has a law with array cdf, sf, logpdf and
mean(): a fitted LP3 law, a NormalLaw (the Gaussian approximation), or a
ShotThermalLaw, whose post-detection shot/thermal noise, conditionally
Gaussian given the decision level y with variance

    sigma^2(y) = 2 q_e y / T_p + 4 K_B T_r / (R_L T_p),

is folded in by integrating a kernel at the threshold x against the
clean-law density f_Y(y): Phi((x - y)/sigma(y)) for the cdf, Phi((y -
x)/sigma(y)) for sf, or the density of N. The two terms of sigma^2, q_e/T_p
and the thermal variance, come from the receiver's DerivedParams
(params.derive). All three run on one fixed Gauss-Kronrod 7/15 panel rule
for an array of thresholds at once: the panel edges are about 30 LP3
quantiles (1e-13 to 1 - 1e-10, for the steep lower tail of the bit-0 law)
and, per threshold x, the levels y where (y - x)/sigma(y) runs over -10..14
in unit steps, all clipped to [lo, hi] with lo = clip(x - 10 sigma(x), 0,
quantile(1e-14)) and hi = max(quantile(1 - 1e-12), x + 10 sigma(x)). The
cdf adds the law's mass below lo and sf its mass above hi, where the kernel
is 1. A threshold whose summed |K15 - G7| over the panels exceeds 1e-9 +
1e-6 |value| is integrated again with each panel cut into 4, then 16, then
64 equal pieces (bit 0's law at PRD 1-1.1 spans 21 decades in y), and
raises QuadratureError past that.

PE = sf0/2 + cdf1/2 takes no 1 - cdf, so bit 0's tail keeps its digits
where cdf0 rounds to 1. PE' = (f1 - f0)/2: its minimum is a density crossing.

optimize_threshold also takes lists of law pairs, such as all pairs of one
ber-sweep task. Its LP3 pairs are searched as one law pair whose fields are
arrays, and so are its Gaussian pairs: each pair keeps its own grid and the
bits of its own search, but a bisection step takes one logpdf call per law
for them all. ShotThermalLaw pairs are searched alone. On 2 vCPUs the 15
LP3 searches of a 5-power, orders 1-3 sweep at PRD 10 take 12-23 ms so,
against 56-107 ms one by one, and its 15 Gaussian searches 2 ms against
12-15 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import lp3
from ._rng import _ndtr
from .params import DerivedParams, ParamError


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach tolerance."""


class BracketError(ValueError):
    """Threshold search bracket does not contain the optimum."""


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


@dataclass(frozen=True)
class NormalLaw:
    """Normal(m, v): the two-moment Gaussian approximation of a bit's law."""

    m: float  # mean
    v: float  # variance

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.v) > 0):
            raise ParamError("variances must be > 0")

    def cdf(self, x):
        return _ndtr((np.asarray(x, float) - self.m) / np.sqrt(self.v))

    def sf(self, x):
        return _ndtr((self.m - np.asarray(x, float)) / np.sqrt(self.v))

    def logpdf(self, x):
        return (-0.5 * (np.asarray(x, float) - self.m) ** 2 / self.v
                - lp3._by_math(lambda v: 0.5 * math.log(2.0 * math.pi * v),
                               self.v))

    def mean(self):
        return self.m


@dataclass(frozen=True)
class ShotThermalLaw:
    """Y + N: Y ~ LP3(clean), N | Y=y ~ Normal(0, sigma^2(y)) with
    sigma^2(y) = 2 dp.qe_tp y + dp.thermal_var."""

    clean: lp3.Lp3Params
    dp: DerivedParams

    def __post_init__(self) -> None:
        if not (0.0 < self.dp.qe_tp < math.inf
                and 0.0 < self.dp.thermal_var < math.inf):
            raise ParamError("shot and thermal noise terms must be > 0 and "
                             "finite")

    @cached_property
    def cuts(self):
        """The panel cuts of the clean law: its two cuts and fixed edges."""
        return lp3.quantile(self.clean, np.concatenate(
            [[1e-14], _EDGE_PROBS, [1.0 - 1e-12]]))

    def cdf(self, x):
        return cdf_shot_thermal(self, x)

    def sf(self, x):
        return _shot_thermal(self, x, "sf")

    def logpdf(self, x):
        return np.log(_shot_thermal(self, x, "pdf"))

    def mean(self) -> float:
        return self.clean.mean()


def cdf_shot_thermal(law: ShotThermalLaw, x):
    """cdf of the law at x, a scalar or an ndarray of thresholds.

    The integral over y of Phi((x - y)/sigma(y)) f_Y(y) over [lo, hi], on
    the panels above, plus the law's mass below lo. It leaves out the
    law's mass above hi, where the kernel is below Phi(-10) or the mass
    below 1e-12.
    """
    return _shot_thermal(law, x, "cdf")


def _shot_thermal(law, x, kind):
    # the law's cdf, sf or pdf (kind) at x
    xs = np.asarray(x, float)
    if not np.isfinite(xs).all():
        raise ParamError("threshold x must be finite")
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for k in range(0, flat.size, _BLOCK):
        out[k:k + _BLOCK] = _st_block(law, flat[k:k + _BLOCK], kind)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _st_block(law, x, kind):
    # One pass of _shot_thermal over the thresholds x (1-d). The panel
    # edges of threshold x_i are the fixed quantile edges plus its kernel
    # edges, clipped to [lo_i, hi_i]; clipped edges give empty panels, so
    # every threshold has the same panel count and the sums stay
    # per-row.
    cuts, qe_tp, th_tp = law.cuts, law.dp.qe_tp, law.dp.thermal_var
    s_x = np.sqrt(2.0 * qe_tp * np.maximum(x, 0.0) + th_tp)
    lo = np.clip(x - 10.0 * s_x, 0.0, cuts[0])
    hi = np.maximum(cuts[-1], x + 10.0 * s_x)
    # (y - x)^2 = w^2 sigma^2(y) solved for y on the side sign(w)
    w = _KERNEL_W
    kern = (x[:, None] + qe_tp * w * w
            + w * np.sqrt(s_x[:, None] ** 2 + (qe_tp * w) ** 2))
    edges = np.concatenate(
        [np.broadcast_to(cuts, (x.size, cuts.size)), kern, lo[:, None],
         hi[:, None]], axis=1)
    edges = np.sort(np.clip(edges, lo[:, None], hi[:, None]), axis=1)
    val, err = _gk_panels(law, x, edges, kind)
    # only the thresholds whose estimate fails run on split panels
    bad = np.flatnonzero(err > 1e-9 + 1e-6 * np.abs(val))
    for split in (4, 16, 64):
        if bad.size == 0:
            break
        e = edges[bad]
        t = np.arange(split) / split
        fine = e[:, :-1, None] + np.diff(e, axis=1)[..., None] * t
        fine = np.concatenate([fine.reshape(bad.size, -1), e[:, -1:]], axis=1)
        val[bad], err[bad] = _gk_panels(law, x[bad], fine, kind)
        bad = bad[err[bad] > 1e-9 + 1e-6 * np.abs(val[bad])]
    if bad.size:
        raise QuadratureError(f"shot/thermal integral error estimate "
                              f"{err[bad].max():g} too large")
    # the law's mass where the kernel is 1: above hi for sf, below lo for
    # the cdf
    if kind == "sf":
        val += lp3.sf(law.clean, hi)
    elif kind == "cdf":
        val += lp3.cdf(law.clean, lo)
    return val


def _gk_panels(law, x, edges, kind):
    # the Gauss-Kronrod 7/15 sums over the panels between the edges of each
    # threshold: (Kronrod value, summed |K15 - G7|) per threshold
    qe_tp, th_tp = law.dp.qe_tp, law.dp.thermal_var
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    y = mid[..., None] + half[..., None] * _GK_X  # (threshold, panel, node)
    xb = np.broadcast_to(x[:, None, None], y.shape)
    # the conditional kernel: phi(x; y, sigma^2(y)) for the pdf,
    # Phi((x - y)/sigma(y)) for the cdf and Phi((y - x)/sigma(y)) for sf.
    # Where it underflows to 0 the law is not needed.
    s2 = 2.0 * qe_tp * y + th_tp
    if kind == "pdf":
        f = np.exp(-(xb - y) ** 2 / (2.0 * s2))
        f /= np.sqrt(2.0 * math.pi * s2)
    else:
        f = _ndtr((xb - y) / np.sqrt(s2) * (1.0 if kind == "cdf" else -1.0))
    live = f > 0.0
    f[live] *= np.exp(lp3.logpdf(law.clean, y[live]))
    kron = (f * _GK_WK).sum(axis=2) * half
    gauss = (f * _GK_WG).sum(axis=2) * half
    return kron.sum(axis=1), np.abs(kron - gauss).sum(axis=1)


def error_probability(law0, law1, th):
    """PE at th, scalar or ndarray: law0.sf(th)/2 + law1.cdf(th)/2."""
    return 0.5 * law0.sf(th) + 0.5 * law1.cdf(th)


def _take(law, idx):
    # the laws idx (an index array) of a stacked law, whose fields are
    # arrays; a single law stands for itself at every index
    if np.ndim(getattr(law, fields(law)[0].name)) == 0:
        return law
    return type(law)(*(getattr(law, f.name)[idx] for f in fields(law)))


def optimize_threshold(law0, law1):
    """Minimize PE over the threshold. Returns (th_opt, pe_min).

    ln f1 - ln f0 of the laws (as in error_probability) is scanned on a
    256-point log grid from mean0/100 to mean1*10, each rise through 0 is
    bisected to adjacent floats, and PE is evaluated at the crossings and
    the grid ends. Raises BracketError when an end beats every crossing, or
    there is none although the densities differ; coincident laws give PE 1/2.

    Two equal-length lists of laws give a list: pair i (law0[i], law1[i])
    gets its (th_opt, pe_min), or the exception its search alone raises.
    The Lp3Params pairs are searched as one stacked pair, and so are the
    NormalLaw pairs (PE too takes one call per bit). Other pairs, and the
    pairs of a stack whose kernel raises, are searched one at a time.
    """
    if not isinstance(law0, list):
        (found,) = _search(law0, law1, 1)
        if isinstance(found, Exception):
            raise found
        return found
    found = [None] * len(law0)
    for kind in (lp3.Lp3Params, NormalLaw):
        idx = [i for i, pair in enumerate(zip(law0, law1, strict=True))
               if type(pair[0]) is type(pair[1]) is kind]
        if not idx:
            continue
        # the pairs idx as one law pair whose fields are arrays
        stacks = [kind(*(np.array([getattr(laws[i], f.name) for i in idx])
                         for f in fields(kind))) for laws in (law0, law1)]
        try:
            for i, out in zip(idx, _search(*stacks, len(idx))):
                found[i] = out
        except _LAW_ERRORS:
            pass
    return [_alone(*pair) if out is None else out
            for pair, out in zip(zip(law0, law1), found)]


# what a search raises for the laws it is given: their domain errors
# (ValueError), a failed quadrature, an overflow or an allocation
_LAW_ERRORS = (ValueError, ArithmeticError, QuadratureError, MemoryError)


def _alone(law0, law1):
    # the outcome of the search of one pair
    try:
        return optimize_threshold(law0, law1)
    except _LAW_ERRORS as exc:
        return exc


def _search(law0, law1, n):
    # the outcomes of optimize_threshold for the n pairs of law0 and law1
    found = [None] * n
    lo = np.broadcast_to(law0.mean() / 100.0, n)
    hi = np.broadcast_to(law1.mean() * 10.0, n)
    lo = np.where(lo > 0.0, lo, hi * 1e-18)
    ok = (0.0 < lo) & (lo < hi)
    for i in np.flatnonzero(~ok):
        found[i] = BracketError(f"invalid threshold bracket "
                                f"({float(lo[i])}, {float(hi[i])})")
    live = np.flatnonzero(ok)
    if live.size == 0:
        return found
    law0, law1 = _take(law0, live), _take(law1, live)
    lo, hi = lo[live], hi[live]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 densities
        grid = np.geomspace(lo, hi, 256)  # pair j's grid in column j
        d = (law1.logpdf(grid) - law0.logpdf(grid)).T
        # each rise through 0, by pair and then along its grid
        pair, row = np.nonzero((d[:, :-1] < 0.0) & (d[:, 1:] >= 0.0))
        a, b = grid[row, pair], grid[row + 1, pair]
        l0, l1 = _take(law0, pair), _take(law1, pair)
        while True:
            mid = 0.5 * (a + b)
            if not ((a < mid) & (mid < b)).any():
                break
            below = l1.logpdf(mid) - l0.logpdf(mid) < 0.0
            a, b = np.where(below, mid, a), np.where(below, b, mid)
    rises = np.bincount(pair, minlength=live.size)
    cands = {}  # pair -> its candidates: lo, its crossings and hi
    for j, i in enumerate(live):
        if rises[j] == 0 and (np.abs(d[j]) > 0.0).any():
            found[i] = BracketError(
                "the bit densities do not cross in the bracket")
        else:
            cands[j] = np.concatenate([[lo[j]], b[pair == j], [hi[j]]])
    if not cands:
        return found
    sizes = [c.size for c in cands.values()]
    owner = np.repeat(list(cands), sizes)
    pe = error_probability(_take(law0, owner), _take(law1, owner),
                           np.concatenate(list(cands.values())))
    for (j, c), p in zip(cands.items(), np.split(pe, np.cumsum(sizes)[:-1])):
        best = 1 + int(np.argmin(p[1:-1])) if rises[j] else int(np.argmin(p))
        if min(p[0], p[-1]) < p[best] * (1.0 - 1e-9):
            found[live[j]] = BracketError(
                "PE decreases toward a bracket endpoint")
        else:
            found[live[j]] = (float(c[best]), float(p[best]))
    return found
