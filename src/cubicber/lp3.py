"""Log-Pearson type-III distribution and its three-moment fit.

If Y is LP3(alpha, beta, gamma) then (ln Y - gamma)/beta is gamma-distributed
with shape alpha and unit scale. beta may be negative, in which case the
support of Y is bounded above by exp(gamma).

The regularized incomplete gamma functions and their inverse are
implemented here in numpy, so that no special-function behavior is
imported blindly and the package needs no scipy. One array kernel,
_gamma_pq(a, x) for an array x and a shape a that is a scalar or one per
element, serves every caller (cdf, sf, reg_gamma_p, the quantile polish),
scalar or array alike: the lower series for x < a + 1, the modified-Lentz
continued fraction otherwise, and the uniform asymptotic expansion for a >
1e8 (DiDonato & Morris 1986; Gil, Segura & Temme 2012), chosen per
element. Each element stops at its own convergence point and converged
elements leave the active set, so an element's value does not depend on
the array it came in; an element that does not converge raises Lp3Error.

Laws stack: Lp3Params of equal-length arrays hold one law per element, and
logpdf, cdf, sf and moment broadcast them against y, elementwise. A law's
constants (ln Gamma(a), ln|beta|, ...) come from math once per law, as for
a single law, so a stacked law's values equal the single laws' bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import _ndtr, _ndtri


class Lp3Error(ValueError):
    """Domain or usage error in the LP3 machinery."""


class NoSolutionError(Lp3Error):
    """The three-moment system has no LP3 solution."""


class DivergentMomentError(Lp3Error):
    """Requested moment does not exist (n*beta >= 1)."""


@dataclass(frozen=True)
class Lp3Params:
    alpha: float  # shape, > 0
    beta: float   # scale of ln Y, nonzero; sign sets the skew direction
    gamma: float  # location of ln Y

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.alpha) > 0):
            raise Lp3Error("alpha must be > 0")
        if not np.all(np.isfinite(self.beta) & (np.asarray(self.beta) != 0)):
            raise Lp3Error("beta must be nonzero and finite")
        if not np.isfinite(self.gamma).all():
            raise Lp3Error("gamma must be finite")

    # detection's law interface, through the module functions' global names
    def cdf(self, y):
        return cdf(self, y)

    def sf(self, y):
        return sf(self, y)

    def logpdf(self, y):
        return logpdf(self, y)

    def mean(self):
        return moment(self, 1)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma functions: one array kernel.
# ---------------------------------------------------------------------------

_EPS = 1e-16
_FPMIN = 1e-300
_LARGE_SHAPE = 1e8  # switch to the uniform asymptotic above this
_CHUNK = 8192       # elements per kernel pass: bounds the working arrays


def _by_math(f, *args):
    # f of each law's parameters args (scalars, or equal-shaped arrays), by
    # math: numpy's vectorized log may differ from math.log by an ulp
    if not isinstance(args[0], np.ndarray):
        return f(*args)
    flat = zip(*(np.ravel(v).tolist() for v in args))
    return np.array([f(*v) for v in flat]).reshape(np.shape(args[0]))


def _log1p_ratio(dl, lam):
    # ln(1 + dl) for dl = lam - 1, lam = x/a, elementwise: log1p(dl), but
    # ln(lam) below lam = 1/2, where 1 + dl keeps lam only to eps/lam (and
    # is 0 below lam ~ eps). The clamp keeps log1p off dl = -1 there.
    out = np.log1p(np.maximum(dl, -0.75))
    far = lam < 0.5
    out[far] = np.log(lam[far])
    return out


def _phi(dl, lam):
    # dl - ln(1 + dl), elementwise, with lam = 1 + dl as in _log1p_ratio.
    # For |dl| < 0.1 the series sum_k (-dl)^k / k, k = 2..39, avoids the
    # cancellation: one term per pass over every such element, until each
    # last term is <= eps of its sum (<=, so that a zero sum stops). Each
    # later term is below 0.1 eps of the sum, under half an ulp, so each
    # element's sum stops changing at its own first such term.
    out = dl - _log1p_ratio(dl, lam)
    small = np.abs(dl) < 0.1
    nd = power = -dl[small]
    total = np.zeros(nd.size)
    for k in range(2, 40):
        power = power * nd
        term = power / k
        total = total + term
        if (np.abs(term) <= np.abs(total) * _EPS).all():
            break
    out[small] = total
    return out


def _log_prefactor(a, x):
    # ln( x^a e^-x / Gamma(a) ), elementwise in x; the shape a broadcasts
    # against x. The direct form loses up to a*ln(a)*eps absolute accuracy
    # in the exponent, ruinous for a >~ 1e4, so for a >= 100 cancel
    # Stirling's formula against a*ln(x) analytically, element by element.
    small = np.asarray(a) < 100.0
    if small.all():
        return -x + a * np.log(x) - _by_math(math.lgamma, a)
    dl = (x - a) / a
    ia = 1.0 / a
    stirling = ia * (1.0 / 12.0 + ia * ia * (-1.0 / 360.0 + ia * ia / 1260.0))
    big = (-a * _phi(dl, x / a)
           + _by_math(lambda v: 0.5 * math.log(v / (2.0 * math.pi)), a)
           - stirling)
    if not small.any():
        return big
    return np.where(small, -x + a * np.log(x) - _by_math(math.lgamma, a), big)


def _pq_series(a, x):
    # Lower series: P = x^a e^-x / Gamma(a+1) * sum x^n / ((a+1)...(a+n)),
    # one term per pass; converged elements leave the active set. All terms
    # are positive. Worst case needs ~ sqrt(a) terms when x ~ a; cap each
    # element generously. a: a scalar, or one shape per element of x.
    out = np.empty(x.shape)
    act = np.arange(x.size)
    xa, ap = x, a
    cap = 400 + (12.0 * np.sqrt(a)).astype(int)
    low = np.min(cap)
    term = np.ones(x.shape) / a
    total = term.copy()
    for n in range(1, np.max(cap) + 1):
        ap = ap + 1.0
        term *= xa / ap
        total += term
        done = term < total * _EPS
        if done.any():
            out[act[done]] = total[done]
            keep = ~done
            act, xa, term, total = act[keep], xa[keep], term[keep], total[keep]
            if np.ndim(a):
                ap, cap = ap[keep], cap[keep]
            if act.size == 0:
                p = out * np.exp(_log_prefactor(a, x))
                return np.minimum(p, 1.0), np.maximum(1.0 - p, 0.0)
        if n >= low and np.any(cap <= n):
            break
    raise Lp3Error("incomplete gamma series failed to converge")


def _pq_contfrac(a, x):
    # Upper continued fraction (modified Lentz); converged elements leave
    # the active set. a as in _pq_series.
    out = np.empty(x.shape)
    act = np.arange(x.size)
    aa = a
    cap = 499 + (12.0 * np.sqrt(a)).astype(int)  # passes of each element
    low = np.min(cap)
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _FPMIN)
    d = 1.0 / np.where(b != 0.0, b, _FPMIN)
    h = d.copy()
    for i in range(1, np.max(cap) + 1):
        an = -i * (i - aa)
        b += 2.0
        d *= an
        d += b
        d[np.abs(d) < _FPMIN] = _FPMIN
        c = an / c
        c += b
        c[np.abs(c) < _FPMIN] = _FPMIN
        np.divide(1.0, d, out=d)
        delt = d * c
        h *= delt
        done = np.abs(delt - 1.0) < _EPS
        if done.any():
            out[act[done]] = h[done]
            keep = ~done
            act, b, c, d, h = act[keep], b[keep], c[keep], d[keep], h[keep]
            if np.ndim(a):
                aa, cap = aa[keep], cap[keep]
            if act.size == 0:
                q = out * np.exp(_log_prefactor(a, x))
                return np.maximum(1.0 - q, 0.0), np.minimum(q, 1.0)
        if i >= low and np.any(cap <= i):
            break
    raise Lp3Error("incomplete gamma continued fraction failed to converge")


def _pq_asymptotic(a, x):
    # Uniform asymptotic for huge shape:
    #   Q(a, x) = Phi(-eta sqrt a) - exp(-a eta^2/2)/sqrt(2 pi a) * c0
    #   eta^2/2 = lam - 1 - ln lam,  sign(eta) = sign(lam - 1),
    #   c0 = 1/eta - 1/(lam - 1)  (limit 1/3 at lam -> 1).
    # The first dropped term is O(1/a) relative to c0, negligible here.
    lam = x / a
    dl = lam - 1.0
    eta2, c0 = 2.0 * _phi(dl, lam), np.empty(x.shape)
    near = np.abs(dl) < 1e-4
    df = dl[~near]
    c0[near] = 1.0 / 3.0 - dl[near] / 12.0
    c0[~near] = 1.0 / np.copysign(np.sqrt(eta2[~near]), df) - 1.0 / df
    z = np.copysign(np.sqrt(eta2), dl) * np.sqrt(a)
    corr = np.exp(-0.5 * z * z) / np.sqrt(2.0 * math.pi * a) * c0
    q = _ndtr(-z) - corr
    p = _ndtr(z) + corr
    return np.clip(p, 0.0, 1.0), np.clip(q, 0.0, 1.0)


def _gamma_pq(a, x):
    """(P(a, x), Q(a, x)) as arrays shaped like x, for shapes a > 0: a
    scalar, or an array that broadcasts to x's shape.

    Series for x < a + 1, continued fraction otherwise, uniform asymptotic
    for a > 1e8, chosen per element. Every element runs the same
    recurrence with its own stopping point, so a scalar is exactly a
    1-element array.
    """
    aa = np.asarray(a, float)
    xx = np.asarray(x, float)
    if (not (aa > 0).all()
            or np.broadcast_shapes(aa.shape, xx.shape) != xx.shape):
        raise Lp3Error("shape a must be > 0 and broadcast to x")
    if not (xx >= 0.0).all():  # NaN fails this too
        raise Lp3Error("argument x must be >= 0")
    flat = xx.ravel()
    af = np.broadcast_to(aa, xx.shape).ravel()
    p = (flat == math.inf).astype(float)  # 0 at x = 0, 1 at x = inf
    q = 1.0 - p
    mid = (flat > 0.0) & (flat < math.inf)
    big = af > _LARGE_SHAPE
    low = flat < af + 1.0
    for sel, kernel in ((mid & big, _pq_asymptotic),
                        (mid & ~big & low, _pq_series),
                        (mid & ~big & ~low, _pq_contfrac)):
        idx = np.flatnonzero(sel)
        for k in range(0, idx.size, _CHUNK):
            sub = idx[k:k + _CHUNK]
            # one law keeps its scalar shape: its constants come once
            p[sub], q[sub] = kernel(float(aa) if aa.ndim == 0 else af[sub],
                                    flat[sub])
    return p.reshape(xx.shape), q.reshape(xx.shape)


def reg_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x); scalar or ndarray x."""
    p = _gamma_pq(a, x)[0]
    return float(p) if p.ndim == 0 else p


# ---------------------------------------------------------------------------
# Distribution function, moments, quantiles.
# ---------------------------------------------------------------------------


def cdf(p: Lp3Params, y):
    """LP3 distribution function on the real line; scalar or ndarray y.

    Y > 0 almost surely, so cdf(y) = 0 for y <= 0: the y -> 0+ limit for
    either sign of beta. NaN raises Lp3Error.
    """
    return _cdf_sf(p, y, False)


def sf(p: Lp3Params, y):
    """P{Y > y} from the kernel's other tail (not 1 - cdf); y as in cdf."""
    return _cdf_sf(p, y, True)


def _cdf_sf(p, y, upper):
    yy = np.asarray(y, float)
    if np.isnan(yy).any():
        raise Lp3Error("y must not be NaN")
    yy = np.broadcast_to(yy, np.broadcast_shapes(yy.shape, np.shape(p.alpha)))
    out = np.full(yy.shape, float(upper))
    pos = yy > 0.0
    a, b, g = (v if np.ndim(v) == 0 else np.broadcast_to(v, yy.shape)[pos]
               for v in (p.alpha, p.beta, p.gamma))
    # z <= 0 is outside the support: P(a, 0) = 0 and Q(a, 0) = 1 there
    z = np.maximum((np.log(yy[pos]) - g) / b, 0.0)
    pq = _gamma_pq(a, z)
    out[pos] = np.where((b > 0) == upper, pq[1], pq[0])
    return float(out) if out.ndim == 0 else out


def logpdf(p: Lp3Params, y):
    """Log of the LP3 density, scalar or ndarray y; no incomplete gamma.

    -inf off the open support z = (ln y - gamma)/beta > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log(np.atleast_1d(np.asarray(y, float)))
        z = (ly - p.gamma) / p.beta
        out = np.where((0.0 < z) & (z < math.inf), _log_prefactor(p.alpha, z)
                       - np.log(z) - ly
                       - _by_math(lambda b: math.log(abs(b)), p.beta),
                       -math.inf)
    return float(out[0]) if np.ndim(y) == np.ndim(p.alpha) == 0 else out


def moment(p: Lp3Params, n: int):
    """Raw moment E{Y^n} = exp(n gamma) (1 - n beta)^(-alpha); needs n beta < 1.

    One per law of a stacked law."""
    if n < 1:
        raise Lp3Error("moment order must be >= 1")
    if np.any(n * np.asarray(p.beta) >= 1.0):
        raise DivergentMomentError(f"moment of order {n} diverges (n*beta >= 1)")
    return _by_math(lambda a, b, g: math.exp(n * g - a * math.log1p(-n * b)),
                    p.alpha, p.beta, p.gamma)


_GL = np.array([[0.1834346424956498, 0.5255324099163290, 0.7966664774136267,
                 0.9602898564975362],  # 8-node Gauss-Legendre: nodes x > 0
                [0.3626837833783620, 0.3137066458778873, 0.2223810344533745,
                 0.1012285362903763]])  # and their weights
_GL_X, _GL_W = np.r_[-_GL[0], _GL[0]], np.r_[_GL[1], _GL[1]]


def _refine_gamma_inv(a: float, target, z0, upper):
    # Halley polish of gamma-cdf inverses (arrays target, z0, upper) against
    # the local kernel at every shape, on the smaller tail: g = ln(F/target)
    # = 0, F = Q where upper and P elsewhere; with s = -1 for Q and 1 for P,
    # g' = s f/F, g''/g' = (a - 1)/z - 1 - s f/F. Steps are d z (Newton's u z)
    # and g bends on the scale L = min(F/f, z/4): an element stops at |d z| <=
    # 1e-6 L (error ~ (d z)^3/L^2), and after |d z| <= L its next F is F (1 +
    # s zf I), zf = z f/F, I = int_0^-d (1 + v)^(a-1) e^(-z v) dv by _GL.
    z0 = np.asarray(z0, float).ravel()
    out, idx = z0.copy(), np.flatnonzero(z0 > 0)  # a 0 seed (underflow) stays
    z, t, up = z0[idx], np.ravel(target)[idx], np.ravel(upper)[idx]
    fv, known = np.zeros(idx.size), np.zeros(idx.size, bool)
    for _ in range(60):
        pq = _gamma_pq(a, z[~known])
        fv[~known] = np.where(up[~known], pq[1], pq[0])
        # an empty tail means the seed overshot: step back toward the bulk
        znew, dl = np.where(up, 0.5, 2.0) * z, np.full(z.size, math.inf)
        r = fv > 0.0
        # in units of z, as z may be subnormal; zf in logs, as f may underflow
        zr, s = z[r], np.where(up[r], -1.0, 1.0)
        zf = np.exp(_log_prefactor(a, zr) - np.log(fv[r]))
        u = s * np.log(fv[r] / t[r]) / zf
        d = u / np.maximum(1.0 - 0.5 * u * (a - 1.0 - zr - s * zf), 0.5)
        znew[r], dl[r] = zr * (1.0 - d), np.abs(d) / np.minimum(1.0 / zf, 0.25)
        znew = np.where(znew > 0, znew, 0.5 * z)
        out[idx] = znew
        moving = ~((dl <= 1e-6) | (np.abs(znew - z) <= 1e-14 * z))  # NaN too
        known = moving & (dl <= 1.0)
        kr, c = known[r], -0.5 * d[known[r]]
        vs = c[:, None] * (1.0 + _GL_X)
        ratio = np.exp((a - 1.0) * np.log1p(vs) - z[known, None] * vs) @ _GL_W
        fv[known] *= 1.0 + s[kr] * c * zf[kr] * ratio
        idx, z, t, up, fv, known = (v[moving]
                                    for v in (idx, znew, t, up, fv, known))
        if idx.size == 0:
            break
    return out


def _gamma_inv(a: float, prob, upper: bool):
    """z with P(a, z) = prob, or Q(a, z) = prob if upper; prob in (0, 1).

    Polished on the smaller tail t (prob, or 1 - prob above 1/2: exact)
    from Wilson-Hilferty, a w^3 with w = 1 - 1/(9a) + x/(3 sqrt a), x the
    normal quantile of P, or where w <= 0.1 from (t Gamma(a+1))^(1/a)."""
    prob = np.asarray(prob, float)
    small = prob <= 0.5
    t, up = np.where(small, prob, 1.0 - prob), small == upper
    x = _ndtri(t)
    w = 1.0 - 1.0 / (9.0 * a) + np.where(up, -x, x) / (3.0 * math.sqrt(a))
    z0 = np.where(w > 0.1, a * w**3,
                  np.exp((np.log(t) + math.lgamma(a + 1.0)) / a))
    return _refine_gamma_inv(a, t, z0, up).reshape(prob.shape)


def quantile(p: Lp3Params, prob):
    """Inverse cdf; scalar or ndarray prob in (0, 1)."""
    pr = np.asarray(prob, float)
    if np.any((pr <= 0.0) | (pr >= 1.0)):
        raise Lp3Error("prob must lie strictly inside (0, 1)")
    out = np.exp(p.gamma + p.beta * _gamma_inv(p.alpha, pr, p.beta < 0))
    return float(out) if np.ndim(prob) == 0 else out


# ---------------------------------------------------------------------------
# Three-moment fit.
# ---------------------------------------------------------------------------

_NEAR_LOGNORMAL = 1e-9


def _g(beta: float) -> float:
    # Left side of the moment-ratio equation: 3 ln(1-b) - ln(1-3b) over
    # alpha's divisor 2 ln(1-b) - ln(1-2b) = b^2 + O(b^3) > 0. Monotone
    # increasing on (-inf, 1/3), limit 3 at 0 (removable), 2 at -inf, +inf
    # at 1/3.
    l1 = math.log1p(-beta)
    return ((3.0 * l1 - math.log1p(-3.0 * beta))
            / (2.0 * l1 - math.log1p(-2.0 * beta)))


def _solve_beta(rho: float) -> float:
    # Root of g(beta) = rho off rho = 3: bracket it, then bisect t to
    # adjacent floats on f(t) = target, f increasing. Above 3 the root lies
    # in (0, 1/3): steps toward 1/3 bracket it, t = beta and f = g. Below 3
    # it can sit at astronomically negative beta: powers of 256 bracket it,
    # t = ln(-beta) and f = -g(-exp(t)), as g(-exp(t)) decreases in t.
    if rho > 3.0:
        f, target, lo, hi = _g, rho, 1e-10, None
        for gap in (1.0 / 30.0, 1e-4, 1e-8, 1e-12, 2.3e-16):
            cand = 1.0 / 3.0 - gap
            if _g(cand) >= rho:
                hi = cand
                break
            lo = cand
        if hi is None:
            raise NoSolutionError(
                f"moment ratio rho={rho} is beyond the double-precision "
                "solvable range near beta = 1/3"
            )
    else:
        def f(t):
            return -_g(-math.exp(t))

        target, far = -rho, -0.5
        while _g(far) > rho:
            far *= 256.0
            if far < -1e300:
                raise NoSolutionError(
                    f"moment ratio rho={rho} has no representable "
                    "negative-branch solution (practical lower limit of g "
                    "is ~2)"
                )
        lo, hi = math.log(1e-10), math.log(-far)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return t if rho > 3.0 else -math.exp(t)


def fit_from_moments(m) -> Lp3Params:
    """Solve (alpha, beta, gamma) from raw moments m = (mu1, mu2, mu3).

    Near the lognormal point (moment ratio rho ~ 3) the system is
    ill-conditioned; there the fit degrades to a two-parameter lognormal
    match of (mu1, mu2) with beta pinned to +/-1e-9. On that fallback path
    the readback of mu1/mu2 through moment() is only good to ~1e-6 relative
    (float cancellation inherent to the parameterization), and mu3 is not
    matched at all.
    """
    mu1, mu2, mu3 = (float(v) for v in m)
    if not (mu1 > 0 and mu2 > 0 and mu3 > 0):
        raise NoSolutionError("moments must be positive")
    if math.inf in (mu1, mu2, mu3):  # sample moments of huge values
        raise NoSolutionError("moments must be finite")
    l1, l2, l3 = math.log(mu1), math.log(mu2), math.log(mu3)
    den = l2 - 2.0 * l1
    if den <= 0.0:
        raise NoSolutionError("ln(mu2) - 2 ln(mu1) must be positive (mu2 > mu1^2)")
    rho = (l3 - 3.0 * l1) / den
    if rho <= 1.0:
        raise NoSolutionError(f"moment ratio rho={rho} <= 1 has no LP3 solution")
    if abs(rho - 3.0) < _NEAR_LOGNORMAL:
        beta = math.copysign(_NEAR_LOGNORMAL, rho - 3.0)
    else:
        beta = _solve_beta(rho)
    alpha = den / (2.0 * math.log1p(-beta) - math.log1p(-2.0 * beta))
    gamma = l1 + alpha * math.log1p(-beta)
    return Lp3Params(alpha=alpha, beta=beta, gamma=gamma)
