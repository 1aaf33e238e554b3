"""Log-Pearson type-III distribution and its three-moment fit.

If Y is LP3(alpha, beta, gamma) then (ln Y - gamma)/beta is gamma-distributed
with shape alpha and unit scale. beta may be negative, in which case the
support of Y is bounded above by exp(gamma).

The regularized incomplete gamma functions used by the cdf are implemented
here so that no special-function behavior is imported blindly; scipy is
used only to invert the gamma cdf for quantiles. One array kernel,
_gamma_pq(a, x) for a scalar shape a and an array x, serves every caller
(cdf, reg_gamma_p, the quantile polish), scalar or array alike: the
lower series for x < a + 1, the modified-Lentz continued fraction
otherwise, and the uniform asymptotic expansion for a > 1e8 (DiDonato &
Morris 1986; Gil, Segura & Temme 2012). Each element stops at its own
convergence point and converged elements leave the active set, so an
element's value does not depend on the array it came in; an element that
does not converge raises Lp3Error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sc


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
        if not self.alpha > 0:
            raise Lp3Error("alpha must be > 0")
        if self.beta == 0 or not math.isfinite(self.beta):
            raise Lp3Error("beta must be nonzero and finite")
        if not math.isfinite(self.gamma):
            raise Lp3Error("gamma must be finite")


# ---------------------------------------------------------------------------
# Regularized incomplete gamma functions: one array kernel.
# ---------------------------------------------------------------------------

_EPS = 1e-16
_FPMIN = 1e-300
_LARGE_SHAPE = 1e8  # switch to the uniform asymptotic above this
_BLOCK = 32         # fewest series terms formed per array pass
_CHUNK = 8192       # elements per kernel pass: bounds the series' term table


def _accumulate(ufunc, rows):
    # ufunc.accumulate(rows, axis=0), the sequential running result down
    # each column. numpy's accumulate walks the columns one by one, so for
    # wide arrays a loop over the rows is faster; both round alike.
    if rows.shape[1] < 256:
        return ufunc.accumulate(rows, axis=0)
    out = np.empty_like(rows)
    out[0] = rows[0]
    for i in range(1, rows.shape[0]):
        ufunc(out[i - 1], rows[i], out=out[i])
    return out


def _first_below_eps(terms, totals):
    # Per column: the first row whose term is below eps relative to the
    # partial sum, or -1 where no row is.
    conv = np.abs(terms) < np.abs(totals) * _EPS
    return np.where(conv.any(axis=0), conv.argmax(axis=0), -1)


def _phi(dl):
    # dl - log1p(dl), elementwise. For |dl| < 0.1 the alternating series
    # sum_k (-1)^k dl^k / k, k >= 2, avoids the cancellation; each element
    # stops at its first term below eps relative to the partial sum.
    out = dl - np.log1p(dl)
    small = np.abs(dl) < 0.1
    if small.any():
        d = dl[small]
        k = np.arange(2, 40)[:, None]
        powers = _accumulate(np.multiply, np.vstack(
            [d * d, np.broadcast_to(d, (k.size - 1, d.size))]))
        terms = np.where(k % 2 == 0, 1.0, -1.0) * powers / k
        totals = _accumulate(np.add, terms)
        first = _first_below_eps(terms, totals)
        out[small] = totals[first, np.arange(d.size)]
    return out


def _log_prefactor(a: float, x):
    # ln( x^a e^-x / Gamma(a) ), elementwise in x. The direct form loses up
    # to a*ln(a)*eps absolute accuracy in the exponent, ruinous for
    # a >~ 1e4, so for large a cancel Stirling's formula against a*ln(x)
    # analytically.
    if a < 100.0:
        return -x + a * np.log(x) - math.lgamma(a)
    dl = (x - a) / a
    ia = 1.0 / a
    stirling = ia * (1.0 / 12.0 + ia * ia * (-1.0 / 360.0 + ia * ia / 1260.0))
    return -a * _phi(dl) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _pq_series(a: float, x):
    # Lower series: P = x^a e^-x / Gamma(a+1) * sum x^n / ((a+1)...(a+n)).
    # A block of terms at a time: the running products and sums are
    # sequential accumulations, so each element gets the sum of the
    # term-by-term recurrence, stopped at its first term below eps. Few
    # elements take long blocks, which cost little more than short ones.
    # Worst case needs ~ sqrt(a) terms when x ~ a; cap generously.
    cap = 400 + int(12.0 * math.sqrt(a))
    ap = np.add.accumulate(np.concatenate(([a], np.ones(cap))))[1:]
    rows = max(_BLOCK, 4096 // x.size)
    out = np.empty(x.shape)
    act = np.arange(x.size)
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    for j in range(0, cap, rows):
        # rows: successive terms; columns: the active elements
        ratio = x[act] / ap[j:j + rows, None]
        terms = _accumulate(np.multiply, np.vstack([term, ratio]))[1:]
        totals = _accumulate(np.add, np.vstack([total, terms]))[1:]
        first = _first_below_eps(terms, totals)
        done = first >= 0
        out[act[done]] = totals[first[done], done]
        act, term, total = act[~done], terms[-1, ~done], totals[-1, ~done]
        if act.size == 0:
            p = out * np.exp(_log_prefactor(a, x))
            return np.minimum(p, 1.0), np.maximum(1.0 - p, 0.0)
    raise Lp3Error("incomplete gamma series failed to converge")


def _pq_contfrac(a: float, x):
    # Upper continued fraction (modified Lentz); converged elements leave
    # the active set.
    out = np.empty(x.shape)
    act = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / _FPMIN)
    d = 1.0 / np.where(b != 0.0, b, _FPMIN)
    h = d.copy()
    for i in range(1, 500 + int(12.0 * math.sqrt(a))):
        an = -i * (i - a)
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
            if act.size == 0:
                q = out * np.exp(_log_prefactor(a, x))
                return np.maximum(1.0 - q, 0.0), np.minimum(q, 1.0)
    raise Lp3Error("incomplete gamma continued fraction failed to converge")


def _pq_asymptotic(a: float, x):
    # Uniform asymptotic for huge shape:
    #   Q(a, x) = erfc(eta sqrt(a/2))/2 - exp(-a eta^2/2)/sqrt(2 pi a) * c0
    #   eta^2/2 = lam - 1 - ln lam,  sign(eta) = sign(lam - 1),
    #   c0 = 1/eta - 1/(lam - 1)  (limit 1/3 at lam -> 1).
    # The first dropped term is O(1/a) relative to c0, negligible here.
    dl = x / a - 1.0
    eta2, c0 = np.empty(x.shape), np.empty(x.shape)
    near = np.abs(dl) < 1e-4
    dn, df = dl[near], dl[~near]
    eta2[near] = dn * dn * (1.0 - 2.0 * dn / 3.0 + 0.5 * dn * dn
                            - 0.4 * dn**3)
    c0[near] = 1.0 / 3.0 - dn / 12.0
    eta2[~near] = 2.0 * (df - np.log1p(df))
    c0[~near] = 1.0 / np.copysign(np.sqrt(eta2[~near]), df) - 1.0 / df
    z = np.copysign(np.sqrt(eta2), dl) * math.sqrt(0.5 * a)
    corr = np.exp(-z * z) / math.sqrt(2.0 * math.pi * a) * c0
    q = 0.5 * _sc.erfc(z) - corr
    p = 0.5 * _sc.erfc(-z) + corr
    return np.clip(p, 0.0, 1.0), np.clip(q, 0.0, 1.0)


def _gamma_pq(a: float, x):
    """(P(a, x), Q(a, x)) as arrays shaped like x, for one shape a > 0.

    Series for x < a + 1, continued fraction otherwise, uniform asymptotic
    for a > 1e8. Every element runs the same recurrence with its own
    stopping point, so a scalar is exactly a 1-element array.
    """
    if np.ndim(a) != 0 or not a > 0:
        raise Lp3Error("shape a must be a scalar > 0")
    a = float(a)
    xx = np.asarray(x, float)
    if not (xx >= 0.0).all():  # NaN fails this too
        raise Lp3Error("argument x must be >= 0")
    flat = xx.ravel()
    p = (flat == math.inf).astype(float)  # 0 at x = 0, 1 at x = inf
    q = 1.0 - p
    mid = np.flatnonzero((flat > 0.0) & (flat < math.inf))
    if a > _LARGE_SHAPE:
        parts = [(mid, _pq_asymptotic)]
    else:
        low = flat[mid] < a + 1.0
        parts = [(mid[low], _pq_series), (mid[~low], _pq_contfrac)]
    for idx, kernel in parts:
        for k in range(0, idx.size, _CHUNK):
            sub = idx[k:k + _CHUNK]
            p[sub], q[sub] = kernel(a, flat[sub])
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
    yy = np.asarray(y, float)
    if np.isnan(yy).any():
        raise Lp3Error("y must not be NaN")
    out = np.zeros(yy.shape)
    pos = yy > 0.0
    # z <= 0 is outside the support: P(a, 0) = 0 and Q(a, 0) = 1 there
    z = np.maximum((np.log(yy[pos]) - p.gamma) / p.beta, 0.0)
    out[pos] = _gamma_pq(p.alpha, z)[0 if p.beta > 0 else 1]
    return float(out) if out.ndim == 0 else out


def logpdf(p: Lp3Params, y):
    """Log of the LP3 density, scalar or ndarray y; no incomplete gamma.

    -inf off the open support z = (ln y - gamma)/beta > 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ly = np.log(np.atleast_1d(np.asarray(y, float)))
        z = (ly - p.gamma) / p.beta
        out = np.where((0.0 < z) & (z < math.inf), _log_prefactor(p.alpha, z)
                       - np.log(z) - ly - math.log(abs(p.beta)), -math.inf)
    return float(out[0]) if np.ndim(y) == 0 else out


def moment(p: Lp3Params, n: int) -> float:
    """Raw moment E{Y^n} = exp(n gamma) (1 - n beta)^(-alpha); needs n beta < 1."""
    if n < 1:
        raise Lp3Error("moment order must be >= 1")
    if n * p.beta >= 1.0:
        raise DivergentMomentError(f"moment of order {n} diverges (n*beta >= 1)")
    return math.exp(n * p.gamma - p.alpha * math.log1p(-n * p.beta))


def _refine_gamma_inv(a: float, target, z0, upper: bool):
    # Newton polish of gamma-cdf inverses (arrays target, z0) against the
    # local kernel, needed above _LARGE_SHAPE where scipy's incomplete
    # gamma loses the far tails. Solves ln F(z) = ln(target): in the tails
    # ln F is nearly linear in z, so the log-residual iteration converges
    # fast from a mediocre seed. pdf(z) = exp(log_prefactor)/z. Each
    # element leaves the iteration at its own stopping point.
    z0 = np.asarray(z0, float).ravel()
    out = z0.copy()
    idx = np.arange(z0.size)
    z, t = z0, np.asarray(target, float).ravel()
    for _ in range(12):
        inside = (z > 0) & np.isfinite(z)
        out[idx[~inside]] = z0[idx[~inside]]  # left the domain: keep the seed
        idx, z, t = idx[inside], z[inside], t[inside]
        lp = _log_prefactor(a, z)
        fv = _gamma_pq(a, z)[1 if upper else 0]
        # density underflow or an empty tail: z is as good as it gets
        stop = (lp < -700.0) | (fv <= 0.0)
        out[idx[stop]] = z[stop]
        run = ~stop
        idx, z, t, lp, fv = idx[run], z[run], t[run], lp[run], fv[run]
        f = np.exp(lp) / z
        # d(ln P)/dz = f/P; d(ln Q)/dz = -f/Q
        resid = np.log(fv / t)
        step = resid * fv / f if upper else -resid * fv / f
        znew = z + step
        znew = np.where(znew > 0, znew, 0.5 * z)
        out[idx] = znew
        moving = ~(np.abs(znew - z) <= 1e-14 * z)  # NaN keeps moving
        idx, z, t = idx[moving], znew[moving], t[moving]
        if idx.size == 0:
            break
    return out


def quantile(p: Lp3Params, prob):
    """Inverse cdf; scalar or ndarray prob in (0, 1)."""
    pr = np.asarray(prob, float)
    if np.any((pr <= 0.0) | (pr >= 1.0)):
        raise Lp3Error("prob must lie strictly inside (0, 1)")
    if p.beta > 0:
        z = _sc.gammaincinv(p.alpha, pr)
    else:
        z = _sc.gammainccinv(p.alpha, pr)
    if p.alpha > _LARGE_SHAPE:
        z = _refine_gamma_inv(p.alpha, pr, z, p.beta < 0).reshape(pr.shape)
    out = np.exp(p.gamma + p.beta * z)
    return float(out) if np.ndim(prob) == 0 else out


# ---------------------------------------------------------------------------
# Three-moment fit.
# ---------------------------------------------------------------------------

_NEAR_LOGNORMAL = 1e-9


def _g_denominator(beta: float) -> float:
    # 2 ln(1-b) - ln(1-2b) = b^2 + O(b^3), positive for all valid beta != 0.
    return 2.0 * math.log1p(-beta) - math.log1p(-2.0 * beta)


def _g(beta: float) -> float:
    # Left side of the moment-ratio equation; monotone increasing on
    # (-inf, 1/3), limit 3 at 0 (removable), 2 at -inf, +inf at 1/3.
    num = 3.0 * math.log1p(-beta) - math.log1p(-3.0 * beta)
    return num / _g_denominator(beta)


def _solve_beta_positive(rho: float) -> float:
    lo = 1e-10
    hi = None
    third = 1.0 / 3.0
    for gap in (1.0 / 30.0, 1e-4, 1e-8, 1e-12, 2.3e-16):
        cand = third - gap
        if _g(cand) >= rho:
            hi = cand
            break
        lo = cand
    if hi is None:
        raise NoSolutionError(
            f"moment ratio rho={rho} is beyond the double-precision solvable "
            "range near beta = 1/3"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _g(mid) < rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_beta_negative(rho: float) -> float:
    # Root can sit at astronomically negative beta for rho slightly above 2,
    # so bracket and bisect on w = ln(-beta); g(-exp(w)) decreases in w.
    hi = -1e-10
    lo = -0.5
    while _g(lo) > rho:
        lo *= 256.0
        if lo < -1e300:
            raise NoSolutionError(
                f"moment ratio rho={rho} has no representable negative-branch "
                "solution (practical lower limit of g is ~2)"
            )
    w_left, w_right = math.log(-hi), math.log(-lo)
    for _ in range(200):
        w_mid = 0.5 * (w_left + w_right)
        if w_mid <= w_left or w_mid >= w_right:
            break
        if _g(-math.exp(w_mid)) > rho:
            w_left = w_mid
        else:
            w_right = w_mid
    return -math.exp(0.5 * (w_left + w_right))


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
    l1, l2, l3 = math.log(mu1), math.log(mu2), math.log(mu3)
    den = l2 - 2.0 * l1
    if den <= 0.0:
        raise NoSolutionError("ln(mu2) - 2 ln(mu1) must be positive (mu2 > mu1^2)")
    rho = (l3 - 3.0 * l1) / den
    if rho <= 1.0:
        raise NoSolutionError(f"moment ratio rho={rho} <= 1 has no LP3 solution")
    if abs(rho - 3.0) < _NEAR_LOGNORMAL:
        beta = math.copysign(_NEAR_LOGNORMAL, rho - 3.0)
    elif rho > 3.0:
        beta = _solve_beta_positive(rho)
    else:
        beta = _solve_beta_negative(rho)
    alpha = den / _g_denominator(beta)
    gamma = l1 + alpha * math.log1p(-beta)
    return Lp3Params(alpha=alpha, beta=beta, gamma=gamma)
