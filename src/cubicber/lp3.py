"""Log-Pearson type-III distribution and its three-moment fit.

If Y is LP3(alpha, beta, gamma) then (ln Y - gamma)/beta is gamma-distributed
with shape alpha and unit scale. beta may be negative, in which case the
support of Y is bounded above by exp(gamma).

The regularized incomplete gamma functions used by the cdf are implemented
here (series / continued fraction split, uniform asymptotic for very large
shape) so that no special-function behavior is imported blindly; scipy is
used only to invert the gamma cdf for quantiles.
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


class SingularBoundaryError(Lp3Error):
    """pdf evaluated exactly at the support boundary where it diverges."""


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
# Regularized incomplete gamma functions.
# ---------------------------------------------------------------------------

_EPS = 1e-16
_FPMIN = 1e-300
_LARGE_SHAPE = 1e8  # switch to the uniform asymptotic above this


def _phi(dl: float) -> float:
    # dl - log1p(dl), computed without cancellation for small dl.
    if abs(dl) < 0.1:
        total = 0.0
        sign = 1.0
        dlk = dl * dl
        for k in range(2, 40):
            term = sign * dlk / k
            total += term
            if abs(term) < abs(total) * _EPS:
                return total
            sign = -sign
            dlk *= dl
        return total
    return dl - math.log1p(dl)


def _log_prefactor(a: float, x: float) -> float:
    # ln( x^a e^-x / Gamma(a) ).  The direct form loses up to a*ln(a)*eps
    # absolute accuracy in the exponent, ruinous for a >~ 1e4, so for large
    # a cancel Stirling's formula against a*ln(x) analytically.
    if a < 100.0:
        return -x + a * math.log(x) - math.lgamma(a)
    dl = (x - a) / a
    ia = 1.0 / a
    stirling = ia * (1.0 / 12.0 + ia * ia * (-1.0 / 360.0 + ia * ia / 1260.0))
    return -a * _phi(dl) + 0.5 * math.log(a / (2.0 * math.pi)) - stirling


def _gamma_pq_series(a: float, x: float) -> tuple[float, float]:
    # Lower series: P = x^a e^-x / Gamma(a+1) * sum x^n / ((a+1)...(a+n)).
    ap = a
    term = 1.0 / a
    total = term
    # Worst case needs ~ sqrt(a) terms when x ~ a; cap generously.
    for _ in range(400 + int(12.0 * math.sqrt(a))):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            p = total * math.exp(_log_prefactor(a, x))
            return min(p, 1.0), max(1.0 - p, 0.0)
    raise Lp3Error("incomplete gamma series failed to converge")


def _gamma_pq_contfrac(a: float, x: float) -> tuple[float, float]:
    # Upper continued fraction (modified Lentz).
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, 500 + int(12.0 * math.sqrt(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < _EPS:
            q = h * math.exp(_log_prefactor(a, x))
            return max(1.0 - q, 0.0), min(q, 1.0)
    raise Lp3Error("incomplete gamma continued fraction failed to converge")


def _gamma_pq_asymptotic(a: float, x: float) -> tuple[float, float]:
    # Uniform asymptotic for huge shape:
    #   Q(a, x) = erfc(eta sqrt(a/2))/2 - exp(-a eta^2/2)/sqrt(2 pi a) * c0
    #   eta^2/2 = lam - 1 - ln lam,  sign(eta) = sign(lam - 1),
    #   c0 = 1/eta - 1/(lam - 1)  (limit 1/3 at lam -> 1).
    # The first dropped term is O(1/a) relative to c0, negligible here.
    lam = x / a
    dl = lam - 1.0
    if abs(dl) < 1e-4:
        eta2 = dl * dl * (1.0 - 2.0 * dl / 3.0 + 0.5 * dl * dl - 0.4 * dl**3)
        c0 = 1.0 / 3.0 - dl / 12.0
    else:
        eta2 = 2.0 * (dl - math.log1p(dl))
        eta_tmp = math.copysign(math.sqrt(eta2), dl)
        c0 = 1.0 / eta_tmp - 1.0 / dl
    eta = math.copysign(math.sqrt(eta2), dl)
    z = eta * math.sqrt(0.5 * a)
    corr = math.exp(-z * z) / math.sqrt(2.0 * math.pi * a) * c0
    q = 0.5 * math.erfc(z) - corr
    p = 0.5 * math.erfc(-z) + corr
    return min(max(p, 0.0), 1.0), min(max(q, 0.0), 1.0)


def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    if not (a > 0) or math.isnan(a):
        raise Lp3Error("shape a must be > 0")
    if math.isnan(x) or x < 0:
        raise Lp3Error("argument x must be >= 0")
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if a > _LARGE_SHAPE:
        return _gamma_pq_asymptotic(a, x)
    if x < a + 1.0:
        return _gamma_pq_series(a, x)
    return _gamma_pq_contfrac(a, x)


def reg_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x); scalar or ndarray x."""
    if np.ndim(x) == 0 and np.ndim(a) == 0:
        return _gamma_pq(float(a), float(x))[0]
    aa, xx = np.broadcast_arrays(np.asarray(a, float), np.asarray(x, float))
    out = np.empty(aa.shape, float)
    flat_a, flat_x, flat_o = aa.ravel(), xx.ravel(), out.ravel()
    for i in range(flat_o.size):
        flat_o[i] = _gamma_pq(flat_a[i], flat_x[i])[0]
    return out


def reg_gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if np.ndim(x) == 0 and np.ndim(a) == 0:
        return _gamma_pq(float(a), float(x))[1]
    aa, xx = np.broadcast_arrays(np.asarray(a, float), np.asarray(x, float))
    out = np.empty(aa.shape, float)
    flat_a, flat_x, flat_o = aa.ravel(), xx.ravel(), out.ravel()
    for i in range(flat_o.size):
        flat_o[i] = _gamma_pq(flat_a[i], flat_x[i])[1]
    return out


# ---------------------------------------------------------------------------
# Density, distribution function, moments, quantiles.
# ---------------------------------------------------------------------------


def _std_arg(p: Lp3Params, y: float) -> float:
    if not y > 0:
        raise Lp3Error("y must be > 0")
    return (math.log(y) - p.gamma) / p.beta


def pdf(p: Lp3Params, y: float) -> float:
    """LP3 density at y; 0 outside the support {(ln y - gamma)/beta >= 0}."""
    z = _std_arg(p, y)
    if z < 0.0:
        return 0.0
    if z == 0.0:
        if p.alpha > 1.0:
            return 0.0
        if p.alpha == 1.0:
            return 1.0 / (y * abs(p.beta))
        raise SingularBoundaryError(
            "pdf diverges at the support boundary for alpha < 1"
        )
    log_f = (
        (p.alpha - 1.0) * math.log(z)
        - z
        - math.lgamma(p.alpha)
        - math.log(y * abs(p.beta))
    )
    return math.exp(log_f)


def cdf(p: Lp3Params, y):
    """LP3 distribution function on the real line; scalar or ndarray y.

    Y > 0 almost surely, so cdf(y) = 0 for y <= 0: the y -> 0+ limit for
    either sign of beta. NaN raises Lp3Error.
    """
    if np.ndim(y) == 0:
        y = float(y)
        if not y > 0.0:
            if math.isnan(y):
                raise Lp3Error("y must not be NaN")
            return 0.0
        z = (math.log(y) - p.gamma) / p.beta
        if z <= 0.0:
            return 0.0 if p.beta > 0 else 1.0
        pr, q = _gamma_pq(p.alpha, z)
        return pr if p.beta > 0 else q
    yy = np.asarray(y, float)
    if np.isnan(yy).any():
        raise Lp3Error("y must not be NaN")
    pos = yy > 0.0
    z = (np.log(yy[pos]) - p.gamma) / p.beta
    vals = np.full(z.shape, 0.0 if p.beta > 0 else 1.0)
    idx = 1 if p.beta < 0 else 0
    for i in np.flatnonzero(z > 0.0):
        vals[i] = _gamma_pq(p.alpha, z[i])[idx]
    out = np.zeros(yy.shape, float)
    out[pos] = vals
    return out


def moment(p: Lp3Params, n: int) -> float:
    """Raw moment E{Y^n} = exp(n gamma) (1 - n beta)^(-alpha); needs n beta < 1."""
    if n < 1:
        raise Lp3Error("moment order must be >= 1")
    if n * p.beta >= 1.0:
        raise DivergentMomentError(f"moment of order {n} diverges (n*beta >= 1)")
    return math.exp(n * p.gamma - p.alpha * math.log1p(-n * p.beta))


def _refine_gamma_inv(a: float, target: float, z0: float, upper: bool) -> float:
    # Newton polish of a gamma-cdf inverse against the local _gamma_pq,
    # needed above _LARGE_SHAPE where scipy's incomplete gamma loses the
    # far tails. Solves ln F(z) = ln(target): in the tails ln F is nearly
    # linear in z, so the log-residual iteration converges fast from a
    # mediocre seed. pdf(z) = exp(log_prefactor)/z.
    z = z0
    for _ in range(12):
        if not (z > 0) or not math.isfinite(z):
            return z0
        lp = _log_prefactor(a, z)
        if lp < -700.0:
            return z  # density underflows; z0 is as good as it gets
        f = math.exp(lp) / z
        pv, qv = _gamma_pq(a, z)
        fv = qv if upper else pv
        if fv <= 0.0:
            return z
        # d(ln P)/dz = f/P; d(ln Q)/dz = -f/Q
        resid = math.log(fv / target)
        step = resid * fv / f if upper else -resid * fv / f
        znew = z + step
        if not (znew > 0):
            znew = 0.5 * z
        if abs(znew - z) <= 1e-14 * z:
            return znew
        z = znew
    return z


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
        upper = p.beta < 0
        if np.ndim(z) == 0:
            z = _refine_gamma_inv(p.alpha, float(pr), float(z), upper)
        else:
            flat_z, flat_p = z.ravel(), pr.ravel()
            for i in range(flat_z.size):
                flat_z[i] = _refine_gamma_inv(p.alpha, flat_p[i], flat_z[i], upper)
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
    """Solve (alpha, beta, gamma) from raw moments (mu1, mu2, mu3).

    Accepts a MomentTriple, any object with mu1/mu2/mu3 attributes, or a
    plain (mu1, mu2, mu3) sequence. Near the lognormal point (moment ratio
    rho ~ 3) the system is ill-conditioned; there the fit degrades to a two-parameter lognormal
    match of (mu1, mu2) with beta pinned to +/-1e-9. On that fallback path
    the readback of mu1/mu2 through moment() is only good to ~1e-6 relative
    (float cancellation inherent to the parameterization), and mu3 is not
    matched at all.
    """
    if hasattr(m, "mu1"):
        m = (m.mu1, m.mu2, m.mu3)
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
