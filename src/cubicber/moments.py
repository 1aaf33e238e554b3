"""Closed-form raw moments of the cubic-receiver decision variable.

The decision variable is Y = (R k Gamma^2 / T_p) * integral of |r(t)|^6 over
one detector response time, with r = signal + band-limited complex Gaussian
noise. Its first three raw moments have closed polynomial forms in sigma0^2,
P_r and 1/PRD; those polynomials live here.

Coefficient provenance: the first-moment and third-moment coefficients are
module constants; the variance coefficients are recomputed at import time
from the tabulated integral decomposition in _VAR_TABLE (sum of r_i * I0_i
per power pattern) rather than trusted from rounded prose values. The second
moment is variance + mean^2 by construction, so the identity
mu2 - mu1^2 == var holds to float precision.
"""

from __future__ import annotations

from .params import DerivedParams, ParamError, SystemParams

# Variance decomposition rows: (r, sigma0_power, pr_power, I0, prd_linear).
# The middle exponent columns of the source tabulation (powers of the
# autocorrelation and the two pulse factors inside the double integral) are
# already folded into the numeric I0 value; only the bookkeeping needed to
# rebuild the polynomial is kept. prd_linear marks the three noise-only rows
# whose integral grows linearly with PRD.
_VAR_TABLE = (
    (2304, 12, 0, 0.55, True),
    (6912, 10, 1, 0.52, False),
    (6912, 8, 2, 0.394, False),
    (10368, 10, 1, 0.64, False),
    (10368, 10, 1, 0.64, False),
    (20736, 12, 0, 0.667, True),
    (2688, 6, 3, 0.343, False),
    (10368, 8, 2, 0.45, False),
    (10368, 8, 2, 0.45, False),
    (41472, 10, 1, 0.657, False),
    (468, 4, 4, 0.317, False),
    (3456, 6, 3, 0.395, False),
    (2592, 8, 2, 0.66, False),
    (3456, 6, 3, 0.3945, False),
    (25920, 8, 2, 0.5, False),
    (20736, 10, 1, 1.0, False),
    (2592, 8, 2, 0.665, False),
    (20736, 10, 1, 1.0, False),
    (20736, 12, 0, 1.0, True),
    (36, 2, 5, 0.3043, False),
    (432, 4, 4, 0.37, False),
    (864, 6, 3, 0.55, False),
    (432, 4, 4, 0.37, False),
    (5184, 6, 3, 0.45, False),
    (10368, 8, 2, 0.66, False),
    (864, 6, 3, 0.55, False),
    (10368, 8, 2, 0.66, False),
    (20736, 10, 1, 1.0, False),
)


def _variance_coefficients() -> tuple[float, dict[int, float]]:
    """(PRD-linear noise coefficient, {P_r power: coefficient})."""
    noise_prd = 0.0
    by_pr_power: dict[int, float] = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0}
    for r, _sig_pow, pr_pow, i0, prd_linear in _VAR_TABLE:
        if prd_linear:
            noise_prd += r * i0
        else:
            by_pr_power[pr_pow] += r * i0
    return noise_prd, by_pr_power


# Recomputed PRD-linear noise coefficient: 2304*0.55 + 20736*0.667 + 20736*1.
VAR_NOISE_PRD_COEFF, VAR_SIGNAL_COEFFS = _variance_coefficients()

# First-moment polynomial coefficients (noise, then P_r^1..P_r^3).
_MU1_NOISE = 48.0
_MU1_SIGNAL = (72.0, 12.0, 0.55)

# Third-moment polynomial, taken verbatim (3-4 significant digits).
# Layout: {PRD power p: ((sigma0_sq power, pr power, coeff), ...)} for the
# 1/PRD^p group; sigma0_sq power counts powers of sigma0^2.
_MU3_TERMS = {
    0: ((9, 0, 110592.0),),
    1: (
        (9, 0, 5.16e6),
        (8, 1, 4.977e5),
        (7, 2, 8.3e4),
        (6, 3, 3.8e3),
    ),
    2: (
        (9, 0, 1.0538e8),
        (8, 1, 2.308e7),
        (7, 2, 8.133e6),
        (6, 3, 1.306e6),
        (5, 4, 9.956e4),
        (4, 5, 3.479e3),
        (3, 6, 43.56),
    ),
    3: (
        (8, 1, 4.671e8),
        (7, 2, 3.241e8),
        (6, 3, 1.027e8),
        (5, 4, 1.647e7),
        (4, 5, 1.451e6),
        (3, 6, 7.232e4),
        (2, 7, 2.014e3),
        (1, 8, 28.97),
        (0, 9, 0.1664),
    ),
}


def _check_bit(bit: int) -> float:
    if bit not in (0, 1):
        raise ParamError("bit must be 0 or 1")
    return float(bit)


def mean_decision(sp: SystemParams, dp: DerivedParams, bit: int) -> float:
    """First raw moment of Y. Reduces to 48 R k Gamma^2 sigma0^6 at bit 0."""
    bp = _check_bit(bit) * sp.p_r
    s2 = dp.sigma0_sq
    pref = dp.cubic_scale / sp.prd
    c1, c2, c3 = _MU1_SIGNAL
    return pref * (
        _MU1_NOISE * s2**3 * sp.prd + c1 * s2**2 * bp + c2 * s2 * bp**2 + c3 * bp**3
    )


def variance_decision(sp: SystemParams, dp: DerivedParams, bit: int) -> float:
    """Variance of Y from the tabulated polynomial (not via mu2 - mu1^2)."""
    bp = _check_bit(bit) * sp.p_r
    s2 = dp.sigma0_sq
    pref = dp.cubic_scale ** 2 / sp.prd**2
    total = VAR_NOISE_PRD_COEFF * s2**6 * sp.prd
    for pr_pow, coeff in VAR_SIGNAL_COEFFS.items():
        # sigma0 power pairs with P_r power: 12 - 2*n halves to 6 - n.
        total += coeff * s2 ** (6 - pr_pow) * bp**pr_pow
    return pref * total


def second_moment(sp: SystemParams, dp: DerivedParams, bit: int) -> float:
    """Second raw moment, assembled as variance + mean^2."""
    return variance_decision(sp, dp, bit) + mean_decision(sp, dp, bit) ** 2


def third_moment(sp: SystemParams, dp: DerivedParams, bit: int) -> float:
    """Third raw moment of Y; polynomial in 1/PRD of order 3."""
    bp = _check_bit(bit) * sp.p_r
    s2 = dp.sigma0_sq
    pref = dp.cubic_scale ** 3
    total = 0.0
    for prd_pow, terms in _MU3_TERMS.items():
        group = 0.0
        for s2_pow, pr_pow, coeff in terms:
            group += coeff * s2**s2_pow * bp**pr_pow
        total += group / sp.prd**prd_pow
    return pref * total


def decision_moments(sp: SystemParams, dp: DerivedParams, bit: int):
    """Raw moments (mu1, mu2, mu3) of Y for one bit.

    A polynomial whose power of P_r or sigma0^2 overflows a float raises
    ParamError naming its moment.
    """
    mus = []
    for n, mu in enumerate((mean_decision, second_moment, third_moment), 1):
        try:
            mus.append(mu(sp, dp, bit))
        except OverflowError:
            raise ParamError(f"closed-form moment mu{n} of bit {bit} "
                             f"overflows a float") from None
    return tuple(mus)

