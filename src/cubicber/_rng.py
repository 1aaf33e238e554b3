"""Counter-based random normals.

The generator is Philox4x32-10 keyed on (seed, bit stream, trial, block):
every (trial, block) pair yields four 32-bit words, packed into two
uniforms and mapped through a rational inverse-normal approximation to a
pair of standard normals. Because the stream is a pure function of the
counter, any slice of trials can be generated independently, in any order,
chunked any way, with bit-identical results. The key holds the low 64 bits
of the seed; callers reject larger seeds.
"""

from __future__ import annotations

import math

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_MASK32 = np.uint64(0xFFFFFFFF)

# values per tile of the chunked array passes (256 KiB of float64), so that
# a tile's temporaries stay in cache
_TILE = 1 << 15


def philox4(c0, c1, c2, c3, k0, k1):
    """One Philox4x32-10 block per element of the uint32 counter arrays.

    c0..c3: uint32 ndarrays (broadcastable); k0, k1: uint32 scalars.
    Returns four uint32 ndarrays.
    """
    c0 = np.asarray(c0, np.uint32)
    c1 = np.asarray(c1, np.uint32)
    c2 = np.asarray(c2, np.uint32)
    c3 = np.asarray(c3, np.uint32)
    k0 = np.uint32(k0)
    k1 = np.uint32(k1)
    for _ in range(10):
        p0 = _M0 * c0.astype(np.uint64)
        p1 = _M1 * c2.astype(np.uint64)
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo0 = (p0 & _MASK32).astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        lo1 = (p1 & _MASK32).astype(np.uint32)
        c0 = hi1 ^ c1 ^ k0
        c1 = lo1
        c2 = hi0 ^ c3 ^ k1
        c3 = lo0
        k0 = np.uint32((int(k0) + 0x9E3779B9) & 0xFFFFFFFF)
        k1 = np.uint32((int(k1) + 0xBB67AE85) & 0xFFFFFFFF)
    return c0, c1, c2, c3


def _u64_to_unit(u):
    # 52 bits, offset half a step: values lie strictly inside (0, 1). With
    # 53 bits the top value (2^53 - 1) + 0.5 would round up and map to
    # exactly 1.0, which the inverse normal cannot accept.
    return ((u >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


# Rational minimax inverse normal cdf (absolute error ~ 1e-16).
_PA = (3.3871328727963666080e0, 1.3314166789178437745e2,
       1.9715909503065514427e3, 1.3731693765509461125e4,
       4.5921953931549871457e4, 6.7265770927008700853e4,
       3.3430575583588128105e4, 2.5090809287301226727e3)
_PB = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
       5.3941960214247511077e3, 2.1213794301586595867e4,
       3.9307895800092710610e4, 2.8729085735721942674e4,
       5.2264952788528545610e3)
_PC = (1.42343711074968357734e0, 4.63033784615654529590e0,
       5.76949722146069140550e0, 3.64784832476320460504e0,
       1.27045825245236838258e0, 2.41780725177450611770e-1,
       2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PD = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
       6.89767334985100004550e-1, 1.48103976427480074590e-1,
       1.51986665636164571966e-2, 5.47593808499534494600e-4,
       1.05075007164441684324e-9)
_PE = (6.65790464350110377720e0, 5.46378491116411436990e0,
       1.78482653991729133580e0, 2.96560571828504891230e-1,
       2.65321895265761230930e-2, 1.24266094738807843860e-3,
       2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PF = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
       1.48753612908506148525e-2, 7.86869131145613259100e-4,
       1.84631831751005468180e-5, 1.42151175831644588870e-7,
       2.04426310338993978564e-15)


def _poly7(coeffs, r):
    acc = np.full_like(r, coeffs[7])
    for c in coeffs[6::-1]:
        acc *= r
        acc += c
    return acc


def inverse_normal_cdf(p):
    """Vectorized standard normal quantile for p strictly inside (0, 1)."""
    return _ndtri(p)


def _ndtri(p):
    # the body of inverse_normal_cdf; lp3 seeds with it, not an rng draw
    p = np.asarray(p, np.float64)
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc * qc
        out[central] = qc * _poly7(_PA, r) / _poly7(_PB, r)

    tail = ~central
    if np.any(tail):
        qt = q[tail]
        pt = p[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
        res = np.empty_like(r)
        mid = r <= 5.0
        rm = r[mid] - 1.6
        res[mid] = _poly7(_PC, rm) / _poly7(_PD, rm)
        far = ~mid
        rf = r[far] - 5.0
        res[far] = _poly7(_PE, rf) / _poly7(_PF, rf)
        out[tail] = np.where(qt < 0.0, -res, res)
    return out


_ERFC = np.frompyfunc(math.erfc, 1, 1)  # math.erfc per element: a few ulps


def _ndtr(z):
    # standard normal cdf Phi(z), elementwise; private like _ndtri
    return 0.5 * np.asarray(_ERFC(np.multiply(z, -math.sqrt(0.5))), float)


def _log_ndtr(z):
    # ln Phi(z): ulps of ln Phi for z <= 0, of 1 above; Mills series below -37
    z = np.asarray(z, float)
    out = np.empty(z.shape)
    far = z < -37.0
    out[~far] = np.log(_ndtr(z[~far]))  # NaN too
    zf = z[far]
    r = 1.0 / (zf * zf)
    series = r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 - 945.0 * r))))
    out[far] = (-0.5 * zf * zf - np.log(-zf) - 0.5 * math.log(2.0 * math.pi)
                + np.log1p(series))
    return out


def coefficient_normals(seed, trials, bit, blocks):
    """Standard normal pairs for a (trial, block) grid.

    trials: int64 array (n,); blocks: int array (m,); returns two float64
    arrays of shape (n, m): the in-phase and quadrature normals for each
    expansion coefficient. bit selects an independent stream (0 or 1) so
    both symbols can be generated from one seed without overlap.
    """
    seed = int(seed)
    trials = np.asarray(trials, np.int64)
    blocks = np.asarray(blocks, np.int64)
    zp = np.empty((trials.size, blocks.size))
    zq = np.empty((trials.size, blocks.size))
    c0 = blocks.astype(np.uint32)
    c1 = np.uint32(bit)
    k0 = np.uint32(seed & 0xFFFFFFFF)
    k1 = np.uint32((seed >> 32) & 0xFFFFFFFF)
    # row tiles of about _TILE counters; every value is elementwise in its
    # counter, so the tiling leaves the bits alone
    rows = max(1, _TILE // max(1, blocks.size))
    for i in range(0, trials.size, rows):
        t = trials[i:i + rows, None]
        c2 = (t & 0xFFFFFFFF).astype(np.uint32)
        c3 = (t >> 32).astype(np.uint32)
        r0, r1, r2, r3 = philox4(c0, c1, c2, c3, k0, k1)
        ua = (r0.astype(np.uint64) << np.uint64(32)) | r1.astype(np.uint64)
        ub = (r2.astype(np.uint64) << np.uint64(32)) | r3.astype(np.uint64)
        zp[i:i + rows] = inverse_normal_cdf(_u64_to_unit(ua))
        zq[i:i + rows] = inverse_normal_cdf(_u64_to_unit(ub))
    return zp, zq
