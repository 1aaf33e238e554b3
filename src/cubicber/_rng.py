"""Counter-based random normals.

The generator is Philox4x32-10 keyed on (seed, bit stream, trial, block):
every (trial, block) pair yields four 32-bit words, packed into two
uniforms and mapped through a rational inverse-normal approximation to a
pair of standard normals. Because the stream is a pure function of the
counter, any slice of trials can be generated independently, in any order,
chunked any way, with bit-identical results. The key holds the low 64 bits
of the seed; callers reject larger seeds.

A draw runs in row tiles of about _TILE counters. Philox widens a tile's
four counter words once to uint64 lanes, and each of its ten rounds is ten
in-place passes over the lanes and two product buffers (two multiplies,
two shifts, two masks, four XORs), with no allocation; the words are then
packed into the uniforms' 64-bit words in place. The inverse normal
evaluates its central rational over the whole tile, where it is finite,
and gathers only the tail (|p - 0.5| > 0.425, about 15% of a draw). Each
value goes through the same floating-point operations on the same operands
as it would alone, so neither the tiles nor the whole-tile pass move a bit.
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

    c0..c3: uint32 ndarrays (broadcastable); k0, k1: 32-bit key words.
    Returns the four output words as uint64 ndarrays of the broadcast
    shape, each holding a 32-bit value.
    """
    # widened through uint32, so that a negative counter wraps modulo 2^32
    ctr = np.broadcast_arrays(*(np.asarray(c, np.uint32)
                                for c in (c0, c1, c2, c3)))
    w0, w1, w2, w3 = (c.astype(np.uint64, order="C") for c in ctr)
    p0, p1 = np.empty_like(w0), np.empty_like(w0)
    k0, k1 = int(k0), int(k1)
    for _ in range(10):
        np.multiply(w0, _M0, out=p0)
        np.multiply(w2, _M1, out=p1)
        np.right_shift(p1, 32, out=w0)
        w0 ^= w1
        w0 ^= k0
        np.bitwise_and(p1, _MASK32, out=w1)
        np.right_shift(p0, 32, out=w2)
        w2 ^= w3
        w2 ^= k1
        np.bitwise_and(p0, _MASK32, out=w3)
        k0 = (k0 + 0x9E3779B9) & 0xFFFFFFFF
        k1 = (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return w0, w1, w2, w3


def _u64_to_unit(u, out=None):
    # 52 bits, offset half a step: values lie strictly inside (0, 1). With
    # 53 bits the top value (2^53 - 1) + 0.5 would round up and map to
    # exactly 1.0, which the inverse normal cannot accept.
    return np.multiply(np.add(u >> 12, 0.5, out=out), 2.0**-52, out=out)


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
    acc = r * coeffs[7]
    acc += coeffs[6]
    for c in coeffs[5::-1]:
        acc *= r
        acc += c
    return acc


def inverse_normal_cdf(p):
    """Vectorized standard normal quantile for p strictly inside (0, 1)."""
    return _ndtri(p)


def _ndtri(p):
    # the body of inverse_normal_cdf; lp3 seeds with it, not an rng draw.
    # The central rational runs over every element: on |q| <= 0.5 its
    # denominator stays above 0.002, so the pass is finite and warns of
    # nothing, and only the tail (about 15% of a uniform draw, NaN too) is
    # gathered, evaluated and scattered back over it.
    p = np.asarray(p, np.float64)
    q = p - 0.5
    r = 0.180625 - q * q
    out = np.multiply(q, _poly7(_PA, r), out=np.empty_like(p))
    out /= _poly7(_PB, r)

    tail = np.flatnonzero(~(np.abs(q) <= 0.425))
    if tail.size:
        qt = np.take(q, tail)
        pt = np.take(p, tail)
        r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
        res = np.empty_like(r)
        mid = r <= 5.0
        rm = r[mid] - 1.6
        res[mid] = _poly7(_PC, rm) / _poly7(_PD, rm)
        far = ~mid
        rf = r[far] - 5.0
        res[far] = _poly7(_PE, rf) / _poly7(_PF, rf)
        np.put(out, tail, np.where(qt < 0.0, -res, res))
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
    k0, k1 = seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF
    # row tiles of about _TILE counters; every value is elementwise in its
    # counter, so the tiling leaves the bits alone
    rows = max(1, _TILE // max(1, blocks.size))
    unit = np.empty((min(rows, trials.size), blocks.size))
    for i in range(0, trials.size, rows):
        t = trials[i:i + rows, None]
        w0, w1, w2, w3 = philox4(blocks, bit, t & 0xFFFFFFFF, t >> 32, k0, k1)
        # the uniforms' words ua = w0 << 32 | w1 and ub = w2 << 32 | w3, in
        # place, and two fewer lanes held through the inverse normal
        w0 <<= 32
        w0 |= w1
        w2 <<= 32
        w2 |= w3
        del w1, w3
        u = unit[:len(t)]
        zp[i:i + rows] = inverse_normal_cdf(_u64_to_unit(w0, out=u))
        zq[i:i + rows] = inverse_normal_cdf(_u64_to_unit(w2, out=u))
    return zp, zq
