"""Synthesis kernel: chunked numpy matrix products over trial blocks."""

from __future__ import annotations

import numpy as np

from . import _rng

_CHUNK = 2048  # aligned block width in absolute trial index


def decision_sums(seed, start_trial, ntrials, bit, S, w, sig, sigma0):
    """(ntrials, 3) trapezoid sums of |r|^2, |r|^4, |r|^6 on the grid.

    S: (ngrid, ncoef) sinc basis; w: (ngrid,) trapezoid weights in units of
    the coefficient spacing; sig: (ngrid,) real signal amplitude samples.

    Blocks are aligned to absolute multiples of _CHUNK and always computed
    whole, so every trial goes through a matrix product of the exact same
    shape and content no matter how the caller partitions the range. That
    keeps results bitwise independent of chunking even though the floating
    sums inside a BLAS product are shape-sensitive.
    """
    ncoef = S.shape[1]
    start = int(start_trial)
    stop = start + int(ntrials)
    out = np.empty((stop - start, 3), np.float64)
    blocks = np.arange(ncoef, dtype=np.int64)
    St = np.ascontiguousarray(S.T)
    for base in range((start // _CHUNK) * _CHUNK, stop, _CHUNK):
        if sigma0 == 0.0:
            ap = np.broadcast_to(sig, (_CHUNK, sig.size))
            aq = np.zeros((_CHUNK, sig.size))
        else:
            trials = np.arange(base, base + _CHUNK, dtype=np.int64)
            zp, zq = _rng.coefficient_normals(seed, trials, bit, blocks)
            ap = (sigma0 * zp) @ St + sig
            aq = (sigma0 * zq) @ St
        m2 = ap * ap + aq * aq
        m4 = m2 * m2
        sums = np.stack([m2 @ w, m4 @ w, (m4 * m2) @ w], axis=1)
        a, b = max(start, base), min(stop, base + _CHUNK)
        out[a - start:b - start] = sums[a - base:b - base]
    return out
