"""Synthesis kernel: chunked numpy matrix products over trial blocks."""

from __future__ import annotations

import numpy as np

from . import _rng

_CHUNK = 2048  # aligned block width in absolute trial index


def decision_sums(seed, start_trial, ntrials, bit, S, w, sig, sigma0):
    """Trapezoid sums of |r|^2, |r|^4, |r|^6 on the grid, per trial.

    S: (ngrid, ncoef) sinc basis; w: (ngrid,) trapezoid weights in units of
    the coefficient spacing; sig: (ngrid,) real signal amplitude samples,
    giving an (ntrials, 3) result, or (k, ngrid) for k signals on the same
    noise field, giving (k, ntrials, 3).

    The noise field of a block is drawn and synthesized once and each
    signal is added to it, by the same floating-point operations as for a
    single signal, so a row of sig gets the sums that sig alone would get.

    Blocks are aligned to absolute multiples of _CHUNK and always computed
    whole, so every trial goes through a matrix product of the exact same
    shape and content no matter how the caller partitions the range. That
    keeps results bitwise independent of chunking even though the floating
    sums inside a BLAS product are shape-sensitive.
    """
    sigs = np.atleast_2d(sig)
    ngrid, ncoef = S.shape
    start = int(start_trial)
    stop = start + int(ntrials)
    out = np.empty((len(sigs), stop - start, 3), np.float64)
    blocks = np.arange(ncoef, dtype=np.int64)
    St = np.ascontiguousarray(S.T)
    for base in range((start // _CHUNK) * _CHUNK, stop, _CHUNK):
        if sigma0 == 0.0:
            noise = np.zeros((_CHUNK, ngrid))
            aq2 = 0.0
        else:
            trials = np.arange(base, base + _CHUNK, dtype=np.int64)
            zp, zq = _rng.coefficient_normals(seed, trials, bit, blocks)
            noise = (sigma0 * zp) @ St
            aq2 = (sigma0 * zq) @ St
            aq2 *= aq2
        a, b = max(start, base), min(stop, base + _CHUNK)
        for i, s in enumerate(sigs):
            # the last signal may overwrite the field: one array fewer
            ap = np.add(noise, s, out=noise if i == len(sigs) - 1 else None)
            m2 = ap * ap + aq2
            m4 = m2 * m2
            sums = np.stack([m2 @ w, m4 @ w, (m4 * m2) @ w], axis=1)
            out[i, a - start:b - start] = sums[a - base:b - base]
    return out if np.ndim(sig) == 2 else out[0]
