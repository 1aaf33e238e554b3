"""Synthesis kernel: chunked numpy matrix products over trial blocks.

Each block of _CHUNK trials is synthesized by two full-width matrix
products into buffers allocated once per call, and the |r|^2n terms and
their reductions run over row tiles of about _rng._TILE grid values held
in two small reused buffers, so the temporaries stay in cache and no
block-sized array is allocated per block.

The random stream and the synthesis are pipelined: while the calling
thread synthesizes and reduces one block, a helper thread draws the
coefficient normals of the next. numpy releases the interpreter lock in
both, so on two cores a block costs about the larger of the two rather
than their sum; at PRD 100 the products and reductions are the larger.
The draw is a pure function of its counters, so which thread makes it
leaves the bits alone.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import _rng

_CHUNK = 2048  # aligned block width in absolute trial index


def decision_sums(seed, start_trial, ntrials, bit, S, w, sig, sigma0):
    """Trapezoid sums of |r|^2, |r|^4, |r|^6 on the grid, per trial.

    S: (ngrid, ncoef) sinc basis; w: (ngrid,) trapezoid weights in units of
    the coefficient spacing; sig: (k, ngrid) real signal amplitude samples
    of k signals on the same noise field, giving a (k, ntrials, 3) result.

    The noise field of a block is drawn and synthesized once and each
    signal is added to it, by the same floating-point operations for every
    row, so a row of sig gets the sums that it would get alone.

    Blocks are aligned to absolute multiples of _CHUNK and always computed
    whole, so every trial goes through a matrix product of the exact same
    shape and content no matter how the caller partitions the range. That
    keeps results bitwise independent of chunking even though the floating
    sums inside a BLAS product are shape-sensitive.

    The reductions run over tiles of a fixed number of rows, aligned to the
    block start and computed whole; only tiles that hold requested trials
    are reduced. Each row's reduction is a dot product whose bits depend
    only on how the BLAS groups rows, and the groups of a tile whose row
    count is a multiple of 16 line up with those of the whole block (a
    203-row tile changed bits), so the tile rows are a multiple of 16 and
    the sums are bitwise those of whole-block products.

    With noise (sigma0 != 0), a helper thread that lives for this call
    draws each aligned block's normals (_rng.coefficient_normals, once per
    block) one block ahead; a failed draw raises here through result().
    Scaling, products and reductions stay on the calling thread: errstate
    is thread-local, and those are the operations that can overflow. The
    prefetched pair costs 2 * _CHUNK * ncoef * 8 bytes beside the pair in
    use (5.4 MB at PRD 100). Without noise nothing is drawn and no thread
    starts.
    """
    ngrid, ncoef = S.shape
    start = int(start_trial)
    stop = start + int(ntrials)
    out = np.empty((len(sig), stop - start, 3), np.float64)
    blocks = np.arange(ncoef, dtype=np.int64)
    St = np.ascontiguousarray(S.T)
    noise = np.zeros((_CHUNK, ngrid))
    aq2 = np.zeros((_CHUNK, ngrid))
    sums = np.empty((3, _CHUNK))
    rows = min(_CHUNK, max(16, _rng._TILE // ngrid // 16 * 16))
    m2 = np.empty((rows, ngrid))
    m4 = np.empty((rows, ngrid))
    first = (start // _CHUNK) * _CHUNK

    def normals(base):
        trials = np.arange(base, base + _CHUNK, dtype=np.int64)
        return _rng.coefficient_normals(seed, trials, bit, blocks)

    # an overflow makes an inf sum, which SampleSet turns into the point's
    # error; errstate is thread-local, so it is set here, not by a caller,
    # and every operation that can overflow stays on this thread
    with ThreadPoolExecutor(1) as ahead, np.errstate(over="ignore"):
        nxt = ahead.submit(normals, first) if sigma0 != 0.0 else None
        for base in range(first, stop, _CHUNK):
            if nxt is not None:
                zp, zq = nxt.result()
                nxt = (ahead.submit(normals, base + _CHUNK)
                       if base + _CHUNK < stop else None)
                zp *= sigma0
                zq *= sigma0
                np.matmul(zp, St, out=noise)
                np.matmul(zq, St, out=aq2)
                aq2 *= aq2
            a, b = max(start, base) - base, min(stop, base + _CHUNK) - base
            for i, s in enumerate(sig):
                for r in range(a // rows * rows, b, rows):
                    n = min(rows, _CHUNK - r)
                    t2, t4 = m2[:n], m4[:n]
                    np.add(noise[r:r + n], s, out=t2)
                    t2 *= t2
                    t2 += aq2[r:r + n]
                    np.matmul(t2, w, out=sums[0, r:r + n])
                    np.multiply(t2, t2, out=t4)
                    np.matmul(t4, w, out=sums[1, r:r + n])
                    t4 *= t2  # |r|^6
                    np.matmul(t4, w, out=sums[2, r:r + n])
                out[i, base + a - start:base + b - start] = sums[:, a:b].T
    return out
