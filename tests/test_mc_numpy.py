"""Synthesis kernel: tiled decision sums against the whole-block products."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cubicber import _rng, cli, derive
from cubicber._mc_numpy import _CHUNK, decision_sums
from cubicber._rng import coefficient_normals
from cubicber.montecarlo import _grid
from cubicber.params import dbm_to_watts
from conftest import make_system


def _whole_block_sums(seed, start, n, bit, S, w, sig, sigma0):
    """Reference: each aligned block of trials in one piece, by the
    expressions ap = noise + s, m2 = ap^2 + aq^2, m4 = m2^2 and one
    (block x ngrid) @ w reduction per power of |r|^2."""
    ngrid, ncoef = S.shape
    stop = start + n
    out = np.empty((len(sig), n, 3))
    St = np.ascontiguousarray(S.T)
    for base in range(start // _CHUNK * _CHUNK, stop, _CHUNK):
        if sigma0 == 0.0:
            noise, aq2 = np.zeros((_CHUNK, ngrid)), 0.0
        else:
            trials = np.arange(base, base + _CHUNK, dtype=np.int64)
            zp, zq = coefficient_normals(seed, trials, bit, np.arange(ncoef))
            noise = (sigma0 * zp) @ St
            aq = (sigma0 * zq) @ St
            aq2 = aq * aq
        a, b = max(start, base), min(stop, base + _CHUNK)
        for i, s in enumerate(sig):
            ap = noise + s
            m2 = ap * ap + aq2
            m4 = m2 * m2
            sums = np.stack([m2 @ w, m4 @ w, (m4 * m2) @ w], axis=1)
            out[i, a - start:b - start] = sums[a - base:b - base]
    return out


def _inputs(prd, g_amp=1e5):
    sp = make_system(prd=prd, g_amp=g_amp)
    u, S, w = _grid(prd)
    sigs = np.stack([math.sqrt(dbm_to_watts(p)) * np.sinc(u)
                     for p in (29.0, 33.0, 37.0)])
    return S, w, sigs, math.sqrt(derive(sp).sigma0_sq)


# ngrid = 161, 201, 401, 1601: tiles of 192, 160, 80 and 16 rows, so the
# last tile of a block is short at PRD 10 and 25
@pytest.mark.parametrize("prd", [10.0, 12.5, 25.0, 100.0])
@pytest.mark.parametrize("start, n", [
    (0, _CHUNK),              # one whole block
    (777, 2 * _CHUNK + 100),  # unaligned start, spans 3 blocks
])
def test_decision_sums_are_bitwise_the_whole_block_products(prd, start, n):
    S, w, sigs, sigma0 = _inputs(prd)
    for sig in (sigs[1:2], sigs):  # k = 1 and k = 3 signals
        got = decision_sums(11, start, n, 1, S, w, sig, sigma0)
        assert np.array_equal(
            got, _whole_block_sums(11, start, n, 1, S, w, sig, sigma0))


@pytest.mark.parametrize("prd", [10.0, 25.0])
def test_decision_sums_without_noise_are_bitwise(prd):
    S, w, sigs, sigma0 = _inputs(prd, g_amp=1.0)
    assert sigma0 == 0.0
    for sig in (sigs[:1], sigs):
        got = decision_sums(3, 5, 3000, 1, S, w, sig, sigma0)
        assert np.array_equal(
            got, _whole_block_sums(3, 5, 3000, 1, S, w, sig, sigma0))


def test_decision_sums_peak_memory_stays_within_three_block_arrays():
    # the parent kernel held about six (block x ngrid) arrays at once
    # (160 MiB here); the tiled one holds the two synthesized quadratures
    S, w, sigs, sigma0 = _inputs(100.0)
    block_array = _CHUNK * S.shape[0] * 8
    tracemalloc.start()
    try:
        decision_sums(1, 0, 4000, 1, S, w, sigs[1:2], sigma0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * block_array


@pytest.mark.parametrize("prd", [10.0, 100.0])
def test_decision_sums_do_not_depend_on_the_blas_thread_count(prd):
    # the CLI runs OpenBLAS on one thread (cli._one_blas_thread)
    if cli._openblas_thread_calls() is None:
        pytest.skip("no OpenBLAS thread control found")
    S, w, sigs, sigma0 = _inputs(prd)
    default = decision_sums(2, 100, 3000, 1, S, w, sigs, sigma0)
    get, _ = cli._openblas_thread_calls()
    before = get()
    with cli._one_blas_thread():
        assert get() == 1
        single = decision_sums(2, 100, 3000, 1, S, w, sigs, sigma0)
    assert get() == before
    assert np.array_equal(single, default)


class _DrawFailed(Exception):
    pass


def _count_draws(monkeypatch, fail_at=None):
    # the first trial of every coefficient_normals call, in call order
    draw, bases = _rng.coefficient_normals, []

    def counted(seed, trials, bit, blocks):
        bases.append(int(trials[0]))
        if trials[0] == fail_at:
            raise _DrawFailed
        return draw(seed, trials, bit, blocks)

    monkeypatch.setattr(_rng, "coefficient_normals", counted)
    return bases


@pytest.mark.parametrize("start, n, want", [
    (0, _CHUNK, [0]),                               # none at stop
    (777, 2 * _CHUNK + 100, [0, _CHUNK, 2 * _CHUNK]),
    (_CHUNK + 5, 10, [_CHUNK]),
])
def test_prefetch_draws_each_aligned_block_once(monkeypatch, start, n, want):
    S, w, sigs, sigma0 = _inputs(10.0)
    bases = _count_draws(monkeypatch)
    decision_sums(4, start, n, 0, S, w, sigs[1:2], sigma0)
    assert bases == want


def test_prefetch_draws_nothing_without_noise(monkeypatch):
    S, w, sigs, sigma0 = _inputs(10.0, g_amp=1.0)
    assert sigma0 == 0.0
    bases = _count_draws(monkeypatch)
    threads = threading.active_count()
    decision_sums(4, 0, 3 * _CHUNK, 0, S, w, sigs, sigma0)
    assert bases == [] and threading.active_count() == threads


def test_a_failed_prefetch_raises_in_the_caller(monkeypatch):
    S, w, sigs, sigma0 = _inputs(10.0)
    bases = _count_draws(monkeypatch, fail_at=_CHUNK)
    threads = threading.active_count()
    with pytest.raises(_DrawFailed):
        decision_sums(4, 0, 3 * _CHUNK, 0, S, w, sigs[1:2], sigma0)
    # the helper is joined, and nothing is drawn past the failed block
    assert threading.active_count() == threads
    assert bases == [0, _CHUNK]


def test_concurrent_calls_keep_the_whole_block_bits():
    # the sweep's pool runs points on several threads, each call with its
    # own helper; more calls than cores, switching threads often
    S, w, sigs, sigma0 = _inputs(25.0)
    jobs = [(5, 300, 2 * _CHUNK, 0), (6, 1000, 2 * _CHUNK + 7, 1),
            (5, 0, 3 * _CHUNK, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            got = list(pool.map(
                lambda j: decision_sums(*j, S, w, sigs, sigma0), jobs,
                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (seed, start, n, bit), sums in zip(jobs, got):
        assert np.array_equal(
            sums, _whole_block_sums(seed, start, n, bit, S, w, sigs, sigma0))
