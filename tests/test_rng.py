"""Counter-based generator: block function, uniforms, inverse normal."""

import numpy as np
import pytest
import scipy.special as sc

from cubicber._rng import (_TILE, _u64_to_unit, coefficient_normals,
                           inverse_normal_cdf, philox4)


def _ref_philox4(ctr, key):
    """Minimal reference Philox4x32-10, plain python ints."""
    mul = lambda a, b: (a * b) & 0xFFFFFFFFFFFFFFFF
    c = list(ctr)
    k = list(key)
    for _ in range(10):
        p0 = mul(0xD2511F53, c[0])
        p1 = mul(0xCD9E8D57, c[2])
        c = [((p1 >> 32) ^ c[1] ^ k[0]) & 0xFFFFFFFF,
             p1 & 0xFFFFFFFF,
             ((p0 >> 32) ^ c[3] ^ k[1]) & 0xFFFFFFFF,
             p0 & 0xFFFFFFFF]
        k = [(k[0] + 0x9E3779B9) & 0xFFFFFFFF, (k[1] + 0xBB67AE85) & 0xFFFFFFFF]
    return tuple(c)


# canonical single-block vectors: zero state, saturated state, and an
# arbitrary irrational-digit state with a nontrivial key
KAT = [
    ((0, 0, 0, 0), (0, 0), 0x6627E8D5),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF, 0xFFFFFFFF), 0x408F276D),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
     (0xA4093822, 0x299F31D0), 0xD16CFE09),
]


@pytest.mark.parametrize("ctr,key,first_word", KAT)
def test_philox_known_answers(ctr, key, first_word):
    ref = _ref_philox4(ctr, key)
    assert ref[0] == first_word
    out = philox4(*(np.uint32(c) for c in ctr), np.uint32(key[0]),
                  np.uint32(key[1]))
    assert tuple(int(w) for w in out) == ref


def test_philox_matches_reference_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ctr = tuple(int(v) for v in rng.integers(0, 2**32, 4))
        key = tuple(int(v) for v in rng.integers(0, 2**32, 2))
        out = philox4(*(np.uint32(c) for c in ctr), np.uint32(key[0]),
                      np.uint32(key[1]))
        assert tuple(int(w) for w in out) == _ref_philox4(ctr, key)


def test_philox_vectorized_matches_scalar():
    c0 = np.arange(8, dtype=np.uint32)
    z = np.zeros(8, dtype=np.uint32)
    vec = philox4(c0, z, z, z, np.uint32(7), np.uint32(9))
    for i in range(8):
        scal = philox4(np.uint32(i), np.uint32(0), np.uint32(0),
                       np.uint32(0), np.uint32(7), np.uint32(9))
        assert all(int(v[i]) == int(s) for v, s in zip(vec, scal))


def test_u64_to_unit_is_strictly_interior():
    # the extreme words must not round to 0.0 or 1.0: the inverse normal
    # is finite only strictly inside the unit interval
    lo = _u64_to_unit(np.uint64(0))
    hi = _u64_to_unit(np.uint64(0xFFFFFFFFFFFFFFFF))
    assert lo == 2.0**-53
    assert hi == 1.0 - 2.0**-53
    assert 0.0 < lo < hi < 1.0
    mid = _u64_to_unit(np.uint64(0x8000000000000000))
    assert mid == 0.5 + 2.0**-53


def test_inverse_normal_matches_scipy():
    probs = np.concatenate([
        [1e-300, 1e-100, 1e-30, 1e-12, 1e-6],
        np.linspace(0.01, 0.99, 99),
        [1 - 1e-6, 1 - 1e-12],
    ])
    mine = inverse_normal_cdf(probs)
    ref = sc.ndtri(probs)
    assert mine == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_inverse_normal_symmetry_and_center():
    # probabilities chosen as exact binary fractions so that 1 - p is
    # exact too and the antisymmetry is testable to full precision
    p = np.array([2.0**-40, 2.0**-12, 0.125, 0.375])
    assert inverse_normal_cdf(p) == pytest.approx(
        -inverse_normal_cdf(1.0 - p), rel=1e-13)
    assert float(inverse_normal_cdf(np.array([0.5]))[0]) == pytest.approx(
        0.0, abs=1e-15)


def test_coefficient_normals_shape_and_determinism():
    trials = np.arange(10, dtype=np.int64)
    blocks = np.arange(-3, 4, dtype=np.int64)
    zp, zq = coefficient_normals(42, trials, 1, blocks)
    assert zp.shape == (10, 7) and zq.shape == (10, 7)
    zp2, zq2 = coefficient_normals(42, trials, 1, blocks)
    assert np.array_equal(zp, zp2) and np.array_equal(zq, zq2)


def test_coefficient_normals_streams_are_distinct():
    trials = np.arange(100, dtype=np.int64)
    blocks = np.arange(16, dtype=np.int64)
    zp0, _ = coefficient_normals(42, trials, 0, blocks)
    zp1, _ = coefficient_normals(42, trials, 1, blocks)
    zp0b, _ = coefficient_normals(43, trials, 0, blocks)
    assert not np.array_equal(zp0, zp1)
    assert not np.array_equal(zp0, zp0b)


def test_coefficient_normals_trial_slices_are_consistent():
    # any trial subset reproduces the same rows bit for bit
    blocks = np.arange(-8, 9, dtype=np.int64)
    full_p, full_q = coefficient_normals(7, np.arange(40, dtype=np.int64),
                                         0, blocks)
    part_p, part_q = coefficient_normals(7, np.arange(13, 29, dtype=np.int64),
                                         0, blocks)
    assert np.array_equal(part_p, full_p[13:29])
    assert np.array_equal(part_q, full_q[13:29])


@pytest.mark.parametrize("nblocks, ntrials", [
    (75, 2 * (_TILE // 75) + 5),  # trials not a multiple of the tile rows
    (_TILE + 3, 3),               # a row wider than a tile: one per tile
])
def test_coefficient_normals_tiles_are_the_rows(nblocks, ntrials):
    blocks = np.arange(nblocks, dtype=np.int64)
    trials = np.arange(2**32 - 2, 2**32 - 2 + ntrials, dtype=np.int64)
    zp, zq = coefficient_normals(9, trials, 1, blocks)
    rows = [coefficient_normals(9, trials[i:i + 1], 1, blocks)
            for i in range(ntrials)]
    assert np.array_equal(zp, np.concatenate([p for p, _ in rows]))
    assert np.array_equal(zq, np.concatenate([q for _, q in rows]))


def test_coefficient_normals_moments():
    trials = np.arange(3000, dtype=np.int64)
    blocks = np.arange(33, dtype=np.int64)
    zp, zq = coefficient_normals(123, trials, 1, blocks)
    z = np.concatenate([zp.ravel(), zq.ravel()])  # ~200k draws
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
    corr = np.corrcoef(zp.ravel(), zq.ravel())[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(zp.size)


def test_coefficient_normals_large_trial_index():
    # trial indices beyond 2^32 exercise the high counter word
    big = np.array([2**33 + 5, 2**33 + 6], dtype=np.int64)
    zp, zq = coefficient_normals(1, big, 0, np.arange(4, dtype=np.int64))
    assert np.all(np.isfinite(zp)) and np.all(np.isfinite(zq))
    small, _ = coefficient_normals(1, np.array([5, 6], dtype=np.int64), 0,
                                   np.arange(4, dtype=np.int64))
    assert not np.array_equal(zp, small)
