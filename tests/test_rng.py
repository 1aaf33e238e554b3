"""Counter-based generator: block function, uniforms, inverse normal."""

import hashlib
import tracemalloc

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


# SHA-256 of zp.tobytes() + zq.tobytes(), recorded from the stream before
# its Philox lanes went in place: trials 2^32 - 250 .. 2^32 + 249 cross into
# the high counter word, the blocks take one to three row tiles, and "wide"
# is three rows each wider than a tile, with negative blocks
_CROSS = np.arange(2**32 - 250, 2**32 + 250, dtype=np.int64)
_GRIDS = {"75": (_CROSS, np.arange(75)),
          "165": (_CROSS, np.arange(165)),
          "-8..8": (_CROSS, np.arange(-8, 9)),
          "wide": (np.arange(3, dtype=np.int64), np.arange(-5, 2**15 + 5))}

STREAM_DIGESTS = {
    (0, 0, "75"):
        "fc81c3b554c4983f755fa492892912eba0ca2027a7767da83da0653eb8495219",
    (0, 0, "165"):
        "d5dc20a0569b30d46e69e63410e7304cc2aa7ab1ab53ece3b352eeabb451c901",
    (0, 0, "-8..8"):
        "9095f76cc92254292b61f5cf6a04dcada375ef636ea8688d808e5ee5268f6120",
    (0, 1, "75"):
        "425d6a8fb945df454b90a0e93015c39f424295e5d7fb609ffd98afb16f57c34f",
    (0, 1, "165"):
        "cdc805131edbc12c7f3a18827b5d8ebc22be99d08b111540ca2879714b6c5646",
    (0, 1, "-8..8"):
        "e47b94770eadd4d5dce7035b1ff9841921f346de3f7464ed4721040faec310f4",
    (1, 0, "75"):
        "46477eea5029191471ebd492904b362d15fe512ab480ce6087e63e34732878fc",
    (1, 0, "165"):
        "8188269c0ed0ef9c3e57f00cad3edfbe18117f7d3431a62902ab3f6333e55223",
    (1, 0, "-8..8"):
        "4e895c7b58b61041cdd1f11ee5d38b75869ce35efacd4ba35bab56e2d84e920c",
    (1, 1, "75"):
        "cde25c09309c643c6f6be99abe6c1fd6ca3506e5930d026ef64412a911b36105",
    (1, 1, "165"):
        "582b103468610d452d5ef7111a2cb1799868fbb58f4c1a25177b4675c64a8961",
    (1, 1, "-8..8"):
        "97f5fa5aaca86c5b710928f34aa6b498e9386610bf010cc0cc5140b9d12c5d1d",
    (2**32 + 5, 0, "75"):
        "c7406c988f16e13be689943acfe28857b00dfcd4a077fc443873196351f96395",
    (2**32 + 5, 0, "165"):
        "247fae1c11266df0eb535abaabfaef06c4fcc588f25b42a88af9e8d6052e38be",
    (2**32 + 5, 0, "-8..8"):
        "f09ce8f35572a66e166f4062f10a4cdd6343414053f9cd1d55c76a591b0c4520",
    (2**32 + 5, 1, "75"):
        "510745b16fb45368ac6f4e1292ed2d6b595f953cc1adb55373d698eac1969cef",
    (2**32 + 5, 1, "165"):
        "bbcdbf545a7d296cd84d452612b03355d75a04dfc5d212a5896a10f500547242",
    (2**32 + 5, 1, "-8..8"):
        "f1e00def725c03067e86f118ad4a6cf849265df9375a47331312276e483ae33b",
    (2**64 - 1, 0, "75"):
        "853737c956257abaa0aee04831e214ba0954bd3d4a9ab425bf2befff094921f1",
    (2**64 - 1, 0, "165"):
        "7b0eda732ecfa4aa4efe36ccb6cd2c7ca9ed0203a6f100e8550bbe45e3ddb7be",
    (2**64 - 1, 0, "-8..8"):
        "9fcd62e644d71afd16076fe54e5a38443d8494d0bc66eb6852cebbf013a03b6d",
    (2**64 - 1, 1, "75"):
        "814c70cf1f9f4f3ed3988e2fee32ddd63168389258cc954f2dfff256f0974809",
    (2**64 - 1, 1, "165"):
        "62b00e85b87bb2d14555691721b789d851781ac2b69318bf860d9bed5038035b",
    (2**64 - 1, 1, "-8..8"):
        "badf0908839ac8059ba15884bb7aad143e99c1ac0ebbb5eb4340c0bd0b153330",
    (2**32 + 5, 0, "wide"):
        "eeaa7ba0aadaa57a49ccd97b303b6ccc2c4bcf56e3d2a93031c23342585747b9",
    (2**32 + 5, 1, "wide"):
        "5588a87118d4d5225f8e4a4bbcf858fba0a7e81c80af724e324584cf17a3db9f",
}

INVNORM_EDGES = [
    ("0x1.0000000000000p-53", "-0x1.06b48528cea51p+3"),
    ("0x1.e8a37a45fc2fep-37", "-0x1.aa1b1c13ee528p+2"),
    ("0x1.e8a37a45fc2ffp-37", "-0x1.aa1b1c13ee528p+2"),
    ("0x1.e8a37a45fc300p-37", "-0x1.aa1b1c13ee528p+2"),
    ("0x1.e8a37a45fc301p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc302p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc303p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32bp-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32cp-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32dp-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32ep-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32fp-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc330p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc331p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.3333333333331p-4", "-0x1.7085226d3e524p+0"),
    ("0x1.3333333333332p-4", "-0x1.7085226d3e522p+0"),
    ("0x1.3333333333333p-4", "-0x1.7085226d3e523p+0"),
    ("0x1.3333333333334p-4", "-0x1.7085226d3e523p+0"),
    ("0x1.3333333333335p-4", "-0x1.7085226d3e523p+0"),
    ("0x1.3333333333336p-4", "-0x1.7085226d3e521p+0"),
    ("0x1.3333333333337p-4", "-0x1.7085226d3e521p+0"),
    ("0x1.d999999999997p-1", "0x1.7085226d3e51ap+0"),
    ("0x1.d999999999998p-1", "0x1.7085226d3e51dp+0"),
    ("0x1.d999999999999p-1", "0x1.7085226d3e521p+0"),
    ("0x1.d99999999999ap-1", "0x1.7085226d3e524p+0"),
    ("0x1.d99999999999bp-1", "0x1.7085226d3e528p+0"),
    ("0x1.d99999999999cp-1", "0x1.7085226d3e52bp+0"),
    ("0x1.d99999999999dp-1", "0x1.7085226d3e52fp+0"),
    ("0x1.ffffffffe175ap-1", "0x1.aa1b0fa4e62f0p+2"),
    ("0x1.ffffffffe175bp-1", "0x1.aa1b1492d018dp+2"),
    ("0x1.ffffffffe175cp-1", "0x1.aa1b1980bc89cp+2"),
    ("0x1.ffffffffe175dp-1", "0x1.aa1b1e6eab81fp+2"),
    ("0x1.ffffffffe175ep-1", "0x1.aa1b235c9d013p+2"),
    ("0x1.ffffffffe175fp-1", "0x1.aa1b284a91079p+2"),
    ("0x1.ffffffffe1760p-1", "0x1.aa1b2d3887952p+2"),
    ("0x1.fffffffffffffp-1", "0x1.06b48528cea51p+3"),
]


@pytest.mark.parametrize("seed, bit, grid", sorted(STREAM_DIGESTS))
def test_stream_digest_is_frozen(seed, bit, grid):
    trials, blocks = _GRIDS[grid]
    zp, zq = coefficient_normals(seed, trials, bit, blocks)
    digest = hashlib.sha256(zp.tobytes() + zq.tobytes()).hexdigest()
    assert digest == STREAM_DIGESTS[seed, bit, grid]


def _edges():
    p = np.array([float.fromhex(a) for a, _ in INVNORM_EDGES])
    want = np.array([float.fromhex(b) for _, b in INVNORM_EDGES])
    return p, want


def test_inverse_normal_branch_edges_keep_their_bits():
    # (p, value) pairs recorded before the central branch ran over whole
    # arrays: |p - 0.5| = 0.425 and three floats either side, e^-25 and
    # 1 - e^-25 (the tail's switch at r = 5) with neighbours, and the
    # extreme uniforms 2^-53 and 1 - 2^-53
    p, want = _edges()
    central = np.abs(p - 0.5) <= 0.425
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    for side in (p < 0.5, p > 0.5):
        # both sides of both switches are among the points
        assert central[side].any() and not central[side].all()
        assert (r[side] <= 5.0).any() and (r[side] > 5.0).any()
    got = inverse_normal_cdf(p)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def test_inverse_normal_keeps_its_bits_on_0d_and_strided_input():
    p, want = _edges()
    for i in (0, 10, 17, 35):  # tail, central, far tail, extreme
        got = inverse_normal_cdf(np.float64(p[i]))
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert float(got).hex() == want[i].hex()
    spaced = np.full(2 * p.size, 0.5)
    spaced[::2] = p
    assert np.array_equal(inverse_normal_cdf(spaced[::2]), want)
    grid = p.reshape(6, 6).T  # Fortran-ordered
    assert np.array_equal(inverse_normal_cdf(grid), want.reshape(6, 6).T)


@pytest.mark.filterwarnings("error::RuntimeWarning:cubicber")
def test_inverse_normal_passes_nan_through_without_a_warning():
    got = inverse_normal_cdf(np.array([np.nan, 0.3, 1e-30, np.nan]))
    assert np.isnan(got[[0, 3]]).all() and np.isfinite(got[[1, 2]]).all()
    assert np.isnan(inverse_normal_cdf(np.float64(np.nan)))


def test_one_block_draw_holds_only_tile_sized_temporaries():
    # a PRD-100 block: the two outputs plus a dozen tiles of float64 at
    # most, so no temporary spans the whole block
    trials = np.arange(2048, dtype=np.int64)
    tracemalloc.start()
    try:
        zp, zq = coefficient_normals(1, trials, 1, np.arange(165))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= zp.nbytes + zq.nbytes + 12 * _TILE * 8
