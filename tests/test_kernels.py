"""Kernel correctness against plain-python references: on numpy-typed and
on object (Python-int) input arrays, and on both sides of every int64 bound,
where the kernels switch between int64 and Python-int arithmetic."""
import math
import random

import numpy as np
import pytest

import radixapprox._kernels as K
from radixapprox.discrepancy import _candidate_tables, deviation_max_py

ML = K.MOD_LIMIT
TWO62 = 1 << 62


@pytest.fixture(params=[None, object], ids=["numpy", "object"])
def as_array(request):
    """Kernels take numpy-typed arrays and object arrays of Python numbers
    (what the big-modulus paths carry); each test runs on both."""
    return lambda values: np.asarray(values, dtype=request.param)


def ref_digit_scan(pow_mod, count, modulus, start=1):
    best, idx = modulus, 0
    for n in range(start, count + 1):
        s, m, d = 0, n, 0
        while m:
            if m & 1:
                s = (s + pow_mod[d]) % modulus
            m >>= 1
            d += 1
        v = min(s, modulus - s)
        if v < best:
            best, idx = v, n
    return best, idx


def ref_subset_residue(adds, n, modulus):
    return sum(a for d, a in enumerate(adds) if n >> d & 1) % modulus


def ref_first_close(res, modulus, num, den):
    for i, r in enumerate(res):
        if min(r, modulus - r) * den <= num * modulus:
            return i
    return -1


def test_digit_scan_min(as_array):
    rng = random.Random(5)
    for _ in range(25):
        modulus = rng.randint(2, 10**6)
        count = rng.randint(1, 3000)
        pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
        got = K.digit_scan_min(as_array(pow_mod), count, modulus)
        assert got == ref_digit_scan(pow_mod, count, modulus)


def test_digit_scan_min_range_and_shards(as_array):
    rng = random.Random(6)
    modulus = 9973
    count = 5000
    pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
    arr = as_array(pow_mod)
    assert K.digit_scan_min(arr, count, modulus, start=1234) == ref_digit_scan(
        pow_mod, count, modulus, start=1234
    )
    for threads in (1, 2, 5):
        assert K.digit_scan_min_sharded(arr, count, modulus, threads) == ref_digit_scan(
            pow_mod, count, modulus
        )


def test_subset_residues(as_array):
    rng = random.Random(7)
    for _ in range(20):
        modulus = rng.randint(2, 10**9)
        adds = [rng.randrange(modulus) for _ in range(rng.randint(0, 10))]
        table = K.subset_residues(as_array(adds), modulus)
        assert len(table) == 1 << len(adds)
        for mask in range(len(table)):
            assert table[mask] == ref_subset_residue(adds, mask, modulus)


def test_first_close(as_array):
    rng = random.Random(8)
    for _ in range(40):
        modulus = rng.randint(2, 10**4)
        res = [rng.randrange(modulus) for _ in range(rng.randint(1, 50))]
        num, den = rng.randint(0, 10), rng.randint(1, 40)
        got = K.first_close(as_array(res), modulus, num, den)
        assert got == ref_first_close(res, modulus, num, den)


def test_cos_sin_sum(as_array):
    rng = random.Random(9)
    for _ in range(10):
        modulus = rng.randint(2, 10**5)
        res = [rng.randrange(modulus) for _ in range(500)]
        c, s = K.cos_sin_sum(as_array(res), modulus)
        cc = math.fsum(math.cos(2 * math.pi * v / modulus) for v in res)
        ss = math.fsum(math.sin(2 * math.pi * v / modulus) for v in res)
        assert abs(c - cc) < 1e-9 and abs(s - ss) < 1e-9


def test_interval_deviation_max(as_array):
    rng = random.Random(10)
    for _ in range(40):
        total = rng.randint(1, 15)
        q = rng.choice([8, 17, 60])
        nums = [rng.randrange(q) for _ in range(total)]
        w, lt, eq = _candidate_tables(nums, q)
        got = K.interval_deviation_max(as_array(w), as_array(lt), as_array(eq), total, q)
        dev, i, j, combo = got
        assert (dev, w[i], w[j], combo) == deviation_max_py(nums, q, total)


def test_cos_margin_values(as_array):
    xs = np.linspace(-2, 2, 4001)
    vals = K.cos_margin_values(as_array(xs.tolist()))
    for idx in range(0, 4001, 397):
        x = float(xs[idx])
        w = abs(x - round(x))
        expect = 1 - math.pi * w * w - abs(math.cos(math.pi * x))
        assert abs(vals[idx] - expect) < 1e-12
    assert float(vals.min()) > -1e-12


# ---------------------------------------------------------------------------
# the residue-block iterator and the int64 boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("modulus", [ML - 1, ML, ML + 1, 97])
def test_residue_blocks_cover_the_range_in_order(modulus):
    rng = random.Random(modulus)
    adds = [rng.randrange(modulus) for _ in range(20)]
    for start, stop in [(0, 1), (1, 2), (0, 1024), (1000, 1030), (1, 5000), (3000, 4097),
                        ((1 << 18) - 5, (1 << 18) + 7), (1, (1 << 19) + 3)]:
        expect_next = start
        for first, res in K.residue_blocks(adds, modulus, start, stop):
            assert first == expect_next and len(res) > 0
            assert res.dtype == (np.int64 if modulus < ML else object)
            for i in {0, len(res) // 2, len(res) - 1, rng.randrange(len(res))}:
                assert res[i] == ref_subset_residue(adds, first + i, modulus)
            expect_next = first + len(res)
        assert expect_next == stop
    assert list(K.residue_blocks(adds, modulus, 7, 7)) == []


def test_residue_blocks_start_with_small_blocks():
    blocks = [(first, len(res)) for first, res in K.residue_blocks(list(range(1, 21)), 10**9, 1, 1 << 20)]
    assert blocks[:4] == [(1, 1023), (1024, 1024), (2048, 2048), (4096, 4096)]
    assert blocks[-1] == (3 << 18, 1 << 18)


@pytest.mark.parametrize("modulus", [ML - 1, ML, ML + 1, (1 << 64) + 13])
def test_digit_scan_min_at_the_modulus_limit(modulus):
    rng = random.Random(modulus)
    for count in (1, 1023, 1024, 3000):
        pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
        assert K.digit_scan_min(pow_mod, count, modulus) == ref_digit_scan(pow_mod, count, modulus)
    # every n with the same popcount ties; the smallest index must win
    pow_mod = [modulus // 3] * 12
    for start in (1, 5, 1500):
        assert K.digit_scan_min(pow_mod, 4000, modulus, start) == ref_digit_scan(
            pow_mod, 4000, modulus, start
        )


def test_sharded_scan_caps_workers_at_usable_cores(monkeypatch):
    seen = {}

    class FakePool:
        def __init__(self, max_workers):
            seen["max_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            spans = list(spans)
            seen["shards"] = len(spans)
            return map(fn, spans)

    monkeypatch.setattr(K, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(K.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rng = random.Random(11)
    modulus, count = 1000003, 1 << 17
    pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
    got = K.digit_scan_min_sharded(pow_mod, count, modulus, threads=100000)
    assert seen == {"max_workers": 3, "shards": 3}
    assert got == K.digit_scan_min(pow_mod, count, modulus)


# (modulus, beta_den) with products 2^62 - 1, 2^62 and 2^62 + 1, plus a
# product far past 2^63 that int64 arithmetic would wrap
_FIRST_CLOSE_CASES = [
    (2147483649, 2147483647),
    (1 << 31, 1 << 31),
    (5, 922337203685477581),
    (33122781086234565, 2000),
    (ML + 1, 1 << 20),
]


@pytest.mark.parametrize("modulus, den", _FIRST_CLOSE_CASES)
def test_first_close_at_the_product_limit(modulus, den):
    rng = random.Random(modulus ^ den)
    for num in (1, den // 3, den - 1):
        # a residue exactly at the threshold, one just past it, and noise
        edge = num * modulus // den
        res = [rng.randrange(modulus) for _ in range(200)]
        res[rng.randrange(200)] = (edge + 1) % modulus
        res[rng.randrange(200)] = (modulus - edge) % modulus
        for dtype in (np.int64 if modulus < ML else object, object):
            got = K.first_close(np.array(res, dtype=dtype), modulus, num, den)
            assert got == ref_first_close(res, modulus, num, den)


# (T, q) with T * q = 2^62 - 1, 2^62, 2^62 + 1, and T * q near 2^70
_DEVIATION_CASES = [(3, 1537228672809129301), (64, 1 << 56), (5, 922337203685477581),
                    (40, (1 << 65) + 7)]


@pytest.mark.parametrize("total, q", _DEVIATION_CASES)
def test_interval_deviation_max_at_the_product_limit(total, q):
    rng = random.Random(q)
    for _ in range(5):
        nums = [rng.choice([0, q - 1, rng.randrange(q)]) for _ in range(total)]
        w, lt, eq = _candidate_tables(nums, q)
        dev, i, j, combo = K.interval_deviation_max(w, lt, eq, total, q)
        assert (dev, w[i], w[j], combo) == deviation_max_py(nums, q, total)


# (g, q) with g * q = 2^62 - 1, 2^62, 2^62 + 1, and g * q near 2^68
@pytest.mark.parametrize("g, q", [(3, 1537228672809129301), (4, 1 << 60),
                                  (5, 922337203685477581), (50, TWO62 - 57)])
def test_scaled_residues_at_the_product_limit(g, q):
    rng = random.Random(g)
    nums = [0, 1, q - 1] + [rng.randrange(q) for _ in range(100)]
    got = K.scaled_residues(nums, g, q)
    assert got.dtype == (np.int64 if g * q < TWO62 else object)
    assert [int(v) for v in got] == [(g * n) % q for n in nums]
