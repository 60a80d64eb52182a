"""Kernel correctness against plain-python references: on numpy-typed and
on object (Python-int) input arrays, and on both sides of every int64 bound,
where the kernels switch between int64 and Python-int arithmetic."""
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import radixapprox._kernels as K
from radixapprox import discrepancy
from radixapprox.exact import Real
from radixapprox.expsum import _ERR_UNIT, _TERM_ERR
from test_discrepancy import discrepancy_object_parent

ML = K.MOD_LIMIT
TWO62 = 1 << 62


@pytest.fixture(params=[None, object], ids=["numpy", "object"])
def as_array(request):
    """Kernels take numpy-typed arrays and object arrays of Python numbers
    (what the big-modulus paths carry); each test runs on both.  Where numpy
    would infer a float dtype for ints (some below 2^63, some at or above),
    the numpy case builds an object array, as `_kernels.first_close` does."""
    def build(values):
        arr = np.asarray(values, dtype=request.param)
        if arr.dtype.kind == "f" and all(isinstance(v, (int, np.integer)) for v in values):
            return np.asarray(values, dtype=object)
        return arr
    return build


def candidate_tables_py(nums: list[int], q: int):
    """Sorted endpoint values (0 and q included) with below/equal counts,
    counted in a dict: the reference's own tables."""
    counts: dict[int, int] = {}
    for n in nums:
        counts[n] = counts.get(n, 0) + 1
    w = sorted(set(counts) | {0, q})
    lt, eq, running = [], [], 0
    for v in w:
        lt.append(running)
        eq.append(counts.get(v, 0))
        running += counts.get(v, 0)
    return w, lt, eq


def deviation_max_py(nums: list[int], q: int, total: int):
    """Reference scan of the candidate family in pure python; mirrors the
    kernel's candidate order and tie-breaking exactly."""
    w, lt, eq = candidate_tables_py(nums, q)
    m = len(w)
    best = (-1, 0, 0, True, True)
    for i in range(m):
        for j in range(i, m):
            width = total * (w[j] - w[i])
            for lc, rc in ((True, True), (True, False), (False, True), (False, False)):
                if j == i and not (lc and rc):
                    continue
                if j == m - 1 and rc:
                    continue
                low = lt[i] if lc else lt[i] + eq[i]
                high = lt[j] + eq[j] if rc else lt[j]
                dev = abs((high - low) * q - width)
                if dev > best[0]:
                    best = (dev, i, j, lc, rc)
    dev, i, j, lc, rc = best
    return dev, w[i], w[j], lc, rc


def ref_digit_scan(pow_mod, count, modulus):
    best, idx = modulus, 0
    for n in range(1, count + 1):
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


def scan_min(pow_mod, count, modulus):
    """digit_scan_min's minimum and its first hit, the first argmin."""
    m, hits = K.digit_scan_min(pow_mod, count, modulus)
    return m, next(hits)


def test_digit_scan_min(as_array):
    rng = random.Random(5)
    for _ in range(25):
        modulus = rng.randint(2, 10**6)
        count = rng.randint(1, 3000)
        pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
        got = scan_min(as_array(pow_mod), count, modulus)
        assert got == ref_digit_scan(pow_mod, count, modulus)


def test_digit_scan_min_on_weights_straddling_2_63(as_array):
    # numpy infers float64 for these ints; rounded weights read a minimum of
    # 2091469946233722893
    q = (1 << 64) + 13
    pow_mod = [4672777213868972441, 10647506995755277419, 16355274127475829285,
               6759623342541015890]
    assert np.asarray(pow_mod).dtype.kind == "f"
    got = scan_min(as_array(pow_mod), 8, q)
    assert got == ref_digit_scan(pow_mod, 8, q) and got[0] == 2091469946233722344


def test_digit_scan_min_range_and_shards(as_array):
    rng = random.Random(6)
    modulus = 9973
    count = 5000
    pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
    arr = as_array(pow_mod)
    # the first argmin, n = 228, lies in the full row 3 of rows 0..78 at
    # count 5000 and in the partial top row 14 (l <= 6) at count 230
    for top in (count, 230):
        assert scan_min(arr, top, modulus) == ref_digit_scan(pow_mod, top, modulus) == (0, 228)
    m, hits = K.digit_scan_min_sharded(arr, count, modulus)
    assert (m, next(hits)) == ref_digit_scan(pow_mod, count, modulus)


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


# the terms are complex128 for every modulus: no object-array case
@pytest.mark.parametrize("as_array", [np.asarray], ids=["numpy"])
def test_cos_sin_sum(as_array):
    rng = random.Random(9)
    for _ in range(10):
        modulus = rng.randint(2, 10**5)
        theta = [2 * math.pi * rng.randrange(modulus) / modulus for _ in range(500)]
        c, s = K.cos_sin_sum(as_array([complex(math.cos(t), math.sin(t)) for t in theta]))
        cc = math.fsum(math.cos(t) for t in theta)
        ss = math.fsum(math.sin(t) for t in theta)
        assert abs(c - cc) < 1e-9 and abs(s - ss) < 1e-9


def test_count_rows_weigh_each_unit_vector_by_its_count():
    # each run is the unit vectors of its residues times their counts, bit
    # for bit: every component the one rounded product c_v fl(cos) or
    # c_v fl(sin).  Its sum is the plain sum with unit vector v repeated
    # c_v times
    modulus = 313
    adds = [random.Random(19).randrange(modulus) for _ in range(14)]
    counts = K.residue_counts(adds, modulus)
    z = np.concatenate(list(K.count_rows(adds, modulus)))
    unit = K._unit_vectors(np.arange(modulus), modulus)
    assert z.dtype == np.complex128 and np.array_equal(z, unit * counts)
    theta = K._angles(np.arange(modulus), modulus)
    assert np.array_equal(z.real, counts * np.cos(theta)) and np.array_equal(z.imag, counts * np.sin(theta))
    c, s = K.cos_sin_sum(z)
    cc, ss = K.cos_sin_sum(np.repeat(unit, counts))
    assert abs(c - cc) < 1e-9 and abs(s - ss) < 1e-9


@pytest.mark.parametrize("modulus", [1, 2, 3, 313, 4093])
def test_residue_counts_tally_the_subset_residues(modulus):
    # the counts are the histogram of the subset_residues table, and the
    # terms of count_rows are the counts at the angles of the residues
    # 0 .. M-1
    rng = random.Random(modulus)
    for bits in (0, 1, 5, 12):
        adds = [rng.randrange(modulus) for _ in range(bits)]
        counts = K.residue_counts(adds, modulus)
        assert counts.dtype == np.int64 and len(counts) == modulus
        want = np.bincount(K.subset_residues(adds, modulus), minlength=modulus)
        assert counts.tolist() == want.tolist()
        z = np.concatenate(list(K.count_rows(adds, modulus)))
        assert np.rint(np.abs(z)).astype(np.int64).tolist() == want.tolist()
        held = np.flatnonzero(want)
        assert turn_error(np.angle(z[held]), held, modulus) < 2.0**-45


def test_count_rows_yield_runs_of_at_most_2_16_residues():
    # the eight residues of three weights fall in all three runs
    modulus = (1 << 17) + 21
    runs = list(K.count_rows([1, 1 << 16, modulus - 3], modulus))
    assert [len(z) for z in runs] == [1 << 16, 1 << 16, 21]
    assert all(z.dtype == np.complex128 for z in runs)
    z = np.concatenate(runs)
    held = np.flatnonzero(z)
    assert held.tolist() == [0, 1, 65533, 65534, 65536, 65537, modulus - 3, modulus - 2]
    assert np.abs(np.abs(z[held]) - 1).max() < 2.0**-45
    assert turn_error(np.angle(z[held]), held, modulus) < 2.0**-45


@pytest.mark.parametrize("modulus", [3, 4093, (1 << 40) - 87, (1 << 53) - 111, (1 << 53) + 5],
                         ids=["3", "4093", "2^40-87", "2^53-111", "2^53+5"])
def test_angles_divide_once_on_either_side_of_2_53(modulus):
    # below 2^53 the float64 division rounds t/M once, as Python's int
    # division does above it: the angles match the Python-int quotient bit
    # for bit
    rng = random.Random(modulus)
    res = [0, 1, modulus // 2, modulus // 2 + 1, modulus - 1] + [rng.randrange(modulus) for _ in range(500)]
    x = np.array([t / modulus for t in res])
    assert np.array_equal(K._angles(np.array(res, dtype=np.int64), modulus), (x - (x >= 0.5)) * (2.0 * np.pi))


def test_residue_counts_stay_exact_at_the_term_cap():
    # 27 zero weights put all 2^27 subsets on residue 0
    counts = K.residue_counts([0] * 27, 5)
    assert counts.tolist() == [1 << 27, 0, 0, 0, 0]


def test_interval_deviation_max(as_array):
    rng = random.Random(10)
    cases = []
    for _ in range(40):
        total = rng.randint(1, 15)
        q = rng.choice([8, 17, 60])
        cases.append(([rng.randrange(q) for _ in range(total)], q))
    # every multiset on a tiny grid: ties everywhere, all-equal points, points at 0
    for q in (1, 2, 3, 4):
        for total in range(1, 6):
            cases += [(list(c), q) for c in itertools.combinations_with_replacement(range(q), total)]
    for total in (rng.randint(100, 250) for _ in range(2)):
        for q in (total, 10**6, (1 << 64) + 1):
            cases.append(([rng.randrange(q) for _ in range(total)], q))
    for nums, q in cases:
        w, lt, eq = candidate_tables_py(nums, q)
        got = K.interval_deviation_max(as_array(w), as_array(lt), as_array(eq), len(nums), q)
        dev, i, j, lc, rc = got
        assert (dev, w[i], w[j], lc, rc) == deviation_max_py(nums, q, len(nums))


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
# the subset residues and the int64 boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("modulus", [2, 1009, ML - 1, ML + 1])
def test_subset_residues_and_blocks_match_brute_force_subset_sums(modulus):
    rng = random.Random(modulus + 7)
    for size in [0, 1, 12] + [rng.randint(0, 12) for _ in range(9)]:
        adds = [rng.randrange(modulus) for _ in range(size)]
        brute = [sum(c) % modulus for c in itertools.product(*[(0, a) for a in reversed(adds)])]
        table = K.subset_residues(adds, modulus)
        assert table.dtype == (np.int64 if modulus < ML else object)
        assert table.tolist() == brute


def turn_error(theta, res, modulus: int) -> float:
    """max over the entries of ||theta / 2 pi - res / M|| (mod 1), in floats:
    the check itself rounds by at most 4u."""
    d = np.asarray(theta) / (2 * np.pi) - np.array([v / modulus for v in res])
    return float(np.abs(d - np.rint(d)).max())


ROW_MODULI = [2, 1009, (1 << 40) - 87, ML - 1, ML, ML + 1, (1 << 64) + 13, (1 << 144) - 83]
ROW_IDS = ["2", "1009", "2^40-87", "ML-1", "ML", "ML+1", "2^64+13", "2^144-83"]


@pytest.mark.parametrize("modulus", ROW_MODULI)
def test_residue_rows_are_whole_rows_of_every_residue_in_order(modulus):
    # term_rows: the term of every residue, in runs of whole rows
    rng = random.Random(modulus)
    for bits in (0, 1, 2, 7, 19, 20):
        pow_mod = [rng.randrange(modulus) for _ in range(bits)]
        runs = list(K.term_rows(pow_mod, modulus))
        # runs of whole rows of 2^s entries, s = bits // 2, at most 2^16 long
        assert all(len(z) % (1 << bits // 2) == 0 and len(z) <= 1 << 16 for z in runs)
        got = np.concatenate(runs)
        assert len(got) == 1 << bits and got.dtype == np.complex128
        if bits <= 7:
            ns, want = list(range(1 << bits)), ref_residues(pow_mod, (1 << bits) - 1, modulus)
        else:
            ns = [0, 1, (1 << bits) - 1] + [rng.randrange(1 << bits) for _ in range(200)]
            want = [ref_subset_residue(pow_mod, n, modulus) for n in ns]
        # the phase of term n names its residue; the budget test below
        # bounds the terms themselves
        assert turn_error(np.angle(got[ns]), want, modulus) < 2.0**-45


def budget_weights(modulus: int) -> list[int]:
    """Twelve digit weights: M // 2, M // 2 + 1 and M - 1 put half angles at
    and next to the shift into [-1/2, 1/2) and next to a full turn."""
    rng = random.Random(modulus)
    weights = [modulus // 2, modulus // 2 + 1, modulus - 1] + [rng.randrange(modulus) for _ in range(9)]
    return [w % modulus for w in weights]


@pytest.mark.parametrize("modulus", ROW_MODULI, ids=ROW_IDS)
def test_angle_rows_stay_within_the_angle_error_budget(modulus):
    # expsum._sum_radius: the angle rows of the two half tables, which
    # term_rows turns into unit vectors, lie in [-pi, pi) and within
    # 2 pi * 2u of 2 pi t / M mod 2 pi
    _, L, H = K._half_tables(budget_weights(modulus), (1 << 12) - 1, modulus)
    for table in (L, H):
        theta = K._angles(table, modulus)
        assert theta.dtype == np.float64 and -np.pi <= theta.min() and theta.max() < np.pi
        with mpmath.workprec(200):
            worst = max(abs(d - mpmath.nint(d)) for d in
                        (mpmath.mpf(float(t)) / (2 * mpmath.pi) - mpmath.mpf(int(v)) / modulus
                         for t, v in zip(theta, table)))
            assert worst <= 2 * mpmath.mpf(2) ** -53


@pytest.mark.parametrize("modulus", ROW_MODULI, ids=ROW_IDS)
def test_term_rows_stay_within_the_term_error_budget(modulus):
    # expsum._sum_radius: every term is within _TERM_ERR of e(res / M) per
    # component
    pow_mod = budget_weights(modulus)
    runs = list(K.term_rows(pow_mod, modulus))
    assert len(runs) == 1 and len(runs[0]) == 1 << 12 and runs[0].dtype == np.complex128
    res = ref_residues(pow_mod, (1 << 12) - 1, modulus)
    with mpmath.workprec(200):
        worst = max(max(abs(mpmath.mpf(float(z.real)) - e.real), abs(mpmath.mpf(float(z.imag)) - e.imag))
                    for z, e in zip(runs[0], (mpmath.expjpi(2 * mpmath.mpf(v) / modulus) for v in res)))
        assert worst <= mpmath.mpf(_TERM_ERR) / _ERR_UNIT


@pytest.mark.parametrize("modulus", [ML - 1, ML, ML + 1, (1 << 64) + 13])
def test_digit_scan_min_at_the_modulus_limit(modulus):
    rng = random.Random(modulus)
    for count in (1, 1023, 1024, 3000):
        pow_mod = [rng.randrange(modulus) for _ in range(count.bit_length())]
        assert scan_min(pow_mod, count, modulus) == ref_digit_scan(pow_mod, count, modulus)
    # every n with the same popcount ties; the smallest index must win.  The
    # first tie, n = 7, lies in row 0 at count 4000 and in the full row 1 of
    # rows 0..2 at count 8
    pow_mod = [modulus // 3] * 12
    for count in (4000, 8):
        assert scan_min(pow_mod, count, modulus) == ref_digit_scan(pow_mod, count, modulus)
    # six low digits of modulus // 7 keep every n with a low bit set at least
    # modulus / 22 away, so the ties are the n = 2^6 m with popcount(m) = 3:
    # the first, 448, lies in the full row 7 of rows 0..62 at count 4000 and
    # in the partial top row 28 (l <= 5) at count 453
    pow_mod = [modulus // 7] * 6 + [modulus // 3] * 6
    for count in (4000, 453):
        assert scan_min(pow_mod, count, modulus) == ref_digit_scan(pow_mod, count, modulus)
        assert scan_min(pow_mod, count, modulus)[1] == 448


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



def ref_residues(pow_mod, count, modulus):
    """res[n] for n in [0, count], each from n with its lowest bit cleared."""
    res = [0] * (count + 1)
    for n in range(1, count + 1):
        low = n & -n
        res[n] = (res[n ^ low] + pow_mod[low.bit_length() - 1]) % modulus
    return res


def ref_scan_close(res, count, modulus, num, den):
    return [n for n in range(1, count + 1)
            if min(res[n], modulus - res[n]) * den <= num * modulus]


# moduli on both sides of MOD_LIMIT (int64 and object residues), and
# modulus * den on both sides of 2^62 (int64 and object comparisons)
_SCAN_CLOSE_CASES = [(ML - 1, 1 << 4), (ML, 3), (ML + 1, 1000), ((1 << 64) + 13, 7),
                     *_FIRST_CLOSE_CASES]


@pytest.mark.parametrize("modulus, den", _SCAN_CLOSE_CASES)
def test_digit_scan_close_matches_brute_force(modulus, den, as_array):
    rng = random.Random(modulus ^ den)
    pow_mod = [rng.randrange(modulus) for _ in range(12)]
    res = ref_residues(pow_mod, 3000, modulus)
    # sparse hits, dense hits, and beta >= 1/2, where every n is close
    for num, d in ((max(1, den // 1000), den), (den // 3 or 1, den), (den, den), (1, 2)):
        for count in (1, 2, 1023, 1024, 1025, 3000):
            got = list(K.digit_scan_close(as_array(pow_mod), count, modulus, num, d))
            assert got == ref_scan_close(res, count, modulus, num, d)
    assert list(K.digit_scan_close(pow_mod, 3000, modulus, 1, 2)) == list(range(1, 3001))


def test_digit_scan_close_with_a_window_past_the_modulus_yields_every_n():
    # beta = 1000: w = 1000 M would leave int64 in the row lookup
    modulus = (1 << 56) + 3
    rng = random.Random(modulus)
    pow_mod = [rng.randrange(modulus) for _ in range(11)]
    assert list(K.digit_scan_close(pow_mod, 2047, modulus, 1000, 1)) == list(range(1, 2048))


@pytest.mark.parametrize("modulus", [ML - 1, ML + 1])
def test_digit_scan_close_across_the_low_table_edge(modulus):
    rng = random.Random(modulus)
    pow_mod = [rng.randrange(modulus) for _ in range(19)]
    top = (1 << 18) + 3
    res = ref_residues(pow_mod, top, modulus)
    for count in ((1 << 18) - 1, 1 << 18, top):
        got = list(K.digit_scan_close(pow_mod, count, modulus, 1, 1000))
        assert got == ref_scan_close(res, count, modulus, 1, 1000) and got


def test_digit_scan_close_builds_only_the_leading_blocks(monkeypatch):
    # the first pull builds the two half tables, 2^12 + 2^13 entries at
    # count 2^24, and no residue past them
    tables, built = K.subset_residues, []

    def recording_tables(*args):
        table = tables(*args)
        built.append(len(table))
        return table

    monkeypatch.setattr(K, "subset_residues", recording_tables)
    rng = random.Random(24)
    modulus = (1 << 61) - 1
    pow_mod = [rng.randrange(modulus) for _ in range(25)]
    assert next(K.digit_scan_close(pow_mod, 1 << 24, modulus, 1, 2)) == 1
    assert sum(built) <= (1 << 12) + (1 << 13)
    # the first n read within 2^-13 of an integer
    built.clear()
    hit = next(K.digit_scan_close(pow_mod, 1 << 24, modulus, 1, 1 << 13))
    assert hit == ref_scan_close(ref_residues(pow_mod, hit, modulus), hit, modulus, 1, 1 << 13)[0]
    assert sum(built) <= (1 << 12) + (1 << 13)


# ---------------------------------------------------------------------------
# the meet-in-the-middle scans against the references: n = h 2^s + l with
# s = bit_length(count) // 2 (row h, column l)
# ---------------------------------------------------------------------------


def linear_residues(pow_mod, count, modulus):
    """(first, res) runs covering n in [1, count], ascending: the subset
    residues of the low 18 digits, each 2^18-run shifted by the residue of
    its high digits.  O(count), and built without the half tables."""
    low = K.subset_residues(pow_mod[:18], modulus)
    for first in range(0, count + 1, len(low)):
        lo, base = int(first == 0), ref_subset_residue(pow_mod, first, modulus)
        yield first + lo, (low[lo : count + 1 - first] + base) % modulus


def linear_scan_min(pow_mod, count, modulus):
    """The O(count) scan digit_scan_min replaced."""
    best, best_idx = modulus, 0
    for first, res in linear_residues(pow_mod, count, modulus):
        dist = np.minimum(res, modulus - res)
        k = int(np.argmin(dist))
        if dist[k] < best:
            best, best_idx = int(dist[k]), first + k
    return best, best_idx


def linear_scan_close(pow_mod, count, modulus, num, den):
    """The O(count) scan digit_scan_close replaced."""
    for first, res in linear_residues(pow_mod, count, modulus):
        for i in np.flatnonzero(np.minimum(res, modulus - res) <= num * modulus // den):
            yield first + int(i)


def _plus_minus_row(rng, q, flip):
    """(pow_mod, count, n): row 1 reaches its minimum x at l1 and at
    l2 = l1 + 2^j, reading +x at l1 and -x at l2 (swapped when flip); the
    other residues are random on a large q, so the smaller n = 2^s + l1 wins."""
    s = rng.randint(2, 6)
    j = rng.randrange(s)
    x = rng.randint(1, 50)
    pow_mod = [rng.randrange(q) for _ in range(2 * s + rng.randint(0, 1))]
    pow_mod[j] = (2 * x if flip else -2 * x) % q
    l1 = rng.randrange(1 << s) & ~(1 << j)
    low = sum(a for d, a in enumerate(pow_mod[:s]) if l1 >> d & 1)
    pow_mod[s] = ((-x if flip else x) - low) % q
    return pow_mod, (1 << len(pow_mod)) - 1, (1 << s) + l1


def _row_zero_tie(rng, q):
    """(pow_mod, count, n): n = 3 in row 0 and n = 2^j in a later row both
    read x, and nothing else comes that close on a large q."""
    k = rng.randint(4, 12)
    x = rng.randint(1, 50)
    pow_mod = [rng.randrange(q) for _ in range(k)]
    pow_mod[1] = (x - pow_mod[0]) % q
    pow_mod[rng.randrange(k // 2, k)] = x
    return pow_mod, rng.randint(1 << (k - 1), (1 << k) - 1), 3


def _scan_cases():
    """2,400 (pow_mod, count, modulus) cases, with the n that must win where
    the case is built around a tie."""
    rng = random.Random(13)
    big = [ML - 1, ML, ML + 1, (1 << 64) + 13]
    for i in range(2400):
        q = rng.choice(big + [2, 3, 4, 7, 60, rng.randint(2, 10**6)])
        if i % 12 < 2 and q in big:
            pow_mod, count, n = _plus_minus_row(rng, q, i % 24 == 0) if i % 12 else _row_zero_tie(rng, q)
            yield pow_mod, count, q, n
            continue
        j = rng.randint(1, 11)
        count = rng.choice([1, 2, 3, (1 << j) - 1, 1 << j, (1 << j) + 1])
        pow_mod = [rng.randrange(q) for _ in range(count.bit_length())]
        yield pow_mod, count, q, None


def test_digit_scan_min_matches_the_reference():
    kinds = set()
    for pow_mod, count, q, n in _scan_cases():
        got = scan_min(np.asarray(pow_mod, dtype=object), count, q)
        assert got == ref_digit_scan(pow_mod, count, q)
        assert n is None or got[1] == n
        kinds.add((count.bit_length() % 2, q >= ML, n))
    assert {(0, True), (1, True), (0, False), (1, False)} <= {kind[:2] for kind in kinds}
    assert {3} <= {kind[2] for kind in kinds} and len({kind[2] for kind in kinds}) > 10


def test_digit_scan_close_matches_the_reference():
    rng = random.Random(14)
    windows = wrapped = 0
    for pow_mod, count, q, _ in _scan_cases():
        res = ref_residues(pow_mod, count, q)
        # a random window, one just short of all of [0, q), and all of it
        den = rng.randint(1, 60)
        for num, d in ((rng.randint(0, den), den), (q // 2 - 1, q), (q - 1, 2 * q)):
            got = list(K.digit_scan_close(pow_mod, count, q, num, d))
            assert got == ref_scan_close(res, count, q, num, d)
            w = num * q // d
            if 2 * w + 1 >= q:
                assert got == list(range(1, count + 1))
            windows += 1
            wrapped += 0 < w and 2 * w + 1 < q
    assert windows == 7200 and wrapped > 2000


def test_digit_scan_min_hits_are_digit_scan_close_past_the_minimum():
    # hits at slack num/den reads what digit_scan_close reads at m/M + num/den,
    # on int64 residues (q < MOD_LIMIT) and on Python-int ones
    rng = random.Random(15)
    wide = Counter()
    for pow_mod, count, q, _ in _scan_cases():
        den = rng.randint(1, 60)
        for num, d in ((0, 1), (rng.randint(0, den), den * q), (rng.randint(0, den), den), (q, 2)):
            m, hits = K.digit_scan_min(pow_mod, count, q, num=num, den=d)
            window = Fraction(m, q) + Fraction(num, d)
            got = list(hits)
            assert got == list(K.digit_scan_close(pow_mod, count, q, window.numerator,
                                                  window.denominator))
            wide[q >= ML] += len(got) > 1 and 0 < m + num * q // d < q // 2
    assert min(wide[False], wide[True]) > 300, wide


def test_digit_scan_min_reads_its_hit_rows_only_as_pulled(monkeypatch):
    # gamma = 0: every n ties, so every row of 2^12 holds a hit; the first
    # two pulls read row 0 alone
    rows, row = [], K._row
    monkeypatch.setattr(K, "_row", lambda h, *a: rows.append(h) or row(h, *a))
    m, hits = K.digit_scan_min([0] * 25, 1 << 24, 7)
    rows.clear()
    assert (m, next(hits), next(hits)) == (0, 1, 2) and rows == [0]


@pytest.mark.parametrize("q", [(1 << 40) - 87, (1 << 61) - 1])
def test_the_scans_match_the_linear_scans_at_2_22(q):
    rng = random.Random(q)
    pow_mod = [rng.randrange(q) for _ in range(23)]
    count = 1 << 22
    assert scan_min(pow_mod, count, q) == linear_scan_min(pow_mod, count, q)
    got = list(K.digit_scan_close(pow_mod, count, q, 1, 1 << 18))
    assert got == list(linear_scan_close(pow_mod, count, q, 1, 1 << 18)) and len(got) > 10


# (T, q) with T * q = 2^62 - 1, 2^62, 2^62 + 1, and T * q near 2^70; and q
# in (2^63, 2^64), whose residues numpy's inference would turn into float64
_DEVIATION_CASES = [(3, 1537228672809129301), (64, 1 << 56), (5, 922337203685477581),
                    (40, (1 << 65) + 7), (3, (1 << 64) - 59)]


@pytest.mark.parametrize("total, q", _DEVIATION_CASES)
def test_interval_deviation_max_at_the_product_limit(total, q):
    rng = random.Random(q)
    for _ in range(5):
        nums = [rng.choice([0, q - 1, rng.randrange(q)]) for _ in range(total)]
        w, lt, eq = candidate_tables_py(nums, q)
        dev, i, j, lc, rc = K.interval_deviation_max(w, lt, eq, total, q)
        assert (dev, w[i], w[j], lc, rc) == deviation_max_py(nums, q, total)


@pytest.mark.parametrize("q", [(1 << 64) + 13, (1 << 200) + 235])
def test_interval_deviation_max_certifies_the_ends_near_an_extreme(q):
    # point k within one key unit q 2^-K of k q / T, K = 62 - bit_length(T): every
    # end c q - w T lies within T q 2^-K of 0 or of q, so many read within 2T
    # of an extreme through their keys floor(w 2^K / q), and the first
    # key-level argmax is often not the first exact one
    rng = random.Random(q)
    misread = 0
    for _ in range(100):
        total = rng.randint(2, 12)
        bits = 62 - total.bit_length()
        unit = q >> bits
        nums = [min(max(k * q // total + rng.randint(-unit, unit), 0), q - 1)
                for k in range(total)]
        w, lt, eq = candidate_tables_py(nums, q)
        dev, i, j, lc, rc = K.interval_deviation_max(w, lt, eq, total, q)
        assert (dev, w[i], w[j], lc, rc) == deviation_max_py(nums, q, total)
        # the limb keys of an orbit may read one unit low: the window holds
        keys = np.array([max((v << bits) // q - rng.randint(0, 1), 0) for v in w])
        low = K.KeyedInts(keys, 1 << bits, w.__getitem__)
        assert K.interval_deviation_max(low, lt, eq, total, q) == (dev, i, j, lc, rc)
        ends = [(c * q - v * total, (c << bits) - (v << bits) // q * total)
                for v, a, b in zip(w, lt, eq) for c in (a, a + b)][:-1]
        exact, key = zip(*ends)
        misread += exact.index(max(exact)) != key.index(max(key))
    assert misread > 10


def test_discrepancy_reads_only_the_ends_near_an_extreme(monkeypatch):
    # pi@128 at T = 4000 has T Q ~ 2^154: the scan reads every end through
    # its key and evaluates only the few near an extreme, and the two
    # witness endpoints, in Python ints
    reads = []
    tables = discrepancy._candidate_tables

    def spy(nums, q):
        w, lt, eq = tables(nums, q)
        value = w.value
        w.value = lambda i: reads.append(i) or value(i)
        return w, lt, eq

    monkeypatch.setattr(discrepancy, "_candidate_tables", spy)
    points = discrepancy.fractional_orbit(Real.parse("pi", 128), 4000)
    assert discrepancy.discrepancy_L(points) == discrepancy_object_parent(points)
    assert 2 < len(reads) < 16


def test_fixed_point_orbit_limbs_cover_the_largest_truncation():
    # T = 2^21 + 1 points on q = 2^256: the last point lies 2^-80 above the
    # 2^-62 boundary j, and n F / 2^B falls short of n r / q by almost
    # T 2^-B; B = 62 + bit_length(T) bits keep that below one key unit,
    # where B = 80 (J = ceil(62 / W) limbs) would read the key 8 units low
    T, q = (1 << 21) + 1, 1 << 256
    j = random.Random(T).getrandbits(62) | 1 << 61
    r = ((j << 194) + (1 << 176) - T) * pow(T, -1, q) % q
    last = T * r % q
    exact = (last << 62) // q
    assert exact == j and (last << 62) % q > q >> 19
    keys = K.fixed_point_orbit(r, q, T)
    assert exact - 1 <= int(keys[-1]) <= exact


@pytest.mark.parametrize("count", [1, 7, 3000, (1 << 20) + 5])
def test_fixed_point_orbit_keys_lie_one_unit_below_the_points(count):
    # the key of {n r / q} is floor or floor - 1 of its 62-bit reading, or
    # 2^62 - 1 for a point that wrapped past 1 (exactly on, or within 2^-62
    # above, an integer); 2^20 + 5 points take three limbs, the others two
    rng = random.Random(count)
    wrapped = 0
    for _ in range(30 if count < 1 << 20 else 8):
        q = rng.choice([rng.randint(2, 1 << 70), 1 << rng.randint(60, 200),
                        rng.randint(1 << 4000, 1 << 4200)])
        r, n = rng.randrange(q), rng.randint(1, count)
        if rng.random() < 0.5:  # point n on, or within q^-1 of, an integer
            q = n << rng.randint(70, 300)
            r = (rng.randrange(n) * q // n + rng.randint(-2, 2)) % q
        keys = K.fixed_point_orbit(r, q, count)
        assert keys.dtype == np.int64 and len(keys) == count
        picks = range(count) if count < 1 << 20 else rng.sample(range(count), 3000) + [n - 1, count - 1]
        for i in picks:
            exact = ((i + 1) * r % q << 62) // q
            key = int(keys[i])
            wrapped += key == (1 << 62) - 1 and exact == 0
            assert exact - 1 <= key <= exact or (key == (1 << 62) - 1 and exact == 0)
    assert wrapped or count < 7
