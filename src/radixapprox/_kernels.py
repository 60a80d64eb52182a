"""Hot numeric kernels, and the int64 limits they keep.

``discrepancy`` reads one of them, ``_PRODUCT_LIMIT``, to pick the grid of
the orbit it hands to the scan; every other module leaves the limits here.

Residues and products are int64 arrays while the bound documented next to
each kernel keeps every intermediate below 2**62, and numpy ``object``
arrays of Python ints otherwise, so callers never branch on the size of
their integers.  Integer results are exact on both kinds of array; float
sums differ only by rounding that ``expsum._sum_radius`` accounts for.
The discrepancy scan (``interval_deviation_max``) is int64 at every size:
while T Q < 2**62 it reads the exact ends e = c Q - w T (c <= T a count);
beyond, it reads each endpoint w through a key k on the grid 2**K, K =
62 - bit_length(T), with k <= w 2**K / Q < k + 2, as E = c 2**K - k T,
below 2**62.  Then e 2**K / Q lies in (E - 2T, E], so an end equal to the
largest or least e has E within 2T of the largest or least E: only those
ends are evaluated exactly, in Python ints.  The keys of the discrepancy
orbit {n r / q} come from n F mod 2**B, F = floor(r 2**B / q), on int64
limbs (``fixed_point_orbit``), so no orbit holds a Python int per point.

The zero-one residues have one layout, the meet-in-the-middle split
(Horowitz & Sahni, "Computing partitions with applications to the knapsack
problem", JACM 21, 1974): for n <= count, k = bit_length(count) and
s = k // 2, element n = h 2**s + l has the residue H[h] + L[l] mod M, L and
H the ``subset_residues`` tables of the low s and the high k - s digits
(``_half_tables``).  The scans sort L, look rows h up in it with
``np.searchsorted`` and read only the rows it reports, through one row
reader on an integer threshold (``_hits``): O(2**(k/2) k) work in place of
O(2**k).  ``digit_scan_min`` looks up every row's minimum at once, and its
hits read the rows within a slack of the least (the oracle's certify
window); ``digit_scan_close`` looks rows up in doubling chunks, so a first
hit stops early.  Rows ascend and so does l within a row, so the first hit
is the smallest n.  The trigonometric sums take one term form, complex
runs of unit vectors e(t/M) (``_unit_vectors``, one cos and one sin per
entry), and one float sum of a run (``cos_sin_sum``).  The direct sum reads
the half tables as unit vectors and sums each table's run (``half_sums``),
for every modulus: the term of n = h 2**s + l is E_H[h] E_L[l], so the sum
of all 2**k terms is the product of the two half sums (distributivity).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "USE_NUMBA",
    "MOD_LIMIT",
    "digit_scan_min",
    "digit_scan_min_sharded",
    "subset_residues",
    "half_sums",
    "cos_sin_sum",
    "digit_scan_close",
    "first_close",
    "interval_deviation_max",
    "KeyedInts",
    "POINT_UNIT",
    "fixed_point_keys",
    "fixed_point_orbit",
    "cos_margin_values",
]

#: Always False: every kernel has one numpy implementation.  The benchmark's
#: environment record still reads this name.
USE_NUMBA = False

#: Moduli below this get int64 residue tables (a sum of two residues stays
#: below 2**58); larger ones get Python ints.
MOD_LIMIT = 1 << 57

_PRODUCT_LIMIT = 1 << 62  # int64 products and sums must stay below this
_FLOAT_EXACT = 1 << 53  # integers below this are exact in float64


# ---------------------------------------------------------------------------
# residues of the subset sums, indexed by bitmask: entry n holds the sum of
# add_mod[d] over the set bits d of n, reduced mod the modulus
# ---------------------------------------------------------------------------


def subset_residues(add_mod, modulus: int) -> np.ndarray:
    """Residues of every subset sum of add_mod, indexed by bitmask.

    Entry m holds (sum of add_mod[d] over set bits d of m) mod modulus.
    Requires all 0 <= add_mod[d] < modulus.  The table is int64 when
    modulus < MOD_LIMIT and holds Python ints otherwise.
    """
    table = np.zeros(1 << len(add_mod), dtype=np.int64 if modulus < MOD_LIMIT else object)
    for d, a in enumerate(add_mod):
        # the masks with top bit d are those below 2**d plus add_mod[d]
        half = table[1 << d : 2 << d]
        np.add(table[: 1 << d], int(a) % modulus, out=half)
        np.remainder(half, modulus, out=half)
    return table


# ---------------------------------------------------------------------------
# the zero-one scans over the two half tables, and the reducers over
# caller-built residue arrays
# ---------------------------------------------------------------------------


def _half_tables(pow_mod, count: int, modulus: int):
    """(s, L, H) of the split in the module docstring."""
    k = count.bit_length()
    s = k // 2
    return s, subset_residues(pow_mod[:s], modulus), subset_residues(pow_mod[s:k], modulus)


def _angles(table: np.ndarray, modulus: int) -> np.ndarray:
    """2 pi t/M moved into [-pi, pi) for every residue t: t/M rounds once for
    every modulus, and x - (x >= 1/2) is exact (``expsum._sum_radius``).
    Below 2**53 the residues and M are exact float64, so the float division
    gives the same correctly rounded t/M as Python's int division."""
    if modulus < _FLOAT_EXACT:
        x = table / float(modulus)
    else:
        x = (table.astype(object) / modulus).astype(np.float64)
    return (x - (x >= 0.5)) * (2.0 * np.pi)


def _unit_vectors(table: np.ndarray, modulus: int) -> np.ndarray:
    """cos(theta) + i sin(theta) for the angles theta of ``_angles``: one cos
    and one sin per table entry, both in [-pi, pi)."""
    theta = _angles(table, modulus)
    return np.cos(theta) + 1j * np.sin(theta)


def half_sums(pow_mod, modulus: int):
    """((a, b), (c, d)): a + i b the float sum of the unit vectors E_H of
    the high half table and c + i d that of the E_L of the low one
    (``_half_tables`` of all 2**k subsets, k = len(pow_mod)), each through
    ``cos_sin_sum``.  The terms E_H[h] E_L[l] of all n = h 2**s + l sum to
    the product of the two exact sums, so 2**s + 2**(k-s) unit vectors
    stand in for 2**k complex products (``expsum._sum_radius``)."""
    _, L, H = _half_tables(pow_mod, (1 << len(pow_mod)) - 1, modulus)
    return cos_sin_sum(_unit_vectors(H, modulus)), cos_sin_sum(_unit_vectors(L, modulus))


def _row(h: int, count: int, s: int):
    """The l range [lo, hi) of row h: row 0 skips n = 0 and the top row
    stops at n = count."""
    return int(h == 0), (count & ((1 << s) - 1)) + 1 if h == count >> s else 1 << s


def _dist(res: np.ndarray, modulus: int) -> np.ndarray:
    return np.minimum(res, modulus - res)


def _hits(rows, tables, count: int, modulus: int, w: int):
    """Yield, ascending, every n in the ascending rows h with
    min(res_n, M - res_n) <= w, reading each row as it is pulled."""
    s, L, H = tables
    for h in rows:
        lo, hi = _row(h, count, s)
        for i in np.flatnonzero(_dist((L[lo:hi] + H[h]) % modulus, modulus) <= w):
            yield (h << s) + lo + int(i)


def digit_scan_min(pow_mod, count: int, modulus: int, *, num: int = 0, den: int = 1):
    """(m, hits): m the minimum over n in [1, count] of min(res_n, M - res_n),
    and hits a lazy ascending reader of every n in [1, count] within
    w = m + num M // den of an integer multiple of M.

    res_n is the mod-M sum of pow_mod over the set bits of n.  The minimum
    of a full row h lies at one of the two circular neighbours of -H[h] mod
    M in the sorted L, so all full rows are read at once; row 0 and the top
    row are read directly.  hits reads only the rows whose minimum is at
    most w, each as it is pulled, so with num = 0 its first element is the
    first argmin: ties go to the smallest n.  Requires count >= 1 and
    len(pow_mod) >= bit_length(count); any modulus works.
    """
    s, L, H = _half_tables(pow_mod, count, modulus)
    low, high = np.sort(L), H[: (count >> s) + 1]
    i = np.searchsorted(low, (modulus - high) % modulus)
    row_min = np.minimum(_dist((high + low[i % len(low)]) % modulus, modulus),
                         _dist((high + low[i - 1]) % modulus, modulus))
    for h in {0, count >> s}:
        lo, hi = _row(h, count, s)
        row_min[h] = _dist((L[lo:hi] + H[h]) % modulus, modulus).min(initial=modulus)
    m = int(row_min.min())
    # any w >= M / 2 reads every n, and w <= M keeps the rows in int64
    w = min(m + num * modulus // den, modulus)
    return m, _hits(np.flatnonzero(row_min <= w).tolist(), (s, L, H), count, modulus, w)


def digit_scan_min_sharded(pow_mod, count: int, modulus: int, *, num: int = 0, den: int = 1):
    """digit_scan_min over [1, count] on one thread: the scan both searches
    call, a name of its own so that a trace tells it from digit_scan_min."""
    return digit_scan_min(pow_mod, count, modulus, num=num, den=den)


def digit_scan_close(pow_mod, count: int, modulus: int, num: int, den: int):
    """Yield, ascending, every n in [1, count] with min(res_n, M - res_n) / M
    <= num / den (res_n as in digit_scan_min).

    Row h holds a close n exactly where L[l] lies in the circular window
    [t - w, t + w], t = -H[h] mod M and w = num M // den.  The rows look
    their windows up in the sorted L in chunks of 1, 1, 2, 4, ... rows
    (every row holds one when 2w + 1 >= M), so a dense window stops at its
    first hit, and only the rows that hold one are read, ascending, as the
    caller pulls; each costs 2**s on top of the tables.
    """
    tables = s, L, H = _half_tables(pow_mod, count, modulus)
    # w <= M keeps -w - H within int64; any w >= M / 2 keeps every row
    w, top = min(num * modulus // den, modulus), count >> s
    low = np.sort(L)
    start, stop = 0, 1
    while start <= top:
        rows = np.arange(start, min(stop, top + 1))
        # the window [lo, lo + 2w] of row h holds an L exactly when the
        # first L at or circularly after lo does
        lo = (-w - H[rows]) % modulus
        rows = rows[(low[np.searchsorted(low, lo) % len(low)] - lo) % modulus <= 2 * w]
        yield from _hits(rows.tolist(), tables, count, modulus, w)
        start, stop = stop, 2 * stop


def first_close(res: np.ndarray, modulus: int, beta_num: int, beta_den: int) -> int:
    """The first index i with min(res[i], M - res[i]) / M <= beta_num /
    beta_den, or -1; in int64 while modulus * max(beta_num, beta_den) <
    2**62, on Python ints otherwise."""
    wide = modulus * max(beta_num, beta_den) >= _PRODUCT_LIMIT
    dist = np.asarray(_dist(res, modulus), dtype=object if wide else np.int64)
    return int(next(iter(np.flatnonzero(dist * beta_den <= beta_num * modulus)), -1))


def cos_sin_sum(z: np.ndarray):
    """(sum of z.real, sum of z.imag) over one complex run of terms (a half
    table's unit vectors in ``half_sums``): each part numpy's pairwise sum of
    a strided view, the float sum ``expsum._sum_radius`` bounds; ``z.sum()``
    blocks the complex sum differently."""
    return float(z.real.sum()), float(z.imag.sum())


# ---------------------------------------------------------------------------
# discrepancy candidate scan, O(m) int64 passes: the extreme discrepancy is
# the max minus the min of the count function (Niederreiter, Random Number
# Generation and Quasi-Monte Carlo Methods, 1992, Thm 2.6)
#
# Endpoints w[0] < ... < w[m-1] (scaled by Q, w[m-1] == Q stands for 1).
# lt[i]/eq[i] count sequence points strictly below / equal to w[i].
# The maximum is reported with the first witness in the order (i, j, then
# left closed before open, then right closed before open).
# ---------------------------------------------------------------------------


#: The grid of the points' fixed-point keys, floor(v POINT_UNIT / q) for a
#: point v/q in [0, 1).  The scan keys its endpoints on the grid POINT_UNIT
#: >> bit_length(T): T times a key, and a count up to T times that grid,
#: stay below 2**62.
POINT_UNIT = 1 << 62


def fixed_point_keys(values, q: int, unit: int) -> np.ndarray:
    """floor(v unit / q) of each int v in [0, q] (q reads unit) as a new
    int64 array, one Python division per value: the keys of explicit values
    on the grid unit."""
    return np.fromiter((int(v) * unit // q for v in values), np.int64, len(values))


def fixed_point_orbit(r: int, q: int, count: int) -> np.ndarray:
    """The keys floor(y_n 2**62), on the grid POINT_UNIT, of y_n = {n F /
    2**B}, n = 1..count, for F = floor(r 2**B / q) and 0 <= r < q: the
    fixed-point reading of the orbit {n r / q} (Knuth, TAOCP vol. 2,
    4.3.1), with no Python int per point.

    F is read as J limbs of W = 62 - bit_length(count) bits, so each
    product n f_j < 2**62, and n F mod 2**B is J int64 products with the
    carries propagated, exact; B = J W >= 62 + bit_length(count).  {n r / q}
    lies in [y_n, y_n + n 2**-B) modulo 1, and n 2**-B < 2**-62, so each key
    is floor({n r / q} 2**62) or one less, except where y_n + n 2**-B passes
    1: that point wrapped past 1 and is keyed 2**62 - 1.
    """
    W = 62 - count.bit_length()
    J = -(-(62 + count.bit_length()) // W)
    F, mask = (r << J * W) // q, (1 << W) - 1
    n = np.arange(1, count + 1, dtype=np.int64)
    digits, carry = [], 0
    for j in range(J):  # the lowest limb first; the top limb's carry is the integer part
        d = n * ((F >> j * W) & mask)
        d += carry
        if j < J - 1:
            carry = d >> W
        d &= mask
        digits.append(d)
    del n, carry
    keys, have = digits.pop(), W  # the top 62 bits, highest limb first
    keys <<= 62 - W
    while have < 62:
        take = min(W, 62 - have)
        have += take
        keys |= (digits.pop() >> (W - take)) << (62 - have)
    return keys


class KeyedInts:
    """Exact ints w[0..m) on the grid scale, read through int64 keys on the
    grid unit: keys[i] = w[i] where unit is the scale, and otherwise
    keys[i] <= w[i] unit / scale < keys[i] + 2.  value(i) (also w[i]) is the
    exact w[i], read only where the keys cannot decide; the value of a set
    of points also reads an int64 array of indices at once, as an object
    array."""

    __slots__ = ("keys", "unit", "value")

    def __init__(self, keys: np.ndarray, unit: int, value):
        self.keys, self.unit, self.value = keys, unit, value

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self.keys):
            raise IndexError(i)
        return self.value(i)


def _extreme_ends(ends: np.ndarray, w: KeyedInts, lt, eq, total: int, scale: int):
    """(top, bottom, at_top, at_bottom): the exact largest and least end
    and the masks of the ends equal to each, from the key-level ends."""
    top, bottom = ends.max(), ends.min()
    if w.unit == scale:
        return int(top), int(bottom), ends == top, ends == bottom
    near = np.flatnonzero((ends > top - 2 * total) | (ends < bottom + 2 * total))
    exact = [(int(lt[c >> 1]) + (c & 1) * int(eq[c >> 1])) * scale - w.value(c >> 1) * total
             for c in near.tolist()]
    top, bottom = max(exact), min(exact)
    masks = np.zeros((2, len(ends)), dtype=bool)
    masks[:, near] = [[e == top for e in exact], [e == bottom for e in exact]]
    return top, bottom, masks[0], masks[1]


def interval_deviation_max(w, lt, eq, total: int, scale: int):
    """Maximal |count - T*measure| over the endpoint candidate family.

    Returns (deviation * scale, i, j, left_closed, right_closed).  w holds
    the exact endpoints: a list, an int64 or object array, or KeyedInts on
    the grid scale, or on the grid POINT_UNIT >> bit_length(total) when
    total * scale >= 2**62; every int64 term stays below 2**62.  Needs len(w) >= 2,
    total >= 1.
    """
    if not isinstance(w, KeyedInts):
        read = lambda i, values=w: int(values[i])
        if total * scale < _PRODUCT_LIMIT:
            w = KeyedInts(np.asarray(w, dtype=np.int64), scale, read)
        else:
            unit = POINT_UNIT >> total.bit_length()
            w = KeyedInts(fixed_point_keys(w, scale, unit), unit, read)
    lt, eq = np.asarray(lt, dtype=np.int64), np.asarray(eq, dtype=np.int64)
    # count * scale - total * width splits into a right-end term minus a
    # left-end term; each end counts the points up to w (closed right, open
    # left) or below w (open right, closed left)
    below = lt * w.unit
    below -= w.keys * total
    upto = eq * w.unit
    upto += below
    # any two of the ends below[0], upto[0], below[1], ..., below[m-1], the
    # earlier as the left end, bound an interval of the family and every
    # interval is such a pair, so the maximum is max - min; the first witness
    # pairs the first end x at either extreme with the first end y after x at
    # the other, or with upto of y's row if that holds the other too
    ends = np.stack((below, upto), axis=1).ravel()[:-1]
    top, bottom, at_top, at_bottom = _extreme_ends(ends, w, lt, eq, total, scale)
    x = int(np.argmax(at_top | at_bottom))
    other = at_bottom if at_top[x] else at_top
    y = x + 1 + int(np.argmax(other[x + 1 :]))
    y += bool(y % 2 == 0 and y + 1 < len(ends) and other[y + 1])
    return top - bottom, x // 2, y // 2, x % 2 == 0, y % 2 == 1


# ---------------------------------------------------------------------------
# cosine inequality margin on a float grid
# ---------------------------------------------------------------------------


def cos_margin_values(xs: np.ndarray) -> np.ndarray:
    """(1 - pi*||x||^2) - |cos(pi x)| evaluated in float64 per grid point."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.abs(xs - np.rint(xs))
    return 1.0 - np.pi * w * w - np.abs(np.cos(np.pi * xs))
