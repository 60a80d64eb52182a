"""Hot numeric kernels over numpy arrays; the only module that knows the
int64 limits.

Residues and products are int64 arrays while the bound documented next to
each kernel keeps every intermediate below 2**62, and numpy ``object``
arrays of Python ints otherwise, so callers never branch on the size of
their integers.  Integer results are exact on both kinds of array; float
sums differ only by rounding that ``expsum._sum_radius`` accounts for.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "USE_NUMBA",
    "MOD_LIMIT",
    "residue_blocks",
    "digit_scan_min",
    "digit_scan_min_sharded",
    "subset_residues",
    "scaled_residues",
    "cos_sin_sum",
    "first_close",
    "interval_deviation_max",
    "cos_margin_values",
]

#: Always False: every kernel has one numpy implementation.  The benchmark's
#: environment record still reads this name.
USE_NUMBA = False

#: Moduli below this get int64 residue tables (a sum of two residues stays
#: below 2**58); larger ones get Python ints.
MOD_LIMIT = 1 << 57

_PRODUCT_LIMIT = 1 << 62  # int64 products and sums must stay below this
_FIRST_BITS = 10  # the first block covers indices [0, 2**10)
_BLOCK_BITS = 18  # the low table stops doubling at 2**18 residues


def _int_array(values, bound: int) -> np.ndarray:
    """values as int64 when bound, the largest intermediate the caller will
    form, is below 2**62; as Python ints otherwise."""
    return np.asarray(values, dtype=np.int64 if bound < _PRODUCT_LIMIT else object)


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
    table = np.zeros(1, dtype=np.int64 if modulus < MOD_LIMIT else object)
    for a in add_mod:
        table = np.concatenate([table, (table + int(a)) % modulus])
    return table


def residue_blocks(add_mod, modulus: int, start: int, stop: int):
    """Yield (first, res) blocks covering the indices n in [start, stop) in
    ascending order, where res[i] is the subset residue of n = first + i.

    The first block is [0, 2**10); the low table then doubles, each new half
    being the next block, so a reducer that stops at its first hit builds at
    most twice the prefix it inspected.  Past 2**18 every block is the low
    table shifted by the residue of its high bits.  Requires
    len(add_mod) >= bit_length(stop - 1).
    """
    if start >= stop:
        return
    adds = [int(a) % modulus for a in add_mod]
    lo_bits = min((stop - 1).bit_length(), _BLOCK_BITS)
    table = subset_residues(adds[: min(lo_bits, _FIRST_BITS)], modulus)
    first, block = 0, table
    while True:
        s0, s1 = max(start - first, 0), min(stop - first, len(block))
        if s0 < s1:
            yield first + s0, block[s0:s1]
        if len(table) == 1 << lo_bits:
            break
        first, block = len(table), (table + adds[len(table).bit_length() - 1]) % modulus
        table = np.concatenate([table, block])
    width = len(table)
    for first in range(max(width, start - start % width), stop, width):
        base = sum(a for d, a in enumerate(adds) if first >> d & 1) % modulus
        s0, s1 = max(start - first, 0), min(stop - first, width)
        yield first + s0, (table[s0:s1] + base) % modulus


# ---------------------------------------------------------------------------
# reducers over the residue blocks and over caller-built residue arrays
# ---------------------------------------------------------------------------


def digit_scan_min(pow_mod, count: int, modulus: int, start: int = 1):
    """(min over n in [start, count] of min(res_n, M - res_n), first argmin n).

    res_n is the mod-M sum of pow_mod over the set bits of n.  Requires
    len(pow_mod) >= bit_length(count); any modulus works.
    """
    best, best_idx = modulus, 0
    for first, res in residue_blocks(pow_mod, modulus, start, count + 1):
        dist = np.minimum(res, modulus - res)
        k = int(np.argmin(dist))
        if dist[k] < best:
            best, best_idx = int(dist[k]), first + k
    return best, best_idx


def digit_scan_min_sharded(pow_mod, count: int, modulus: int, threads: int = 1):
    """digit_scan_min split over at most one thread per usable core.

    Shards are contiguous index ranges in ascending order, so the first of
    the minimal shard results carries the smallest argmin: the result does
    not depend on the thread count.
    """
    threads = min(threads, len(os.sched_getaffinity(0)))
    if threads <= 1 or count < (1 << 16):
        return digit_scan_min(pow_mod, count, modulus)
    bounds = [1 + (count * i) // threads for i in range(threads)] + [count + 1]
    spans = [(lo, hi - 1) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(lambda s: digit_scan_min(pow_mod, s[1], modulus, start=s[0]), spans)
        )
    return min(parts, key=lambda part: part[0])


def first_close(res: np.ndarray, modulus: int, beta_num: int, beta_den: int) -> int:
    """First index i with min(res[i], M - res[i]) / M <= beta_num / beta_den,
    or -1.  The comparison runs in int64 while
    modulus * max(beta_num, beta_den) < 2**62, on Python ints otherwise.
    """
    dist = _int_array(np.minimum(res, modulus - res), modulus * max(beta_num, beta_den))
    hits = np.flatnonzero(dist * beta_den <= beta_num * modulus)
    return int(hits[0]) if hits.size else -1


def scaled_residues(values, factor: int, modulus: int) -> np.ndarray:
    """(factor * v) mod modulus for each v in [0, modulus): int64 while
    factor * modulus < 2**62, Python ints otherwise."""
    return (_int_array(values, factor * modulus) * factor) % modulus


def cos_sin_sum(res: np.ndarray, modulus: int):
    """(sum of cos(2 pi r/M), sum of sin(2 pi r/M)) over the residue array.

    int64 residues are scaled by the float 2 pi / M; Python-int residues are
    divided by M with one rounding, then scaled by 2 pi.
    """
    if res.dtype == object:
        theta = (res / modulus).astype(np.float64) * (2.0 * np.pi)
    else:
        theta = res * (2.0 * np.pi / modulus)
    return float(np.cos(theta).sum()), float(np.sin(theta).sum())


# ---------------------------------------------------------------------------
# discrepancy candidate scan
#
# Endpoints w[0] < ... < w[m-1] (scaled by Q, w[m-1] == Q stands for 1).
# lt[i]/eq[i] count sequence points strictly below / equal to w[i].
# Openness combos are ordered cc=0, co=1, oc=2, oo=3; the maximum is
# reported with the lexicographically first (i, j, combo) witness.
# ---------------------------------------------------------------------------


def interval_deviation_max(w, lt, eq, total: int, scale: int):
    """Maximal |count - T*measure| over the endpoint candidate family.

    Returns (deviation * scale, i, j, combo).  Runs in int64 while
    total * scale < 2**62, on Python ints otherwise.
    """
    w, lt, eq = (_int_array(a, total * scale) for a in (w, lt, eq))
    # count * scale - total * width splits into a right-end term minus a
    # left-end term; each end counts the points up to w (closed right, open
    # left) or below w (open right, closed left)
    upto = (lt + eq) * scale - total * w
    below = lt * scale - total * w
    best, bi, bj, bc = -1, 0, 0, 0
    for i in range(len(w)):
        devs = np.abs(np.stack([upto[i:] - below[i], below[i:] - below[i],
                                upto[i:] - upto[i], below[i:] - upto[i]], axis=1))
        devs[0, 1:] = -1  # a degenerate interval is closed at both ends
        devs[-1, [0, 2]] = -1  # right endpoint 1 may not be included
        flat = devs.ravel()  # j-major, combo-minor: matches the tie order
        k = int(np.argmax(flat))
        if flat[k] > best:
            best, bi, bj, bc = int(flat[k]), i, i + k // 4, k % 4
    return best, bi, bj, bc


# ---------------------------------------------------------------------------
# cosine inequality margin on a float grid
# ---------------------------------------------------------------------------


def cos_margin_values(xs: np.ndarray) -> np.ndarray:
    """(1 - pi*||x||^2) - |cos(pi x)| evaluated in float64 per grid point."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    w = np.abs(xs - np.rint(xs))
    return 1.0 - np.pi * w * w - np.abs(np.cos(np.pi * xs))
