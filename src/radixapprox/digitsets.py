"""Construction, membership, ranking and enumeration of the structured sets.

The central object is the set D_b of positive integers whose base-b digits
are all 0 or 1 ("zero-one integers").  Writing the index i in binary and
reinterpreting the bits as base-b digits is an order-preserving bijection
from the positive integers onto that set, which gives O(log) rank/unrank
with no searching.  The other sets defined here:

* ``repunits(b, N)``    - 1, 1+b, 1+b+b^2, ... while still <= N;
* ``power_gaps(b, r)``  - the differences b**d - b**c with r >= d > c >= 0,
  which extend the truncated zero-one set in the exponential-sum step;
* ``power_sums(b, t, e_max)`` - the sums of exactly t powers b**u with
  u <= e_max, none of which is a multiple of b**k - 1 once k > t/(b-1);
* ``digit_sum_bounded(b, k, t)`` - k-digit base-b values with digit sum
  in (0, t], with their maximum.

``iter_spec_upto(SetSpec(b), N)`` enumerates D_b up to N, and ``SetSpec``
tags reports with the set they scanned.  Every enumeration is ascending,
duplicate-free and refused up front when it would exceed a cardinality
cap (default 2**25).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, InvariantViolation, ResourceLimit

#: Default cap on the number of elements any single enumeration may yield.
CAP_DEFAULT = 1 << 25


def check_base(b: int) -> int:
    if not isinstance(b, int) or b < 2:
        raise DomainError(f"base must be an integer >= 2, got {b!r}")
    return b


def ilog(b: int, n: int) -> int:
    """Largest e with b**e <= n (n >= 1), by exact integer arithmetic."""
    check_base(b)
    if n < 1:
        raise DomainError(f"ilog requires n >= 1, got {n}")
    e, p = 0, 1
    while p * b <= n:
        p *= b
        e += 1
    return e


def contains(b: int, n: int) -> bool:
    """True iff every base-b digit of n is 0 or 1 (n >= 1)."""
    check_base(b)
    if n < 1:
        raise DomainError(f"membership is defined for positive n, got {n}")
    while n:
        if n % b > 1:
            return False
        n //= b
    return True


def unrank(b: int, i: int) -> int:
    """The i-th smallest zero-one integer in base b (i >= 1).

    Writes i in binary and reads the bits as base-b digits; monotone
    because all digits involved are 0/1.
    """
    check_base(b)
    if i < 1:
        raise DomainError(f"rank index must be >= 1, got {i}")
    if b == 2:
        return i
    n, p = 0, 1
    while i:
        if i & 1:
            n += p
        p *= b
        i >>= 1
    return n


def rank(b: int, n: int) -> int:
    """Position of n in the ascending zero-one integers; inverse of unrank."""
    check_base(b)
    if n < 1 or not contains(b, n):
        raise DomainError(f"{n} has a base-{b} digit other than 0/1")
    i, bit = 0, 1
    while n:
        if n % b:
            i |= bit
        n //= b
        bit <<= 1
    return i


def count_upto(b: int, N: int) -> int:
    """Number of zero-one integers in [1, N]: the rank of the largest one
    <= N, read off the base-b digits of N from the top (below the first
    digit >= 2, every digit of that largest element is 1)."""
    check_base(b)
    digits = []
    while N > 0:
        N, d = divmod(N, b)
        digits.append(d)
    i = 0
    for pos in range(len(digits) - 1, -1, -1):
        if digits[pos] > 1:
            return ((i + 1) << (pos + 1)) - 1
        i = i << 1 | digits[pos]
    return i


def capped_count(b: int, N: int, cap: int) -> int:
    """count_upto(b, N), or ResourceLimit when it exceeds cap."""
    count = count_upto(b, N)
    if count > cap:
        raise ResourceLimit(f"enumeration of {count} elements exceeds the cap {cap}")
    return count


def repunit_cap(b: int, N: int) -> int:
    """Largest t with 1 + b + ... + b**t <= N.

    Computed from the integer logarithm of N*(b-1)+1 and cross-checked
    against the geometric sum itself; any mismatch fails loudly.
    """
    check_base(b)
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    t = ilog(b, N * (b - 1) + 1) - 1
    s = (b ** (t + 1) - 1) // (b - 1)
    s_next = s * b + 1
    if not (t >= 0 and s <= N < s_next):
        raise InvariantViolation(
            f"repunit cap formula disagrees with the geometric sum at b={b}, N={N}"
        )
    return t


def repunits(b: int, N: int) -> list[int]:
    """All of 1, 1+b, ..., up to the largest repunit <= N (ascending)."""
    t = repunit_cap(b, N)
    out, s = [], 1
    for d in range(t + 1):
        out.append(s)
        s = s * b + 1
    return out


def power_gaps(b: int, r: int) -> list[int]:
    """All b**d - b**c with r >= d > c >= 0, ascending.

    Each value is b**c * (b**(d-c) - 1), whose b-adic valuation is c, so
    the list has no duplicates.
    """
    check_base(b)
    return sorted(b**d - b**c for d in range(1, r + 1) for c in range(d))


# ---------------------------------------------------------------------------
# the enumerated sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetSpec:
    """The zero-one set D_b, as named in reports."""

    base: int

    def __post_init__(self):
        check_base(self.base)

    def to_dict(self) -> dict:
        return {"kind": "zero_one", "base": self.base}


def iter_spec_upto(spec: SetSpec, N: int, cap: int = CAP_DEFAULT) -> Iterator[int]:
    """The zero-one integers in [1, N], ascending; a count over the cap is
    refused before any element is produced."""
    count = capped_count(spec.base, N, cap)
    return (unrank(spec.base, i) for i in range(1, count + 1))


def power_sums(b: int, t: int, e_max: int, cap: int = CAP_DEFAULT) -> list[int]:
    """The sums of exactly t powers b**u with 0 <= u <= e_max, ascending and
    duplicate-free; refused before enumerating when the multisets of t
    exponents outnumber cap."""
    check_base(b)
    if t < 1:
        raise DomainError("power sums need t >= 1")
    if e_max < 0:
        raise DomainError(
            "power sums are infinite; an explicit exponent cap e_max >= 0 is required"
        )
    n_multisets = math.comb(e_max + t, t)
    if n_multisets > cap:
        raise ResourceLimit(
            f"power-sum enumeration would visit {n_multisets} multisets (cap {cap})"
        )
    powers = [b**u for u in range(e_max + 1)]
    return sorted({sum(c) for c in itertools.combinations_with_replacement(powers, t)})


# ---------------------------------------------------------------------------
# digit-sum-bounded values and their maximum
# ---------------------------------------------------------------------------


def digit_sum_max_formula(b: int, k: int, t: int) -> int:
    """Closed form for max digit_sum_bounded(b, k, t): fill digits greedily
    from the top position with b-1 until the digit-sum budget t runs out."""
    check_base(b)
    if k < 1 or t < 1:
        raise DomainError("need k >= 1 and t >= 1")
    if t < b - 1:
        return t * b ** (k - 1)
    q = t // (b - 1)
    if q >= k:
        return b**k - 1
    head = sum((b - 1) * b ** (k - 1 - d) for d in range(q))
    return head + (t - (b - 1) * q) * b ** (k - 1 - q)


def digit_sum_bounded(b: int, k: int, t: int, cap: int = CAP_DEFAULT) -> tuple[set[int], int]:
    """All values sum(a_j * b**j, j < k) with digits a_j <= b-1 and digit
    sum in (0, t], plus their maximum.

    The maximum is computed both from the enumerated set and from the
    closed form; disagreement is an invariant failure.
    """
    check_base(b)
    if k < 1 or t < 1:
        raise DomainError("need k >= 1 and t >= 1")
    if math.comb(k + t, t) > cap:
        raise ResourceLimit(f"digit-sum-bounded enumeration infeasible for k={k}, t={t}")
    values: set[int] = set()

    def fill(pos: int, budget: int, acc: int):
        if pos == k:
            if budget < t:
                values.add(acc)
            return
        p = b**pos
        for digit in range(min(b - 1, budget) + 1):
            fill(pos + 1, budget - digit, acc + digit * p)

    fill(0, t, 0)
    h = max(values)
    h_formula = digit_sum_max_formula(b, k, t)
    if h != h_formula:
        raise InvariantViolation(
            f"digit-sum maximum mismatch at b={b}, k={k}, t={t}: "
            f"enumerated {h}, formula {h_formula}"
        )
    return values, h
