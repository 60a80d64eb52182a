"""Seeded query generators for the three benchmark workloads.

A workload is an ordered deck of CLI queries.  Query types follow a fixed
weighted cycle, and the parameters that set a query's cost (element count,
r, T, base, precision, G) come from a digitally shifted Sobol' sequence,
one per query type.  Any prefix of the deck therefore has nearly the same
cost distribution, so a run cut off by its time budget sees the same mix
whatever the seed; the seed changes the concrete numbers and the gammas.

Workloads, and why each exists:

* ``exact-scan``: rational gamma, all distinct, searches/certificates whose
  work sits in the residue kernels (``digit_scan_min``, ``subset_residues``,
  ``first_close``).  The other two workloads never call ``digit_scan_min``.
* ``spectral``: exponential sums and discrepancy checks, on both sides of
  the ``min(2^(r+1), (r+1)*q)`` cost model; ``cos_sin_sum`` and
  ``interval_deviation_max`` dominate.
* ``enclosure``: enclosure-valued gamma (sqrt2, pi, e at 64/128/256 bits);
  ``Real`` arithmetic and the mpmath parse dominate, the kernels idle.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

NAMED = ("sqrt2", "pi", "e")
PRECISIONS = (64, 128, 256)
DECAY_BASES = (3, 4, 5, 7, 10)
DECAY_RS = (1, 2, 3, 4, 6, 8, 10, 12, 16, 20)
DECAY_KS = (1, 2, 3, 5, 9, 16, 25, 36, 49, 64)


@dataclass(frozen=True)
class Query:
    """One CLI invocation plus the parameters its validator needs."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)


def zero_one_value(b: int, i: int) -> int:
    """The i-th smallest positive integer with only 0/1 digits in base b."""
    return int(format(i, "b"), b)


SOBOL_BITS = 30


def _sobol_directions(bits: int = SOBOL_BITS) -> list[list[int]]:
    """Direction numbers of the first three Sobol' coordinates (Joe and Kuo):
    van der Corput, then the primitive polynomials x + 1 and x^2 + x + 1."""
    m1 = [1] * bits
    m2 = [1]
    m3 = [1, 3]
    while len(m2) < bits:
        m2.append(2 * m2[-1] ^ m2[-1])
    while len(m3) < bits:
        m3.append(2 * m3[-1] ^ 4 * m3[-2] ^ m3[-2])
    return [[m << (bits - 1 - k) for k, m in enumerate(ms)] for ms in (m1, m2, m3)]


_DIRECTIONS = _sobol_directions()


class _Stream:
    """Sobol' points in [0, 1)^3 with a seeded digital shift.

    Every aligned block of 2^m points puts one point in each of the 2^m
    equal strata of each coordinate, and spreads over the strata of every
    pair of coordinates, so any prefix of the deck has nearly the same mix
    of sizes, and of sizes paired with bases, precisions or G, for every
    seed.  The shift (an XOR of every coordinate with a seeded random
    number) moves each point inside its strata and keeps that balance.
    """

    def __init__(self, rng: random.Random):
        self.shift = [rng.getrandbits(SOBOL_BITS) for _ in _DIRECTIONS]
        self.n = 0

    def next(self) -> list[float]:
        gray = self.n ^ (self.n >> 1)
        self.n += 1
        out = []
        for dirs, shift in zip(_DIRECTIONS, self.shift):
            x = shift
            for k, v in enumerate(dirs):
                if gray >> k & 1:
                    x ^= v
            out.append(x / (1 << SOBOL_BITS))
        return out


def _pick(u: float, options):
    return options[min(int(u * len(options)), len(options) - 1)]


def _log_uniform(u: float, lo: int, hi: int) -> int:
    v = round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return min(max(v, lo), hi)


def _uniform_int(u: float, lo: int, hi: int) -> int:
    return min(lo + int(u * (hi - lo + 1)), hi)


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts) + ("--format", "json")


class _Gen:
    """Shared state of one deck: the rng, one size stream per query type,
    a per-type occurrence counter, and the set of gammas already used."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.streams: dict[str, _Stream] = {}
        self.counts: dict[str, int] = {}
        self.used: set[Fraction] = set()

    def u(self, name: str) -> list[float]:
        """The next point of this query type's size stream."""
        if name not in self.streams:
            self.streams[name] = _Stream(self.rng)
        return self.streams[name].next()

    def nth(self, kind: str) -> int:
        j = self.counts.get(kind, 0)
        self.counts[kind] = j + 1
        return j

    def fresh_gamma(self, q_lo: int, q_hi: int) -> Fraction:
        """A rational never seen before, in lowest terms p/q with q roughly
        log-uniform in [q_lo, q_hi]."""
        while True:
            q = _log_uniform(self.rng.random(), q_lo, q_hi)
            q = min(q + self.rng.randrange(1 + (q >> 50)), q_hi)  # bits a float drops
            g = Fraction(self.rng.randint(1, q - 1), q)
            if g.denominator >= q_lo and g not in self.used:
                self.used.add(g)
                return g


def _frac_str(g: Fraction) -> str:
    return f"{g.numerator}/{g.denominator}"


# -- exact-scan ---------------------------------------------------------------
#
# In every generator the parameters that set a query's cost come from a
# Sobol' stream (u0 the size, u1/u2 the base, precision or G).  A
# slice chosen by occurrence index (threads, q range, named gamma) that
# changes the cost gets a stream of its own, so each slice stays evenly
# spread; the rng supplies the rest.


def _es_oracle(g: _Gen) -> Query:
    j = g.nth("oracle")
    threads = 2 if j % 4 == 1 else 1
    if j % 8 == 2:
        # big-modulus slice: q in (2^57, 2^64) takes the bigint enumeration
        u = g.u("oracle-big")
        count = _log_uniform(u[0], 1 << 8, 1 << 12)
        gamma = g.fresh_gamma((1 << 57) + 1, (1 << 64) - 1)
    else:
        u = g.u(f"oracle-threads{threads}")
        count = _log_uniform(u[0], 1 << 8, 1 << 23)
        gamma = g.fresh_gamma(2, 1 << 40)
    b = _pick(u[1], (2, 3, 5, 10))
    N = zero_one_value(b, count)
    argv = _argv("search", "--method", "oracle", "--base", b, "--limit", N,
                 "--gamma", _frac_str(gamma), "--threads", threads)
    return Query("oracle", argv, {"b": b, "N": N, "gamma": gamma, "count": count})


def _es_pigeonhole(g: _Gen) -> Query:
    u = g.u("pigeonhole")
    b = _pick(u[1], (2, 3, 5, 10))
    N = _log_uniform(u[0], 10, 10**18)
    gamma = g.fresh_gamma(2, 1 << 40)
    argv = _argv("search", "--method", "pigeonhole", "--base", b, "--limit", N,
                 "--gamma", _frac_str(gamma))
    return Query("pigeonhole", argv, {"b": b, "N": N, "gamma": gamma})


def _es_adversary(g: _Gen) -> Query:
    u = g.u("adversary")
    b = _uniform_int(u[1], 2, 10)
    N = _log_uniform(u[0], 1 << 4, 1 << 24)
    return Query("adversary", _argv("adversary", "--base", b, "--count", N), {"b": b, "N": N})


def _es_no_multiples(g: _Gen) -> Query:
    u = g.u("no-multiples")
    b = _pick(u[1], (2, 3, 5))
    e_max = _uniform_int(u[0], 3, 8)
    k = g.rng.randint(1, 6)
    t = _uniform_int(u[2], 1, 4)
    argv = _argv("adversary", "--method", "no-multiples", "--base", b, "--k", k,
                 "--t", t, "--e-max", e_max)
    return Query("no_multiples", argv, {"b": b, "k": k, "t": t, "e_max": e_max})


def _es_shifts(g: _Gen) -> Query:
    u = g.u("shifts")
    b = _pick(u[1], (2, 3, 5, 10))
    r = _uniform_int(u[0], 4, 20)
    k = g.rng.randint(1, 64)
    beta = Fraction(1, 2 * b ** _uniform_int(u[2], 1, 3))
    gamma = g.fresh_gamma(2, 1 << 40)
    argv = _argv("expsum", "--method", "shifts", "--base", b, "--r", r, "--k", k,
                 "--beta", _frac_str(beta), "--gamma", _frac_str(gamma))
    return Query("shifts", argv, {"b": b, "r": r, "k": k, "beta": beta, "gamma": gamma})


def _es_diffset(g: _Gen) -> Query:
    u = g.u("diffset")
    b = _uniform_int(u[1], 3, 5)
    N = _uniform_int(u[0], 1, 150)
    method = _pick(u[2], ("anchored", "within"))
    argv = _argv("diffset", "--base", b, "--limit", N, "--method", method)
    return Query("diffset", argv, {"b": b, "N": N, "method": method})


def _es_constants(g: _Gen) -> Query:
    b = _uniform_int(g.u("constants")[0], 2, 10)
    return Query("constants", _argv("constants", "--base", b), {"b": b})


# -- spectral -----------------------------------------------------------------


def _sp_expsum(g: _Gen) -> Query:
    j = g.nth("expsum")
    # small q: a residue-count sum, O((r+1) q), would beat the direct one
    u = g.u(f"expsum-{j % 2}")
    q = _log_uniform(u[2], 2, 1 << 12) if j % 2 == 0 else _log_uniform(u[2], 1 << 20, 1 << 40)
    b = _uniform_int(u[1], 2, 10)
    r = _log_uniform(u[0], 4, 22)
    k = g.rng.randint(1, 100)
    gamma = Fraction(g.rng.randint(1, q - 1), q)
    argv = _argv("expsum", "--method", "sum", "--base", b, "--r", r, "--k", k,
                 "--gamma", _frac_str(gamma))
    return Query("expsum", argv, {"b": b, "r": r, "k": k, "gamma": gamma})


def _sp_decay(g: _Gen) -> Query:
    # criterion 5's family; small r usually passes the separation
    # hypothesis, large r fails it with a counterexample (exit 1)
    u = g.u("decay")
    b = _pick(u[1], DECAY_BASES)
    r = _pick(u[0], DECAY_RS)
    m = _uniform_int(u[2], 1, 3)
    D = b ** (r + 2) + g.rng.choice((-1, 1))
    gamma = Fraction(g.rng.randint(1, D - 1), D)
    k = g.rng.choice(DECAY_KS)
    argv = _argv("expsum", "--method", "decay", "--base", b, "--r", r, "--k", k,
                 "--m", m, "--gamma", _frac_str(gamma))
    return Query("decay", argv, {"b": b, "r": r, "k": k, "m": m, "gamma": gamma})


def _sp_discrepancy(g: _Gen) -> Query:
    j = g.nth("discrepancy")
    gamma: object
    if j % 12 == 4:
        # rational with q*T >= 2^62: the pure-python deviation scan runs
        u = g.u("discrepancy-big")
        T = _log_uniform(u[0], 50, 300)
        gamma = Fraction(1, 2)
        while gamma.denominator * T < 1 << 62:
            q = g.rng.randint(-(-(1 << 62) // T), 1 << 64)
            gamma = Fraction(g.rng.randint(1, 5 * q), q)
    elif j % 3 == 2:
        u = g.u("discrepancy-named")
        T = _log_uniform(u[0], 50, 4000)
        gamma = NAMED[j // 3 % 3]
    else:
        u = g.u("discrepancy")
        T = _log_uniform(u[0], 50, 4000)
        q = g.rng.randint(2, 10**6)
        gamma = Fraction(g.rng.randint(1, 5 * q), q)
    G = _pick(u[1], (1, 5, 50))
    text = gamma if isinstance(gamma, str) else _frac_str(gamma)
    argv = _argv("discrepancy", "--gamma", text, "--limit", T, "--G", G)
    return Query("discrepancy", argv, {"gamma": gamma, "T": T, "G": G})


# -- enclosure ----------------------------------------------------------------


def _en_oracle(g: _Gen) -> Query:
    j = g.nth("oracle")
    u = g.u("oracle")
    b = _pick(u[2], (2, 3))
    count = _log_uniform(u[0], 1 << 6, 1 << 14)
    name, prec = NAMED[j % 3], _pick(u[1], PRECISIONS)
    N = zero_one_value(b, count)
    argv = _argv("search", "--method", "oracle", "--base", b, "--limit", N,
                 "--gamma", name, "--precision-bits", prec)
    return Query("oracle", argv, {"b": b, "N": N, "gamma": name, "count": count})


def _en_pigeonhole(g: _Gen) -> Query:
    j = g.nth("pigeonhole")
    u = g.u("pigeonhole")
    b = _pick(u[2], (2, 3, 5, 10))
    N = _log_uniform(u[0], 10, 10**18)
    name, prec = NAMED[j % 3], _pick(u[1], PRECISIONS)
    argv = _argv("search", "--method", "pigeonhole", "--base", b, "--limit", N,
                 "--gamma", name, "--precision-bits", prec)
    return Query("pigeonhole", argv, {"b": b, "N": N, "gamma": name})


def _en_discrepancy(g: _Gen) -> Query:
    j = g.nth("discrepancy")
    u = g.u("discrepancy")
    T = _log_uniform(u[0], 100, 2000)
    name, prec = NAMED[j % 3], _pick(u[1], PRECISIONS)
    argv = _argv("discrepancy", "--gamma", name, "--limit", T, "--precision-bits", prec)
    return Query("discrepancy", argv, {"gamma": name, "T": T, "G": None})


def _en_expsum(g: _Gen) -> Query:
    j = g.nth("expsum")
    u = g.u("expsum")
    b = _uniform_int(u[2], 2, 5)
    r = _uniform_int(u[0], 2, 14)
    k = g.rng.randint(1, 100)
    name, prec = NAMED[j % 3], _pick(u[1], PRECISIONS)
    argv = _argv("expsum", "--method", "sum", "--base", b, "--r", r, "--k", k,
                 "--gamma", name, "--precision-bits", prec)
    return Query("expsum", argv, {"b": b, "r": r, "k": k, "gamma": name})


#: Weighted type cycles; one deck is these cycles repeated.
CYCLES: dict[str, tuple[Callable[[_Gen], Query], ...]] = {
    "exact-scan": (
        _es_oracle, _es_adversary, _es_shifts, _es_oracle, _es_pigeonhole, _es_diffset,
        _es_oracle, _es_adversary, _es_shifts, _es_oracle, _es_no_multiples, _es_constants,
    ),
    "spectral": (_sp_expsum, _sp_discrepancy, _sp_decay, _sp_expsum, _sp_discrepancy),
    "enclosure": (_en_oracle, _en_pigeonhole, _en_discrepancy, _en_expsum),
}

#: Cheap fixed first query per workload: warms lazy state, and is the
#: query whose completion defines "ready" for setup_s.
WARMUP: dict[str, tuple[str, ...]] = {
    "exact-scan": _argv("search", "--method", "oracle", "--base", 2, "--limit", 1024,
                        "--gamma", "355/113"),
    "spectral": _argv("expsum", "--method", "sum", "--base", 2, "--r", 8, "--k", 3,
                      "--gamma", "5/313"),
    "enclosure": _argv("search", "--method", "oracle", "--base", 2, "--limit", 64,
                       "--gamma", "sqrt2"),
}


def make_deck(workload: str, seed: int, n: int) -> list[Query]:
    """The first n queries of the workload's deck for this seed."""
    cycle = CYCLES[workload]
    gen = _Gen(seed, workload)
    return [cycle[i % len(cycle)](gen) for i in range(n)]
