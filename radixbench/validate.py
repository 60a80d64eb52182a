"""Independent answer checks and the exact-field digest.

Nothing here imports radixapprox: every check recomputes the answer with
this file's own integer, Fraction and mpmath code.  A validator returns
``None`` when the answer holds and a one-line reason when it does not.

Enclosure-valued gamma (sqrt2, pi, e) is recomputed at HP_BITS bits as
M / 2^E with |gamma - M/2^E| <= 2^-HP_ERR_BITS, so a distance ||gamma w||
is known to within w * 2^-HP_ERR_BITS.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
import numpy as np

from .workloads import Query, zero_one_value

HP_BITS = 640
HP_ERR_BITS = 600
BRUTE_ELEMS = 1 << 12  # oracle and adversary answers up to here are brute-forced
BRUTE_T = 300  # discrepancy answers up to here are brute-forced
EVAL_BITS = 200  # precision of the exponential-sum recomputation
TOL = Fraction(1, 10**9)  # the slack the library's own checks allow

EXIT_OK, EXIT_DOMAIN, EXIT_INDETERMINATE = 0, 1, 4
_COUNTEREXAMPLE = re.compile(r"separation hypothesis fails at x=(\d+)")


@dataclass
class Outcome:
    """What one CLI call produced."""

    code: int
    report: Optional[dict]
    stderr: str
    error: Optional[str] = None  # an unexpected exception, if one escaped


# -- numbers ------------------------------------------------------------------

_hp_cache: dict[str, tuple[int, int]] = {}


def _mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp  # man is unsigned
    value = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -value if x < 0 else value


def gamma_ratio(gamma) -> tuple[int, int]:
    """gamma as an integer pair (P, Q): exact for rationals, a 2^-600
    approximation for the named constants."""
    if isinstance(gamma, Fraction):
        return gamma.numerator, gamma.denominator
    if gamma not in _hp_cache:
        with mpmath.workprec(HP_BITS):
            v = {"sqrt2": mpmath.sqrt(2), "pi": +mpmath.pi, "e": +mpmath.e}[gamma]
            f = _mpf_fraction(v)
        _hp_cache[gamma] = (f.numerator, f.denominator)
    return _hp_cache[gamma]


def _hp_err(gamma, w: int) -> Fraction:
    return Fraction(0) if isinstance(gamma, Fraction) else Fraction(w, 1 << HP_ERR_BITS)


def _dist(P: int, Q: int, w: int) -> Fraction:
    r = (P * w) % Q
    return Fraction(min(r, Q - r), Q)


def _bounds(value) -> tuple[Fraction, Fraction]:
    """(lo, hi) of a serialized Real, or of a p/q string."""
    if isinstance(value, str):
        f = Fraction(value)
        return f, f
    if "exact" in value:
        f = Fraction(value["exact"])
        return f, f
    mid, rad = Fraction(value["mid"]), Fraction(value["rad"])
    return mid - rad, mid + rad


def _inside(x: Fraction, value, slack: Fraction) -> bool:
    lo, hi = _bounds(value)
    return lo - slack <= x <= hi + slack


def is_zero_one(b: int, n: int) -> bool:
    while n:
        if n % b > 1:
            return False
        n //= b
    return True


def _repunit_exponent(b: int, N: int) -> int:
    t, s = 0, 1
    while s * b + 1 <= N:
        s, t = s * b + 1, t + 1
    return t


# -- searches -----------------------------------------------------------------


def _check_witness_distance(q: Query, w: int, reported) -> Optional[str]:
    b, N, gamma = q.params["b"], q.params["N"], q.params["gamma"]
    if not (1 <= w <= N and is_zero_one(b, w)):
        return f"witness {w} is not a base-{b} zero-one integer in [1, {N}]"
    P, Q = gamma_ratio(gamma)
    d = _dist(P, Q, w)
    if isinstance(gamma, Fraction):
        if _bounds(reported) != (d, d):
            return f"distance {reported} != exact ||gamma*{w}|| = {d}"
    elif not _inside(d, reported, _hp_err(gamma, w)):
        return f"high-precision ||gamma*{w}|| lies outside the enclosure {reported}"
    return None


def check_oracle(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    w = rep["witness"]
    err = _check_witness_distance(q, w, rep["distance"])
    if err or q.params["count"] > BRUTE_ELEMS:
        return err
    b, N = q.params["b"], q.params["N"]
    P, Q = gamma_ratio(q.params["gamma"])
    best_num, best_w = None, None
    i = 1
    while (s := zero_one_value(b, i)) <= N:
        r = (P * s) % Q
        num = min(r, Q - r)
        if best_num is None or num < best_num:
            best_num, best_w = num, s
        i += 1
    if best_w != w:
        return f"brute force finds witness {best_w}, the answer says {w}"
    return None


def check_pigeonhole(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    w = rep["witness"]
    err = _check_witness_distance(q, w, rep["distance"])
    if err:
        return err
    b, N, gamma = q.params["b"], q.params["N"], q.params["gamma"]
    bound = Fraction(1, _repunit_exponent(b, N) + 1)
    if Fraction(rep["guarantee"]) != bound:
        return f"guarantee {rep['guarantee']} != {bound}"
    P, Q = gamma_ratio(gamma)
    if _dist(P, Q, w) - _hp_err(gamma, w) > bound:
        return f"||gamma*{w}|| exceeds the guarantee {bound}"
    return None


# -- adversary ----------------------------------------------------------------


def check_adversary(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    b, N = q.params["b"], q.params["N"]
    T = 0
    while (1 << T) < N + 1:
        T += 1
    k = -(-T // (b - 1)) + 1
    M = b**k - 1
    if (rep["T"], rep["k"]) != (T, k) or Fraction(rep["gamma_N"]) != Fraction(1, M):
        return f"gamma_N {rep['gamma_N']} != 1/(b^k - 1) with k={k}"
    idx = rep["min_witness_index"]
    if not 1 <= idx <= N:
        return f"witness index {idx} outside [1, {N}]"
    md = Fraction(rep["min_distance"])
    if _dist(1, M, zero_one_value(b, idx)) != md:
        return f"min_distance {md} is not ||gamma_N * b_{idx}||"
    if md < Fraction(1, M) or rep["passed"] is not True:
        return "certificate does not pass"
    with mpmath.workprec(128):
        decay = mpmath.mpf(b) ** -4 * mpmath.mpf(N) ** (-mpmath.log(b, 2) / (b - 1))
    decay_f = _mpf_fraction(decay)
    if not (_inside(decay_f, rep["power_decay_bound"], decay_f / 10**20) and decay_f <= md):
        return f"power-decay bound {float(decay_f):.6g} misreported or above {md}"
    if N <= BRUTE_ELEMS:
        best, best_i = None, None
        for i in range(1, N + 1):
            r = zero_one_value(b, i) % M
            v = min(r, M - r)
            if best is None or v < best:
                best, best_i = v, i
        if best_i != idx:
            return f"brute force finds index {best_i}, the certificate says {idx}"
    return None


def check_no_multiples(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    b, k, t, e_max = (q.params[x] for x in ("b", "k", "t", "e_max"))
    M = b**k - 1
    sums = {sum(c) for c in itertools.combinations_with_replacement(
        [b**u for u in range(e_max + 1)], t)}
    multiples = sorted(s for s in sums if s % M == 0)
    expect = (not multiples, multiples[0] if multiples else None, k * (b - 1) > t)
    got = (rep["ok"], rep["counterexample"], rep["applicable"])
    if got != expect:
        return f"no-multiples (ok, counterexample, applicable) = {got}, brute force {expect}"
    return None


# -- exponential sums ---------------------------------------------------------


def least_violation(b: int, r: int, gamma: Fraction, beta: Fraction) -> Optional[int]:
    """Least x > 0 in the extended truncated set with ||gamma x|| <= beta."""
    P, Q = gamma.numerator, gamma.denominator
    bn, bd = beta.numerator, beta.denominator
    adds = [(P * pow(b, d, Q)) % Q for d in range(r + 1)]
    dtype = np.int64 if 2 * Q * max(bn, bd) < (1 << 62) else object
    lo = min(r + 1, 16)
    table = np.zeros(1, dtype=dtype)
    for a in adds[:lo]:
        table = np.concatenate([table, (table + a) % Q])
    found = None
    for hi in range(1 << (r + 1 - lo)):
        base = sum(adds[lo + d] for d in range(r + 1 - lo) if hi >> d & 1) % Q
        block = (table + base) % Q
        close = np.minimum(block, Q - block) * bd <= bn * Q
        if hi == 0:
            close[0] = False
        hits = np.flatnonzero(close)
        if hits.size:
            found = zero_one_value(b, (hi << lo) | int(hits[0]))
            break
    for d in range(1, r + 1):
        for c in range(d):
            x = b**d - b**c
            if (found is None or x < found) and _dist(P, Q, x) <= beta:
                found = x
    return found


def _theta(gamma, k: int, b: int, d: int) -> Fraction:
    P, Q = gamma_ratio(gamma)
    return Fraction((k * b**d * P) % Q, Q)


def _cosine_product(q: Query) -> tuple[mpmath.mpc, Fraction]:
    """prod_d (1 + e(k b^d gamma)) at EVAL_BITS, and an error allowance."""
    b, r, k, gamma = (q.params[x] for x in ("b", "r", "k", "gamma"))
    with mpmath.workprec(EVAL_BITS):
        s = mpmath.mpc(1)
        for d in range(r + 1):
            th = _theta(gamma, k, b, d)
            s *= 1 + mpmath.expjpi(2 * mpmath.mpf(th.numerator) / th.denominator)
    return s, Fraction(1 << (r + 1), 1 << 150)


def _check_sum_value(s: mpmath.mpc, tol: Fraction, rep: dict, bound: Fraction) -> Optional[str]:
    re_, im_ = _mpf_fraction(s.real), _mpf_fraction(s.imag)
    with mpmath.workprec(EVAL_BITS):
        mag = _mpf_fraction(abs(s))
    if not _inside(mag, rep["magnitude"], tol):
        return f"|sum| = {float(mag):.12g} lies outside the magnitude enclosure"
    if not (_inside(re_, rep["value_re"], tol) and _inside(im_, rep["value_im"], tol)):
        return "the sum lies outside its real/imaginary enclosures"
    if mag > bound + TOL:
        return f"|sum| = {float(mag):.12g} exceeds its bound {float(bound):.12g}"
    return None


def check_expsum(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    if rep["term_count"] != 1 << (q.params["r"] + 1) or rep["zero_excluded"]:
        return f"term_count {rep['term_count']} != 2^(r+1)"
    s, tol = _cosine_product(q)
    return _check_sum_value(s, tol, rep, _bounds(rep["product_bound"])[1])


def check_shifts(q: Query, out: Outcome) -> Optional[str]:
    b, r, k, beta, gamma = (q.params[x] for x in ("b", "r", "k", "beta", "gamma"))
    sep, shifts = out.report["separation"], out.report["shifts"]
    least = least_violation(b, r, gamma, beta)
    if (sep["ok"], sep["counterexample"]) != (least is None, least):
        return f"separation counterexample {sep['counterexample']}, expected {least}"
    close = [d for d in range(r + 1) if _dist(gamma.numerator, gamma.denominator, k * b**d) <= beta]
    if shifts["positions"] != close or shifts["g"] != len(close):
        return f"close shifts {shifts['positions']}, expected {close}"
    return None


def check_decay(q: Query, out: Outcome) -> Optional[str]:
    b, r, k, m, gamma = (q.params[x] for x in ("b", "r", "k", "m", "gamma"))
    beta = Fraction(1, 2 * b**m)
    least = least_violation(b, r, gamma, beta)
    if out.code == EXIT_DOMAIN:
        found = _COUNTEREXAMPLE.search(out.stderr)
        if least is None or not found or int(found.group(1)) != least:
            return f"hypothesis failure {out.stderr.strip()!r}, least counterexample {least}"
        return None
    if least is not None:
        return f"decay bound reported although x={least} breaks separation"
    rep = out.report
    far = [d for d in range(r + 1) if _dist(gamma.numerator, gamma.denominator, k * b**d) > beta]
    if rep["far_positions"] != far:
        return f"far positions {rep['far_positions']}, expected {far}"
    s, tol = _cosine_product(q)
    with mpmath.workprec(EVAL_BITS):
        s -= 1
        bound = _mpf_fraction(mpmath.mpf(2) ** (r + 3) * (1 - mpmath.pi / (4 * b * b)) ** (
            (r + 1 - 3 * mpmath.sqrt(k)) / m))
    if not _inside(bound, rep["decay_bound"], bound / 10**9):
        return f"decay bound {float(bound):.12g} misreported"
    return _check_sum_value(s, tol, rep, bound)


# -- discrepancy --------------------------------------------------------------


def _orbit(gamma, T: int) -> tuple[list[int], int]:
    P, Q = gamma_ratio(gamma)
    return [(n * P) % Q for n in range(1, T + 1)], Q


def brute_discrepancy(nums: list[int], Q: int) -> Fraction:
    """sup |count - T*length| over intervals with endpoints in the point
    set, 0 and 1 (open at 1), every open/closed combination."""
    T = len(nums)
    ends = sorted(set(nums) | {0, Q})
    dtype = np.int64 if 4 * T * Q < (1 << 62) else object
    pts = np.array(sorted(nums), dtype=dtype)
    v = np.array(ends, dtype=dtype)
    lt = np.searchsorted(pts, v, side="left").astype(dtype)
    le = np.searchsorted(pts, v, side="right").astype(dtype)
    best = 0
    for i in range(len(ends)):
        width = T * (v[i:] - v[i])
        for lc in (True, False):
            low = lt[i] if lc else le[i]
            for rc in (True, False):
                cnt = (le[i:] if rc else lt[i:]) - low
                dev = np.abs(cnt * Q - width)
                if not (lc and rc):
                    dev[0] = 0  # a degenerate interval must be closed
                if rc:
                    dev[-1] = 0  # the right endpoint 1 is never included
                best = max(best, int(dev.max()))
    return Fraction(best, Q)


def check_discrepancy(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    gamma, T, G = q.params["gamma"], q.params["T"], q.params["G"]
    L, rad = Fraction(rep["L_value"]), Fraction(rep["L_radius"])
    if rep["T"] != T or rep.get("G") != G:
        return "T or G misreported"
    nums, Q = _orbit(gamma, T)
    exact = isinstance(gamma, Fraction)
    left, right, lc, rc = rep["witness"]
    lo, hi = Fraction(left) * Q, Fraction(right) * Q
    if ((exact and rad != 0) or lo.denominator != 1 or hi.denominator != 1
            or not 0 <= lo <= hi <= Q or (hi == Q and rc) or (lo == hi and not (lc and rc))):
        return f"attaining interval {rep['witness']} is not a valid subinterval"
    lo, hi = int(lo), int(hi)
    cnt = sum(1 for n in nums if (lo <= n if lc else lo < n) and (n <= hi if rc else n < hi))
    got = Fraction(abs(cnt * Q - T * (hi - lo)), Q)
    # exact: the interval attains L; enclosure: any interval's deviation is
    # a lower bound of the true supremum, which L +/- rad must contain
    if (got != L) if exact else (got > L + rad):
        return f"the attaining interval gives {got}, the answer says L={L} +/- {rad}"
    if T <= BRUTE_T:
        brute = brute_discrepancy(nums, Q)
        slack = rad + 2 * T * _hp_err(gamma, T)
        if abs(brute - L) > slack:
            return f"brute-force L = {brute}, the answer says {L} +/- {rad}"
    if G is not None:
        rhs_lo, rhs_hi = _bounds(rep["et_rhs"])
        x = np.array([n / Q for n in nums])
        total = sum(abs(np.exp(2j * np.pi * g * x).sum()) / g for g in range(1, G + 1))
        mine = T / (G + 1) + (2 + 2 / math.pi) * total
        if not rhs_lo - 1e-6 * T <= mine <= rhs_hi + 1e-6 * T:
            return f"Erdos-Turan right side {mine:.9g} outside the reported enclosure"
        if L - rad > rhs_hi:
            return "L exceeds the Erdos-Turan right side"
    return None


# -- diffsets and constants ---------------------------------------------------


def _least_max_clique(cands: list[int], member: set[int]) -> tuple[int, ...]:
    best: list[int] = []

    def grow(chosen: list[int], rest: list[int]):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for i, v in enumerate(rest):
            if len(chosen) + len(rest) - i <= len(best):
                return
            grow(chosen + [v], [u for u in rest[i + 1:] if u - v in member])

    grow([], cands)
    return tuple(best)


def check_diffset(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    b, N, method = q.params["b"], q.params["N"], q.params["method"]
    S, i = [], 1
    while (s := zero_one_value(b, i)) <= N:
        S.append(s)
        i += 1
    clique = _least_max_clique(S, set(S))
    expect = (0,) + clique if method == "anchored" else clique
    cap, p = 2, b
    while p <= N:
        cap, p = cap + 1, p * b
    if tuple(rep["witness"]) != expect or rep["value"] != len(expect):
        return f"difference set {rep['witness']}, expected {list(expect)}"
    if rep["bound"] != cap or rep["value"] > cap:
        return f"bound {rep['bound']} != floor(log_b N) + 2 = {cap} or value above it"
    return None


def check_constants(q: Query, out: Outcome) -> Optional[str]:
    rep = out.report
    b = q.params["b"]
    with mpmath.workprec(EVAL_BITS):
        pi = +mpmath.pi
        U = 4 * b * b / (4 * b * b - pi)
        C = 2 + 2 / pi
        log_term = mpmath.log(256 * C * b) / mpmath.log(U)
        H = [(3 * mpmath.sqrt(8 * mpmath.mpf(b) ** m) + 2 * m * m * log_term - 1)
             / mpmath.sqrt(mpmath.mpf(b) ** m) for m in range(1, 3 * rep["scan_depth"] + 20)]
        Hmax = max(H)
    if not (_inside(_mpf_fraction(U), rep["contraction_base"], Fraction(0))
            and _inside(_mpf_fraction(C), rep["et_constant"], Fraction(0))):
        return "contraction base or Erdos-Turan constant outside its enclosure"
    if not _inside(_mpf_fraction(Hmax), rep["depth_coeff"], Fraction(0)):
        return f"depth coefficient {float(Hmax):.12g} outside its enclosure"
    if _bounds(rep["window_coeff"]) != tuple(2 * x for x in _bounds(rep["depth_coeff"])):
        return "window coefficient is not twice the depth coefficient"
    return None


CHECKS = {
    "oracle": check_oracle,
    "pigeonhole": check_pigeonhole,
    "adversary": check_adversary,
    "no_multiples": check_no_multiples,
    "shifts": check_shifts,
    "expsum": check_expsum,
    "decay": check_decay,
    "discrepancy": check_discrepancy,
    "diffset": check_diffset,
    "constants": check_constants,
}


def classify(q: Query, out: Outcome) -> tuple[str, Optional[str]]:
    """("ok" | "indeterminate" | "failed", reason).

    Exit 4 is a correct "cannot decide".  Exit 1 (a domain error) is a valid
    verdict only for a decay query whose separation counterexample checks
    out.  Exits 2 and 3, usage errors, escaped exceptions and answers that
    fail validation are failures.
    """
    if out.error is not None:
        return "failed", out.error
    if out.code == EXIT_INDETERMINATE:
        return "indeterminate", None
    answered = out.code == EXIT_OK and out.report is not None
    if not (answered or (out.code == EXIT_DOMAIN and q.kind == "decay")):
        return "failed", f"exit {out.code}: {out.stderr.strip()[:200]}"
    try:
        reason = CHECKS[q.kind](q, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        reason = f"malformed answer: {type(exc).__name__}: {exc}"
    return ("failed", reason) if reason else ("ok", None)


# -- digest -------------------------------------------------------------------

_EXACT_KEYS = {
    "oracle": ("witness",),
    "pigeonhole": ("witness",),
    "adversary": ("min_distance", "min_witness_index", "gamma_N"),
    "no_multiples": ("ok", "counterexample"),
    "diffset": ("value", "witness"),
    "constants": ("scan_depth",),
    "expsum": ("term_count",),
    "decay": ("far_positions", "term_count"),
    "discrepancy": ("T",),
}


def exact_fields(q: Query, out: Outcome) -> list:
    """The parts of an answer a faster or simpler program must reproduce
    bit for bit: witnesses, exact distances, L values and attaining
    intervals.  Enclosure radii are left out, since certification work may
    legitimately tighten them."""
    rep = out.report or {}
    row: list = [q.kind, out.code]
    if q.kind == "shifts" and rep:
        row += [rep["separation"]["counterexample"], rep["shifts"]["positions"]]
    for key in _EXACT_KEYS.get(q.kind, ()):
        row.append(rep.get(key))
    dist = rep.get("distance")
    if isinstance(dist, dict) and "exact" in dist:
        row.append(dist["exact"])
    if q.kind == "discrepancy" and rep and Fraction(rep["L_radius"]) == 0:
        row += [rep["L_value"], rep["witness"]]
    if q.kind == "decay" and out.code == EXIT_DOMAIN:
        found = _COUNTEREXAMPLE.search(out.stderr)
        row.append(found.group(1) if found else None)
    return row


def digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
