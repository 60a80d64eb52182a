"""The acceptance suite: one function per criterion, exact where promised.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes them in order and prints one pass/fail line per criterion.  The
pytest module ``tests/test_acceptance.py`` drives the same functions, so
the CLI ``verify-all`` subcommand and the test suite cannot drift apart.

Seeds are fixed; everything here is deterministic.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import digitsets as ds
from ._kernels import cos_margin_values
from .adversary import adversarial_gamma, no_multiples_check, reduce_to_bounded, residue_reduce
from .approx import oracle_min, pigeonhole_witness
from .constants import compute_constants, approximation_bound
from .diffsets import anchored_cap, max_difference_set
from .discrepancy import erdos_turan_check
from .errors import InvariantViolation
from .exact import Real, cos_bound_margin, dist_exact
from .expsum import decay_bound_check, eval_expsum, separation_check, small_shift_count, classify_G

TOL = Fraction(1, 10**9)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _fail(msg: str):
    raise AssertionError(msg)


def criterion_1() -> str:
    """Pigeonhole guarantee, exact arithmetic, zero tolerance."""
    rng = random.Random(101)
    gammas = []
    for _ in range(200):
        q = rng.randint(2, 10**6)
        gammas.append(Fraction(rng.randint(1, q - 1), q))
    runs = 0
    for gamma in gammas:
        for b in (2, 3, 5, 10):
            for N in (10**3, 10**4, 10**5, 10**6):
                res = pigeonhole_witness(Real.exact(gamma), b, N)
                w = res.witness
                t = ds.repunit_cap(b, N)
                if not (1 <= w <= N and ds.contains(b, w)):
                    _fail(f"witness {w} outside the set at b={b}, N={N}, gamma={gamma}")
                d = dist_exact(gamma * w)
                if d != res.distance.mid or d > Fraction(1, t + 1):
                    _fail(f"guarantee missed: ||{gamma}*{w}|| = {d} > 1/{t + 1}")
                runs += 1
    return f"{runs} witnesses, all exactly within 1/(t+1)"


def criterion_2() -> str:
    """Adversarial certificates at every (b, N) on the grid, exact."""
    checked = 0
    for b in range(2, 11):
        for N in (1, 2, 7, 100, 2**10, 2**14, 2**40, 10**30):
            cert = adversarial_gamma(b, N)
            if not cert.passed:
                _fail(f"certificate failed at b={b}, N={N}: {cert}")
            if cert.min_distance < cert.guaranteed_bound:
                _fail(f"sharper intermediate bound broken at b={b}, N={N}")
            checked += 1
    return f"{checked} certificates, min distance >= b^-4 N^(-log2 b/(b-1))"


def criterion_3() -> str:
    """Product identity within 1e-9 relative (radius-aware) and the
    product bound, over 1000 random instances."""
    rng = random.Random(103)
    for i in range(1000):
        b = rng.randint(2, 10)
        r = rng.randint(0, 18)
        k = rng.randint(1, 100)
        q = rng.randint(2, 10**6)
        gamma = Fraction(rng.randint(1, q - 1), q)
        rep = eval_expsum(b, r, k, Real.exact(gamma))
        m, p = rep.magnitude, rep.product_magnitude
        gap = abs(m.mid - p.mid)
        if gap > TOL * max(m.mid, p.mid) + m.rad + p.rad:
            _fail(
                f"identity off at #{i} (b={b}, r={r}, k={k}, gamma={gamma}): "
                f"|sum|={float(m.mid)} product={float(p.mid)}"
            )
        if m.lo > rep.product_bound.hi:
            _fail(f"product bound broken at #{i} (b={b}, r={r}, k={k}, gamma={gamma})")
    return "1000 sums match the cosine product and respect the bound"


def criterion_4() -> str:
    """Multiplying by b steps the scale class down by exactly one."""
    rng = random.Random(104)
    checked = 0
    while checked < 10**5:
        b = (2, 3, 5)[checked % 3]
        q = rng.randint(4 * b, 10**6)
        a = rng.randint(1, q // (2 * b))
        n = rng.randint(0, 10)
        y = Fraction(a, q) + n if rng.random() < 0.5 else n - Fraction(a, q)
        t = classify_G(b, Real.exact(y))
        if t is None or t < 2:
            continue
        t_next = classify_G(b, Real.exact(b * y))
        if t_next != t - 1:
            _fail(f"class step failed: b={b}, y={y}, t={t} -> {t_next}")
        checked += 1
    return f"{checked} class steps down by one, no exceptions"


def criterion_5() -> str:
    """Conditional close-shift and decay bounds on a generated family of
    separation-verified instances; the generator must find at least 100."""
    rng = random.Random(105)
    found = 0
    attempts = 0
    max_r = 0
    for b in (3, 4, 5, 7, 10):
        for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
            for m in (1, 2, 3):
                for _ in range(6):
                    attempts += 1
                    D = b ** (r + 2) + rng.choice([-1, 1])
                    gamma = Real.exact(Fraction(rng.randint(1, D - 1), D))
                    beta = Fraction(1, 2 * b**m)
                    sep = separation_check(b, r, beta, gamma)
                    if not sep.ok:
                        continue
                    k = rng.choice([1, 2, 3, 5, 9, 16, 25, 36, 49, 64])
                    shifts = small_shift_count(b, r, k, gamma, beta)
                    if shifts.g**2 >= 9 * k:
                        _fail(f"close-shift bound broken at b={b}, r={r}, k={k}")
                    rep = decay_bound_check(b, r, k, m, gamma)
                    if rep.magnitude.lo > rep.decay_bound.hi:
                        _fail(f"decay bound broken at b={b}, r={r}, k={k}, m={m}")
                    deficit = (r + 1) - len(rep.far_positions)
                    if deficit > 0 and deficit**2 > 9 * k:
                        _fail(f"separated-position count broken at b={b}, r={r}, k={k}")
                    found += 1
                    max_r = max(max_r, r)
    if found < 100:
        _fail(f"generator failure: only {found} separation-verified instances")
    return f"{found} verified instances (attempts={attempts}, largest r={max_r})"


def criterion_6() -> str:
    """Erdos-Turan inequality on fractional-part orbits, rational and
    irrational-interval inputs."""
    rng = random.Random(106)
    named = ("sqrt2", "pi", "e")
    checked = 0
    for i in range(100):
        if i % 3 == 2:
            base = Real.parse(named[i % len(named)])
            gamma = base * Fraction(rng.randint(1, 30), rng.randint(1, 30))
        else:
            q = rng.randint(2, 10**6)
            gamma = Real.exact(Fraction(rng.randint(1, 5 * q), q))
        T = 2000 if i % 10 == 0 else rng.randint(50, 2000)
        for G in (1, 5, 50):
            rep = erdos_turan_check(gamma, T, G)
            if rep.L_value - rep.L_radius > rep.et_rhs.hi:
                _fail(f"inequality broken at sequence #{i}, G={G}")
            checked += 1
    return f"{checked} sequence/G pairs verified"


def criterion_7() -> str:
    """Difference-clique values against the logarithmic cap; the b=3, N=13
    instance pinned exactly."""
    for b in (3, 4, 5):
        for N in range(1, 151):
            S = list(ds.iter_spec_upto(b, N))
            anchored = max_difference_set(S, "anchored")
            within = max_difference_set(S, "within")
            if anchored.value > anchored_cap(b, N):
                _fail(f"cap broken at b={b}, N={N}: {anchored.value}")
            if within.value > anchored.value:
                _fail(f"within > anchored at b={b}, N={N}")
            wit = anchored.witness
            sset = set(S)
            if any(y - x not in sset for i, x in enumerate(wit) for y in wit[i + 1 :]):
                _fail(f"invalid witness at b={b}, N={N}: {wit}")
    pinned = max_difference_set(list(ds.iter_spec_upto(3, 13)), "anchored")
    if pinned.value != 4:
        _fail(f"pinned instance value {pinned.value} != 4")
    return f"all caps hold; (b=3, N=13) gives 4 via witness {pinned.witness}"


def criterion_8() -> str:
    """Residue suite: power-sum reduction, no-multiples regime, digit-sum
    maxima, and exhaustive carry-folding checks."""
    checked = 0
    for b in (2, 3, 5):
        for t in range(1, 5):
            e_max = 6
            for k in range(1, 7):
                values, h = ds.digit_sum_bounded(b, k, t)
                for exps in itertools.combinations_with_replacement(range(e_max + 1), t):
                    rep = reduce_to_bounded(b, k, list(exps))
                    if rep.residue_value not in values:
                        _fail(
                            f"reduced value {rep.residue_value} escaped the set "
                            f"at b={b}, k={k}, t={t}"
                        )
                    checked += 1
                if k * (b - 1) > t:
                    if not no_multiples_check(b, k, t, e_max).ok:
                        _fail(f"unexpected multiple at b={b}, k={k}, t={t}")
                    if h > b**k - 2:
                        _fail(f"digit-sum maximum {h} reaches b^k-1 at b={b}, k={k}, t={t}")
        for k in (1, 2, 3):
            for total in range(1, 13):
                for u in itertools.product(range(total + 1), repeat=k):
                    if sum(u) == total:
                        residue_reduce(b, k, u)  # all three conclusions asserted inside
                        checked += 1
    return f"{checked} reductions verified exactly"


def criterion_9() -> str:
    """Cosine inequality margin on a dense grid plus random rationals."""
    grid = np.linspace(-2.0, 2.0, 4 * 10**5)
    margins = cos_margin_values(grid)
    worst = float(margins.min())
    if worst < -1e-12:
        _fail(f"grid margin {worst} below -1e-12")
    rng = random.Random(109)
    for _ in range(10**4):
        q = rng.randint(1, 10**6)
        x = Fraction(rng.randint(-4 * q, 4 * q), q)
        m = cos_bound_margin(Real.exact(x), precision_bits=64)
        if m.lo < -Fraction(1, 10**12):
            _fail(f"certified margin at {x} has lower bound {float(m.lo)}")
    return f"grid minimum {worst:.3e}, all certified rational margins >= -1e-12"


def criterion_10() -> str:
    """The optimized search path equals an independent brute-force oracle:
    identical witness, identical exact distance."""
    rng = random.Random(110)
    for _ in range(50):
        q = rng.randint(2, 10**6)
        gamma = Fraction(rng.randint(1, q - 1), q)
        for b in (2, 3, 4, 5):
            N = rng.randint(1, 10**4)
            fast = oracle_min(Real.exact(gamma), b, N)
            best_d, best_w = None, None
            for s in ds.iter_spec_upto(b, N):
                d = dist_exact(gamma * s)
                if best_d is None or d < best_d:
                    best_d, best_w = d, s
            if fast.witness != best_w or fast.distance.mid != best_d:
                _fail(
                    f"paths disagree at b={b}, N={N}, gamma={gamma}: "
                    f"kernel ({fast.witness}, {fast.distance.mid}) vs "
                    f"brute ({best_w}, {best_d})"
                )
    return "200 searches, kernel path identical to brute enumeration"


def criterion_11() -> str:
    """The end-to-end decay bound is honestly vacuous at desk scale; its
    ingredients are what criteria 3, 5 and 6 verify."""
    for b in range(2, 11):
        cs = compute_constants(b)
        if not cs.window_coeff.lo > 100:
            _fail(f"window coefficient unexpectedly small at b={b}: {cs.window_coeff}")
        for N in (1, 10**3, 10**6, 2**25, 2**60, 2**200):
            ab = approximation_bound(cs, N)
            if not ab.vacuous:
                _fail(f"bound unexpectedly informative at b={b}, N=2^{N.bit_length() - 1}")
    # the first informative point sits far beyond any enumerable N
    cs2 = compute_constants(2)
    ab = approximation_bound(cs2, 2**870)
    if ab.vacuous:
        _fail("bound still vacuous at N=2^870; constant chain drifted")
    return "vacuous for every enumerable N (first informative N near 2^870 at b=2)"


CRITERIA: list[tuple[int, str, Callable[[], str]]] = [
    (1, "pigeonhole guarantee", criterion_1),
    (2, "adversarial certificate", criterion_2),
    (3, "product identity and bound", criterion_3),
    (4, "scale class step-down", criterion_4),
    (5, "conditional decay bounds", criterion_5),
    (6, "Erdos-Turan inequality", criterion_6),
    (7, "difference-clique caps", criterion_7),
    (8, "residue suite", criterion_8),
    (9, "cosine inequality margin", criterion_9),
    (10, "oracle equivalence", criterion_10),
    (11, "decay bound vacuity", criterion_11),
]


def run_criterion(cid: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == cid:
            start = time.perf_counter()
            try:
                detail = fn()
                passed = True
            except (AssertionError, InvariantViolation) as exc:
                detail = str(exc)
                passed = False
            return CriterionResult(num, name, passed, detail, time.perf_counter() - start)
    raise ValueError(f"no criterion {cid}")


def run_all(echo: Callable[[str], None] = print) -> list[CriterionResult]:
    results = []
    for num, name, _ in CRITERIA:
        res = run_criterion(num)
        status = "PASS" if res.passed else "FAIL"
        echo(f"criterion {res.cid:2d} [{status}] {name}: {res.detail} ({res.seconds:.2f}s)")
        results.append(res)
    return results
