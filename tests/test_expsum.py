import heapq
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from radixapprox import digitsets as ds
from radixapprox import expsum
from radixapprox._kernels import MOD_LIMIT, cos_sin_sum, first_close, subset_residues, term_rows
from radixapprox.digitsets import power_gaps, unrank
from radixapprox.errors import (DomainError, HypothesisViolation, IndeterminateComparison,
                               InvariantViolation)
from radixapprox.exact import Real, dist_exact, dist_to_nearest_int, mpf_to_fraction
from radixapprox.expsum import (
    _FACTOR_HI,
    _FACTOR_LO,
    _NORMAL_MIN,
    GClass,
    SeparationReport,
    _class_of,
    _decay_bound,
    _magnitude,
    _product_interval,
    _re_im_sum,
    _sum_radius,
    _trig_sum,
    classify_G,
    decay_bound_check,
    eval_expsum,
    pi_bounds,
    separation_check,
    sin_pi_bounds,
    small_shift_count,
)
from test_exact import parent_dist_to_nearest_int

E = lambda *a: Real.exact(Fraction(*a))


def _mpf(f: Fraction):
    """f at the working precision of the caller's mpmath context."""
    return mpmath.mpf(f.numerator) / f.denominator


def digit_weights(b, r, k, gamma: Fraction):
    """(q, w): w[d] = k gamma b^d mod 1 on the grid q, for d <= r."""
    q = gamma.denominator
    return q, [k * gamma.numerator * b**d % q for d in range(r + 1)]


def all_residues(b, r, k, gamma: Fraction):
    """(q, res): res[n] = k gamma unrank(b, n) mod 1 on the grid q, for
    every n < 2^(r+1), as one subset_residues table of all r + 1 digits."""
    q, weights = digit_weights(b, r, k, gamma)
    return q, subset_residues(weights, q)


def _direct_sum(b, r, k, gamma: Fraction):
    """(re, im, n) of the direct sum over the 2^(r+1) truncated zero-one
    terms, through the term rows and trig-sum enclosure eval_expsum uses."""
    q, weights = digit_weights(b, r, k, gamma)
    n = 1 << (r + 1)
    re, im = _trig_sum(map(_re_im_sum, term_rows(weights, q)), n, Fraction(0))
    return re, im, n


def _product_value(b, r, k, gamma: Fraction, exclude_zero: bool):
    """(re, im) of prod_d (1 + e(k b^d gamma)) at 200 bits, less the zero
    term e(0) = 1 when it is excluded, as exact fractions."""
    q, weights = digit_weights(b, r, k, gamma)
    with mpmath.workprec(200):
        s = mpmath.mpc(1)
        for w in weights:
            s *= 1 + mpmath.expjpi(2 * mpmath.mpf(w) / q)
        s -= exclude_zero
        return mpf_to_fraction(s.real), mpf_to_fraction(s.imag)


def _pinned_expsum(monkeypatch, b, r, k, gamma: Fraction, exclude_zero: bool = False):
    """(count path, report) of eval_expsum on the path the cost model
    (r+1) q < 2^(r+1) picks, with the other path's kernel made to raise; the
    report must contain the 200-bit value of the sum."""
    count_path = (r + 1) * gamma.denominator < 1 << (r + 1)

    def other_path(*args):
        raise AssertionError(f"the cost model left the {'count' if count_path else 'row-run'} path")

    with monkeypatch.context() as m:
        m.setattr(expsum, "term_rows" if count_path else "angle_counts", other_path)
        rep = eval_expsum(b, r, k, E(gamma), exclude_zero)
    assert rep.term_count == (1 << (r + 1)) - exclude_zero
    for part, want in zip((rep.value_re, rep.value_im), _product_value(b, r, k, gamma, exclude_zero)):
        assert part.lo <= want <= part.hi
    return count_path, rep


# The Fraction factor side that the integer pairs replaced, kept as the
# reference they must match bit for bit.
def parent_sin_pi_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Rational s_lo <= sin(pi lo) and sin(pi hi) <= s_hi, 0 <= lo <= hi <= 1/2."""
    widen_lo, widen_hi = 1 - Fraction(9, 2**51), 1 + Fraction(9, 2**51)

    def bounds(h, *widens):
        x = float(h)
        if x < _NORMAL_MIN and h:
            pi_lo, pi_hi = pi_bounds()
            return tuple(pi_hi * h if w > 1 else pi_lo * h * (1 - (pi_hi * h) ** 2 / 6) for w in widens)
        s = Fraction(math.sin(math.pi * x))
        return tuple(s * w for w in widens)

    if lo == hi:
        return bounds(lo, widen_lo, widen_hi)
    return bounds(lo, widen_lo) + bounds(hi, widen_hi)


def parent_dist_of_multiple(gamma: Real, n: int) -> Real:
    M, Q = gamma.mid.numerator, gamma.mid.denominator
    return parent_dist_to_nearest_int(Real(Fraction(n * M % Q, Q), gamma.rad and abs(n) * gamma.rad))


def parent_classify_G(b: int, y: Real) -> GClass:
    """classify_G with its exact-input branch, as the parent had it."""
    ds.check_base(b)
    w = parent_dist_to_nearest_int(y)
    if w.is_exact:
        if w.mid == 0:
            return GClass(None)
        return GClass(_class_of(b, w.mid))
    if w.hi == 0:
        return GClass(None)
    if w.lo <= 0:
        raise IndeterminateComparison(
            f"||y|| enclosure {w!r} cannot separate zero from a finite class"
        )
    t_from_hi = _class_of(b, w.hi)
    t_from_lo = _class_of(b, w.lo)
    if t_from_hi != t_from_lo:
        raise IndeterminateComparison(f"||y|| enclosure {w!r} straddles a class boundary")
    return GClass(t_from_hi)


def parent_product_interval(factors_lo, factors_hi, scale: int) -> Real:
    one = 1 << 64
    lo = hi = one
    for flo, fhi in zip(factors_lo, factors_hi):
        lo = lo * flo.numerator // flo.denominator
        hi = -(-hi * fhi.numerator // fhi.denominator)
    return Real.from_interval(Fraction(max(0, lo) * scale, one), Fraction(hi * scale, one))


def parent_product_side(b, r, k, gamma: Real) -> tuple[Real, Real]:
    """(product_magnitude, product_bound) of eval_expsum, as the Fraction code computed them."""
    pi_lo, pi_hi = pi_bounds()
    ws = [parent_dist_of_multiple(gamma, k * b**d) for d in range(r + 1)]
    w_los, w_his = [w.lo for w in ws], [w.hi for w in ws]
    h_los = [Fraction(1, 2) - w for w in w_his]
    h_his = [Fraction(1, 2) - w for w in w_los]
    n = 1 << (r + 1)
    f_lo, f_hi = zip(*map(parent_sin_pi_interval, h_los, h_his))
    b_lo = [1 - pi_hi * w * w for w in w_his]
    b_hi = [1 - pi_lo * w * w for w in w_los]
    return parent_product_interval(f_lo, f_hi, n), parent_product_interval(b_lo, b_hi, n)


def count_builds(monkeypatch, fn, *args) -> tuple[int, int]:
    """(Fractions, Reals) constructed by one call of fn(*args), after one
    uncounted call has filled the caches (``pi_bounds``)."""
    fn(*args)
    counts = [0, 0]
    new, post_init = Fraction.__new__, Real.__post_init__

    def counting_new(cls, *a, **kw):
        counts[0] += 1
        return new(cls, *a, **kw)

    def counting_post_init(self):
        counts[1] += 1
        post_init(self)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", counting_new)
        m.setattr(Real, "__post_init__", counting_post_init)
        fn(*args)
    return counts[0], counts[1]


def _pairs(fractions, rng):
    """Each fraction as an integer pair, unreduced by a random factor."""
    out = []
    for f in fractions:
        m = rng.randint(1, 10**6)
        out.append((f.numerator * m, f.denominator * m))
    return out


def _coprime_gamma(rng, q: int) -> Fraction:
    a = rng.randrange(1, q)
    while math.gcd(a, q) != 1:
        a = rng.randrange(1, q)
    return Fraction(a, q)


class TestClassify:
    def test_examples(self):
        assert classify_G(2, E(1, 2)).t == 1
        assert classify_G(2, E(1, 5)).t == 2
        assert classify_G(3, E(3)).t is None

    def test_class_boundaries_inclusive_above(self):
        # the top endpoint 1/(2 b^(t-1)) belongs to class t
        assert classify_G(3, E(1, 2)).t == 1
        assert classify_G(3, E(1, 6)).t == 2
        assert classify_G(3, E(1, 18)).t == 3

    def test_matches_the_parent_on_exact_and_enclosure_inputs(self):
        # integer and non-integer y of both signs, radii zero to >= 1/2, and
        # balls around the class boundaries m +- 1/(2 b^t) and around integers
        def reading(fn, b, y):
            try:
                return fn(b, y)
            except IndeterminateComparison as exc:
                return type(exc), str(exc)

        rng = random.Random(22)
        outcomes = Counter()
        for _ in range(3000):
            b = rng.choice([2, 3, 5, 10])
            rad = rng.choice([Fraction(0), Fraction(1, 10**rng.randint(3, 30)),
                              Fraction(1, rng.randint(2 * b, 10**4)), Fraction(rng.randint(1, 4), 2)])
            m = rng.randint(-5, 5)
            shape = rng.randrange(3)
            if shape == 0:
                q = rng.choice([1, rng.randint(2, 10**6)])
                mid = Fraction(rng.randint(-5 * q, 5 * q), q)
            else:
                edge = Fraction(0) if shape == 1 else Fraction(rng.choice([-1, 1]), 2 * b ** rng.randint(0, 6))
                mid = m + edge + rad * Fraction(rng.randint(-4, 4), 4)
            y = Real(mid, rad)
            want = reading(parent_classify_G, b, y)
            assert reading(classify_G, b, y) == want
            outcomes[(y.is_exact, isinstance(want, tuple) and want[1].split()[-2])] += 1
        # exact, decided enclosure, zero-or-class and class-boundary raises all occur
        assert outcomes[(True, False)] > 500 and outcomes[(False, False)] > 300
        assert outcomes[(False, "finite")] > 100 and outcomes[(False, "class")] > 100

    def test_step_down_property(self):
        rng = random.Random(21)
        for _ in range(500):
            b = rng.choice([2, 3, 5])
            q = rng.randint(4 * b, 10**6)
            a = rng.randint(1, q // (2 * b))
            y = Fraction(a, q) + rng.randint(0, 5)
            t = classify_G(b, Real.exact(y)).t
            if t is None or t < 2:
                continue
            assert classify_G(b, Real.exact(b * y)).t == t - 1

    def test_enclosure_modes(self):
        assert classify_G(2, Real.approx(Fraction(1, 5), Fraction(1, 10**20))).t == 2
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(1, 4), Fraction(1, 10**20)))
        with pytest.raises(IndeterminateComparison):
            classify_G(2, Real.approx(Fraction(0), Fraction(1, 10**20)))


def extended_trunc(b, r):
    """Nonzero elements of the truncated zero-one set and the power gaps."""
    return sorted({unrank(b, i) for i in range(1, 2 ** (r + 1))} | set(power_gaps(b, r)))


def separation_two_branch(b, r, beta, gamma):
    """separation_check as written before both kinds of gamma shared one
    merge: the residue kernel plus Fraction distances for an exact gamma,
    products of Reals for an enclosure."""
    if gamma.is_exact:
        q, res = all_residues(b, r, 1, gamma.mid)
        hit = first_close(res[1:], q, beta.numerator, beta.denominator)
        worst = unrank(b, hit + 1) if hit >= 0 else None
        for x in power_gaps(b, r):
            if worst is not None and x >= worst:
                break
            if dist_exact(gamma.mid * x) <= beta:
                worst = x
                break
        return SeparationReport(worst is None, worst, b, r, beta)
    trunc = (unrank(b, i) for i in range(1, 1 << (r + 1)))
    for x in heapq.merge(trunc, power_gaps(b, r)):
        if not (dist_to_nearest_int(gamma * x) > Real(beta)):
            return SeparationReport(False, x, b, r, beta)
    return SeparationReport(True, None, b, r, beta)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except IndeterminateComparison as exc:
        return type(exc), str(exc)


class TestSeparation:
    def test_examples(self):
        rep = separation_check(2, 1, Fraction(1, 10), E(1, 3))
        assert (rep.ok, rep.counterexample) == (False, 3)
        assert separation_check(2, 1, Fraction(1, 10), E(1, 5)).ok
        rep = separation_check(2, 1, Fraction(1, 10), E(1, 2))
        assert (rep.ok, rep.counterexample) == (False, 2)

    def test_counterexample_is_least(self):
        rng = random.Random(22)
        for _ in range(50):
            b = rng.choice([2, 3, 5])
            r = rng.randint(0, 6)
            q = rng.randint(2, 10**4)
            gamma = Fraction(rng.randint(1, q - 1), q)
            beta = Fraction(1, rng.randint(2, 40))
            rep = separation_check(b, r, beta, Real.exact(gamma))
            # brute force over the extended truncated set
            least = None
            for x in extended_trunc(b, r):
                if dist_exact(gamma * x) <= beta:
                    least = x
                    break
            assert rep.ok == (least is None)
            assert rep.counterexample == least

    def test_enclosure_gamma(self):
        gamma = Real.approx(Fraction(2, 5), Fraction(1, 10**25))
        assert separation_check(2, 1, Fraction(1, 8), gamma).ok

    def test_r_cap_is_checked_before_any_table(self, monkeypatch):
        from radixapprox import _kernels
        from radixapprox.errors import ResourceLimit

        def no_tables(*args):
            raise AssertionError("half tables built above the r cap")

        monkeypatch.setattr(_kernels, "_half_tables", no_tables)
        with pytest.raises(ResourceLimit, match="exceeds the term cap"):
            separation_check(2, expsum.R_CAP_DEFAULT + 1, Fraction(1, 4096), E(5, 313))

    def test_r_at_the_cap_answers(self):
        rep = separation_check(2, expsum.R_CAP_DEFAULT, Fraction(1, 4096), E(5, 313))
        assert (rep.ok, rep.counterexample) == (False, 313)

    @pytest.mark.parametrize("kind", ["exact", "enclosure"])
    def test_matches_the_two_branch_check(self, kind):
        rng = random.Random(24)
        outcomes = set()
        for _ in range(400):
            b = rng.choice([2, 3, 5, 10])
            r = rng.randint(0, 7)
            q = rng.choice([rng.randint(2, 10**4), b ** (r + 2) + rng.choice([-1, 1]),
                            rng.randint(2, 10**20)])
            mid = Fraction(rng.randint(-3 * q, 3 * q), q)
            gamma = Real(mid, Fraction(1, 1 << rng.randint(10, 90)) if kind == "enclosure" else 0)
            beta = Fraction(1, rng.randint(2, 2 * b**3))
            want = _outcome(separation_two_branch, b, r, beta, gamma)
            assert _outcome(separation_check, b, r, beta, gamma) == want
            outcomes.add(want[0] if isinstance(want, tuple) else want.ok)
        assert outcomes == ({True, False, IndeterminateComparison} if kind == "enclosure"
                            else {True, False})

    @pytest.mark.parametrize(
        "b, r, beta, gamma",
        [
            # q < MOD_LIMIT, but q * beta_den wraps int64
            (10, 6, Fraction(1, 2000), Fraction(25038706291147849, 33122781086234565)),
            (2, 13, Fraction(1, 10000), Fraction(43709930429851096, MOD_LIMIT - 1)),
            # q at and just above MOD_LIMIT: Python-int residues
            (3, 7, Fraction(1, 1000), Fraction(98765432123456789, MOD_LIMIT)),
            (2, 13, Fraction(1, 10000), Fraction(25969627795047259, MOD_LIMIT + 1)),
            (10, 5, Fraction(1, 5000), Fraction(987654321987654321, MOD_LIMIT + 1)),
            # q * beta_den = 2^62 - 1, 2^62, 2^62 + 1
            (2, 10, Fraction(1, 2147483647), Fraction(1234567, 2147483649)),
            (3, 9, Fraction(1, 1 << 31), Fraction((1 << 29) + 1, 1 << 31)),
            (5, 6, Fraction(1, 5), Fraction(123456789012345677, 922337203685477581)),
            (5, 6, Fraction(1, 20), Fraction(123456789012345677, 922337203685477581)),
        ],
    )
    def test_counterexample_at_the_int64_limits(self, b, r, beta, gamma):
        rep = separation_check(b, r, beta, Real.exact(gamma))
        least = next(
            (x for x in extended_trunc(b, r) if dist_exact(gamma * x) <= beta), None
        )
        assert (rep.ok, rep.counterexample) == (least is None, least)

    def test_matches_the_two_branch_check_past_a_passing_window_element(self):
        # rad close to beta / V, so the first element read within the window
        # beta + V rad certifies as passing and a later element decides
        rng = random.Random(25)
        outcomes = []
        for _ in range(800):
            b, r = rng.choice([2, 3, 5, 10]), rng.randint(1, 7)
            V = unrank(b, (1 << (r + 1)) - 1)
            beta = Fraction(1, rng.randint(4, 4 * b**3))
            q = rng.randint(2, 10**6)
            mid = Fraction(rng.randint(0, q), q) + Fraction(rng.randint(0, 10**9), 10**9 * q)
            gamma = Real(mid, beta / V * Fraction(rng.randint(1, 1000), 1000))
            window = beta + V * gamma.rad
            trunc = (unrank(b, i) for i in range(1, 1 << (r + 1)))
            first = next((x for x in trunc if dist_exact(mid * x) <= window), None)
            if first is None or not dist_to_nearest_int(gamma * first).lo > beta:
                continue
            want = _outcome(separation_two_branch, b, r, beta, gamma)
            assert _outcome(separation_check, b, r, beta, gamma) == want
            outcomes.append(want[0] if isinstance(want, tuple) else want.ok)
        counts = [outcomes.count(k) for k in (True, False, IndeterminateComparison)]
        assert min(counts) >= 5, counts

    def test_window_reaches_the_largest_truncated_element(self):
        # ||7 gamma|| reads 107/1000 = beta + 7 rad, so its enclosure touches beta;
        # the elements 1..6 and the power gaps certainly pass
        gamma = Real(Fraction(3107, 7000), Fraction(1, 1000))
        want = _outcome(separation_two_branch, 2, 2, Fraction(1, 10), gamma)
        assert want[0] is IndeterminateComparison
        assert _outcome(separation_check, 2, 2, Fraction(1, 10), gamma) == want


def shifts_per_position(b, r, k, gamma, beta, outcomes):
    """(g, positions) of small_shift_count, one scalar distance per position;
    tallies each position's outcome."""
    positions = []
    for d in range(r + 1):
        try:
            close = dist_to_nearest_int(gamma * (k * b**d)) <= Real(beta)
        except IndeterminateComparison:
            outcomes["indeterminate"] += 1
            raise
        outcomes["close" if close else "far"] += 1
        if close:
            positions.append(d)
    return len(positions), tuple(positions)


class TestSmallShifts:
    def test_examples(self):
        assert small_shift_count(2, 1, 1, E(1, 5), Fraction(1, 10)).g == 0
        rep = small_shift_count(3, 2, 1, E(0), Fraction(1, 10))
        assert rep.g == 3 and rep.positions == (0, 1, 2)
        # distances 1/27, 1/9, 1/3: only the first is <= 1/10
        rep = small_shift_count(3, 2, 1, E(1, 27), Fraction(1, 10))
        assert rep.g == 1 and rep.positions == (0,)

    def test_matches_the_per_position_reading(self):
        # exact gamma of both signs, the named constants at 64-256 bits, and
        # random midpoints with radii from 1/10 down to 1e-12
        rng = random.Random(25)
        outcomes = Counter()
        for i in range(1500):
            b = rng.choice([2, 3, 5, 10])
            r = rng.randint(0, 8)
            k = rng.randint(1, 50)
            beta = Fraction(1, rng.randint(2, 40))
            q = rng.randint(2, 10**6)
            mid = Fraction(rng.randint(-5 * q, 5 * q), q)
            if i % 3 == 0:
                gamma = Real(mid)
            elif i % 3 == 1:
                gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 128, 256]))
            else:
                gamma = Real(mid, Fraction(1, rng.randint(10, 10 ** rng.randint(2, 12))))
            want = _outcome(shifts_per_position, b, r, k, gamma, beta, outcomes)
            rep = _outcome(small_shift_count, b, r, k, gamma, beta)
            assert (rep if isinstance(rep, tuple) else (rep.g, rep.positions)) == want
        assert min(outcomes["close"], outcomes["far"], outcomes["indeterminate"]) > 100, outcomes

    def test_bound_under_separation(self):
        rng = random.Random(23)
        verified = 0
        for _ in range(300):
            b = rng.choice([3, 4, 5])
            r = rng.randint(1, 5)
            m = rng.randint(1, 3)
            D = b ** (r + 2) - 1
            gamma = E(rng.randint(1, D - 1), D)
            beta = Fraction(1, 2 * b**m)
            if not separation_check(b, r, beta, gamma).ok:
                continue
            k = rng.randint(1, 64)
            rep = small_shift_count(b, r, k, gamma, beta, separation_ok=True)
            assert rep.g**2 < 9 * k
            verified += 1
        assert verified > 20


class TestProductInterval:
    def test_contains_the_exact_product_within_the_stated_widening(self):
        rng = random.Random(41)
        for _ in range(300):
            m = rng.randint(0, 12)
            lo = [Fraction(rng.randint(0, 10**6), rng.randint(10**6, 10**7)) for _ in range(m)]
            hi = [f + Fraction(rng.randint(0, 10**4), rng.randint(10**6, 10**9)) for f in lo]
            scale = 1 << rng.randint(1, 27)
            enc = _product_interval(_pairs(lo, rng), _pairs(hi, rng), scale)
            assert enc == parent_product_interval(lo, hi, scale)
            exact_lo, exact_hi = scale * math.prod(lo), scale * math.prod(hi)
            assert enc.lo <= exact_lo and exact_hi <= enc.hi
            F = max([1, *hi])
            widening = scale * m * F ** max(m - 1, 0) / Fraction(2**64)
            assert exact_lo - enc.lo <= widening and enc.hi - exact_hi <= widening

    def test_digits_stay_bounded_at_r_26(self):
        rng = random.Random(42)
        factors = [Fraction(rng.randrange(10**599, 10**600), 10**600 + 7) for _ in range(27)]
        enc = _product_interval(_pairs(factors, rng), _pairs(factors, rng), 1 << 27)
        assert enc.lo <= (1 << 27) * math.prod(factors) <= enc.hi
        assert max(enc.mid.denominator, enc.rad.denominator) <= 2**65

    def test_report_fields_stay_short_for_long_inputs(self):
        q = 10**199 + 7
        for gamma, r in ((E(10**198, q), 10), (Real.parse("e", 512), 12)):
            rep = eval_expsum(3, r, 7, gamma)
            for enc in (rep.product_magnitude, rep.product_bound):
                assert len(str(enc.mid.denominator)) < 40 and len(str(enc.rad.denominator)) < 40


class TestEvalExpsum:
    def test_single_pair_cancels(self):
        rep = eval_expsum(2, 0, 1, E(1, 2))
        assert rep.magnitude.hi < Fraction(1, 10**12)
        assert rep.product_magnitude.mid == 0

    @pytest.mark.parametrize("b", [2, 3])
    def test_vanishing_factor_gives_an_exact_zero_product(self, b):
        from radixapprox.cli import _ser

        rep = eval_expsum(b, 3, 1, E(1, 2))
        assert rep.product_magnitude.rad == 0
        assert _ser(rep.product_magnitude) == {"exact": "0/1"}

    def test_tiny_factor_is_no_exact_zero(self):
        # h = 10^-400 reads as the float 0; the factor 2 sin(pi h) is not 0
        from radixapprox.cli import _ser

        rep = eval_expsum(2, 0, 1, E(1, 2) + Fraction(1, 10**400))
        with mpmath.workprec(200):
            true = 2 * mpmath.sin(mpmath.pi / mpmath.mpf(10) ** 400)
            assert _mpf(rep.product_magnitude.lo) <= true <= _mpf(rep.product_magnitude.hi)
        assert _ser(rep.product_magnitude) != {"exact": "0/1"}

    def test_gamma_zero_counts_terms(self):
        rep = eval_expsum(5, 3, 7, Real.exact(0))
        assert rep.value_re.mid == 16 and rep.value_im.mid == 0
        assert rep.magnitude.mid == 16
        assert rep.product_bound.lo <= 16 <= rep.product_bound.hi

    def test_quarter_full_cancellation(self):
        rep = eval_expsum(2, 1, 1, E(1, 4))
        assert rep.magnitude.hi < Fraction(1, 10**12)
        assert rep.product_magnitude.mid == 0

    def test_identity_and_bound_randomized(self):
        rng = random.Random(24)
        for _ in range(150):
            b = rng.randint(2, 10)
            r = rng.randint(0, 10)
            k = rng.randint(1, 100)
            q = rng.randint(2, 10**6)
            rep = eval_expsum(b, r, k, E(rng.randint(1, q - 1), q))
            m, p = rep.magnitude, rep.product_magnitude
            assert abs(m.mid - p.mid) <= m.rad + p.rad
            assert m.lo <= rep.product_bound.hi + Fraction(1, 10**9)

    def test_zero_exclusion_shifts_by_one(self):
        rep_all = eval_expsum(3, 4, 5, E(3, 11))
        rep_exc = eval_expsum(3, 4, 5, E(3, 11), exclude_zero=True)
        assert rep_exc.value_re.mid == rep_all.value_re.mid - 1
        assert rep_exc.value_im.mid == rep_all.value_im.mid
        assert rep_exc.term_count == rep_all.term_count - 1

    def test_negative_k(self):
        rep = eval_expsum(3, 2, -4, E(2, 7))
        mirror = eval_expsum(3, 2, 4, E(2, 7))
        assert abs(rep.magnitude.mid - mirror.magnitude.mid) <= rep.magnitude.rad + mirror.magnitude.rad

    def test_term_cap(self):
        from radixapprox.errors import ResourceLimit

        with pytest.raises(ResourceLimit):
            eval_expsum(2, 27, 1, E(1, 3))

    def test_big_denominator_fallback(self):
        q = (1 << 61) + 1
        rep = eval_expsum(2, 3, 1, E(1, q))
        # gamma is nearly 0, so the sum is nearly the term count
        assert abs(rep.magnitude.mid - 16) < Fraction(1, 10**6)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT + 1, (1 << 64) + 13])
    def test_sum_radius_covers_angles_near_zero(self, q):
        # gamma = 1/q puts every angle within 2^-40 of 0: all terms add up
        # with one sign, the worst case for the summation error
        re, im, n = _direct_sum(2, 11, 1, Fraction(1, q))
        with mpmath.workprec(200):
            exact_re = mpmath.fsum(mpmath.cos(2 * mpmath.pi * v / q) for v in range(n))
            exact_im = mpmath.fsum(mpmath.sin(2 * mpmath.pi * v / q) for v in range(n))
        assert re.rad == im.rad == _sum_radius(n)
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

    @pytest.mark.parametrize("q", [MOD_LIMIT - 1, MOD_LIMIT + 1])
    def test_sum_radius_covers_spread_angles(self, q):
        b, r, k, gamma = 3, 10, 7, Fraction(q // 3 + 1, q)
        re, im, n = _direct_sum(b, r, k, gamma)
        with mpmath.workprec(200):
            angles = [2 * mpmath.pi * ((k * gamma.numerator * x) % q) / q
                      for x in [0] + [unrank(b, i) for i in range(1, n)]]
            exact_re = mpmath.fsum(mpmath.cos(t) for t in angles)
            exact_im = mpmath.fsum(mpmath.sin(t) for t in angles)
        assert abs(_mpf(re.mid) - exact_re) <= _mpf(re.rad)
        assert abs(_mpf(im.mid) - exact_im) <= _mpf(im.rad)

    @pytest.mark.parametrize("q", [(1 << 40) - 87, MOD_LIMIT - 1, MOD_LIMIT + 1, (1 << 64) + 13, None],
                             ids=["2^40-87", "ML-1", "ML+1", "2^64+13", "sqrt2@128"])
    def test_direct_sum_matches_a_plain_sum_over_every_residue(self, q):
        # r across the 2^16-entry runs of whole rows and odd and even digit
        # counts; the reference sums one table of all 2^(r+1) residues, so the
        # two float sums differ by at most _sum_radius(n) each
        rng = random.Random(q)
        for r in (0, 1, 9, 10, 11, 17, 18, 19):
            b, k = rng.choice([2, 3, 10]), rng.choice([-7, 1, 3, 10])
            if q is None:
                gamma = Real.parse("sqrt2", 128)
            else:
                a = rng.randrange(1, q)
                while math.gcd(a, q) != 1:
                    a = rng.randrange(1, q)
                gamma = E(a, q)
            rep = eval_expsum(b, r, k, gamma)
            n = 1 << (r + 1)
            extra = 7 * abs(k) * (1 << r) * (b ** (r + 1) - 1) // (b - 1) * gamma.rad
            grid, res = all_residues(b, r, k, gamma.mid)
            # one Python-int division per term, not the half-table angles
            ref = cos_sin_sum(np.array([v / grid for v in res.tolist()]) * (2 * np.pi))
            assert rep.term_count == len(res) == n
            for part, want in zip((rep.value_re, rep.value_im), ref):
                assert part.rad == _sum_radius(n) + extra
                assert abs(part.mid - Fraction(want)) <= part.rad + _sum_radius(n)

    def test_enclosure_sum_holds_no_python_int_per_term(self):
        # r = 14 has 2^15 terms; the two half tables of Python ints hold
        # 2^7 + 2^8 entries, and each run of angles is floats
        gamma = Real.parse("pi", 256)
        tracemalloc.start()
        try:
            eval_expsum(3, 14, 1, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("q", [2, 3, 313, 4093])
    def test_count_path_agrees_with_the_row_runs(self, q, monkeypatch):
        # both sides of the cost model: at r = 1 every q and at r = 5 the
        # larger two stay on the row runs, the rest count residues; each
        # report contains the 200-bit product (in _pinned_expsum), and a
        # count-path report meets the row-run enclosure of the same sum.
        # The row runs cost 2^25 terms at r = 24, so only 5/313 sums them
        rng = random.Random(q)
        for i, (r, b) in enumerate(itertools.product((1, 5, 18, 24), (2, 3, 10))):
            k, exclude = (1, -7, 3, -1, 100)[i % 5], i % 2 == 1
            gamma = Fraction(5, 313) if (q, r, b) == (313, 24, 2) else _coprime_gamma(rng, q)
            count_path, rep = _pinned_expsum(monkeypatch, b, r, k, gamma, exclude)
            assert count_path == (r >= 18 or (r == 5 and q < 10))
            if count_path and (r <= 18 or gamma == Fraction(5, 313)):
                modulus, weights = digit_weights(b, r, k, gamma)
                assert sum(map(len, term_rows(weights, modulus))) == 1 << (r + 1)
                re, im, _ = _direct_sum(b, r, k, gamma)
                for part, ref in zip((rep.value_re, rep.value_im), (re - exclude, im)):
                    assert abs(part.mid - ref.mid) <= part.rad + ref.rad

    @pytest.mark.parametrize("r, q", [(1, 2), (3, 4), (7, 32), (15, 4096)])
    def test_the_cost_model_boundary_sums_the_row_runs(self, r, q, monkeypatch):
        # (r+1) q == 2^(r+1) costs the same both ways and stays on the row
        # runs; one residue fewer counts (q = 1 takes the exact shortcut)
        rng = random.Random(r)
        assert (r + 1) * q == 1 << (r + 1)
        assert _pinned_expsum(monkeypatch, 3, r, -5, _coprime_gamma(rng, q))[0] is False
        if q > 2:
            assert _pinned_expsum(monkeypatch, 3, r, -5, _coprime_gamma(rng, q - 1), True)[0] is True

    def test_count_path_builds_no_angle_run(self):
        # r = 24 has 2^25 terms; the count path holds the 313 counts and
        # angles, where the row runs peak at about 1.4 MB under tracemalloc;
        # bound the peak by a quarter of one 2^16-entry run of complex terms
        gamma = E(5, 313)
        tracemalloc.start()
        try:
            eval_expsum(2, 24, 1, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_count_path_holds_float_runs_at_a_large_modulus(self):
        # r = 22, q = 262147 > 2^16 (23 q < 2^23): the q int64 counts and
        # float64 angles in runs of at most 2^16 residues peak at about
        # 4.2 MB under tracemalloc; angles divided through Python ints
        # peaked at 21 MB, and the row runs of 2^23 terms peak at 1.5 MB
        gamma = E(5, 262147)
        tracemalloc.start()
        try:
            eval_expsum(2, 22, 1, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_direct_sum_holds_one_run_of_terms(self):
        # r = 22 has 2^23 terms, formed and summed in runs of 2^16 complex
        # terms (1 MiB each): the call peaks at about 1.5 MB under
        # tracemalloc, where runs of 2^18 terms peaked at 4.6 MB and the
        # float angle runs of 2^18 at 6.4 MB
        gamma = E(314159265358, 1099511627689)
        tracemalloc.start()
        try:
            eval_expsum(2, 22, 3, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("size", [1000, 8193, 1 << 18])
    def test_strided_parts_sum_as_contiguous_arrays(self, size):
        # _sum_radius bounds numpy's pairwise sum of a contiguous array; the
        # real and imaginary parts of a complex run are strided views, and
        # _re_im_sum must add them along the same tree, bit for bit
        rng = np.random.default_rng(size)
        for _ in range(10):
            z = np.exp(1j * rng.uniform(-np.pi, np.pi, size)) * rng.uniform(0.5, 1.5, size)
            assert not z.real.flags.c_contiguous
            want = (np.ascontiguousarray(z.real).sum(), np.ascontiguousarray(z.imag).sum())
            assert _re_im_sum(z) == want

    def test_magnitude_slack_covers_200_bit_hypot(self):
        rng = random.Random(31)
        cases = []
        for _ in range(400):
            x = Fraction(rng.uniform(-2.0**27, 2.0**27))
            y = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
            cases.append((x, y))
            # near-cancelling: a sum of doubles close to 1, minus the
            # excluded zero term; and rationals that are not doubles
            d = Fraction(1 + rng.uniform(-1, 1) * 2.0 ** -rng.randint(1, 52))
            cases.append((d - 1, Fraction(rng.uniform(-1, 1)) / 2 ** rng.randint(0, 60)))
            cases.append((Fraction(1, rng.randint(3, 10**9)), -Fraction(1, rng.randint(3, 10**9))))
        def hypot200(x, y):
            with mpmath.workprec(200):
                return mpf_to_fraction(mpmath.hypot(_mpf(x), _mpf(y)))

        for x, y in cases:
            true = hypot200(x, y)
            mag = _magnitude(Real(x), Real(y))
            assert mag.lo <= true <= mag.hi
            # the derivation in the docstring: within 3 * 2^-53 of the float
            assert abs(true - mag.mid) <= 3 * mag.mid / 2**53
            # component radii add to the slack
            rx, ry = abs(x) / 7 + Fraction(1, 10**9), abs(y) / 5
            wide = _magnitude(Real(x, rx), Real(y, ry))
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                assert wide.lo <= hypot200(x + sx * rx, y + sy * ry) <= wide.hi

    def test_sin_pi_bounds_against_200_bits(self):
        # the docstring's analysis: the float sine is within 13u of sin(pi h),
        # inside the _FACTOR_ERR widening; tiny h get exact bounds
        rng = random.Random(39)
        hs = [Fraction(rng.randint(1, 2**60), 2**61) for _ in range(2000)]
        hs += [Fraction(1, 2) - Fraction(rng.randint(1, 2**20), 2**rng.randint(21, 80))
               for _ in range(300)]
        hs += [Fraction(rng.randint(1, 2**20), 2**rng.randint(21, 1040)) for _ in range(300)]
        hs += [Fraction(1, 2), Fraction(1, 2**1021), Fraction(1, 2**1022), Fraction(1, 10**400),
               Fraction(1, 2**1021) - Fraction(1, 2**1080), Fraction(1, 3 * 10**307)]
        half, zero = (1, 2), (0, 1)
        worst = 0
        for h in hs:
            # an unreduced pair reads the same float, so gives the same bounds
            m = rng.choice([1, 3, rng.randint(2, 10**40)])
            pair = (h.numerator * m, h.denominator * m)
            lo, hi = sin_pi_bounds(pair, pair)
            assert min(lo[1], hi[1]) > 0
            lo, hi = Fraction(*lo), Fraction(*hi)
            # the values of the Fraction code it replaced
            assert (lo, hi) == parent_sin_pi_interval(h, h)
            # one float sine per distinct end: the same bounds as two reads
            assert (lo, hi) == (Fraction(*sin_pi_bounds(pair, half)[0]),
                                Fraction(*sin_pi_bounds(zero, pair)[1]))
            with mpmath.workprec(200):
                true = mpmath.sin(mpmath.pi * _mpf(h))
                assert 0 < _mpf(lo) <= true <= _mpf(hi)
                if float(h) >= _NORMAL_MIN:
                    err = abs(_mpf(hi * 2**51 / _FACTOR_HI) - true) / true * 2**53
                    worst = max(worst, err)
        assert worst < 13
        assert Fraction(*sin_pi_bounds(half, half)[0]) == Fraction(_FACTOR_LO, 2**51)
        assert [Fraction(*s) for s in sin_pi_bounds(zero, zero)] == [0, 0]
        # 10^-400 reads as 0.0: the exact branch, not a zero sine
        tiny = (1, 10**400)
        lo, hi = sin_pi_bounds(tiny, tiny)
        pi_lo, pi_hi = pi_bounds()
        assert Fraction(*hi) == pi_hi / 10**400 and 0 < Fraction(*lo) < pi_lo / 10**400

    @pytest.mark.parametrize("gamma", [E(314159265358, 1099511627689), Real.parse("pi", 128)])
    def test_product_side_builds_no_fraction_or_real_per_digit(self, gamma, monkeypatch):
        # both r take the direct path in one run of terms, so only the
        # product side could grow with the digits
        few, many = (count_builds(monkeypatch, eval_expsum, 3, r, 1, gamma) for r in (2, 12))
        assert few == many

    def test_product_side_matches_the_fraction_code(self):
        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            if rng.random() < 0.5:
                q = rng.choice([rng.randint(2, 50), rng.randint(2, 10**6), rng.randint(2, 2**70)])
                gamma = E(rng.randint(1, q - 1), q)
            else:
                gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 128, 256]))
            b, r, k = rng.randint(2, 7), rng.randint(0, 10), rng.randint(1, 10**rng.randint(1, 6))
            rep = eval_expsum(b, r, k, gamma)
            want = parent_product_side(b, r, k, gamma)
            assert (rep.product_magnitude, rep.product_bound) == want
            seen.add((gamma.is_exact, rep.product_magnitude.is_exact))
        assert seen >= {(True, False), (False, False)}

    def test_enclosure_gamma_widens_radius(self):
        gamma = Real.approx(Fraction(2, 7), Fraction(1, 10**25))
        rep = eval_expsum(3, 2, 1, gamma)
        exact = eval_expsum(3, 2, 1, E(2, 7))
        assert rep.value_re.rad > exact.value_re.rad
        assert abs(rep.magnitude.mid - exact.magnitude.mid) <= rep.magnitude.rad + exact.magnitude.rad


class TestDecayBound:
    def test_worked_instance(self):
        rep = decay_bound_check(2, 1, 1, 2, E(2, 5))
        assert abs(float(rep.magnitude.mid) - 0.6180339887) < 1e-6
        assert abs(float(rep.decay_bound.hi) - 16 * (1 - math.pi / 16) ** -0.5) < 1e-6
        assert rep.far_positions == (0, 1)
        assert rep.separation_beta == Fraction(1, 8)

    def test_single_term_instance(self):
        rep = decay_bound_check(2, 0, 1, 1, E(1, 3))
        assert abs(float(rep.magnitude.mid) - 1.0) < 1e-9
        assert abs(float(rep.decay_bound.hi) - 8 * (1 - math.pi / 16) ** -2.0) < 1e-6

    def test_bound_contains_the_300_bit_value_on_the_criterion_5_grid(self):
        for b in (3, 4, 5, 7, 10):
            for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
                for m in (1, 2, 3):
                    for k in (1, 2, 3, 5, 9, 16, 25, 36, 49, 64):
                        with mpmath.workprec(300):
                            value = mpf_to_fraction(mpmath.mpf(2) ** (r + 3) * (
                                1 - mpmath.pi / (4 * b * b)) ** ((r + 1 - 3 * mpmath.sqrt(k)) / m))
                        bound = _decay_bound(b, r, k, m)
                        assert bound.lo <= value <= bound.hi
                        assert bound.rad <= bound.mid / 10**20

    def test_far_positions_complement_the_close_shifts_on_the_criterion_5_grid(self):
        rng = random.Random(105)
        verified = 0
        for b in (3, 4, 5, 7, 10):
            for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
                for m in (1, 2, 3):
                    for _ in range(6):
                        D = b ** (r + 2) + rng.choice([-1, 1])
                        gamma = Fraction(rng.randint(1, D - 1), D)
                        beta = Fraction(1, 2 * b**m)
                        if not separation_check(b, r, beta, Real(gamma)).ok:
                            continue
                        k = rng.choice([1, 2, 3, 5, 9, 16, 25, 36, 49, 64])
                        rep = decay_bound_check(b, r, k, m, Real(gamma))
                        close = small_shift_count(b, r, k, Real(gamma), beta).positions
                        assert sorted(rep.far_positions + close) == list(range(r + 1))
                        assert rep.far_positions == tuple(
                            d for d in range(r + 1) if dist_exact(gamma * k * b**d) > beta)
                        verified += 1
        assert verified >= 100

    def test_a_violation_below_1e_9_raises(self, monkeypatch):
        # both sides are certified enclosures, so a bound 1e-10 below the
        # sum's lower end is a violation however small
        gamma = E(2, 5)
        lo = eval_expsum(2, 1, 1, gamma, exclude_zero=True).magnitude.lo
        tight = Real.from_interval(lo - Fraction(2, 10**10), lo - Fraction(1, 10**10))
        monkeypatch.setattr(expsum, "_decay_bound", lambda *args: tight)
        with pytest.raises(InvariantViolation):
            decay_bound_check(2, 1, 1, 2, gamma)

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolation) as err:
            decay_bound_check(2, 1, 1, 2, E(1, 3))
        assert err.value.counterexample == 3

    def test_bad_args(self):
        with pytest.raises(DomainError):
            decay_bound_check(2, 1, 0, 1, E(1, 3))
        with pytest.raises(DomainError):
            decay_bound_check(2, -1, 1, 1, E(1, 3))
