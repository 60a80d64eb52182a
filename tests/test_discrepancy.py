import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from radixapprox import _kernels, discrepancy, exact, expsum
from radixapprox.discrepancy import (
    DiscrepancyReport,
    ScaledPoints,
    discrepancy_L,
    erdos_turan_check,
    fractional_orbit,
)
from radixapprox.errors import DomainError, IndeterminateComparison, InvariantViolation, ResourceLimit
from radixapprox.exact import Real, frac
from test_expsum import count_builds, parent_dist_of_multiple, parent_sin_pi_interval

E = lambda *a: Real.exact(Fraction(*a))

# (G, Q) with G * Q = 2^62 - 1, 2^62, 2^62 + 1, and past 2^67
PRODUCT_LIMIT_CASES = [(3, 1537228672809129301), (4, 1 << 60),
                       (5, 922337203685477581), (50, (1 << 62) - 57)]

# the named constants of acceptance criterion 6, at the working precision
CONSTANTS = {"sqrt2": lambda: mpmath.sqrt(2), "pi": lambda: +mpmath.pi, "e": lambda: +mpmath.e}


def frac_exact(x):
    """{x} in [0, 1) of a Fraction, floor convention."""
    return x - (x.numerator // x.denominator)


def orbit_two_branch(gamma, T):
    """The orbit as built before it was read off residues: an exact branch
    on Fractions and an enclosure branch through frac."""
    if gamma.is_exact:
        return [Real(frac_exact(gamma.mid * n)) for n in range(1, T + 1)]
    return [frac(gamma * n) for n in range(1, T + 1)]


def scaled(points):
    """Fractional parts as (numerator, q) scaled integers over the lcm
    denominator of their midpoints, plus the largest radius, from a list of
    Real points: the scaler the orbit went through before it was read as
    residues."""
    if not points:
        raise DomainError("need at least one point")
    fracs = [frac(p) for p in points]
    q = math.lcm(*(f.mid.denominator for f in fracs))
    nums = [f.mid.numerator * (q // f.mid.denominator) for f in fracs]
    return ScaledPoints(nums, q, max(f.rad for f in fracs))


def et_rhs_reference(fracs, G):
    """T/(G+1) + (2 + 2/pi) * sum_{g<=G} |sum_n e(g x_n)|/g by direct
    summation at 200 bits over the points x_n = {n gamma} of the true orbit,
    given as mpf."""
    T = len(fracs)
    with mpmath.workprec(200):
        total = mpmath.fsum(
            abs(mpmath.fsum(mpmath.expjpi(2 * g * x) for x in fracs)) / g for g in range(1, G + 1))
        return T / mpmath.mpf(G + 1) + (2 + 2 / mpmath.pi) * total


def true_orbit(value, T):
    """{n gamma} for n = 1..T at 300 bits; value is a Fraction or returns an mpf."""
    with mpmath.workprec(300):
        t = value() if callable(value) else mpmath.mpf(value.numerator) / value.denominator
        return [mpmath.frac(n * t) for n in range(1, T + 1)]


def weyl_sum_200(value, T, g):
    """|sum_{n<=T} e(n g value)| at 200 bits for a Fraction value."""
    with mpmath.workprec(200):
        x = mpmath.mpf(value.numerator) / value.denominator
        return abs(mpmath.fsum(mpmath.expjpi(2 * n * g * x) for n in range(1, T + 1)))


def exact_mpf(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def encloses(rhs, ref):
    """rhs contains ref up to the reference's own rounding, 2^-150."""
    with mpmath.workprec(200):
        lo = mpmath.mpf(rhs.lo.numerator) / rhs.lo.denominator
        hi = mpmath.mpf(rhs.hi.numerator) / rhs.hi.denominator
        return lo - mpmath.ldexp(1, -150) <= ref <= hi + mpmath.ldexp(1, -150)


def by_value(points):
    """points with nums as a list of Python ints, so that ScaledPoints
    compare by value whatever array holds their nums."""
    return points._replace(nums=[int(v) for v in points.nums])


def _outcome(fn, *args):
    try:
        return by_value(fn(*args))
    except IndeterminateComparison as exc:
        return (type(exc), str(exc))


def scaled_two_branch(gamma, T):
    return scaled(orbit_two_branch(gamma, T))


def brute_L(fracs):
    """Supremum over *all* intervals, approximated by nudging every
    candidate endpoint; exact agreement with the family scan is required."""
    T = len(fracs)
    eps = Fraction(1, 10**9)
    cands = {Fraction(0), Fraction(1)}
    for v in fracs:
        cands.update((v - eps, v, v + eps))
    cl = sorted(c for c in cands if 0 <= c <= 1)
    best = Fraction(0)
    for i, a in enumerate(cl):
        for b in cl[i:]:
            for lc, rc in ((True, True), (True, False), (False, True), (False, False)):
                if b == 1 and rc:
                    continue
                if a == b and not (lc and rc):
                    continue
                cnt = sum(
                    1
                    for f in fracs
                    if (a <= f if lc else a < f) and (f <= b if rc else f < b)
                )
                best = max(best, abs(cnt - T * (b - a)))
    return best


def _parent_array(values, bound):
    return np.asarray(values, dtype=np.int64 if bound < 1 << 62 else object)


def discrepancy_object_parent(points):
    """discrepancy_L as the scan was written before it read int64 keys:
    np.unique over one array of the residues, int64 while T q < 2^62 and
    Python ints otherwise, and the deviation scan over every end on an
    array of that kind."""
    nums, q, worst = points
    T = len(nums)
    if not T:
        raise DomainError("need at least one point")
    bound = T * q
    w, eq = np.unique(_parent_array(nums, bound), return_counts=True)
    if w[0]:
        w, eq = np.insert(w, 0, 0), np.insert(eq, 0, 0)
    w, eq = np.append(w, _parent_array([q], bound)), np.append(eq, 0)
    lt = np.cumsum(eq) - eq
    below = _parent_array(lt, bound) * q
    below -= _parent_array(w, bound) * T
    upto = _parent_array(eq, bound) * q
    upto += below
    ends = np.stack((below, upto), axis=1).ravel()[:-1]
    top, bottom = ends.max(), ends.min()
    x = int(np.argmax((ends == top) | (ends == bottom)))
    other = bottom if ends[x] == top else top
    y = x + 1 + int(np.argmax(ends[x + 1 :] == other))
    y += bool(y % 2 == 0 and y + 1 < len(ends) and ends[y + 1] == other)
    i, j, lc, rc = x // 2, y // 2, x % 2 == 0, y % 2 == 1
    L = Fraction(int(top - bottom), q)
    radius = 2 * T * worst
    if not (1 - radius <= L <= T + radius):
        raise InvariantViolation(f"discrepancy {L} outside [1, T={T}]")
    return DiscrepancyReport(T, L, radius, (Fraction(int(w[i]), q), Fraction(int(w[j]), q), lc, rc))


def _near_rational(rng, k):
    """gamma within 2^-k of p/r on the grid r 2^k: the points n gamma with
    equal n p mod r lie within T 2^-k of each other, so at T Q >= 2^62 they
    share a key; half of them carry a radius."""
    r = rng.randint(2, 12)
    p = rng.randrange(1, r)
    mid = Fraction(p * 2**k + rng.choice([-1, 1]) * rng.randint(1, 3), r * 2**k)
    return Real(mid, rng.choice([Fraction(0), Fraction(1, 2 ** (2 * k))]))


def _differential_orbits(rng):
    """(label, points): the orbits and point sets the scan is checked on."""
    for name in CONSTANTS:
        for bits in (64, 128, 256, 1024, 4096):
            for T in (rng.randint(1, 300), rng.randint(300, 4000)):
                gamma = Real.parse(name, bits) * Fraction(rng.randint(1, 30), rng.randint(1, 30))
                yield f"{name}@{bits}", gamma, T
    for t in range(0, 14, 2):
        T = 1 << t
        for Q in ((1 << 62 - t) - 1, 1 << 62 - t, (1 << 62 - t) + 1):  # T Q below, at, above 2^62
            yield "2^62", Real(Fraction(rng.randrange(1, 5 * Q), Q)), T
    for _ in range(20):
        Q = rng.choice([rng.randint(2, 10**6), rng.randint(1 << 60, 1 << 70),
                        rng.randint(1 << 1024, 1 << 1100)])
        yield "rational", Real(Fraction(rng.randrange(1, 5 * Q), Q)), rng.randint(1, 4000)
    for _ in range(20):  # T past the period: every point repeats
        Q = rng.randint(1, 60)
        yield "repeated", Real(Fraction(rng.randrange(0, 5 * Q), Q)), rng.randint(Q, 2000)
    for _ in range(30):
        yield "near-rational", _near_rational(rng, rng.choice([70, 200, 1100])), rng.randint(2, 2000)
    for _ in range(30):
        yield "near-integer", *_near_integer_point(rng)


def _near_integer_point(rng):
    """(gamma, T) with n gamma within 2^-e of an integer, or on one, for
    some n <= T: gamma = (k 2^e + d) / (n 2^e), |d| <= 2, e far past the
    bits of the orbit's fixed-point reading, so that point's reading may
    wrap past 1; half of them carry a radius."""
    T, e = rng.randint(2, 3000), rng.choice([80, 300])
    n = rng.randint(1, T)
    mid = Fraction(rng.randrange(1, 5 * n) * 2**e + rng.randint(-2, 2), n * 2**e)
    return Real(mid, rng.choice([Fraction(0), Fraction(1, 2 ** (2 * e))])), T


def _undecided_by_keys(points):
    """Whether the 62-bit fixed-point keys the scan sorts on leave two
    distinct points within one unit of each other, so that their order is
    read from the exact residues."""
    nums, q, _ = points
    if len(nums) * q < 1 << 62:
        return False
    if isinstance(nums, _kernels.KeyedInts):
        keys = nums.keys
    else:
        keys = _kernels.fixed_point_keys(nums, q, 1 << 62)
    pairs = sorted(zip(keys.tolist(), (int(v) for v in nums)))
    return any(k - j <= 1 and u != v for (j, u), (k, v) in zip(pairs, pairs[1:]))


def _differential_points(rng):
    for label, gamma, T in _differential_orbits(rng):
        try:
            yield label, fractional_orbit(gamma, T)
        except IndeterminateComparison:
            pass
    for _ in range(40):  # few distinct values, 0 and q - 1 among them, on a large grid
        q = rng.choice([rng.randint(2, 100), rng.randint(1 << 62, 1 << 64),
                        rng.randint(1 << 1024, 1 << 1030)])
        pool = [0, q - 1] + [rng.randrange(q) for _ in range(rng.randint(0, 5))]
        pool += [min(v + d, q - 1) for v in pool for d in (1, 2)]  # neighbours share keys
        nums = [rng.choice(pool) for _ in range(rng.randint(1, 300))]
        yield "pool", ScaledPoints(nums, q, Fraction(0))
    yield "empty", ScaledPoints([], 7, Fraction(0))


def _report_or_raise(fn, points):
    try:
        return fn(points)
    except (DomainError, InvariantViolation) as exc:
        return type(exc), str(exc)


class TestDiscrepancy:
    def test_matches_the_object_scan(self):
        # the same report, or the same exception, as the scan over every end
        rng = random.Random(39)
        kinds, tied = Counter(), 0
        for label, points in _differential_points(rng):
            nums, q, _ = points
            before = [int(v) for v in nums]
            got = _report_or_raise(discrepancy_L, points)
            assert [int(v) for v in nums] == before, label  # the points stay as given
            assert got == _report_or_raise(discrepancy_object_parent, points), label
            kinds[label] += 1
            tied += _undecided_by_keys(points)
        assert len(kinds) == 3 * 5 + 7 and tied > 30, (kinds, tied)

    def test_keys_a_unit_low_are_ordered_exactly(self):
        # an orbit's key is floor(v 2^62 / q) or one less: points around a
        # key boundary, some keyed one unit low, give the same report as the
        # exact scan; so do sets whose least point is keyed 0 but is not 0
        rng = random.Random(40)
        for _ in range(200):
            q = rng.choice([rng.randint(1 << 100, 1 << 101), rng.randint(1 << 1100, 1 << 1101)])
            bounds = [-(-g * q >> 62) for g in (rng.randrange(1, 1 << 62), rng.randrange(1, 8))]
            pool = [max(b + d, 1) for b in bounds for d in range(-3, 4)] + [q - 1, q - 2]
            values = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
            keys = np.array([max((v << 62) // q - rng.randint(0, 1), 0) for v in values])
            read = np.asarray(values, dtype=object).__getitem__
            points = ScaledPoints(_kernels.KeyedInts(keys, 1 << 62, read), q, Fraction(0))
            want = discrepancy_object_parent(ScaledPoints(values, q, Fraction(0)))
            assert discrepancy_L(points) == want

    def test_single_point(self):
        rep = discrepancy_L(scaled([E(1, 2)]))
        assert rep.L_value == 1 and rep.L_radius == 0
        assert rep.witness == (Fraction(1, 2), Fraction(1, 2), True, True)

    def test_uniform_grid(self):
        rep = discrepancy_L(scaled([E(0), E(1, 4), E(1, 2), E(3, 4)]))
        assert rep.L_value == 1

    def test_two_points(self):
        rep = discrepancy_L(scaled([E(0), E(1, 2)]))
        assert rep.L_value == 1

    def test_witness_attains_value(self):
        rng = random.Random(31)
        for _ in range(60):
            T = rng.randint(1, 12)
            fracs = [Fraction(rng.randint(0, 29), 30) for _ in range(T)]
            rep = discrepancy_L(scaled([Real.exact(f) for f in fracs]))
            left, right, lc, rc = rep.witness
            cnt = sum(
                1
                for f in fracs
                if (left <= f if lc else left < f) and (f <= right if rc else f < right)
            )
            assert abs(cnt - T * (right - left)) == rep.L_value

    def test_matches_interval_supremum(self):
        rng = random.Random(32)
        for _ in range(40):
            T = rng.randint(1, 9)
            fracs = [Fraction(rng.randint(0, 17), 18) for _ in range(T)]
            rep = discrepancy_L(scaled([Real.exact(f) for f in fracs]))
            assert rep.L_value == brute_L(fracs)

    def test_refining_candidates_never_increases(self):
        rng = random.Random(33)
        for _ in range(10):
            T = rng.randint(2, 10)
            q = 120
            nums = [rng.randint(0, q - 1) for _ in range(T)]
            base = discrepancy_L(ScaledPoints(nums, q, Fraction(0))).L_value
            # refine by scaling the grid 16x and adding random extra endpoints:
            # counts at non-data endpoints cannot beat data endpoints
            scaled = [n * 16 for n in nums]
            refined = discrepancy_L(ScaledPoints(scaled, q * 16, Fraction(0))).L_value
            assert refined == base

    def test_permutation_and_shift_invariance(self):
        rng = random.Random(34)
        fracs = [Fraction(rng.randint(0, 100), 101) for _ in range(8)]
        rep = discrepancy_L(scaled([Real.exact(f) for f in fracs]))
        shuffled = list(fracs)
        rng.shuffle(shuffled)
        rep2 = discrepancy_L(scaled([Real.exact(f + rng.randint(-3, 3)) for f in shuffled]))
        assert rep.L_value == rep2.L_value

    def test_bounds(self):
        rng = random.Random(35)
        for _ in range(30):
            T = rng.randint(1, 20)
            pts = [E(rng.randint(0, 50), 51) for _ in range(T)]
            rep = discrepancy_L(scaled(pts))
            assert 1 <= rep.L_value <= T

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            discrepancy_L(ScaledPoints([], 1, Fraction(0)))

    def test_heterogeneous_denominators_stay_exact(self):
        pts = [E(1, 10**6 + 3), E(1, 7), E(3, 13), E(1, 2)]
        rep = discrepancy_L(scaled(pts))
        assert rep.L_radius == 0
        assert rep.L_value == brute_L([p.mid for p in pts])

    def test_approximate_points_carry_radius(self):
        pts = [Real.approx(Fraction(i, 7) % 1, Fraction(1, 10**20)) for i in range(1, 6)]
        rep = discrepancy_L(scaled(pts))
        assert rep.L_radius > 0
        exact = discrepancy_L(scaled([E(i % 7, 7) for i in range(1, 6)]))
        assert abs(rep.L_value - exact.L_value) <= rep.L_radius + exact.L_radius


def _rhs_cases():
    """(gamma, values of the true gamma inside it, T, G)."""
    rng = random.Random(38)
    for g, q in PRODUCT_LIMIT_CASES:
        M = rng.randrange(1, q)
        yield pytest.param(E(M, q), [Fraction(M, q)], 300, g, id=f"limit-{g}")
    q = (1 << 64) + 13
    M = rng.randrange(1, q)
    yield pytest.param(E(M, q), [Fraction(M, q)], 300, 10, id="Q>=2^64")
    # 4 gamma and 8 gamma are integers: those sums are T
    yield pytest.param(E(3, 4), [Fraction(3, 4)], 10, 8, id="integer")
    # T c = 0 mod Q for every c: every sum vanishes
    yield pytest.param(E(1, 7), [Fraction(1, 7)], 7, 6, id="vanishing")
    # the orbits of acceptance criterion 6: a named constant times a/c
    for name, const in CONSTANTS.items():
        for bits in (64, 128, 256):
            a, c = rng.randint(1, 30), rng.randint(1, 30)
            yield pytest.param(Real.parse(name, bits) * Fraction(a, c),
                               [lambda const=const, a=a, c=c: const() * a / c], 200, 20,
                               id=f"{name}-{bits}")
    # 3 gamma straddles 1, so the g = 3 term is clamped to [0, T]; at the
    # ends of gamma that term is 2 cos(0.03 pi), well below T = 2
    rad = Fraction(1, 100)
    yield pytest.param(Real(Fraction(1, 3), rad),
                       [Fraction(1, 3) + d for d in (-rad, rad / 2, 0, rad)], 2, 3, id="straddle")
    # ||g gamma|| is tiny but not 0: the quotient's upper end exceeds T
    gamma = Real(Fraction(1, 2**20), Fraction(1, 2**21))
    yield pytest.param(gamma, [gamma.lo, gamma.mid, gamma.hi], 1000, 5, id="near-0")


def parent_weyl_sum_bounds(gamma: Real, T: int, g: int) -> tuple:
    """``_weyl_sum_bounds`` as the Fraction code computed it."""
    w = parent_dist_of_multiple(gamma, g)
    if w.hi == 0:
        return (T, 1), (T, 1)
    if w.lo == 0:
        return (0, 1), (T, 1)
    a = parent_dist_of_multiple(gamma, T * g)
    a_lo, a_hi = parent_sin_pi_interval(a.lo, a.hi)
    w_lo, w_hi = parent_sin_pi_interval(w.lo, w.hi)
    hi = (a_hi.numerator * w_lo.denominator, a_hi.denominator * w_lo.numerator)
    if hi[0] > T * hi[1]:
        hi = (T, 1)
    return (a_lo.numerator * w_hi.denominator, a_lo.denominator * w_hi.numerator), hi


def parent_et_rhs(gamma: Real, T: int, G: int) -> Real:
    """The Erdos-Turan right side as the Fraction code computed it."""
    pi_lo, pi_hi = expsum.pi_bounds()
    c_lo, c_hi = 2 + 2 / pi_hi, 2 + 2 / pi_lo
    one = 1 << 64
    sum_lo = sum_hi = 0
    for g in range(1, G + 1):
        (lo, lo_den), (hi, hi_den) = parent_weyl_sum_bounds(gamma, T, g)
        sum_lo += c_lo.numerator * lo * one // (c_lo.denominator * lo_den * g)
        sum_hi -= c_hi.numerator * hi * one // -(c_hi.denominator * hi_den * g)
    fixed = Fraction(T, G + 1)
    return Real.from_interval(fixed + Fraction(sum_lo, one), fixed + Fraction(sum_hi, one))


class TestErdosTuran:
    @pytest.mark.parametrize("gamma", [E(5, 313), Real.parse("pi", 128)])
    def test_builds_no_fraction_or_real_per_term(self, gamma, monkeypatch):
        few, many = (count_builds(monkeypatch, erdos_turan_check, gamma, 200, G) for G in (5, 500))
        assert few == many

    def test_matches_the_fraction_code(self):
        rng = random.Random(44)
        for _ in range(300):
            if rng.random() < 0.5:
                q = rng.choice([rng.randint(1, 50), rng.randint(2, 10**6), rng.randint(2, 2**70)])
                gamma = E(rng.randrange(q), q)
            else:
                gamma = Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.choice([64, 128, 256]))
                gamma = gamma * Fraction(rng.randint(1, 30), rng.randint(1, 30))
            T, G = rng.randint(1, 400), rng.randint(1, 40)
            rep = erdos_turan_check(gamma, T, G)
            rhs = parent_et_rhs(gamma, T, G)
            assert rep.et_rhs == rhs
            assert rep.slack == rhs - Real(rep.L_value, rep.L_radius)
            for g in (1, G):
                got = discrepancy._weyl_sum_bounds(gamma, T, g)
                want = parent_weyl_sum_bounds(gamma, T, g)
                assert [Fraction(*e) for e in got] == [Fraction(*e) for e in want]

    def test_single_point(self):
        rep = erdos_turan_check(E(1, 2), 1, 1)
        assert rep.L_value == 1
        assert rep.et_rhs.lo > 3 and rep.et_rhs.hi < Fraction(32, 10)
        assert rep.slack.lo > 2

    def test_full_period_orbit(self):
        rep = erdos_turan_check(E(1, 7), 7, 6)
        assert rep.L_value == 1
        # all inner sums vanish, so the rhs collapses to T/(G+1) = 1
        assert abs(float(rep.et_rhs.mid) - 1.0) < 1e-9

    def test_degenerate_sequence(self):
        rep = erdos_turan_check(E(0), 10, 3)
        assert rep.L_value == 10
        assert rep.et_rhs.lo > 50 and rep.et_rhs.hi < 51

    def test_holds_on_random_orbits(self):
        rng = random.Random(36)
        for _ in range(25):
            q = rng.randint(2, 10**5)
            gamma = E(rng.randint(1, q - 1), q)
            T = rng.randint(1, 300)
            for G in (1, 7):
                rep = erdos_turan_check(gamma, T, G)
                assert rep.L_value - rep.L_radius <= rep.et_rhs.hi

    def test_irrational_orbit(self):
        gamma = Real.parse("sqrt2")
        rep = erdos_turan_check(gamma, 200, 5)
        assert rep.L_radius > 0
        assert rep.L_value - rep.L_radius <= rep.et_rhs.hi
        # the golden-standard equidistributed sequence keeps L small
        assert rep.L_value < 20

    @pytest.mark.parametrize("gamma, trues, T, G", _rhs_cases())
    def test_rhs_encloses_the_direct_sum_over_the_true_orbit(self, gamma, trues, T, G):
        rhs = erdos_turan_check(gamma, T, G).et_rhs
        for value in trues:
            assert encloses(rhs, et_rhs_reference(true_orbit(value, T), G))
        # no term exceeds the trivial bound |sum| <= T
        pi_lo, _ = expsum.pi_bounds()
        trivial = Fraction(T, G + 1) + (2 + 2 / pi_lo) * T * sum(Fraction(1, g) for g in range(1, G + 1))
        assert rhs.hi <= trivial + Fraction(G, 2**64)

    def test_tiny_gamma_has_no_zero_sine(self):
        # float(10^-400) is 0: the closed form must not divide by it
        gamma = E(1, 10**400)
        rhs = erdos_turan_check(gamma, 5, 1).et_rhs
        assert encloses(rhs, et_rhs_reference(true_orbit(gamma.mid, 5), 1))
        assert rhs.rad < Fraction(1, 2**40)

    @pytest.mark.parametrize("gamma, T, G", [(E(1, 7), 7, 6), (E(5, 313), 300, 40),
                                              (Real.parse("pi"), 200, 25)])
    def test_rounded_rhs_encloses_the_exact_sum(self, gamma, T, G):
        rhs = erdos_turan_check(gamma, T, G).et_rhs
        true = (lambda: +mpmath.pi) if gamma.rad else gamma.mid
        assert encloses(rhs, et_rhs_reference(true_orbit(true, T), G))
        assert rhs.rad < Fraction(1, 2**30)
        assert rhs.lo.denominator <= (G + 1) * 2**64 and rhs.hi.denominator <= (G + 1) * 2**64

    @pytest.mark.parametrize("gamma", [E(355, 113), Real.parse("pi")])
    def test_two_distance_reads_per_term_and_no_trig_sum(self, gamma, monkeypatch):
        assert not {"_trig_sum", "_magnitude", "cos_sin_sum"} & vars(discrepancy).keys()

        def no_trig_sum(*args):
            raise AssertionError("cos_sin_sum called")

        monkeypatch.setattr(_kernels, "cos_sin_sum", no_trig_sum)
        monkeypatch.setattr(expsum, "cos_sin_sum", no_trig_sum)
        reads = []
        read = discrepancy.dist_ends_of_multiple
        monkeypatch.setattr(discrepancy, "dist_ends_of_multiple",
                            lambda g, n: reads.append(n) or read(g, n))
        for T in (7, 2000):
            reads.clear()
            erdos_turan_check(gamma, T, 50)
            assert 50 <= len(reads) <= 100

    @pytest.mark.parametrize("gamma, T, g, want", [
        # ||7 gamma|| reaches 0 inside the enclosure: the term is clamped to
        # [0, T], and at mid +- rad the sum is about 5.983, below T = 6
        (Real(Fraction(1, 7), Fraction(1, 1000)), 6, 7, (0, 6)),
        (E(3, 4), 10, 4, (10, 10)),  # 4 gamma is an integer
        (Real(Fraction(1, 7), Fraction(1, 1000)), 6, 2, None),  # unclamped
    ])
    def test_weyl_sum_bounds_contain_the_200_bit_sum(self, gamma, T, g, want):
        fractional_orbit(gamma, T)  # the orbit builds
        lo, hi = (Fraction(*q) for q in discrepancy._weyl_sum_bounds(gamma, T, g))
        if want:
            assert (lo, hi) == want
        else:
            assert 0 < lo <= hi < T
        for value in (gamma.lo, gamma.mid, gamma.hi):
            assert encloses(Real.from_interval(Fraction(lo), Fraction(hi)), weyl_sum_200(value, T, g))

    def test_bad_G(self):
        with pytest.raises(DomainError):
            erdos_turan_check(E(1, 2), 1, 0)

    def test_builds_its_orbit_before_reading_G(self):
        with pytest.raises(DomainError, match="need T >= 1"):
            erdos_turan_check(E(1, 2), 0, 0)
        with pytest.raises(ResourceLimit, match="exceeds the cap 10"):
            erdos_turan_check(E(1, 7), 11, 0, cap=10)
        assert erdos_turan_check(E(1, 7), 10, 1, cap=10).T == 10


class TestFractionalOrbit:
    def test_matches_the_two_branch_orbit(self):
        # same points, or the same exception at the same point
        rng = random.Random(37)
        raised = 0
        for _ in range(3000):
            Q = rng.choice([1, rng.randint(2, 50), rng.randint(2, 2**40), 2**rng.randint(1, 70)])
            mid = Fraction(rng.randint(-3 * Q, 3 * Q), Q)
            rad = rng.choice([Fraction(0), Fraction(1, 2**rng.randint(1, 80)),
                              Fraction(rng.randint(1, 99), rng.randint(100, 10**6))])
            gamma, T = Real(mid, rad), rng.randint(1, 20)
            want = _outcome(scaled_two_branch, gamma, T)
            assert _outcome(fractional_orbit, gamma, T) == want
            raised += not isinstance(want, ScaledPoints)
        assert 300 < raised < 2700

    @pytest.mark.parametrize("name", ["sqrt2", "pi", "e"])
    @pytest.mark.parametrize("bits", [64, 128, 256])
    def test_matches_the_two_branch_orbit_on_scaled_constants(self, name, bits):
        # the orbits of acceptance criterion 6: a named constant times a/c
        rng = random.Random(f"{name}{bits}")
        for T in (100, 2000):
            for _ in range(2):
                gamma = Real.parse(name, bits) * Fraction(rng.randint(1, 30), rng.randint(1, 30))
                want = _outcome(scaled_two_branch, gamma, T)
                assert _outcome(fractional_orbit, gamma, T) == want

    @pytest.mark.parametrize("name", ["sqrt2", "pi", "e"])
    @pytest.mark.parametrize("bits", [64, 128, 256])
    @pytest.mark.parametrize("T", [100, 2000])
    def test_radius_follows_the_precision(self, name, bits, T):
        # every point is within n rad, so the discrepancy is within 2 T^2 rad
        rng = random.Random(f"{name}{bits}{T}")
        a, c = rng.randint(1, 30), rng.randint(1, 30)
        gamma = Real.parse(name, bits) * Fraction(a, c)
        rep = discrepancy_L(fractional_orbit(gamma, T))
        assert rep.L_radius == 2 * T * T * gamma.rad
        ref = true_orbit(lambda: CONSTANTS[name]() * a / c, T)
        L_ref = discrepancy_L(scaled([Real.exact(exact_mpf(x)) for x in ref])).L_value
        # four roundings at 300 bits put each reference point within T |gamma| 2^-298
        ref_err = Fraction(T * (math.floor(gamma.hi) + 1), 2**298)
        assert abs(L_ref - rep.L_value) <= rep.L_radius + 2 * T * ref_err

    def test_enclosure_touching_zero_passes(self, monkeypatch):
        gamma = Real(Fraction(1, 3), Fraction(1, 3))  # point 1 is [0, 2/3]
        want = scaled_two_branch(gamma, 1)
        # the integer test alone passes it; frac is only the raising fallback
        monkeypatch.setattr(exact, "frac", None)
        got = by_value(fractional_orbit(gamma, 1))
        assert got == want == ScaledPoints([1], 3, Fraction(1, 3))

    def test_enclosure_reaching_one_raises(self):
        gamma = Real(Fraction(2, 3), Fraction(1, 3))  # point 1 is [1/3, 1]
        want = _outcome(scaled_two_branch, gamma, 1)
        assert want[0] is IndeterminateComparison
        assert _outcome(fractional_orbit, gamma, 1) == want

    def test_snap_clamps_below_one(self):
        mid, rad = 1 - Fraction(1, 2**52), Fraction(1, 2**60)
        got = by_value(fractional_orbit(Real(mid, rad), 1))
        assert got == scaled_two_branch(Real(mid, rad), 1)
        # no rounding: the point keeps its residue Q - 1 on Q = 2^52
        assert got == ScaledPoints([2**52 - 1], 2**52, rad)

    def test_exact_points_are_residues(self):
        assert by_value(fractional_orbit(E(-5, 12), 13)) == ScaledPoints(
            [-5 * n % 12 for n in range(1, 14)], 12, Fraction(0))

    def test_enclosure_orbit_keeps_no_real_per_point(self):
        gamma, T = Real.parse("pi", 128), 10**5
        tracemalloc.start()
        try:
            pts = fractional_orbit(gamma, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pts.nums) == T and peak <= 64 * T

    @pytest.mark.parametrize("bits", [128, 4096])
    def test_orbit_reaches_the_cap_at_every_precision(self, bits):
        # every orbit has the one cap: 10^6 points of pi peak at 78 B a point
        # at 128 and at 4096 bits (a 142- and a 4111-bit Q), keys and scan
        # tables only, against 122 B a point for 2^17 points of pi@128 when
        # the orbit held one Python int per point
        gamma, T = Real.parse("pi", bits), 10**6
        with pytest.raises(ResourceLimit, match=f"orbit of {T + 1} points exceeds the cap {T}$"):
            fractional_orbit(gamma, T + 1, cap=T)
        tracemalloc.start()
        try:
            rep = discrepancy_L(fractional_orbit(gamma, T))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.T == T and peak <= 122 * T

    def test_bad_T(self):
        with pytest.raises(DomainError):
            fractional_orbit(E(1, 3), 0)
