import math
import pathlib
import random
import re
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import finf, fninf, fone, from_int, fzero, round_ceiling, round_floor
from mpmath.libmp.libmpi import mpi_div, mpi_log
from hypothesis import given, settings
from hypothesis import strategies as st
from iv_reference import mpf_to_fraction

from radixapprox import adversary, constants, expsum
from radixapprox.errors import DomainError, IndeterminateComparison
from radixapprox.exact import (
    Real,
    _raw_to_fraction,
    _real_of_ends,
    cos_bound_margin,
    dist_exact,
    dist_ends_of_multiple,
    dist_le_of_multiple,
    dist_of_multiple,
    dist_to_nearest_int,
    frac,
    frac_ends_of_multiple,
    frac_of_multiple,
    mpi_of_int,
    mpi_to_real,
    parse_rational,
    residue_of_multiple,
)

fractions = st.fractions(max_denominator=10**6)


class TestDistance:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(-3, 10), Fraction(3, 10)),
            (Fraction(13, 26), Fraction(1, 2)),
            (Fraction(0), Fraction(0)),
            (Fraction(7, 3), Fraction(1, 3)),
        ],
    )
    def test_examples(self, x, expected):
        assert dist_to_nearest_int(Real.exact(x)).mid == expected

    @given(fractions, st.integers(-10**9, 10**9))
    def test_integer_shift_invariance(self, x, m):
        assert dist_exact(x + m) == dist_exact(x)

    @given(fractions)
    def test_range_and_zero_iff_integer(self, x):
        d = dist_exact(x)
        assert 0 <= d <= Fraction(1, 2)
        assert (d == 0) == (x.denominator == 1)

    @given(fractions)
    def test_symmetry(self, x):
        assert dist_exact(-x) == dist_exact(x)

    def test_enclosure_is_exact_range(self):
        # interval [0.24, 0.26] maps to [0.24, 0.26]; [0.9, 1.1] contains an
        # integer so the distance range starts at 0
        d = dist_to_nearest_int(Real.from_interval(Fraction(24, 100), Fraction(26, 100)))
        assert (d.lo, d.hi) == (Fraction(24, 100), Fraction(26, 100))
        d = dist_to_nearest_int(Real.from_interval(Fraction(9, 10), Fraction(11, 10)))
        assert d.lo == 0 and d.hi == Fraction(1, 10)
        d = dist_to_nearest_int(Real.from_interval(Fraction(4, 10), Fraction(6, 10)))
        assert d.lo == Fraction(4, 10) and d.hi == Fraction(1, 2)


class TestFrac:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(7, 5), Fraction(2, 5)),
            (Fraction(-1, 4), Fraction(3, 4)),
            (Fraction(3), Fraction(0)),
            (Fraction(-7, 5), Fraction(3, 5)),
            (Fraction(-3), Fraction(0)),
        ],
    )
    def test_examples(self, x, expected):
        assert frac(Real.exact(x)) == Real(expected)

    @given(fractions)
    def test_difference_is_integer(self, x):
        f = frac(Real.exact(x))
        assert f.is_exact and 0 <= f.mid < 1
        assert (x - f.mid).denominator == 1

    def test_ball_straddling_integer_raises(self):
        with pytest.raises(IndeterminateComparison):
            frac(Real.approx(Fraction(1), Fraction(1, 100)))

    def test_ball_inside_unit_interval(self):
        f = frac(Real.approx(Fraction(5, 2), Fraction(1, 10)))
        assert f.mid == Fraction(1, 2) and f.rad == Fraction(1, 10)


class TestComparisons:
    def test_exact_always_decidable(self):
        assert Real.exact(1) < Real.exact(2)
        assert not Real.exact(2) < Real.exact(2)
        assert Real.exact(2) <= Real.exact(2)

    def test_overlap_raises(self):
        a = Real.approx(0, Fraction(1, 10))
        b = Real.approx(Fraction(1, 100), Fraction(1, 10))
        with pytest.raises(IndeterminateComparison):
            a < b  # noqa: B015

    def test_disjoint_decides(self):
        a = Real.approx(0, Fraction(1, 10))
        assert a < Real.exact(1)
        assert not a > Real.exact(1)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            Real.approx(0, -1)


class TestBallArithmetic:
    @given(fractions, fractions)
    def test_mul_scalar(self, x, c):
        v = Real.approx(x, Fraction(1, 7)) * c
        assert v.mid == x * c and v.rad == Fraction(1, 7) * abs(c)

    @pytest.mark.parametrize("c", [Fraction(3, 2), Fraction(-5, 3), Fraction(0)])
    def test_exact_factor_gives_the_corner_product(self, c):
        e = Real.approx(Fraction(7, 11), Fraction(1, 9))
        corners = [a * c for a in (e.mid - e.rad, e.mid + e.rad)]
        expected = Real.from_interval(min(corners), max(corners))
        assert expected == Real(e.mid * c, abs(c) * e.rad)
        assert Real.exact(c) * e == expected
        assert e * Real.exact(c) == expected

    def test_interval_product_contains_truth(self):
        a = Real.from_interval(Fraction(-1), Fraction(2))
        b = Real.from_interval(Fraction(-3), Fraction(1, 2))
        prod = a * b
        for x in (Fraction(-1), Fraction(0), Fraction(2)):
            for y in (Fraction(-3), Fraction(0), Fraction(1, 2)):
                assert prod.lo <= x * y <= prod.hi

    def test_parse(self):
        assert Real.parse("7/5").mid == Fraction(7, 5)
        assert Real.parse("0.25").mid == Fraction(1, 4)
        s = Real.parse("sqrt2", precision_bits=96)
        assert not s.is_exact
        assert s.lo**2 < 2 < s.hi**2
        with pytest.raises(DomainError):
            Real.parse("one third")

    def test_parse_keeps_exponents_within_the_int_string_limit(self):
        assert Real.parse("1.5e-4000") == Real(Fraction(3, 2 * 10**4000))
        assert parse_rational(" -2E+4_300 ") == -2 * 10**4300
        assert parse_rational("1_0e-0_2") == Fraction(1, 10)
        # 10**exponent is never built: each refusal is immediate
        for text in ("1e-9999999999999", "1e4301", "-1.5E-4301", "1e+99999", "7e" + "9" * 5000):
            with pytest.raises(DomainError, match="cannot parse"):
                parse_rational(text)
        for text in ("1/0", "sqrt2", "1/3e5", ""):
            with pytest.raises(DomainError, match=f"cannot parse {text!r} as a number"):
                parse_rational(text)


class TestIntervals:
    def test_mpi_to_real_keeps_the_endpoints(self):
        r = mpi_to_real(mpi_div(mpi_of_int(1, 80), mpi_of_int(3, 80), 80))
        assert r.lo < Fraction(1, 3) < r.hi and r.rad < Fraction(1, 2**79)
        with mpmath.workprec(80):
            assert mpf_to_fraction(mpmath.mpf(1) / 3) in (r.lo, r.hi)

    def test_mpi_to_real_is_the_interval_of_its_ends(self):
        ends = [fzero, fone, from_int(-3), from_int(3 << 90), mpi_log((fone, from_int(7)), 64)[1],
                mpi_div(mpi_of_int(-1, 80), mpi_of_int(3, 80), 80)[0]]
        for a in ends:
            for b in ends:
                lo, hi = _raw_to_fraction(a), _raw_to_fraction(b)
                if lo <= hi:
                    assert mpi_to_real((a, b)) == Real.from_interval(lo, hi)
                else:
                    with pytest.raises(DomainError):
                        mpi_to_real((a, b))

    def test_mpi_of_int_rounds_outward_past_the_precision(self):
        for n in (0, 1, -3, 2**80 - 1, 2**80, 2**80 + 1, -(2**81 + 3), 10**40):
            for prec in (2, 53, 80, 81):
                assert mpi_of_int(n, prec) == (
                    from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)), (n, prec)

    @pytest.mark.parametrize("make", [
        lambda: (fninf, fone),
        lambda: (fzero, finf),
        lambda: mpi_log((fzero, fone), 80),
    ], ids=["below", "above", "log-of-zero"])
    def test_mpi_to_real_refuses_unbounded_intervals(self, make):
        with pytest.raises(DomainError):
            mpi_to_real(make())


def test_src_sets_no_mpmath_precision():
    """Every interval in the library comes from libmp's primitives at an
    explicit precision: no module names the interval context, a precision
    context manager, or writes a context's precision."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "radixapprox"
    banned = re.compile(r"mpmath\.iv|workprec|iv_precision|\.prec\s*=|\.dps\s*=")
    for path in sorted(src.glob("*.py")):
        assert not banned.findall(path.read_text(encoding="utf-8")), path.name


_CONSTS_3 = constants.compute_constants(3)

# every public function that evaluates an interval, with the module whose
# mpi_to_real its body goes through
_IV_CALLERS = [
    ("cos_margin", None, lambda: cos_bound_margin(Real.exact(Fraction(1, 3)))),
    ("pi_bounds", expsum, lambda: expsum.pi_bounds()),
    ("decay", expsum, lambda: expsum.decay_bound_check(2, 1, 1, 2, Real.exact(Fraction(2, 5)))),
    ("adversary", adversary, lambda: adversary.adversarial_gamma(3, 100)),
    ("constants", constants, lambda: constants.compute_constants(3)),
    ("approx-bound", constants,
     lambda: constants.approximation_bound(_CONSTS_3, 10**6)),
    ("parse", None, lambda: Real.parse("pi", 200)),
]


def _mpmath_state():
    # mpmath keeps mp's rounding mode beside its precision, in _prec_rounding
    return mpmath.mp.prec, mpmath.mp._prec_rounding[1], mpmath.iv.prec


@pytest.fixture
def odd_mpmath_state(monkeypatch):
    """Precisions and a rounding that no caller uses, so that a caller which
    set or read them would show."""
    monkeypatch.setattr(mpmath.iv, "prec", 61)
    monkeypatch.setattr(mpmath.mp, "prec", 59)
    rounding = mpmath.mp._prec_rounding[1]
    mpmath.mp._prec_rounding[1] = "f"
    try:
        yield _mpmath_state()
    finally:
        mpmath.mp._prec_rounding[1] = rounding


@pytest.mark.parametrize("call", [c[2] for c in _IV_CALLERS], ids=[c[0] for c in _IV_CALLERS])
def test_public_functions_leave_iv_prec_unchanged(odd_mpmath_state, call):
    expsum.pi_bounds.cache_clear()
    call()
    assert _mpmath_state() == odd_mpmath_state


@pytest.mark.parametrize("name, module, call", _IV_CALLERS, ids=[c[0] for c in _IV_CALLERS])
def test_iv_prec_is_restored_when_the_body_raises(monkeypatch, odd_mpmath_state, name, module, call):
    import radixapprox.exact as exact

    def boom(*args):
        raise RuntimeError("interval body failed")

    expsum.pi_bounds()  # cached, so only the pi_bounds case evaluates pi under the patch
    if name == "pi_bounds":
        expsum.pi_bounds.cache_clear()
    if name == "parse":
        monkeypatch.setattr(exact, "_raw_to_fraction", boom)
    else:
        monkeypatch.setattr(module or exact, "mpi_to_real", boom)
    with pytest.raises(RuntimeError):
        call()
    assert _mpmath_state() == odd_mpmath_state


class TestCosMargin:
    def test_at_zero_both_sides_equal(self):
        m = cos_bound_margin(Real.exact(0))
        assert m.lo <= 0 <= m.hi and m.rad < Fraction(1, 10**20)

    def test_at_half(self):
        m = cos_bound_margin(Real.exact(Fraction(1, 2)))
        expected = 1 - math.pi / 4
        assert abs(float(m.mid) - expected) < 1e-15

    def test_at_quarter(self):
        # independent high-precision evaluation of 1 - pi/16 - cos(pi/4)
        m = cos_bound_margin(Real.exact(Fraction(1, 4)))
        assert abs(float(m.mid) - 0.0965436779640904) < 1e-12

    @given(fractions)
    @settings(max_examples=200)
    def test_never_negative(self, x):
        m = cos_bound_margin(Real.exact(x), precision_bits=64)
        assert m.lo >= -Fraction(1, 10**12)

    def test_precision_independent_enclosures_overlap(self):
        x = Real.exact(Fraction(3, 7))
        lo = cos_bound_margin(x, precision_bits=64)
        hi = cos_bound_margin(x, precision_bits=192)
        assert lo.lo <= hi.hi and hi.lo <= lo.hi
        assert hi.rad < lo.rad

    def test_integer_shifts_of_an_enclosure_give_the_same_margin(self):
        rng = random.Random(9)
        cases = [(Real(Fraction(1, 3), Fraction(1, 10**20)), 7)]
        for _ in range(30):
            q = rng.randint(2, 10**6)
            x = Real(Fraction(rng.randint(-3 * q, 3 * q), q), Fraction(1, 1 << rng.randint(10, 120)))
            cases.append((x, rng.randint(-10**6, 10**6)))
        for x, m in cases:
            assert cos_bound_margin(x + m) == cos_bound_margin(x)


def _reading(fn, *args):
    """(mid, rad) of a Real result, or the type and message of the raise."""
    try:
        x = fn(*args)
    except IndeterminateComparison as exc:
        return type(exc), str(exc)
    return x.mid, x.rad


def _multiple_cases(seed, count):
    """(gamma, n) with mids of both signs over dyadic and non-dyadic
    denominators, radii zero, tiny, moderate and >= 1/2, and n negative,
    zero, small and up to 10^30."""
    rng = random.Random(seed)
    for _ in range(count):
        Q = rng.choice([rng.randint(1, 60), 1 << rng.randint(0, 80), rng.randint(2, 10**25)])
        mid = Fraction(rng.randint(-4 * Q, 4 * Q), Q)
        rad = rng.choice([
            Fraction(0),
            Fraction(rng.randint(1, 9), 10 ** rng.randint(25, 45)),
            Fraction(1, 1 << rng.randint(40, 130)),
            Fraction(rng.randint(1, 999), rng.randint(1000, 10**7)),
            Fraction(rng.randint(1, 6), 2),
        ])
        n = rng.choice([
            0,
            rng.randint(-50, 50),
            rng.randint(-10**6, 10**6),
            rng.randint(-10**30, 10**30),
            rng.randint(1, 10**30),
        ])
        yield Real(mid, rad), n


def _dist_range_by_kinks(x):
    """Range of ||t|| over the enclosure x from its ends and kinks: 0 when
    an integer lies inside, 1/2 when a half-integer does, else the larger
    or smaller end value (the reference the closed form replaced)."""
    if x.rad >= Fraction(1, 2):
        return Real.from_interval(Fraction(0), Fraction(1, 2))
    lo, hi = x.lo, x.hi
    ends = [dist_exact(lo), dist_exact(hi)]
    has_int = math.ceil(lo) <= math.floor(hi)
    has_half = math.ceil(lo - Fraction(1, 2)) <= math.floor(hi - Fraction(1, 2))
    return Real.from_interval(
        Fraction(0) if has_int else min(ends), Fraction(1, 2) if has_half else max(ends))


class TestMultipleReadings:
    def test_distance_closed_form_matches_the_kink_reference(self):
        for gamma, n in _multiple_cases(9, 3000):
            x = gamma * n
            if x.is_exact:
                continue
            got, want = dist_to_nearest_int(x), _dist_range_by_kinks(x)
            assert (got.mid, got.rad) == (want.mid, want.rad)

    def test_match_frac_and_dist_of_the_product(self):
        raised = exact_cases = 0
        for gamma, n in _multiple_cases(8, 4000):
            want = _reading(lambda: frac(gamma * n))
            assert _reading(frac_of_multiple, gamma, n) == want
            assert _reading(dist_of_multiple, gamma, n) == _reading(
                lambda: dist_to_nearest_int(gamma * n))
            raised += isinstance(want[0], type)
            exact_cases += gamma.is_exact
        assert 600 < raised < 3000 and exact_cases > 500

    def test_integer_distance_ends_match_dist_of_the_product(self):
        # Q = 1, a negative mid and n, radii that clamp at 1/2, |n| = 2^70
        cases = [(Real(Fraction(0)), 5), (Real(Fraction(3), Fraction(1, 7)), -2),
                 (Real(Fraction(-5, 3), Fraction(1, 2)), 1), (Real(Fraction(1, 3), Fraction(1, 6)), 1),
                 (Real(Fraction(-7, 9), Fraction(1, 2**90)), -2**70), *_multiple_cases(10, 3000)]
        clamped = exact_cases = 0
        for gamma, n in cases:
            lo, hi = dist_ends_of_multiple(gamma, n)
            assert lo[1] > 0 and hi[1] > 0
            want = dist_to_nearest_int(gamma * n)
            assert (Fraction(*lo), Fraction(*hi)) == (want.lo, want.hi)
            clamped += hi == (1, 2)
            exact_cases += want.is_exact
        assert clamped > 300 and exact_cases > 500

    def test_integer_frac_ends_match_frac_of_the_product(self):
        raised = exact_cases = 0
        for gamma, n in _multiple_cases(13, 3000):
            want = _reading(lambda: frac(gamma * n))
            try:
                lo, hi = frac_ends_of_multiple(gamma, n)
            except IndeterminateComparison as exc:
                assert (type(exc), str(exc)) == want
                raised += 1
                continue
            assert lo[1] == hi[1] == gamma.mid.denominator * gamma.rad.denominator
            f = frac(gamma * n)
            assert (Fraction(*lo), Fraction(*hi)) == (f.lo, f.hi)
            exact_cases += f.is_exact
        assert 400 < raised < 2500 and exact_cases > 400

    def test_distance_against_a_bound_is_the_real_comparison(self):
        # bounds at random, at either end of the reading (touching) and
        # between them (straddling), 1/2 and 0; a straddle raises with the
        # Real comparison's message
        def outcome(compare, *args):
            try:
                return compare(*args)
            except IndeterminateComparison as exc:
                return type(exc), str(exc)

        rng = random.Random(14)
        tally = {True: 0, False: 0, IndeterminateComparison: 0}
        for gamma, n in _multiple_cases(15, 3000):
            d = dist_to_nearest_int(gamma * n)
            for bound in (Fraction(rng.randint(0, 10**6), 10**6), d.lo, d.hi, d.mid,
                          Fraction(1, 2), Fraction(0)):
                got = outcome(dist_le_of_multiple, gamma, n, bound)
                assert got == outcome(lambda: d <= Real(bound))
                tally[got if isinstance(got, bool) else got[0]] += 1
        assert min(tally.values()) > 1000, tally

    def test_exact_ends_are_the_midpoint(self):
        x = Real.exact(Fraction(3, 7))
        assert x.lo is x.mid and x.hi is x.mid
        y = Real.approx(Fraction(3, 7), Fraction(1, 7))
        assert (y.lo, y.hi) == (Fraction(2, 7), Fraction(4, 7))


# The scalar bodies that the n = 1 residue readings replaced, kept as the
# reference they must match.
def parent_frac(x: Real) -> Real:
    k_lo = x.lo.numerator // x.lo.denominator
    if x.hi - k_lo >= 1:
        raise IndeterminateComparison(
            f"fractional part of {x!r} straddles an integer boundary"
        )
    return Real(x.mid - k_lo, x.rad)


def parent_dist_to_nearest_int(x: Real) -> Real:
    w = dist_exact(x.mid)
    if not x.rad:
        return Real(w)
    return Real.from_interval(max(Fraction(0), w - x.rad), min(Fraction(1, 2), w + x.rad))


def gamma_near(rng, n: int, target: Fraction, kind: str) -> Real:
    """gamma with ||gamma n|| at target.  An "exact" gamma reads target
    exactly.  An "enclosure" is a named constant at 64 to 256 bits a fifth
    of the time; otherwise it has radius 2^-64 to 2^-256 and a midpoint that
    reads within n * rad of target, so the ends of ||gamma n|| straddle it
    or, a third of the time, touch it (and clamp at 1/2 for target 1/2)."""
    mid = Fraction(rng.randint(-3 * n, 3 * n) + rng.choice([1, -1]) * target, n)
    if kind == "exact":
        return Real(mid)
    if rng.random() < 0.2:
        return Real.parse(rng.choice(["sqrt2", "pi", "e"]), rng.randint(64, 256))
    rad = Fraction(1, 1 << rng.randint(64, 256))
    shift = rng.choice([Fraction(rng.randint(-999, 999), 1000), Fraction(rng.choice([1, -1]))])
    return Real(mid + rad * shift, rad)


def _scalar_cases(seed, count):
    """Exact and enclosure x with integer and non-integer mids of both
    signs, radii zero, tiny, moderate and >= 1/2, and a quarter built to
    reach an integer: mid = m + u with |u| <= rad, ends touching included."""
    rng = random.Random(seed)
    for _ in range(count):
        Q = rng.choice([1, rng.randint(2, 60), 1 << rng.randint(1, 80), rng.randint(2, 10**25)])
        rad = rng.choice([
            Fraction(0),
            Fraction(rng.randint(1, 9), 10 ** rng.randint(25, 45)),
            Fraction(rng.randint(1, 999), rng.randint(1000, 10**7)),
            Fraction(rng.randint(1, 6), 2),
        ])
        if rad and rng.random() < 0.25:
            mid = rng.randint(-9, 9) + rad * Fraction(rng.randint(-4, 4), 4)
        else:
            mid = Fraction(rng.randint(-4 * Q, 4 * Q), Q)
        yield Real(mid, rad)


class TestScalarFormsMatchTheParent:
    def test_frac_and_dist(self):
        raised = exact_cases = integer_mids = wide = 0
        for x in _scalar_cases(12, 4000):
            want = _reading(parent_frac, x)
            assert _reading(frac, x) == want
            assert _reading(dist_to_nearest_int, x) == _reading(parent_dist_to_nearest_int, x)
            raised += isinstance(want[0], type)
            exact_cases += x.is_exact
            integer_mids += x.mid.denominator == 1
            wide += x.rad >= Fraction(1, 2)
        assert 800 < raised < 3000 and exact_cases > 500
        assert integer_mids > 800 and wide > 500

    def test_residue_raises_the_parent_message(self):
        raised = negative = 0
        for gamma, n in _multiple_cases(11, 4000):
            if n == 1:
                continue
            want = _reading(parent_frac, gamma * n)
            try:
                v = residue_of_multiple(gamma, n)
            except IndeterminateComparison as exc:
                got = type(exc), str(exc)
            else:
                got = Fraction(v, gamma.mid.denominator), abs(n) * gamma.rad
            assert got == want
            raised += isinstance(want[0], type)
            negative += n < 0 and isinstance(want[0], type)
        assert raised > 600 and negative > 200


def test_real_of_ends_is_the_interval_of_its_ends():
    # mid and rad one Fraction each, the Real that from_interval builds from
    # the two ends; equal pairs give an exact Real
    rng = random.Random(14)
    for _ in range(2000):
        lo = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
        hi = lo + rng.choice([Fraction(0), Fraction(rng.randint(1, 10**9), rng.randint(1, 10**40))])
        pairs = []
        for f in (lo, hi):
            m = rng.choice([1, 1, rng.randint(2, 10**12)])
            pairs.append((f.numerator * m, f.denominator * m))
        if rng.random() < 0.1:
            pairs[1] = pairs[0]
        real = _real_of_ends(*pairs)
        assert real == Real.from_interval(Fraction(*pairs[0]), Fraction(*pairs[1]))
        assert real.is_exact == (real.lo == real.hi)
    assert _real_of_ends((3, 6), (3, 6)) == Real(Fraction(1, 2)) and _real_of_ends((0, 1), (0, 1)).is_exact


def test_only_exact_reads_a_multiple_of_gamma():
    """Every {gamma n} and ||gamma n|| outside exact.py goes through
    frac_of_multiple or dist_of_multiple."""
    import radixapprox

    forbidden = ("frac(gamma *", "dist_to_nearest_int(gamma *", "dist_exact(gamma.mid *")
    package = pathlib.Path(radixapprox.__file__).parent
    offenders = [
        f"{path.name}: {pattern}"
        for path in sorted(package.glob("*.py")) if path.name != "exact.py"
        for pattern in forbidden if pattern in path.read_text()
    ]
    assert offenders == []
