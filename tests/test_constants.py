import math
from fractions import Fraction

import mpmath
import pytest

from radixapprox import constants
from radixapprox.constants import ApproxBound, approximation_bound, compute_constants
from radixapprox.errors import DomainError, IndeterminateComparison, InvariantViolation
from radixapprox.exact import Real, iv_precision, iv_to_real, mpf_to_fraction


def _reference_constants(b, precision_bits):
    """The scan before 3*sqrt(8) was folded out of each term: one Real per
    term and per tail bound, and a Real running maximum; returns
    (U, C, H, scan_depth)."""
    with iv_precision(precision_bits) as iv:
        four_b2 = iv.mpf(4 * b * b)
        U = four_b2 / (four_b2 - iv.pi)
        C = 2 + 2 / iv.pi
        log_term = iv.log(256 * C * b) / iv.log(U)

        best = None
        m_dec = constants._decreasing_from(b)
        m = 1
        while True:
            root = iv.sqrt(iv.mpf(b**m))
            term = iv_to_real((3 * iv.sqrt(iv.mpf(8 * b**m)) + 2 * m * m * log_term - 1) / root)
            best = term if best is None else Real.from_interval(
                max(best.lo, term.lo), max(best.hi, term.hi))
            if m >= m_dec:
                g = iv_to_real(
                    (2 * log_term * (m + 1) ** 2 + 3 * iv.sqrt(iv.mpf(8)) * iv.sqrt(iv.mpf(b ** (m + 1))))
                    / iv.sqrt(iv.mpf(b ** (m + 1)))
                )
                if g.hi < best.lo:
                    break
            m += 1
            if m > constants._SCAN_HARD_CAP:
                raise InvariantViolation(f"reference scan failed to certify a maximum by m={m}")
        return iv_to_real(U), iv_to_real(C), best, m


def _depth_max(b, m_end, bits):
    """max of H's terms over 1 <= m < m_end in plain mpmath, as the
    benchmark's validator recomputes it (at 200 bits, for 128-bit reports)."""
    with mpmath.workprec(bits):
        pi = +mpmath.pi
        log_term = mpmath.log(256 * (2 + 2 / pi) * b) / mpmath.log(4 * b * b / (4 * b * b - pi))
        H = max((3 * mpmath.sqrt(8 * mpmath.mpf(b) ** m) + 2 * m * m * log_term - 1)
                / mpmath.sqrt(mpmath.mpf(b) ** m) for m in range(1, m_end))
        return mpf_to_fraction(H)


class TestConstantSet:
    def test_contraction_base_value(self):
        cs = compute_constants(2)
        # 16/(16 - pi)
        expect = 16 / (16 - math.pi)
        assert abs(float(cs.contraction_base.mid) - expect) < 1e-12
        assert cs.contraction_base.lo > 1

    def test_et_constant(self):
        cs = compute_constants(5)
        assert abs(float(cs.et_constant.mid) - (2 + 2 / math.pi)) < 1e-12

    def test_depth_coefficient_base_two(self):
        cs = compute_constants(2)
        # frozen from the certified scan; at 128 bits the enclosure is ~1e-35 wide
        assert abs(float(cs.depth_coeff.mid) - 305.12658711709327) < 1e-9
        assert cs.depth_coeff.lo > 3 * math.sqrt(8)
        assert cs.window_coeff.mid == 2 * cs.depth_coeff.mid
        assert cs.scan_depth >= 1

    def test_contraction_above_one_for_all_bases(self):
        for b in range(2, 12):
            cs = compute_constants(b)
            assert cs.contraction_base.lo > 1
            # the per-step factor 1 - pi/(4b^2) sits strictly inside (0, 1)
            assert 0 < 1 - math.pi / (4 * b * b) < 1

    def test_enclosures_tighten_with_precision(self):
        rough = compute_constants(3, precision_bits=64)
        fine = compute_constants(3, precision_bits=160)
        assert fine.depth_coeff.rad < rough.depth_coeff.rad
        assert rough.depth_coeff.lo <= fine.depth_coeff.hi
        assert fine.depth_coeff.lo <= rough.depth_coeff.hi

    @pytest.mark.parametrize("bits", [64, 96, 128, 256, 1024, 4096])
    def test_matches_the_reference_scan(self, bits):
        for b in range(2, 41):
            cs = compute_constants(b, bits)
            U, C, H, depth = _reference_constants(b, bits)
            assert cs.scan_depth == depth, b
            assert (cs.contraction_base, cs.et_constant) == (U, C), b
            assert cs.depth_coeff.lo <= H.hi and H.lo <= cs.depth_coeff.hi, b
            # a point value is only inside if it is finer than the enclosure
            h_max = _depth_max(b, 3 * depth + 20, max(200, bits + 64))
            assert cs.depth_coeff.lo <= h_max <= cs.depth_coeff.hi, b
            assert (cs.window_coeff.lo, cs.window_coeff.hi) == (
                2 * cs.depth_coeff.lo, 2 * cs.depth_coeff.hi)

    def test_builds_its_reals_once_whatever_the_scan_depth(self, monkeypatch):
        calls = []

        def spy(value):
            calls.append(value)
            return iv_to_real(value)

        monkeypatch.setattr(constants, "iv_to_real", spy)
        counts = []
        for b, depth in ((2, 6), (1000003, 1)):
            calls.clear()
            assert compute_constants(b).scan_depth == depth
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_a_scan_past_the_peak_keeps_the_peak(self, monkeypatch):
        # the tail tests start where m^2/b^(m/2) decreases, at H's peak, and
        # pass at once; starting them later (still sound) lets smaller terms in
        monkeypatch.setattr(constants, "_decreasing_from", lambda b: 9)
        cs = compute_constants(2)
        assert cs.scan_depth == 9
        assert cs.depth_coeff.lo <= _depth_max(2, 20, 200) <= cs.depth_coeff.hi

    def test_a_straddling_tail_bound_does_not_stop_the_scan(self):
        # at the lowest precision that certifies U > 1, log_U(256*C*b) is
        # wide and the first tail bounds straddle the running maximum's lower
        # end; only a tail bound wholly below it may stop the scan
        for b, bits in ((9, 9), (17, 11), (33, 13)):
            with pytest.raises(IndeterminateComparison):
                compute_constants(b, bits - 1)
            cs = compute_constants(b, bits)
            assert cs.scan_depth == _reference_constants(b, bits)[3] > 1, b
            h_max = _depth_max(b, 3 * cs.scan_depth + 20, 200)
            assert cs.depth_coeff.lo <= h_max <= cs.depth_coeff.hi, b

    def test_the_named_precision_decides(self):
        for k in range(8, 81):
            for b in (2**k + 1, 2 ** (k + 1) - 1):
                with pytest.raises(IndeterminateComparison) as err:
                    compute_constants(b, 2 * k)
                needed = int(str(err.value).split("; ")[1].split()[0])
                assert compute_constants(b, needed).contraction_base.lo > 1, b


class TestApproximationBound:
    def test_vacuous_at_desk_scale(self):
        cs = compute_constants(2)
        for N in (1, 10, 10**6, 2**30):
            ab = approximation_bound(cs, N)
            assert ab.vacuous

    def test_tiny_N(self):
        ab = approximation_bound(compute_constants(3), 1)
        assert ab.vacuous and ab.repunit_exp == 0

    def test_informative_past_the_threshold(self):
        cs = compute_constants(2)
        ab = approximation_bound(cs, 2**900)
        assert not ab.vacuous
        assert ab.target_scale >= 1
        assert ab.ext_bound.hi < Fraction(1, 2)
        assert ab.zero_one_bound.mid == ab.ext_bound.mid * (2 - 1)

    def test_non_increasing_once_informative(self):
        cs = compute_constants(2)
        values = []
        for e in (880, 1000, 1500, 4000):
            ab = approximation_bound(cs, 2**e)
            assert not ab.vacuous
            values.append(ab.ext_bound.hi)
        assert values == sorted(values, reverse=True)

    def test_domain(self):
        with pytest.raises(DomainError):
            approximation_bound(compute_constants(2), 0)

    def test_reads_its_base_off_the_constants(self):
        # base 2's J would make this bound informative (about 0.207)
        ab = approximation_bound(compute_constants(10), 10**3000)
        assert ab.b == 10 and ab.vacuous and ab.ext_bound.lo > 1

    def test_report_shape(self):
        ab = approximation_bound(compute_constants(4), 1000)
        assert isinstance(ab, ApproxBound)
        assert ab.repunit_exp >= 1
        assert ab.ext_bound is not None  # computed even when vacuous
