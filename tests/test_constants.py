import math
from fractions import Fraction

import pytest

from radixapprox.constants import ApproxBound, approximation_bound, compute_constants
from radixapprox.errors import DomainError


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
        # frozen from the certified scan; the enclosure is ~1e-26 wide
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
