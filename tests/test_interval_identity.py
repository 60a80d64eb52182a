"""The closed forms on libmp's interval primitives give the intervals that
``mpmath.iv`` gave, bit for bit: every enclosure, and so every report byte,
is what the ``iv`` bodies in ``iv_reference`` print."""
from fractions import Fraction

import pytest
from mpmath.libmp.libmpi import mpi_log

import iv_reference as ref
from radixapprox import adversary, constants, expsum
from radixapprox.adversary import _power_decay_bound
from radixapprox.errors import IndeterminateComparison
from radixapprox.exact import Real, _raw_to_fraction, cos_bound_margin

PRECISIONS = (64, 128, 256, 4096)


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("b", [*range(2, 13), 40, 1000003])
def test_compute_constants(b, bits):
    assert constants.compute_constants(b, bits) == ref.compute_constants(b, bits)


def test_compute_constants_refuses_as_the_reference_does():
    b = 2**40
    with pytest.raises(IndeterminateComparison) as expected:
        ref.compute_constants(b, 64)
    with pytest.raises(IndeterminateComparison) as got:
        constants.compute_constants(b, 64)
    assert str(got.value) == str(expected.value)
    assert "not certified above 1" in str(got.value)


@pytest.mark.parametrize("N", [10**6, 10**40, 10**4000])
@pytest.mark.parametrize("b, bits", [(2, 128), (3, 64), (10, 256)])
def test_approximation_bound(b, bits, N):
    consts = constants.compute_constants(b, bits)
    assert constants.approximation_bound(consts, N, bits) == ref.approximation_bound(
        consts, N, bits)


@pytest.mark.parametrize("N", [1, 16, 2**24, 2**80 + 1, 10**40])
@pytest.mark.parametrize("b", range(2, 11))
def test_power_decay_bound(b, N):
    assert _power_decay_bound(b, N) == ref.power_decay_bound(b, N)


def test_power_decay_bound_reads_N_outward(monkeypatch):
    # ln moves a rounding of N by less than one step of ln N, so the grid
    # above cannot see how N is read: the log's operand must enclose N
    operands = []

    def spy(x, prec):
        operands.append(x)
        return mpi_log(x, prec)

    monkeypatch.setattr(adversary, "mpi_log", spy)
    N = 2**81 + 1
    _power_decay_bound(3, N)
    ends = [(_raw_to_fraction(lo), _raw_to_fraction(hi)) for lo, hi in operands]
    (lo, hi), = [(lo, hi) for lo, hi in ends if hi > 3]
    assert lo <= N <= hi and lo < hi


def test_decay_bound_on_the_criterion_5_family():
    for b in (3, 4, 5, 7, 10):
        for r in (1, 2, 3, 4, 6, 8, 10, 12, 16, 20):
            for m in (1, 2, 3):
                for k in (1, 2, 3, 5, 9, 16, 25, 36, 49, 64):
                    assert expsum._decay_bound(b, r, k, m) == ref.decay_bound(b, r, k, m), (
                        b, r, k, m)


def test_pi_bounds():
    expsum.pi_bounds.cache_clear()
    assert expsum.pi_bounds() == ref.pi_bounds()


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(0), Fraction(1, 2)])
def test_cos_bound_margin(x, bits):
    for gamma in (Real(x), Real(x, Fraction(1, 2**100))):
        assert cos_bound_margin(gamma, bits) == ref.cos_bound_margin(gamma, bits)


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("name", ["sqrt2", "pi", "e"])
def test_parse_named_constant(name, bits):
    assert Real.parse(name, bits) == ref.parse_named(name, bits)
