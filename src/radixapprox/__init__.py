"""Rational approximation with base-b denominators whose digits are 0 and 1.

Library layout:

* :mod:`radixapprox.exact`        exact rationals, enclosures, dist/frac
* :mod:`radixapprox.digitsets`    the structured integer sets and rankings
* :mod:`radixapprox.approx`       witness-producing approximation searches
* :mod:`radixapprox.diffsets`     difference-set combinatorics
* :mod:`radixapprox.expsum`       digit-restricted exponential sums and bounds
* :mod:`radixapprox.discrepancy`  exact interval discrepancy, Erdos-Turan check
* :mod:`radixapprox.constants`    the explicit constant chain and decay bound
* :mod:`radixapprox.adversary`    the lower-bound construction and residue tools
* :mod:`radixapprox.cli`          the radix-approx command line front end
"""

from .errors import (
    DomainError,
    HypothesisViolation,
    IndeterminateComparison,
    InvariantViolation,
    RadixApproxError,
    ResourceLimit,
)
from .exact import Rational, Real, cos_bound_margin, dist_to_nearest_int, frac
from .digitsets import SetSpec

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "Real",
    "SetSpec",
    "frac",
    "dist_to_nearest_int",
    "cos_bound_margin",
    "RadixApproxError",
    "DomainError",
    "IndeterminateComparison",
    "ResourceLimit",
    "InvariantViolation",
    "HypothesisViolation",
]
