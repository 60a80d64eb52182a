"""The acceptance gate: every criterion at its stated tolerance.

Each criterion prints one pass/fail line; the same functions back the CLI
``verify-all`` subcommand.  Tolerances are pinned inside
``radixapprox.acceptance``: exact arithmetic where promised (criteria 1, 2,
4, 7, 8, 10), a 1e-9 relative tolerance on criterion 3's product identity
only (its bound check and criteria 5 and 6 compare radius-aware
enclosures with no slack), and -1e-12 on the cosine margin (criterion 9).
"""
import pytest

from radixapprox.acceptance import CRITERIA, run_criterion


@pytest.mark.parametrize(
    "cid, name", [(num, name) for num, name, _ in CRITERIA], ids=lambda v: str(v)
)
def test_criterion(cid, name):
    res = run_criterion(cid)
    line = f"criterion {cid} [{'PASS' if res.passed else 'FAIL'}] {name}: {res.detail} ({res.seconds:.2f}s)"
    print(line)
    assert res.passed, line
