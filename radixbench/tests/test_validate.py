import copy
from fractions import Fraction

import radixapprox.cli as cli

from radixbench.harness import call_cli
from radixbench.validate import classify, least_violation
from radixbench.workloads import Query, _argv


def _answer(kind, argv, **params):
    q = Query(kind, argv, params)
    out, _, _ = call_cli(cli, argv)
    assert classify(q, out) == ("ok", None)
    return q, out


def _tampered(q, out, edit):
    bad = copy.deepcopy(out)
    edit(bad.report)
    status, reason = classify(q, bad)
    assert status == "failed" and reason


def test_oracle_tampering_is_caught():
    gamma = Fraction(355, 1131)
    q, out = _answer("oracle", _argv("search", "--method", "oracle", "--base", 3,
                                     "--limit", 1000, "--gamma", "355/1131"),
                     b=3, N=1000, gamma=gamma, count=63)
    w = out.report["witness"]
    _tampered(q, out, lambda r: r.update(witness=w + 1))
    _tampered(q, out, lambda r: r.update(witness=w - 1))
    d = Fraction(out.report["distance"]["exact"])
    _tampered(q, out, lambda r: r.update(distance={"exact": str(d + Fraction(1, 1131))}))


def test_enclosure_witness_tampering_is_caught():
    q, out = _answer("oracle", _argv("search", "--method", "oracle", "--base", 2,
                                     "--limit", 200, "--gamma", "sqrt2"),
                     b=2, N=200, gamma="sqrt2", count=200)
    _tampered(q, out, lambda r: r.update(witness=r["witness"] + 1))
    _tampered(q, out, lambda r: r["distance"].update(mid=str(Fraction(r["distance"]["mid"]) * 2)))


def test_discrepancy_tampering_is_caught():
    gamma = Fraction(12345, 99991)
    q, out = _answer("discrepancy", _argv("discrepancy", "--gamma", "12345/99991",
                                          "--limit", 120, "--G", 5),
                     gamma=gamma, T=120, G=5)
    L = Fraction(out.report["L_value"])
    _tampered(q, out, lambda r: r.update(L_value=str(L + Fraction(1, 99991))))
    _tampered(q, out, lambda r: r.update(L_value=str(L - Fraction(1, 99991))))


def test_adversary_tampering_is_caught():
    q, out = _answer("adversary", _argv("adversary", "--base", 3, "--count", 500), b=3, N=500)
    _tampered(q, out, lambda r: r.update(min_witness_index=r["min_witness_index"] + 1))
    _tampered(q, out, lambda r: r.update(gamma_N="1/80"))


def test_expsum_tampering_is_caught():
    gamma = Fraction(5, 313)
    q, out = _answer("expsum", _argv("expsum", "--method", "sum", "--base", 2, "--r", 9,
                                     "--k", 7, "--gamma", "5/313"),
                     b=2, r=9, k=7, gamma=gamma)
    _tampered(q, out, lambda r: r["magnitude"].update(mid=str(Fraction(r["magnitude"]["mid"]) + 1)))


def test_least_violation_small_case():
    # x = 2 is the least member of the extended set with ||617/40 x|| <= 1/6
    assert least_violation(3, 2, Fraction(617, 40), Fraction(1, 6)) == 2
