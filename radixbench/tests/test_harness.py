import json
from fractions import Fraction
from types import SimpleNamespace

from radixbench.harness import call_cli
from radixbench.validate import classify
from radixbench.workloads import Query

DECAY = Query("decay", ("expsum",), {"b": 3, "r": 2, "k": 4, "m": 1, "gamma": Fraction(617, 40)})
ORACLE = Query("oracle", ("search",), {"b": 2, "N": 4, "gamma": Fraction(1, 3), "count": 4})


def _fake(behaviour):
    def main(argv):
        return behaviour()
    return SimpleNamespace(main=main)


def _exit(code, message=""):
    def behaviour():
        import sys
        if message:
            print(message, file=sys.stderr)
        raise SystemExit(code)
    return behaviour


def _status(query, behaviour):
    out, seconds, _ = call_cli(_fake(behaviour), query.argv)
    assert seconds >= 0
    return classify(query, out)[0], out


def test_returned_exit_codes():
    assert _status(ORACLE, lambda: 2)[0] == "failed"
    assert _status(ORACLE, lambda: 3)[0] == "failed"
    assert _status(ORACLE, lambda: 4)[0] == "indeterminate"


def test_system_exit_codes():
    status, out = _status(ORACLE, _exit(1, "error: bad input"))
    assert (status, out.code) == ("failed", 1)
    assert _status(ORACLE, _exit(2))[0] == "failed"  # argparse usage error


def test_hypothesis_violation_is_a_verdict_only_when_its_counterexample_holds():
    good = _exit(1, "error: separation hypothesis fails at x=2: ||gamma x|| <= 1/6")
    bad = _exit(1, "error: separation hypothesis fails at x=3: ||gamma x|| <= 1/6")
    assert _status(DECAY, good)[0] == "ok"
    assert _status(DECAY, bad)[0] == "failed"


def test_unexpected_exception_and_bad_output_fail():
    def boom():
        raise RuntimeError("kaput")
    status, out = _status(ORACLE, boom)
    assert status == "failed" and "RuntimeError" in out.error

    def garbage():
        print("not json")
        return 0
    assert _status(ORACLE, garbage)[0] == "failed"


def test_valid_answer_is_ok():
    def answer():
        print(json.dumps({"report": {"witness": 3, "distance": {"exact": "0/1"}}}))
        return 0
    assert _status(ORACLE, answer)[0] == "ok"


def test_scale_to_reference_divides_by_the_local_reference_median():
    from radixbench.harness import REFERENCE_SECONDS, scale_to_reference

    ref = [2 * REFERENCE_SECONDS] * 5 + [REFERENCE_SECONDS] * 5
    scaled = scale_to_reference([0.4] * 10, ref, window=1)
    assert scaled[:4] == [0.2] * 4 and scaled[-4:] == [0.4] * 4
    # a lone slow reference sample does not move its neighbours
    ref = [REFERENCE_SECONDS] * 9
    ref[4] = 5 * REFERENCE_SECONDS
    assert scale_to_reference([0.1] * 9, ref, window=1) == [0.1] * 9
