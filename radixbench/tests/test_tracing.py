import json
import os

import pytest

import radixapprox.cli as cli
from radixapprox import _kernels, approx

from radixbench.harness import END_TO_END, call_cli
from radixbench.tracing import Span, Tracer, covered, layer_metrics, self_times


def _span(name, start, end, parent=None):
    return Span(name, start, parent, end)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_on_a_synthetic_tree():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 5.0, 6.0, root)
    a1 = _span("a1", 2.0, 3.0, a)
    # two worker spans overlapping each other and sticking out of their parent
    w1 = _span("w", 6.5, 8.0, root)
    w2 = _span("w", 7.0, 11.0, root)
    selfs = self_times([root, a, b, a1, w1, w2])
    assert selfs[id(root)] == pytest.approx(10 - 3 - 1 - 3.5)
    assert selfs[id(a)] == pytest.approx(2.0)
    assert selfs[id(a1)] == pytest.approx(1.0)
    assert selfs[id(w2)] == pytest.approx(4.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = (cli.main, approx.oracle_min, approx.digit_scan_min_sharded, _kernels.digit_scan_min)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        assert approx.digit_scan_min_sharded is not originals[2]
        argv = ["search", "--method", "oracle", "--base", "2", "--limit", "70000",
                "--gamma", "355/113", "--threads", "2", "--format", "json"]
        out, _, _ = call_cli(cli, argv)
        tracer.end_query(out.code)
    finally:
        tracer.uninstall()
    assert (cli.main, approx.oracle_min, approx.digit_scan_min_sharded,
            _kernels.digit_scan_min) == originals
    m = layer_metrics(tracer)
    assert m["cli.main.calls"][0] == 1
    assert m["approx.oracle_min.calls"][0] == 1
    assert m["kernels.digit_scan_min.elems"][0] == 70000  # two shards, counted once each
    assert 0 <= m["cli.main.self_s"][0] <= tracer.totals["cli.main"]["s"]


def test_benchmark_json_names_what_the_run_prints():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, (_, unit) in layer_metrics(Tracer()).items():
        assert per_layer[name] == unit
