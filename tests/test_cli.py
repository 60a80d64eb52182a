import contextlib
import csv
import dataclasses
import decimal
import enum
import inspect
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radixapprox.cli as cli
from radixapprox import digitsets as ds
from radixapprox.approx import ApproxResult
from radixapprox.cli import MAX_PRECISION_BITS, main
from radixapprox.diffsets import DiffSetReport
from radixapprox.discrepancy import DiscrepancyReport
from radixapprox.errors import ResourceLimit
from radixapprox.exact import Real
from radixapprox.expsum import ExpSumReport, SeparationReport, ShiftReport

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
#: stdout of every README command in each output format, wall time masked.
#: Rewrite it with ``PYTHONPATH=src python tests/test_cli.py`` only when
#: the output is meant to change.
TRANSCRIPT = pathlib.Path(__file__).with_name("readme_cli_transcript.txt")


def readme_cli_commands():
    """The argv of every command in the code block under README's "## CLI"."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("radix-approx ")]


def readme_cli_transcript() -> str:
    """Each README command in json, csv and human form: its command line and
    exit code, then its stdout with the run's wall time masked."""
    parts = []
    for argv in readme_cli_commands():
        if "--format" in argv:
            at = argv.index("--format")
            argv = argv[:at] + argv[at + 2:]
        for fmt in cli.FORMATS:
            full = [*argv, "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(full)
            text = re.sub(r'"wall_time_ms": [^\n]*', '"wall_time_ms": "masked"', out.getvalue())
            parts.append(f"$ radix-approx {shlex.join(full)}  # exit {code}\n{text}")
    return "".join(parts)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSearch:
    def test_pigeonhole_json(self, capsys):
        code, out, _ = run_cli(
            ["search", "--base", "3", "--limit", "1000000", "--gamma", "355/113",
             "--method", "pigeonhole", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert rep["guarantee"] == "1/13"
        assert rep["mode"] == "exact"
        assert "/" in rep["distance"]["exact"]
        assert list(doc["meta"]["config"]) == [
            "precision_bits", "enumeration_cap", "node_budget", "output_format", "threads"]

    def test_deterministic_report(self, capsys):
        args = ["search", "--base", "5", "--limit", "100000", "--gamma", "0.137",
                "--method", "oracle", "--format", "json"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert json.loads(out1)["report"] == json.loads(out2)["report"]

    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(
            ["adversary", "--base", "3", "--count", "128", "--format", "csv"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "subcommand,b,N,witness,distance_num,distance_den,bound,passed"
        cells = row.split(",")
        assert cells[0] == "adversary" and cells[-1] == "True"
        assert int(cells[4]) >= 1 and int(cells[5]) > 1

    @pytest.mark.parametrize("gamma, cells", [("1/3", "3,0,1"), ("2/7", "3,1,7")],
                             ids=["zero", "nonzero"])
    def test_csv_distance_cells(self, capsys, gamma, cells):
        # D_3 below 10 is {1, 3, 4, 9}: 3 * gamma is 1 or 6/7, so the minimum
        # distance is 0 or 1/7, at witness 3
        code, out, _ = run_cli(["search", "--method", "oracle", "--base", "3", "--limit", "10",
                                "--gamma", gamma, "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[1] == f"search,3,10,{cells},,"

    @pytest.mark.parametrize("argv, witness", [
        (["discrepancy", "--gamma", "1/7", "--limit", "7"], ["0/1", "0/1", True, True]),
        (["diffset", "--base", "3", "--limit", "13"], [0, 1, 4, 13]),
    ], ids=["discrepancy", "diffset"])
    def test_csv_list_cells_are_json(self, capsys, argv, witness):
        code, out, err = run_cli([*argv, "--format", "csv"], capsys)
        assert code == 0, err
        (row,) = csv.DictReader(io.StringIO(out))
        assert json.loads(row["witness"]) == witness

    @pytest.mark.parametrize("argv", [
        ["search", "--base", "3", "--gamma", "355/113", "--method", "oracle"],
        ["adversary", "--base", "3"],
    ])
    def test_count_spells_limit(self, capsys, argv):
        reports = []
        for flag in ("--limit", "--count"):
            code, out, _ = run_cli(argv + [flag, "200", "--format", "json"], capsys)
            assert code == 0
            reports.append(json.loads(out)["report"])
        assert reports[0] == reports[1]

    def test_parser_reuse_leaks_no_state(self, capsys, monkeypatch):
        monkeypatch.delenv("RADIX_APPROX_CONFIG", raising=False)
        argv = ["search", "--base", "2", "--limit", "1000", "--gamma", "1/7",
                "--method", "oracle", "--format", "json"]
        _, out, _ = run_cli(argv + ["--threads", "2"], capsys)
        assert json.loads(out)["meta"]["config"]["threads"] == 2
        _, out, _ = run_cli(argv, capsys)
        assert json.loads(out)["meta"]["config"]["threads"] == 1

    @pytest.mark.parametrize("argv", [
        ["search", "--method", "oracle", "--base", "2", "--limit", "300000", "--gamma", "355/113"],
    ], ids=["search"])
    def test_threads_do_not_change_the_report(self, capsys, argv):
        reports = []
        for threads in ("1", "2"):
            code, out, _ = run_cli(argv + ["--threads", threads, "--format", "json"], capsys)
            assert code == 0
            doc = json.loads(out)
            assert doc["meta"]["config"]["threads"] == int(threads)
            reports.append(json.dumps(doc["report"]))
        assert reports[0] == reports[1]

    def test_pigeonhole_finds_a_direct_witness_whose_enclosure_reaches_an_integer(
            self, capsys):
        # e * (2^38 - 1) lies within 2^-64 * 4 * 2^38 of an integer, so its
        # fractional part is undecidable at 64 bits, but it is a witness
        code, out, err = run_cli(
            ["search", "--method", "pigeonhole", "--base", "2", "--limit",
             "950468721990482304", "--gamma", "e", "--precision-bits", "64",
             "--format", "json"], capsys)
        assert (code, err) == (0, "")
        rep = json.loads(out)["report"]
        assert rep["witness"] == 2**38 - 1 and rep["guarantee"] == "1/59"

    def test_human_default(self, capsys):
        code, out, _ = run_cli(
            ["search", "--base", "2", "--limit", "100", "--gamma", "1/5"], capsys
        )
        assert code == 0 and "witness" in out


class TestOtherSubcommands:
    def test_constants(self, capsys):
        code, out, _ = run_cli(["constants", "--base", "2", "--format", "json"], capsys)
        assert code == 0
        rep = json.loads(out)["report"]
        assert set(rep) >= {"contraction_base", "et_constant", "depth_coeff", "window_coeff"}

    def test_constants_with_bound(self, capsys):
        code, out, _ = run_cli(
            ["constants", "--base", "2", "--limit", "1000000", "--format", "json"], capsys
        )
        rep = json.loads(out)["report"]
        assert rep["bound_at_N"]["vacuous"] is True

    def test_diffset(self, capsys):
        code, out, _ = run_cli(
            ["diffset", "--base", "3", "--limit", "13", "--method", "anchored",
             "--format", "json"],
            capsys,
        )
        rep = json.loads(out)["report"]
        assert rep["value"] == 4 and rep["witness"] == [0, 1, 4, 13]
        assert rep["bound"] == 4

    def test_expsum_decay(self, capsys):
        code, out, _ = run_cli(
            ["expsum", "--base", "2", "--r", "1", "--k", "1", "--m", "2",
             "--gamma", "2/5", "--method", "decay", "--format", "json"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["far_positions"] == [0, 1]
        assert rep["separation_beta"] == "1/8"

    def test_readme_cli_block_runs(self, capsys):
        commands = readme_cli_commands()
        assert len(commands) == 9
        for argv in commands:
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)

    def test_readme_cli_output_is_pinned(self, monkeypatch):
        monkeypatch.delenv("RADIX_APPROX_CONFIG", raising=False)
        assert readme_cli_transcript() == TRANSCRIPT.read_bytes().decode("utf-8")

    def test_constants_passes_the_precision_to_the_bound(self, capsys, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            bound = inspect.signature(approximation_bound).bind(*args, **kwargs)
            seen.append(bound.arguments["precision_bits"])
            return approximation_bound(*args, **kwargs)

        approximation_bound = cli.approximation_bound
        monkeypatch.setattr(cli, "approximation_bound", spy)
        code, _, _ = run_cli(["constants", "--base", "3", "--limit", "1000",
                              "--precision-bits", "200"], capsys)
        assert code == 0 and seen == [200]

    @pytest.mark.parametrize("argv", [
        ["--base", "3", "--r", "12", "--k", "7", "--gamma", "e", "--precision-bits", "512"],
        ["--base", "2", "--r", "20", "--k", "100", "--gamma", "pi", "--precision-bits", "288"],
        ["--base", "3", "--r", "10", "--k", "1", "--gamma", f"1/{10**199 + 7}"],
    ])
    def test_expsum_products_print_for_long_gamma(self, capsys, argv):
        code, out, err = run_cli(["expsum", "--method", "sum", *argv, "--format", "json"], capsys)
        assert code == 0, err
        rep = json.loads(out)["report"]
        assert all(len(v) < 50 for k in ("product_magnitude", "product_bound")
                   for v in rep[k].values())

    def test_expsum_shifts_rescans_the_separation_for_a_large_count(self, capsys, monkeypatch):
        # gamma = 0: all six positions are close, g = 6 >= 3 sqrt(1), so
        # small_shift_count checks again the separation its caller just
        # checked; no verdict is kept between calls, so it scans twice
        from radixapprox import _kernels

        built, tables = [], _kernels._half_tables
        monkeypatch.setattr(_kernels, "_half_tables", lambda *a: built.append(a) or tables(*a))
        code, out, err = run_cli(["expsum", "--method", "shifts", "--base", "2", "--r", "5",
                                  "--k", "1", "--beta", "1/8", "--gamma", "0", "--format", "json"],
                                 capsys)
        assert code == 0, err
        rep = json.loads(out)["report"]
        assert rep["separation"]["counterexample"] == 1 and rep["shifts"]["g"] == 6
        assert len(built) == 2 and built[0] == built[1]

    def test_expsum_shifts(self, capsys):
        code, out, _ = run_cli(
            ["expsum", "--base", "3", "--r", "2", "--k", "1", "--beta", "1/10",
             "--gamma", "1/27", "--method", "shifts", "--format", "json"],
            capsys,
        )
        rep = json.loads(out)["report"]
        assert rep["shifts"]["g"] == 1 and rep["shifts"]["positions"] == [0]

    def test_discrepancy(self, capsys):
        code, out, _ = run_cli(
            ["discrepancy", "--gamma", "1/7", "--limit", "7", "--G", "6",
             "--format", "json"],
            capsys,
        )
        rep = json.loads(out)["report"]
        assert rep["L_value"] == "1/1"

    def test_discrepancy_prints_a_long_erdos_turan_sum(self, capsys):
        # the right side of G = 10^4 terms is rounded to 2^-64, so it prints
        # below CPython's 4300-digit int-to-str limit
        code, out, err = run_cli(
            ["discrepancy", "--gamma", "1/3", "--limit", "50", "--G", "10000",
             "--format", "json"],
            capsys,
        )
        assert code == 0, err
        assert json.loads(out)["report"]["G"] == 10000

    def test_discrepancy_rejects_G_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["discrepancy", "--gamma", "1/7", "--limit", "7", "--G", "0"])
        assert err.value.code != 0
        assert "need G >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma, shown", [(["--gamma", "1e400"], "(~1e+400)"),
                                              (["--gamma=-1e400"], "(~-1e+400)")],
                             ids=["1e400", "-1e400"])
    def test_human_output_beyond_the_float_range(self, capsys, gamma, shown):
        code, out, err = run_cli(["expsum", "--base", "2", "--r", "3", "--k", "1", *gamma,
                                  "--format", "human"], capsys)
        assert (code, err) == (0, "") and shown in out

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**25), st.integers(309, 1200) | st.integers(-1200, -334),
           st.sampled_from([1, -1]))
    @example(1, 727, 1)  # an un-normalized quotient prints 1.00000000000e+727
    @example(1000000000005, 400, 1)  # a half-way tie, to even: 1e+412
    @example(1000000000015, 400, -1)  # a half-way tie, to even: -1.00000000002e+412
    @example(9999999999994, -473, 1)  # just below a power of ten: 9.99999999999e-461
    def test_approx_outside_the_float_range_is_decimal_rounding(self, m, e, sign):
        # x = sign * m * 10^e lies outside the normal doubles; Decimal holds it
        # exactly and rounds it half to even, as "%.12g" rounds a float
        x = sign * m * Fraction(10) ** e
        want = re.sub(r"\.?0+e", "e", format(Decimal(sign * m).scaleb(e), ".11e"))
        assert cli._approx(f"{x.numerator}/{x.denominator}") == want

    def test_approx_ignores_the_callers_decimal_context(self):
        x = 1000000000005 * Fraction(10) ** 400  # a half-way tie
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = 3, decimal.ROUND_UP
            assert cli._approx(f"{x.numerator}/{x.denominator}") == "1e+412"

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(-1, 3), Fraction(2**1023),
                                   Fraction(1, 2**1022), Fraction(10**308 * 17, 10)])
    def test_approx_inside_the_float_range_is_the_floats(self, x):
        assert cli._approx(f"{x.numerator}/{x.denominator}") == f"{float(x):.12g}"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["constants", "--base", "3", "--format", "json", "--out", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["meta"]["subcommand"] == "constants"


class TestExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--base", "3", "--limit", "10", "--gamma", "no-number"])
        assert err.value.code == 1

    USAGE_ERRORS = [
        ["search", "--limit", "10", "--gamma", "1/3", "--method", "bogus"],
        ["search", "--limit", "x", "--gamma", "1/3"],
        ["search", "--limit", "10", "--gamma", "1/3", "--no-such-flag"],
        ["expsum", "--gamma", "1/3", "--k", "1"],
        ["discrepancy", "--gamma", "1/7"],
    ]
    FLAGS_OUTSIDE_SUBCOMMAND = [
        ["discrepancy", "--gamma", "1/7", "--limit", "7", "--base", "3"],
        ["expsum", "--gamma", "1/3", "--r", "1", "--k", "1", "--threads", "2"],
        ["constants", "--gamma", "1/2"],
        ["verify-all", "--precision-bits", "200"],
        ["diffset", "--limit", "13", "--gamma", "1/3"],
        ["adversary", "--count", "128", "--precision-bits", "200"],
        ["search", "--limit", "10", "--gamma", "1/3", "--r", "3"],
        ["adversary", "--count", "128", "--threads", "2"],
    ]

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", FLAGS_OUTSIDE_SUBCOMMAND)
    def test_flag_outside_subcommand_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, needed", [
        (["--base", "100000000000", "--precision-bits", "64"], 77),
        (["--base", "10000000000000000000000"], 151),
    ], ids=["10^11@64", "10^22@128"])
    def test_a_base_beyond_the_precision_is_indeterminate(self, capsys, argv, needed):
        started = time.perf_counter()
        code, out, err = run_cli(["constants", *argv], capsys)
        assert time.perf_counter() - started < 1
        assert (code, out) == (4, "")
        assert err.startswith("indeterminate: contraction base") and f"{needed} bits decide it" in err
        code, _, err = run_cli(["constants", "--base", argv[1], "--precision-bits", str(needed)],
                               capsys)
        assert (code, err) == (0, "")

    def test_a_large_base_within_the_precision_answers(self, capsys):
        code, _, err = run_cli(["constants", "--base", "1000000000", "--precision-bits", "64"],
                               capsys)
        assert (code, err) == (0, "")

    def test_resource_limit_via_config_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=10\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        code, _, err = run_cli(["adversary", "--method", "no-multiples", "--base", "2",
                                "--k", "3", "--t", "3", "--e-max", "6"], capsys)
        assert code == 3 and "resource limit" in err

    @pytest.mark.parametrize("b", [2, 3, 10])
    def test_the_certificate_enumerates_nothing(self, capsys, tmp_path, monkeypatch, b):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=10\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        for N in (2**40, 10**100):
            code, out, err = run_cli(["adversary", "--base", str(b), "--count", str(N),
                                      "--format", "json"], capsys)
            assert (code, err) == (0, "")
            rep = json.loads(out)["report"]
            k = -(-N.bit_length() // (b - 1)) + 1
            assert rep["k"] == k and rep["min_witness_index"] == 1 and rep["passed"] is True
            assert Fraction(rep["min_distance"]) == Fraction(1, b**k - 1)

    @pytest.mark.parametrize("argv", [
        ["expsum", "--method", "shifts", "--base", "2", "--r", "60", "--k", "1",
         "--beta", "1/8", "--gamma", "5/313"],
        ["expsum", "--method", "decay", "--base", "3", "--r", "60", "--k", "1", "--m", "1",
         "--gamma", "5/313"],
    ], ids=["shifts", "decay"])
    def test_r_above_the_cap_is_a_resource_limit(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 3 and "exceeds the term cap r <= 26" in err

    @pytest.mark.parametrize("base", ["2", "3"])
    def test_diffset_names_a_limit_below_one(self, capsys, base):
        for method in ("anchored", "within"):
            with pytest.raises(SystemExit) as exc:
                main(["diffset", "--base", base, "--limit", "0", "--method", method])
            assert exc.value.code == 1
            assert capsys.readouterr().err == "error: need N >= 1, got 0\n"
        code, out, _ = run_cli(["diffset", "--base", base, "--limit", "0", "--method", "differences",
                                "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["report"]["differences"] == []

    def test_discrepancy_orbit_is_capped_via_config_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=10\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        code, _, err = run_cli(["discrepancy", "--gamma", "1/7", "--limit", "11"], capsys)
        assert code == 3 and "exceeds the cap 10" in err
        code, _, err = run_cli(["discrepancy", "--gamma", "1/7", "--limit", "10"], capsys)
        assert code == 0, err

    # D_3 restricted to [1, 9] is {1, 3, 4, 9}: exactly 4 elements
    ORACLE_99_70 = ["search", "--method", "oracle", "--base", "3", "--limit", "9",
                    "--gamma", "99/70", "--format", "json"]
    ORACLE_SQRT2 = ORACLE_99_70[:-3] + ["sqrt2", "--format", "json"]
    DIFFSET_D3_9 = ["diffset", "--base", "3", "--limit", "9", "--method", "anchored"]

    def test_enumeration_cap_equal_to_the_count_suffices(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=4\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        code, out, err = run_cli(self.ORACLE_99_70, capsys)
        assert code == 0, err
        rational = json.loads(out)["report"]["witness"]
        code, out, err = run_cli(self.ORACLE_SQRT2, capsys)
        assert code == 0, err
        assert json.loads(out)["report"]["witness"] == rational == 3
        code, _, err = run_cli(self.DIFFSET_D3_9, capsys)
        assert code == 0, err

    @pytest.mark.parametrize("argv", [ORACLE_99_70, ORACLE_SQRT2, DIFFSET_D3_9],
                             ids=["oracle-rational", "oracle-enclosure", "diffset"])
    def test_enumeration_cap_below_the_count_is_a_resource_limit(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=3\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        code, _, err = run_cli(argv, capsys)
        assert code == 3 and "resource limit" in err

    BIG_N = ["--base", "3", "--limit", "1111111111111"]

    @pytest.mark.parametrize("argv", [
        ["search", "--method", "oracle", *BIG_N, "--gamma", "e", "--precision-bits", "64"],
        ["diffset", *BIG_N],
    ], ids=["oracle-enclosure", "diffset"])
    def test_zero_one_cap_is_checked_before_enumerating(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        import radixapprox.digitsets as ds

        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=200000\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        _, _, rational_err = run_cli(
            ["search", "--method", "oracle", *self.BIG_N, "--gamma", "1/7"], capsys)
        calls = []
        unrank = ds.unrank
        monkeypatch.setattr(ds, "unrank", lambda b, i: calls.append(i) or unrank(b, i))
        code, _, err = run_cli(argv, capsys)
        assert code == 3 and calls == []
        assert err == rational_err and "exceeds the cap 200000" in err

    def test_bad_output_format_in_config_is_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("output_format=xml\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        with pytest.raises(SystemExit) as err:
            main(["constants", "--base", "2"])
        assert err.value.code == 1
        assert "output_format" in capsys.readouterr().err

    def test_config_file_lands_in_meta(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("threads=2\nprecision_bits=96\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        _, out, _ = run_cli(["constants", "--base", "2", "--format", "json"], capsys)
        meta = json.loads(out)["meta"]
        assert meta["config"]["threads"] == 2
        assert meta["config"]["precision_bits"] == 96

    @pytest.mark.parametrize("line", ["seed=99", "tolerance=1/1000"])
    def test_removed_config_keys_are_rejected(self, capsys, tmp_path, monkeypatch, line):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        with pytest.raises(SystemExit) as err:
            main(["constants", "--base", "2"])
        assert err.value.code != 0
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["search", "--method", "pigeonhole", "--base", "2", "--limit", "100", "--gamma", "pi"],
        ["expsum", "--base", "2", "--r", "3", "--k", "1", "--gamma", "pi"],
        ["discrepancy", "--gamma", "pi", "--limit", "20"],
        ["constants", "--base", "3", "--limit", "1000"],
    ], ids=lambda argv: argv[0])
    def test_precision_bits_range(self, capsys, argv):
        code, _, err = run_cli(argv + ["--precision-bits", str(MAX_PRECISION_BITS)], capsys)
        assert code == 0, err
        for bits in (63, MAX_PRECISION_BITS + 1):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--precision-bits", str(bits)])
            assert exc.value.code == 1
            assert f"precision_bits must be between 64 and {MAX_PRECISION_BITS}" in (
                capsys.readouterr().err)

    @staticmethod
    def run_entry_point(argv, **env):
        return subprocess.run(
            [sys.executable, "-m", "radixapprox.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, **env},
        )

    @pytest.mark.parametrize("where", ["missing-dir/report.json", "."], ids=["missing-dir", "dir"])
    def test_unwritable_out_exits_1(self, tmp_path, where):
        proc = self.run_entry_point(["constants", "--base", "2", "--out", str(tmp_path / where)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_missing_config_file_exits_1(self, tmp_path):
        missing = str(tmp_path / "no-such.cfg")
        proc = self.run_entry_point(["constants", "--base", "2"], RADIX_APPROX_CONFIG=missing)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert missing in proc.stderr

    def test_malformed_beta_exits_1(self):
        proc = self.run_entry_point(["expsum", "--method", "shifts", "--base", "3", "--r", "2",
                                     "--k", "1", "--beta", "1/0", "--gamma", "1/27"])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: cannot parse '1/0' as a number\n"

    @pytest.mark.parametrize("argv", [
        ["search", "--method", "oracle", "--base", "3", "--limit", "10",
         "--gamma", "1e-9999999999999"],
        ["expsum", "--method", "shifts", "--base", "3", "--r", "2", "--k", "1",
         "--beta", "1e99999", "--gamma", "1/27"],
    ], ids=["gamma", "beta"])
    def test_oversized_exponent_is_refused_at_once(self, capsys, argv):
        started = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - started < 1
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error: cannot parse '1e")

    @pytest.mark.parametrize("argv", [
        ["search", "--method", "oracle", "--base", "3", "--limit", "10"],
        ["search", "--method", "pigeonhole", "--base", "3", "--limit", "10"],
        ["expsum", "--base", "2", "--r", "3", "--k", "1"],
    ], ids=["oracle", "pigeonhole", "expsum"])
    def test_a_report_over_the_digit_limit_is_a_resource_limit(self, capsys, argv):
        # 1e-4300 prints with a 4301-digit denominator, 1.5e-4000 with 4001 digits
        for fmt in ((), *(("--format", f) for f in cli.FORMATS)):
            code, out, err = run_cli([*argv, "--gamma", "1e-4300", *fmt], capsys)
            assert code == 3 and out == ""
            assert err == "resource limit: a report value exceeds the 4300-digit limit for printing an int\n"
        code, out, err = run_cli([*argv, "--gamma", "1.5e-4000", "--format", "json"], capsys)
        assert code == 0 and json.loads(out), err

    def test_an_orbit_on_python_ints_is_refused_at_once(self, capsys, tmp_path, monkeypatch):
        # cap 2^16: an orbit whose residues are Python ints (T Q >= 2^62, read
        # through int64 keys) and an int64 one stop at the same cap
        cap = 1 << 16
        cfg = tmp_path / "cfg"
        cfg.write_text(f"enumeration_cap={cap}\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        argv = ["discrepancy", "--gamma", "pi", "--limit", str(cap + 1), "--G", "5"]
        main(argv[:2] + ["1/7", "--limit", "1"])  # warm the parser and the imports
        capsys.readouterr()
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code, _, err = run_cli(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1 and peak < 1 << 20
        assert code == 3 and err == f"resource limit: orbit of {cap + 1} points exceeds the cap {cap}\n"
        code, _, err = run_cli(argv[:4] + [str(cap)] + argv[5:], capsys)
        assert code == 0, err
        code, _, err = run_cli(["discrepancy", "--gamma", "1/7", "--limit", str(cap + 1)], capsys)
        assert code == 3 and err == f"resource limit: orbit of {cap + 1} points exceeds the cap {cap}\n"

    def test_entry_point_runs(self):
        proc = self.run_entry_point(["--version"])
        assert proc.returncode == 0 and "radix-approx" in proc.stdout

    def test_a_4096_bit_orbit_past_its_limit_is_refused_at_once(self, capsys):
        # the default cap, 2^25 points, holds for pi at 4096 bits as for any
        # orbit: past it the orbit is refused before any point is read, and
        # 10^6 points run
        argv = ["discrepancy", "--gamma", "pi", "--precision-bits", "4096", "--limit", str((1 << 25) + 1)]
        main(argv[:5] + ["--limit", "1"])  # warm the parser and the 4096-bit pi
        capsys.readouterr()
        started = time.perf_counter()
        code, _, err = run_cli(argv, capsys)
        assert time.perf_counter() - started < 1
        assert code == 3 and err == "resource limit: orbit of 33554433 points exceeds the cap 33554432\n"
        code, _, err = run_cli(argv[:-1] + ["1000000"], capsys)
        assert code == 0, err


def parse_or_exit(parser, argv):
    """vars(parser.parse_args(argv)), or None where it exits; its output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


TABLE = cli._argv_table()
INT_TEXT = st.integers(0, 10**30).map(str) | st.sampled_from(["+7", "007", "1_000", " 12 "])
VALUE_TEXT = st.text(max_size=8).filter(lambda v: not v.startswith("-"))


def value_of(action):
    """Text the action's type and choices accept."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    return INT_TEXT if action.type is int else VALUE_TEXT


@st.composite
def well_formed_argv(draw):
    """A subcommand, then one "--flag value" pair per drawn dest (every
    required one), in any order, with either spelling of a shared dest."""
    name = draw(st.sampled_from(sorted(TABLE)))
    flags, _, required = TABLE[name]
    spellings = {}
    for flag, action in flags.items():
        spellings.setdefault(action, []).append(flag)
    pairs = [[draw(st.sampled_from(names)), draw(value_of(action))]
             for action, names in spellings.items()
             if action.dest in required or draw(st.booleans())]
    return [name, *itertools.chain.from_iterable(draw(st.permutations(pairs)))]


@st.composite
def malformed_argv(draw):
    """A well-formed argv with one change the table read does not accept
    (left well-formed where the drawn change needs a pair it lacks)."""
    argv = draw(well_formed_argv())
    flags, _, required = TABLE[argv[0]]
    at = draw(st.integers(0, len(argv)))
    pair = draw(st.integers(0, max(0, (len(argv) - 1) // 2 - 1))) * 2 + 1  # a flag's index
    has_pair = len(argv) > 1
    kind = draw(st.sampled_from([
        "repeat", "unknown", "abbreviate", "equals", "dash", "bad value", "drop required",
        "help", "no value", "subcommand"]))
    if kind == "repeat" and has_pair:
        flag = argv[pair]
        other = [f for f, a in flags.items() if a is flags[flag]]
        argv += [draw(st.sampled_from(other)), argv[pair + 1]]
    elif kind == "unknown":
        unknown = draw(st.sampled_from(["--no-such-flag", "--threads", "--G", "--beta", "-x"]))
        argv[at:at] = [unknown, "1"]
    elif kind == "abbreviate" and has_pair:
        argv[pair] = argv[pair][:draw(st.integers(2, len(argv[pair])))]
    elif kind == "equals" and has_pair:
        argv[pair:pair + 2] = [f"{argv[pair]}={argv[pair + 1]}"]
    elif kind == "dash" and has_pair:
        argv[pair + 1] = draw(st.sampled_from(["-1", "-5.5", "-1/3", "-x", "-", "--", "-1e3"]))
    elif kind == "bad value" and has_pair:
        argv[pair + 1] = draw(st.sampled_from(["x", "1.5", "", "0x10", "bogus"]))
    elif kind == "drop required" and has_pair and flags[argv[pair]].dest in required:
        del argv[pair:pair + 2]
    elif kind == "help":
        argv[at:at] = [draw(st.sampled_from(["--help", "-h", "--version"]))]
    elif kind == "no value" and has_pair:
        del argv[-1]
    elif kind == "subcommand":
        argv[0] = draw(st.sampled_from(["", "serch", "--format", "-h", "--version"]))
    return argv


class TestArgvTable:
    PARSER = cli.build_parser()

    def check(self, argv):
        """The table read gives parse_args' namespace, or defers to it."""
        read, parsed = cli._read_argv(argv), parse_or_exit(self.PARSER, argv)
        if read is not None:
            assert vars(read) == parsed
        if parsed is None:
            assert read is None
        return read

    @settings(max_examples=300, deadline=None)
    @given(well_formed_argv())
    def test_well_formed_argv_is_read_as_parse_args_reads_it(self, argv):
        assert self.check(argv) is not None

    @settings(max_examples=500, deadline=None)
    @given(malformed_argv())
    def test_other_argv_is_left_to_parse_args(self, argv):
        self.check(argv)

    def test_every_namespace_is_fresh(self):
        argv = ["search", "--limit", "10", "--gamma", "1/3"]
        first = cli._read_argv(argv)
        first.base = 99
        assert cli._read_argv(argv).base == 2

    @pytest.mark.parametrize("argv", [
        *TestExitCodes.USAGE_ERRORS,
        *TestExitCodes.FLAGS_OUTSIDE_SUBCOMMAND,
        ["expsum", "--gamma", "-1/3", "--r", "1", "--k", "1"],
    ])
    def test_usage_error_bytes_are_argparses(self, capsys, argv):
        with pytest.raises(SystemExit) as expected:
            cli.build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert expected.value.code == 1
        assert (got.value.code, capsys.readouterr()) == (1, want)

    def test_domain_error_bytes(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["search", "--base", "3", "--limit", "10", "--gamma", "no-number"])
        assert err.value.code == 1
        assert capsys.readouterr() == ("", "error: cannot parse 'no-number' as a number\n")

    @pytest.mark.parametrize("argv", [
        ["search", "--limit=10", "--gamma", "1/3"],
        ["search", "--lim", "10", "--gamma", "1/3"],
        ["search", "--base", "3", "--limit", "10", "--base", "2", "--gamma", "1/3"],
    ], ids=["equals", "abbreviation", "repeated"])
    def test_spellings_left_to_argparse_run_as_before(self, capsys, argv):
        assert cli._read_argv(argv) is None
        canonical = ["search", "--limit", "10", "--gamma", "1/3"]
        assert vars(self.PARSER.parse_args(argv)) == vars(cli._read_argv(canonical))
        assert run_cli(argv, capsys) == run_cli(canonical, capsys)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["radix-approx", "constants", "--base", "3",
                                          "--format", "csv"])
        code, out, _ = run_cli(None, capsys)
        assert code == 0 and out.splitlines()[1].startswith("constants,3,")


def reference_ser(value):
    """The report tree the JSON writer walks in one pass: Fractions as p/q
    strings, Reals as mid/rad pairs, dataclasses as dicts of their fields
    (the writer's reference: json.dumps(reference_ser(x), indent=2))."""
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:  # CPython's int-to-text digit limit
            raise ResourceLimit(f"a report value exceeds the {sys.get_int_max_str_digits()}"
                                "-digit limit for printing an int") from None
    if isinstance(value, Real):
        if value.is_exact:
            return {"exact": reference_ser(value.mid)}
        return {"mid": reference_ser(value.mid), "rad": reference_ser(value.rad)}
    if isinstance(value, ds.SetSpec):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: reference_ser(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: reference_ser(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_ser(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


class Half(Fraction):
    pass


class Level(enum.IntEnum):
    LOW = 3


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


JSON_TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ∑ 😀", "\u2028"])
INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30)
FRACTIONS = st.builds(Fraction, INTS, INTS.filter(bool))
REALS = st.builds(Real, FRACTIONS) | st.builds(Real, FRACTIONS, FRACTIONS.map(abs))
REPORTS = (ApproxResult, DiscrepancyReport, DiffSetReport, SeparationReport, ShiftReport,
           ExpSumReport, Empty)
REPORT_LEAVES = (
    st.none() | st.booleans() | INTS | JSON_TEXT | FRACTIONS | REALS
    | st.builds(ds.SetSpec, st.integers(2, 36)) | st.floats()
    | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.booleans().map(np.bool_)
    | FRACTIONS.map(lambda x: Half(x.numerator, x.denominator)) | st.just(Level.LOW)
    | st.just(Empty) | st.just(ds.SetSpec(3))
)


def report_of(cls, inner):
    n = len(dataclasses.fields(cls))
    return st.lists(inner, min_size=n, max_size=n).map(lambda values: cls(*values))


REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)
                   | st.sampled_from(REPORTS).flatmap(lambda cls: report_of(cls, inner))),
    max_leaves=30)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES, st.floats(allow_nan=False, allow_infinity=False))
    def test_writer_is_json_dumps(self, report, wall):
        envelope = {"report": report, "meta": {"tool": "radixapprox", "wall_time_ms": wall}}
        text = cli._write({**envelope, "meta": {**envelope["meta"], "wall_time_ms": cli._Number(wall)}})
        assert text == json.dumps(envelope, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(REPORT_VALUES)
    @example(Fraction(-3, 2**70 + 1))
    @example(Real(Fraction(1, 3)))
    @example((ApproxResult(5, Real(Fraction(1, 7), Fraction(1, 2**130)), ds.SetSpec(10), None,
                           "approximate"), np.int64(7), 1.5, Empty()))
    def test_writer_is_json_dumps_of_the_reference_tree(self, value):
        tree = reference_ser(value)
        assert cli._write(value) == json.dumps(tree, indent=2)
        assert cli._write(value, "\n    ") == json.dumps(tree, indent=2).replace("\n", "\n    ")

    @pytest.mark.parametrize("value", [Fraction(1, 10**4300), Real(Fraction(1, 3), Fraction(1, 10**4300)),
                                       [10**4300], {"T": -10**4300}])
    def test_a_value_past_the_digit_limit_is_a_resource_limit(self, value):
        with pytest.raises(ResourceLimit, match="4300-digit limit"):
            cli._write(value)

    def test_writer_is_json_dumps_on_readme_envelopes(self, capsys, monkeypatch):
        # the report and meta are each written once: as json.dumps writes the
        # reference tree, meta's wall time the one float written as a number
        written = []

        def spy(value, pad="\n"):
            text, tree = write(value, pad), reference_ser(value)
            if "wall_time_ms" in tree:
                tree["wall_time_ms"] = float(value["wall_time_ms"])
            written.append((text, json.dumps(tree, indent=2).replace("\n", pad)))
            return text

        write = cli._write
        monkeypatch.setattr(cli, "_write", spy)
        for argv in readme_cli_commands():
            code, out, err = run_cli([*argv, "--format", "json"], capsys)
            assert code == 0, err
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(written) == 18
        assert all(ours == theirs for ours, theirs in written)


if __name__ == "__main__":
    TRANSCRIPT.write_bytes(readme_cli_transcript().encode("utf-8"))
