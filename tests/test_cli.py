import inspect
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import radixapprox.cli as cli
from radixapprox.cli import MAX_PRECISION_BITS, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands():
    """The argv of every command in the code block under README's "## CLI"."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("radix-approx ")]


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
        ["adversary", "--base", "2", "--count", "200000"],
    ], ids=["search", "adversary"])
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

    @pytest.mark.parametrize("argv", [
        ["search", "--limit", "10", "--gamma", "1/3", "--method", "bogus"],
        ["search", "--limit", "x", "--gamma", "1/3"],
        ["search", "--limit", "10", "--gamma", "1/3", "--no-such-flag"],
        ["expsum", "--gamma", "1/3", "--k", "1"],
        ["discrepancy", "--gamma", "1/7"],
    ])
    def test_usage_errors_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["discrepancy", "--gamma", "1/7", "--limit", "7", "--base", "3"],
        ["expsum", "--gamma", "1/3", "--r", "1", "--k", "1", "--threads", "2"],
        ["constants", "--gamma", "1/2"],
        ["verify-all", "--precision-bits", "200"],
        ["diffset", "--limit", "13", "--gamma", "1/3"],
        ["adversary", "--count", "128", "--precision-bits", "200"],
        ["search", "--limit", "10", "--gamma", "1/3", "--r", "3"],
    ])
    def test_flag_outside_subcommand_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_resource_limit_via_config_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("enumeration_cap=10\n")
        monkeypatch.setenv("RADIX_APPROX_CONFIG", str(cfg))
        code, _, err = run_cli(["adversary", "--base", "2", "--count", "1000"], capsys)
        assert code == 3 and "resource limit" in err
        code, _, err = run_cli(["adversary", "--method", "no-multiples", "--base", "2",
                                "--k", "3", "--t", "3", "--e-max", "6"], capsys)
        assert code == 3 and "resource limit" in err

    @pytest.mark.parametrize("argv", [
        ["expsum", "--method", "shifts", "--base", "2", "--r", "60", "--k", "1",
         "--beta", "1/8", "--gamma", "5/313"],
        ["expsum", "--method", "decay", "--base", "3", "--r", "60", "--k", "1", "--m", "1",
         "--gamma", "5/313"],
    ], ids=["shifts", "decay"])
    def test_r_above_the_cap_is_a_resource_limit(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code == 3 and "exceeds the term cap r <= 26" in err

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

    def test_entry_point_runs(self):
        proc = self.run_entry_point(["--version"])
        assert proc.returncode == 0 and "radix-approx" in proc.stdout
