"""The kernel benchmark runs only by hand, so a renamed or deleted kernel
would break it unseen: run it once, as a user would, and read its table."""
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_kernels.py"
ROW = re.compile(r"^(.*?)\s+(\d+\.\d{3}ms) +(\d+\.\d{3}ms) +(\d+\.\d{3}ms)$")


def case_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _, _ in module.cases()]


def test_bench_kernels_prints_one_row_per_case():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(BENCH), "--repeat", "1"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split() == ["kernel", "best", "median", "max"]
    rows = [ROW.match(line) for line in lines]
    assert all(rows), lines
    names = [row.group(1) for row in rows]
    assert names == case_names()
    assert len(set(names)) == len(names)
