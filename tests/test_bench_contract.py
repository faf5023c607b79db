"""The benchmark's own tests pass: python -m pytest -q bench/test_bench.py.

They check that the tracer rebinds every import site of simmap's public
functions and that its counters, which read each diagram's `cells`, still
count, so a change to those names or records fails here."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/test_bench.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
