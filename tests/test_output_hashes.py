"""The recorded output hashes hold: scripts/output_hashes.py --check exits 0.

A change that alters outputs on purpose re-records scripts/output_hashes.txt
in the same commit; any other change must leave every line as it is."""
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_output_hashes_match_the_recorded_lines():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_hashes.py"), "--check"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
