#!/usr/bin/env python3
"""Fresh-run wall time and peak memory of the CLI on the shipped datasets.

    python3 scripts/cli_footprint.py [--runs 5] [NAME ...]

Each run starts a fresh interpreter on `python -m simmap.cli --input
datasets/<NAME>.json`, with simmap imported from this checkout's src/, at the
CLI's default settings. The run goes through a small wrapper process, which
times it and then reads its peak resident set size from
resource.getrusage(RUSAGE_CHILDREN); a wrapper per run keeps each reading to
one CLI process. Prints, per dataset, the median wall time and the median
peak RSS over the runs, and exits 1 if a run fails. NAME defaults to every
file in datasets/. Standard library only; the environment, including
OPENBLAS_NUM_THREADS, is passed through.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# argv: the command to run. Prints {"returncode", "wall_s", "peak_rss_mb"}.
WRAPPER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10
print(json.dumps({"returncode": proc.returncode, "wall_s": wall, "peak_rss_mb": mb}))
"""


def measure(name: str) -> dict:
    """One fresh CLI run on datasets/<name>.json, through its own wrapper."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "simmap.cli", "--input", str(ROOT / "datasets" / f"{name}.json")]
    out = subprocess.run([sys.executable, "-c", WRAPPER, *command], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help="dataset names under datasets/ (default: all)")
    ap.add_argument("--runs", type=int, default=5, help="fresh runs per dataset")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    names = args.names or sorted(p.stem for p in (ROOT / "datasets").glob("*.json"))
    failed = False
    print(f"{'dataset':<12} {'runs':>4} {'wall_s':>8} {'peak_rss_mb':>12}")
    for name in names:
        runs = [measure(name) for _ in range(args.runs)]
        if any(r["returncode"] != 0 for r in runs):
            print(f"{name}: a run exited {[r['returncode'] for r in runs]}", file=sys.stderr)
            failed = True
        wall = statistics.median(r["wall_s"] for r in runs)
        peak = statistics.median(r["peak_rss_mb"] for r in runs)
        print(f"{name:<12} {args.runs:>4} {wall:>8.3f} {peak:>12.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
