#!/usr/bin/env python3
"""Fresh-run wall time and peak memory of the CLI on input documents.

    python3 scripts/cli_footprint.py [--runs 5] [INPUT ...]

INPUT is the name of a shipped dataset (datasets/<INPUT>.json) or the path of
any input document, such as one written by `simmap --gen`. Each run starts a
fresh interpreter on `python -m simmap.cli --input <document>`, with simmap
imported from this checkout's src/, at the CLI's default settings. The run goes through a small wrapper process, which
times it and then reads its CPU time (user and system) and peak resident set
size from resource.getrusage(RUSAGE_CHILDREN); a wrapper per run keeps each
reading to one CLI process. Prints, per input, the median wall time, CPU
time and peak RSS over the runs, and exits 1 if a run fails. CPU time moves
less than wall time when other work shares the machine. INPUT defaults to every
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

# argv: the command to run. Prints {"returncode", "wall_s", "cpu_s", "peak_rss_mb"}.
WRAPPER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
# ru_maxrss is in bytes on macOS and in kilobytes elsewhere
mb = usage.ru_maxrss / 2**20 if sys.platform == "darwin" else usage.ru_maxrss / 2**10
print(json.dumps({"returncode": proc.returncode, "wall_s": wall,
                  "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": mb}))
"""


def document(name: str) -> pathlib.Path:
    """The input document INPUT names: a shipped dataset, else a path."""
    shipped = ROOT / "datasets" / f"{name}.json"
    return shipped if shipped.is_file() else pathlib.Path(name).resolve()


def measure(path: pathlib.Path) -> dict:
    """One fresh CLI run on the document at `path`, through its own wrapper."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "simmap.cli", "--input", str(path)]
    out = subprocess.run([sys.executable, "-c", WRAPPER, *command], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="INPUT",
                    help="dataset names under datasets/ or paths of input documents "
                         "(default: every dataset)")
    ap.add_argument("--runs", type=int, default=5, help="fresh runs per dataset")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    names = args.names or sorted(p.stem for p in (ROOT / "datasets").glob("*.json"))
    missing = [name for name in names if not document(name).is_file()]
    if missing:
        ap.error(f"no dataset or document named {missing[0]!r}")
    failed = False
    print(f"{'input':<12} {'runs':>4} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>12}")
    for name in names:
        runs = [measure(document(name)) for _ in range(args.runs)]
        if any(r["returncode"] != 0 for r in runs):
            print(f"{name}: a run exited {[r['returncode'] for r in runs]}", file=sys.stderr)
            failed = True
        wall, cpu, peak = (statistics.median(r[key] for r in runs)
                           for key in ("wall_s", "cpu_s", "peak_rss_mb"))
        print(f"{name:<12} {args.runs:>4} {wall:>8.3f} {cpu:>8.3f} {peak:>12.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
