#!/usr/bin/env python3
"""Compare a base revision with the working tree on one benchmark workload.

    python3 scripts/ab_bench.py BASE_REV --workload W --seed S [--pairs 10]

BASE_REV is exported with `git archive` into a temporary directory, so no git
metadata is touched. Each pair runs `bench/run.py --trace 0` once from that
directory and once from the working tree, uncommitted changes included, at
bench/run.py's own run length; even pairs run the base first, odd pairs the
change. The script prints every pair's end-to-end metrics and then, per
metric, each side's median and quartiles, the change's wins out of the pairs
(a tie is nobody's win), and whether the change wins at least 9 in 10 pairs
with a median better than the base's by more than the base's interquartile
range. The metrics and their
better direction are those listed in BENCHMARK.json.

Exits 1 if any run fails or reports "correct": false.
"""
import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def export(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_bench(tree: pathlib.Path, args) -> dict | None:
    """The metrics of one bench/run.py run from `tree`, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        print(f"run from {tree} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}",
              file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"base": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        base = pathlib.Path(tmp)
        export(args.base_rev, base)
        trees = {"base": base, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result = run_bench(trees[side], args)
                failed |= result is None
                runs[side].append(result)
            print(f"pair {pair + 1}/{args.pairs} done, {order[0]} first", file=sys.stderr, flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"base {args.base_rev} vs working tree")
    names = [m["name"] for m in metrics]
    for pair, (b, c) in enumerate(zip(runs["base"], runs["change"]), 1):
        cells = [f"{name} {b[name] if b else 'failed'} -> {c[name] if c else 'failed'}"
                 for name in names if (b is None or name in b) and (c is None or name in c)]
        print(f"  pair {pair:>2} ({'base' if pair % 2 else 'change'} first): " + "; ".join(cells))
    if failed:
        print("a run failed or reported incorrect layouts; no summary", file=sys.stderr)
        return 1

    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        pairs = [(b[name], c[name]) for b, c in zip(runs["base"], runs["change"])
                 if name in b and name in c]
        if not pairs:
            continue
        base_q = quartiles([b for b, _ in pairs])
        change_q = quartiles([c for _, c in pairs])
        wins = sum(sign * (b - c) > 0.0 for b, c in pairs)
        gain = sign * (base_q[1] - change_q[1])
        iqr = base_q[2] - base_q[0]
        holds = 10 * wins >= 9 * len(pairs) and gain > iqr
        print(f"  {name} ({m['unit']}, {m['better']} is better): "
              f"base median {base_q[1]:.6g} [{base_q[0]:.6g}, {base_q[2]:.6g}], "
              f"change median {change_q[1]:.6g} [{change_q[0]:.6g}, {change_q[2]:.6g}]; "
              f"change wins {wins}/{len(pairs)}; gain {gain:.6g} vs base IQR {iqr:.6g}; "
              f">= 9/10 wins and gain > IQR: {'yes' if holds else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
