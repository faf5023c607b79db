#!/usr/bin/env python3
"""Print sha256 prefixes of the CLI's outputs on a fixed set of inputs.

Runs `simmap --seed 0` on the four shipped datasets at default settings, on
two generated two_level documents (120 leaves, 12 parents, gen seeds 0 and 1)
with `--init proj_scale --iters 40`, and on the gen seed 0 document again with
the default init and `--iters 40` (as gen0_match_swap), whose 12 parents each
take a 10-cell CVT with hull candidate lists, and on the dense dataset with
`--boundary square --init random_cvt` (as dense_square), whose root boundary
has 4 vertices instead of the circle's 64. Prints one line per output file,
`<name>.metrics.json <prefix>` and `<name>.svg <prefix>`, 16 lines in all.
Two commits whose lines are equal produced byte-identical layouts, which is
how a change that must not alter any output is checked.

The lines of the current code are committed in scripts/output_hashes.txt. With
--check, the script also compares its lines with that file, lists each file
whose prefix differs, and exits 1 if any does. A change that alters outputs
on purpose rewrites the file:

    python3 scripts/output_hashes.py [--out-dir DIR] [--check]
    python3 scripts/output_hashes.py > scripts/output_hashes.txt
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDED = ROOT / "scripts" / "output_hashes.txt"
SHIPPED = ["borders", "dense", "m_n", "two_level"]
GEN_SEEDS = [0, 1]
PREFIX_LEN = 16


def _cli(args: list[str]) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "simmap.cli", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def _prefix(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:PREFIX_LEN]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", help="keep the outputs here (default: a temporary directory)")
    ap.add_argument("--check", action="store_true",
                    help=f"exit 1 if a prefix differs from {RECORDED.relative_to(ROOT)}")
    args = ap.parse_args()
    prefixes = {}

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(args.out_dir or tmp)
        out.mkdir(parents=True, exist_ok=True)
        runs = [(name, ["--input", str(ROOT / "datasets" / f"{name}.json")])
                for name in SHIPPED]
        for gen_seed in GEN_SEEDS:
            name = f"gen{gen_seed}"
            _cli(["--gen", "two_level", "--leaves", "120", "--parents", "12",
                  "--seed", str(gen_seed), "--out", str(out / name)])
            runs.append((name, ["--input", str(out / f"{name}.json"),
                                "--init", "proj_scale", "--iters", "40"]))
        runs.append(("gen0_match_swap", ["--input", str(out / "gen0.json"), "--iters", "40"]))
        runs.append(("dense_square", ["--input", str(ROOT / "datasets" / "dense.json"),
                                      "--boundary", "square", "--init", "random_cvt"]))
        for name, run_args in runs:
            _cli([*run_args, "--seed", "0", "--out", str(out / name)])
            for suffix in (".metrics.json", ".svg"):
                prefixes[name + suffix] = _prefix(out / f"{name}{suffix}")
                print(f"{name}{suffix} {prefixes[name + suffix]}", flush=True)
    if not args.check:
        return 0
    recorded = dict(line.split() for line in RECORDED.read_text().splitlines() if line.strip())
    differ = [f for f in sorted(prefixes.keys() | recorded.keys())
              if prefixes.get(f) != recorded.get(f)]
    for f in differ:
        print(f"differs: {f} recorded {recorded.get(f)} now {prefixes.get(f)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
