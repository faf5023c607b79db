#!/usr/bin/env python3
"""Print sha256 prefixes of the CLI's outputs and final layouts on fixed inputs.

Runs `simmap --seed 0` on the four shipped datasets at default settings, on
two generated two_level documents (120 leaves, 12 parents, gen seeds 0 and 1)
with `--init proj_scale --iters 40`, and on the gen seed 0 document again with
the default init and `--iters 40` (as gen0_match_swap), whose 12 parents each
take a 10-cell CVT with hull candidate lists, and on the dense dataset with
`--boundary square --init random_cvt` (as dense_square), whose root boundary
has 4 vertices instead of the circle's 64, and on a generated m_n document
(30 leaves, 1 parent, gen seed 0) with the default init and `--iters 60` (as
one_parent), whose root takes a 30-cell assignment and hull candidate lists
inside the 64-gon, and on a generated m_n document (200 leaves, 1 parent,
gen seed 0) with the default init and `--iters 20` (as top_rung), whose root
takes a 200-cell diagram, far above the 24 cells up to which
triangulation.level_neighbours tests all pairs. The borders run (pair mode)
and the dense run (vector mode) also pass `--emit-trace --emit-constraints
--emit-geometry`, which write files without touching the layout. Each run is
the CLI's own configuration, `cli._make_config` of the parsed flags, passed
to `pipeline.run`. Prints three lines per run, and three more for each of
the two emitting runs, 36 in all:

- `<name>.metrics.json <prefix>` and `<name>.svg <prefix>`, the output files.
  These are rounded: metrics.json to 10 digits, the SVG to 4 decimals, so a
  change in the last bits of a layout can leave them equal.
- `<name>.layout <prefix>`, of the raw float64 bytes of every final site,
  weight and polygon vertex, in level, diagram and cell order. Equal layout
  lines mean bit-identical layouts.
- `<name>.trace.ndjson <prefix>`, `<name>.constraints.json <prefix>` and
  `<name>.geometry.json <prefix>`, the emitted files of borders and dense.

The lines of the current code are committed in scripts/output_hashes.txt. With
--check, the script also compares its lines with that file, lists each line
whose prefix differs, and exits 1 if any does. A change that alters outputs
on purpose rewrites the file:

    python3 scripts/output_hashes.py [--out-dir DIR] [--check]
    python3 scripts/output_hashes.py > scripts/output_hashes.txt
"""
import argparse
import contextlib
import hashlib
import os
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from simmap import cli, pipeline  # noqa: E402

RECORDED = ROOT / "scripts" / "output_hashes.txt"
SHIPPED = ["borders", "dense", "m_n", "two_level"]
GEN_SEEDS = [0, 1]
# the shipped runs that also write the emitted files: borders in pair mode, dense in vector mode
EMITTING = ("borders", "dense")
EMIT_FLAGS = ["--emit-trace", "--emit-constraints", "--emit-geometry"]
EMITTED = (".trace.ndjson", ".constraints.json", ".geometry.json")
PREFIX_LEN = 16


def _prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX_LEN]


def _layout_bytes(diagrams_by_level: dict) -> bytes:
    """Every final site, weight and polygon vertex as raw float64 bytes."""
    parts = []
    for level in sorted(diagrams_by_level):
        for diagram in diagrams_by_level[level]:
            for cell in diagram.cells:
                parts.append(np.asarray(cell.site, dtype=np.float64).tobytes())
                parts.append(np.float64(cell.weight).tobytes())
                if cell.polygon is not None:
                    parts.append(np.asarray(cell.polygon.vertices, dtype=np.float64).tobytes())
    return b"".join(parts)


def _generate(prefix: pathlib.Path, kind: str, leaves: int, parents: int, seed: int) -> None:
    """Write `simmap --gen` output to <prefix>.json."""
    gen_args = ["--gen", kind, "--leaves", str(leaves), "--parents", str(parents),
                "--seed", str(seed), "--out", str(prefix)]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        status = cli.main(gen_args)
    if status != 0:
        raise SystemExit(f"simmap {' '.join(gen_args)} failed")


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
        runs = [(name, ["--input", str(ROOT / "datasets" / f"{name}.json"),
                        *(EMIT_FLAGS if name in EMITTING else [])])
                for name in SHIPPED]
        for gen_seed in GEN_SEEDS:
            name = f"gen{gen_seed}"
            _generate(out / name, "two_level", 120, 12, gen_seed)
            runs.append((name, ["--input", str(out / f"{name}.json"),
                                "--init", "proj_scale", "--iters", "40"]))
        runs.append(("gen0_match_swap", ["--input", str(out / "gen0.json"), "--iters", "40"]))
        runs.append(("dense_square", ["--input", str(ROOT / "datasets" / "dense.json"),
                                      "--boundary", "square", "--init", "random_cvt"]))
        _generate(out / "one_parent", "m_n", 30, 1, 0)
        runs.append(("one_parent", ["--input", str(out / "one_parent.json"), "--iters", "60"]))
        _generate(out / "top_rung", "m_n", 200, 1, 0)
        runs.append(("top_rung", ["--input", str(out / "top_rung.json"), "--iters", "20"]))
        for name, run_args in runs:
            config = cli._make_config(cli.build_parser().parse_args(
                [*run_args, "--seed", "0", "--out", str(out / name)]))
            result = pipeline.run(config)
            emitted = EMITTED if name in EMITTING else ()
            for suffix in (".metrics.json", ".svg", *emitted):
                prefixes[name + suffix] = _prefix((out / f"{name}{suffix}").read_bytes())
            prefixes[name + ".layout"] = _prefix(_layout_bytes(result.diagrams_by_level))
            for suffix in (".metrics.json", ".svg", ".layout", *emitted):
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
