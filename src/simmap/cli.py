"""Command-line driver: run the pipeline, compare strategies, or generate
synthetic datasets."""
from __future__ import annotations

import argparse
import os
import sys

from .datasets import KINDS, gen_synthetic
from .geometry import GeometryError
from .layout_init import STRATEGIES
from .optimizer import OptimizerConfig
from .pipeline import (OutputError, PipelineError, RunConfig, compare, format_compare,
                       json_text, output_suffixes, run, table_row, write_text)
from .render import RenderOptions
from .similarity import SIMILARITY_KINDS
from .tree_model import TreeValidationError

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
# criterion 6's bound on the leaf level's mean relative area error; a run
# above it, or with an empty leaf cell, warns
AREA_ERROR_BOUND = 0.05
# criterion 5's ratio: a run whose leaf level ends with fewer realized
# constraints than this share of those realized at init warns
PRESERVED_RATIO = 0.85
# the flags of a layout run, which --gen does not read
_RUN_FLAGS = ("input", "init", "sim", "iters", "max_neighbors", "boundary", "boundary_size",
              "emit_trace", "emit_constraints", "emit_geometry", "show_unrealized",
              "show_disconnect", "compare", "seeds")
# the flags that write or draw a single run's outputs, which --compare does not
_OUTPUT_FLAGS = ("out", "emit_trace", "emit_constraints", "emit_geometry", "show_unrealized",
                 "show_disconnect")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="simmap",
        description="Similarity-driven, neighborhood-preserving Voronoi treemaps.",
    )
    parser.add_argument("--input", help="input dataset document (JSON)")
    parser.add_argument("--out", help="output path prefix (<out>.svg, <out>.metrics.json)")
    parser.add_argument("--init", choices=STRATEGIES, default="match_swap")
    parser.add_argument("--sim", choices=SIMILARITY_KINDS, default="cosine")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (falls back to SIMMAP_SEED, then 0)")
    parser.add_argument("--iters", type=int, default=150, help="optimization iterations per level")
    parser.add_argument("--max-neighbors", type=int, default=6)
    parser.add_argument("--boundary", default="circle",
                        help="root boundary: square, circle, or polygon:N")
    parser.add_argument("--boundary-size", type=float, default=1000.0)
    parser.add_argument("--emit-trace", action="store_true")
    parser.add_argument("--emit-constraints", action="store_true")
    parser.add_argument("--emit-geometry", action="store_true")
    parser.add_argument("--show-unrealized", action="store_true")
    parser.add_argument("--show-disconnect", action="store_true")
    parser.add_argument("--compare", help="comma-separated init strategies to compare")
    parser.add_argument("--seeds", help="comma-separated seeds for --compare")
    parser.add_argument("--gen", choices=KINDS, help="generate a synthetic dataset instead of running")
    parser.add_argument("--leaves", type=int, default=None, help="synthetic leaf count")
    parser.add_argument("--parents", type=int, default=None, help="synthetic parent count")
    parser.add_argument("--density", type=float, default=None, help="synthetic constraint density")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SIMMAP_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise TreeValidationError(f"SIMMAP_SEED is not an integer: {env!r}") from exc
        if seed < 0:
            raise TreeValidationError(f"SIMMAP_SEED must be >= 0, not {env!r}")
        return seed
    return 0


def _compare_plan(parser, args):
    """(strategies, seeds) for --compare, or (None, None) without it; seeds is
    None when --seeds is absent. A malformed value of either flag is a usage
    error."""
    if args.compare is None:
        if args.seeds is not None:
            parser.error("--seeds needs --compare")
        return None, None
    strategies = [s for s in args.compare.split(",") if s]
    if not strategies:
        parser.error("--compare needs at least one strategy")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        parser.error(f"--compare: unknown strategies {unknown}")
    if args.seeds is None:
        return strategies, None
    seeds = [s for s in args.seeds.split(",") if s]
    if not seeds or not all(s.isdecimal() for s in seeds):
        parser.error("--seeds takes a comma-separated list of non-negative integers")
    return strategies, [int(s) for s in seeds]


def _make_config(args) -> RunConfig:
    return RunConfig(
        input=args.input,
        out_prefix=args.out,
        boundary=args.boundary,
        boundary_size=args.boundary_size,
        init=args.init,
        sim=args.sim,
        seed=_resolve_seed(args),
        optimizer=OptimizerConfig(max_iter=args.iters, max_neighbor_count=args.max_neighbors),
        render=RenderOptions(
            show_unrealized=args.show_unrealized,
            show_disconnect_icon=args.show_disconnect,
        ),
        emit_trace=args.emit_trace,
        emit_constraints=args.emit_constraints,
        emit_geometry=args.emit_geometry,
    )


def _degraded(result) -> str | None:
    """What makes a finished run's leaf level degraded, or None."""
    leaves = result.diagrams_by_level[max(result.diagrams_by_level)]
    empty = sum(c.polygon is None for d in leaves for c in d.cells)
    faults = [f"{empty} empty leaf cell{'s' if empty != 1 else ''}"] if empty else []
    error = result.report.avg_area_error
    if not error <= AREA_ERROR_BOUND:
        faults.append(f"mean relative area error {error:.4g} above {AREA_ERROR_BOUND}")
    level = result.metrics["levels"][str(max(result.diagrams_by_level))]
    final, at_init = level["preserved"], level["preserved_at_init"]
    if at_init and final < PRESERVED_RATIO * at_init:
        faults.append(f"{final} realized constraints, below {PRESERVED_RATIO} x the {at_init} at init")
    return ", ".join(faults) or None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if min(args.iters, args.max_neighbors) < 0:
            parser.error("--iters and --max-neighbors must be >= 0")
        if args.seed is not None and args.seed < 0:
            parser.error("--seed must be >= 0")
        for flag in ("leaves", "parents", "density"):
            if getattr(args, flag) is not None and not args.gen:
                parser.error(f"--{flag} needs --gen")
        for dest in _RUN_FLAGS:
            if args.gen and getattr(args, dest) != parser.get_default(dest):
                parser.error(f"--{dest.replace('_', '-')} does not apply to --gen")
        for dest in _OUTPUT_FLAGS:
            if args.compare is not None and getattr(args, dest) != parser.get_default(dest):
                parser.error(f"--{dest.replace('_', '-')} does not apply to --compare")
        strategies, seeds = _compare_plan(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        config = None if args.gen else _make_config(args)
        if args.out:
            # every output file is checked before any layout work, so a bad one leaves none behind
            directory = os.path.dirname(args.out) or "."
            if not os.path.isdir(directory):
                raise OutputError(f"--out {args.out!r}: no directory {directory!r}")
            for path in (f"{args.out}{suffix}" for suffix in output_suffixes(config)):
                if os.path.isdir(path):
                    raise OutputError(f"cannot write {path!r}: Is a directory")
        if args.gen:
            params = {}
            if args.leaves is not None:
                params["leaves"] = args.leaves
            if args.parents is not None:
                params["parents"] = args.parents
            if args.density is not None:
                params["density"] = args.density
            doc = gen_synthetic(args.gen, params, _resolve_seed(args))
            text = json_text(doc)
            if args.out:
                write_text(f"{args.out}.json", text)
                print(f"wrote {args.out}.json")
            else:
                print(text, end="")
            return 0

        if args.input is None:
            parser.print_usage(sys.stderr)
            print("error: --input is required unless --gen is given", file=sys.stderr)
            return EXIT_USAGE

        if strategies is not None:
            rows = compare(config, strategies, seeds or [config.seed])
            print(format_compare(rows))
            return 0

        result = run(config)
        print(table_row(args.input, result))
        if args.out:
            print(f"wrote {args.out}.svg and {args.out}.metrics.json")
        degraded = _degraded(result)
        if degraded:
            print(f"warning: degraded layout: {degraded}", file=sys.stderr)
        return 0
    except (GeometryError, PipelineError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # GeometryError is a ValueError too, so the clause above comes first;
        # here TreeValidationError, SimilarityError and DatasetError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
