"""Tests of the benchmark itself: tracer, work counts and output checks.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import math

import pytest

import run as bench
import tracer as tracing
import workloads as wl

wl.import_simmap()

from simmap import datasets, geometry, layout_init, optimizer, pipeline, tree_model  # noqa: E402

# The import sites the tracer must rebind, besides each function's own module.
IMPORT_SITES = {
    "recompute": (geometry, optimizer),
    "cell_neighbors": (geometry, optimizer, pipeline, layout_init),
    "power_diagram": (geometry, layout_init),
    "lloyd_step": (geometry, layout_init),
    "build_cvt": (layout_init, pipeline),
    "match_assignment": (layout_init, pipeline),
    "mds_project": (layout_init, pipeline),
    "proj_scale_init": (layout_init, pipeline),
    "random_assignment": (layout_init, pipeline),
    "swap_improve": (layout_init, pipeline),
    "parse_tree": (tree_model, pipeline),
    "propagate_attributes": (tree_model, pipeline),
    "uniform_depth": (tree_model, pipeline),
    "adapt_weights": (geometry, optimizer),
    "move_toward": (optimizer,),
    "move_orthogonal": (optimizer,),
}


def small_layouts():
    return [
        wl.FullRun("two_level", datasets.gen_synthetic(
            "two_level", {"leaves": 12, "parents": 3}, 0), seed=0, max_iter=8),
        wl.InitOnly("m_n", datasets.gen_synthetic("m_n", {"leaves": 8}, 0), "match_swap", seed=0),
    ]


def test_tracer_rebinds_every_import_site():
    originals = {(m, name): getattr(m, name) for name, mods in IMPORT_SITES.items() for m in mods}
    with tracing.Tracer().installed():
        for (module, name), original in originals.items():
            wrapped = getattr(module, name)
            assert wrapped is not original, f"{module.__name__}.{name} not rebound"
            assert wrapped.__wrapped__ is original
    for (module, name), original in originals.items():
        assert getattr(module, name) is original, f"{module.__name__}.{name} not restored"


def traced_pass(runner):
    tracer = tracing.Tracer()
    with tracer.installed():
        wall, _ = runner.run_pass(tracer)
    return tracer, wall


def test_work_counts_repeat_exactly_across_traced_passes():
    runner = bench.Runner(small_layouts())
    first, _ = traced_pass(runner)
    second, _ = traced_pass(runner)
    assert first.work_counts() == second.work_counts()
    counts = first.work_counts()
    for key in ("geometry.recompute.clips", "geometry.cell_neighbors.pair_tests",
                "geometry.cell_neighbors.bytes", "layout_init.build_cvt.lloyd_iters",
                "optimizer.iterations", "optimizer.move_toward.calls"):
        assert counts[key] > 0, key
    assert runner.failed == 0, runner.problems


def test_self_times_sum_to_traced_wall():
    runner = bench.Runner(small_layouts())
    tracer, wall = traced_pass(runner)
    layers = tracer.layer_metrics()
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS + (tracing.ROOT,))
    assert wall > 0.0
    assert math.isclose(layer_sum, wall, rel_tol=1e-9)


def test_traced_pass_gives_the_untraced_outputs():
    runner = bench.Runner(small_layouts())
    runner.run_pass()
    traced_pass(runner)
    runner.run_pass()
    assert runner.attempted == 6
    assert runner.failed == 0, runner.problems


def test_reference_times_are_raw_times_scaled_by_the_calibration():
    runner = bench.Runner(small_layouts())
    runner.run_pass()
    for index in range(len(runner.layouts)):
        before, after = runner.calibrations[2 * index:2 * index + 2]
        scale = bench.CALIBRATION_REF_S / ((before + after) / 2)
        assert math.isclose(runner.ref_walls[index][0], runner.walls[index][0] * scale)
        assert math.isclose(runner.ref_cpus[index][0], runner.cpus[index][0] * scale)


def test_untraced_run_runs_every_layout_twice_and_reports_every_metric():
    runner = bench.Runner(small_layouts())
    metrics = bench.run_untraced(runner, seconds=0.0)
    assert [len(w) for w in runner.walls] == [bench.MIN_PASSES] * len(runner.layouts)
    assert list(metrics) == [name for name, _, _ in bench.END_TO_END]
    assert all(value > 0 for value in metrics.values())
    assert runner.failed == 0, runner.problems


def test_check_rejects_a_corrupted_polygon():
    layout = small_layouts()[0]
    output = layout.summarize(layout.call())
    assert wl.check(output) == []
    cell = next(c for d in output.diagrams_by_level[2] for c in d.cells if c.polygon is not None)
    center = cell.polygon.centroid
    cell.polygon = geometry.ConvexPolygon(center + 3.0 * (cell.polygon.vertices - center))
    problems = wl.check(output)
    assert any("cell areas sum" in p for p in problems)
    assert any(f"cell {cell.node_id}:" in p for p in problems)


def test_check_rejects_a_missing_svg_cell():
    layout = small_layouts()[0]
    output = layout.summarize(layout.call())
    cell = next(c for d in output.diagrams_by_level[2] for c in d.cells if c.polygon is not None)
    output.svg = output.svg.replace(f'class="cell-{cell.node_id}"', 'class="gone"')
    assert wl.check(output) == [f"SVG has no cell-{cell.node_id} element"]


def test_a_raising_layout_counts_as_failed():
    layout = small_layouts()[1]
    layout.strategy = "no_such_strategy"
    runner = bench.Runner([layout])
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_benchmark_json_matches_the_runner():
    doc = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        [m for m in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [m for m in bench.PER_LAYER]


def test_record_matches_the_workloads():
    record = json.loads((wl.ROOT / "bench" / "record.json").read_text())
    assert record["workloads"] == json.loads(json.dumps(wl.WORKLOADS))


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_workload_inputs_depend_only_on_the_seed(workload):
    first = [layout.document for layout in wl.layouts(workload, 3)]
    assert first == [layout.document for layout in wl.layouts(workload, 3)]
