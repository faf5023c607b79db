"""End-to-end command-line behavior: generation, runs, artifacts, exit codes."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simmap import cli, pipeline
from simmap.datasets import KINDS, DatasetError, gen_synthetic
from simmap.geometry import power_diagram, square, cell_neighbors
from simmap.pipeline import PipelineError, load_tree
from simmap.similarity import extract_level_constraints
from simmap.tree_model import TreeValidationError


THREE_NODE_DOC = {
    "name": "root",
    "children": [
        {"name": "a", "weight": 3.0, "similarity": [1.0, 0.0]},
        {"name": "b", "weight": 1.0, "similarity": [0.9, 0.1]},
        {"name": "c", "weight": 1.0, "similarity": [0.0, 1.0]},
    ],
}


@pytest.fixture
def three_node(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_NODE_DOC))
    return str(path)


# ------------------------------------------------------------------------ --gen

def test_gen_writes_valid_json_to_stdout(capsys):
    assert cli.main(["--gen", "m_n", "--leaves", "6", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"]
    assert len(doc["children"]) >= 1


def test_gen_writes_file_with_out(tmp_path, capsys):
    prefix = str(tmp_path / "ds")
    assert cli.main(["--gen", "m_n", "--leaves", "6", "--seed", "1",
                     "--out", prefix]) == 0
    doc = json.loads((tmp_path / "ds.json").read_text())
    assert doc["name"]


def test_gen_deterministic(capsys):
    cli.main(["--gen", "two_level", "--leaves", "8", "--seed", "7"])
    first = capsys.readouterr().out
    cli.main(["--gen", "two_level", "--leaves", "8", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_make_datasets_reproduces_the_shipped_files(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("make_datasets", root / "scripts" / "make_datasets.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    names = [fname for fname, *_ in script.SYNTHETIC] + ["borders.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (root / "datasets" / name).read_bytes(), name


def test_gen_unknown_kind_is_usage_error(capsys):
    assert cli.main(["--gen", "nope"]) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_gen_default_parameters_give_valid_documents(kind):
    # two_level's default 5 parents leave one-leaf groups at 9 leaves and
    # more parents than leaves below 5; dense's 3 parents likewise below 3
    for leaves in range(2, 13):
        tree = load_tree(gen_synthetic(kind, {"leaves": leaves}, seed=0))
        assert sum(n.is_leaf for n in tree.nodes.values()) == leaves
        extract_level_constraints(tree, "cosine")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("parents", [0, -2, 4])
def test_gen_parent_count_outside_one_to_leaves_is_validation_error(kind, parents, capsys):
    with pytest.raises(DatasetError, match="parent count"):
        gen_synthetic(kind, {"leaves": 3, "parents": parents}, seed=0)
    assert cli.main(["--gen", kind, "--leaves", "3", "--parents", str(parents)]) == 2
    assert "parent count must be in [1, 3]" in capsys.readouterr().err


# ------------------------------------------------------------------------- run

def test_run_writes_svg_and_metrics(three_node, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = cli.main(["--input", three_node, "--out", prefix,
                     "--iters", "40", "--seed", "0"])
    assert code == 0
    svg = (tmp_path / "out.svg").read_text()
    assert svg.startswith("<?xml")
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    assert metrics["config"]["seed"] == 0
    assert metrics["leaf"]["constraints_total"] >= 1


def test_run_names_every_file_it_wrote(three_node, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    assert cli.main(["--input", three_node, "--out", prefix, "--iters", "2", "--seed", "0",
                     "--emit-trace", "--emit-geometry"]) == 0
    wrote = capsys.readouterr().out.splitlines()[-1]
    names = ["out.svg", "out.metrics.json", "out.trace.ndjson", "out.geometry.json"]
    assert sorted(os.listdir(tmp_path)) == sorted(names + ["three.json"])
    assert wrote == f"wrote {', '.join(str(tmp_path / n) for n in names[:-1])} and {tmp_path / names[-1]}"


def test_run_area_ratios_match_weights(three_node, tmp_path):
    prefix = str(tmp_path / "out")
    cli.main(["--input", three_node, "--out", prefix, "--iters", "80",
              "--seed", "0", "--emit-geometry"])
    geom = json.loads((tmp_path / "out.geometry.json").read_text())
    cells = geom["1"][0]["cells"]

    def poly_area(verts):
        v = np.asarray(verts)
        x, y = v[:, 0], v[:, 1]
        return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    areas = {c["id"]: poly_area(c["polygon"]) for c in cells}
    total = sum(areas.values())
    assert areas["a"] / total == pytest.approx(0.6, abs=0.03)
    assert areas["b"] / total == pytest.approx(0.2, abs=0.03)
    assert areas["c"] / total == pytest.approx(0.2, abs=0.03)


def test_seed_flag_beats_env(three_node, tmp_path, monkeypatch):
    monkeypatch.setenv("SIMMAP_SEED", "99")
    prefix = str(tmp_path / "out")
    cli.main(["--input", three_node, "--out", prefix, "--iters", "5",
              "--seed", "3"])
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    assert metrics["config"]["seed"] == 3


def test_env_seed_fallback(three_node, tmp_path, monkeypatch):
    monkeypatch.setenv("SIMMAP_SEED", "11")
    prefix = str(tmp_path / "out")
    cli.main(["--input", three_node, "--out", prefix, "--iters", "5"])
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    assert metrics["config"]["seed"] == 11


def test_default_seed_zero(three_node, tmp_path, monkeypatch):
    monkeypatch.delenv("SIMMAP_SEED", raising=False)
    prefix = str(tmp_path / "out")
    cli.main(["--input", three_node, "--out", prefix, "--iters", "5"])
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    assert metrics["config"]["seed"] == 0


# ------------------------------------------------------------------ exit codes

def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["--frobnicate"]) == 1


def test_bad_compare_strategy_is_usage_error(three_node, capsys):
    assert cli.main(["--input", three_node, "--compare", "match_swap,bogus"]) == 1


@pytest.mark.parametrize("extra, flag", [
    (["--compare", ""], "--compare"),
    (["--compare", "match_swap", "--seeds", "0,x"], "--seeds"),
    (["--compare", "match_swap", "--seeds", "-1"], "--seeds"),
    (["--seeds", "1,2"], "--seeds"),
], ids=["empty_compare", "non_integer_seed", "negative_seed", "seeds_without_compare"])
def test_bad_compare_or_seeds_is_usage_error_naming_the_flag(three_node, extra, flag, capsys):
    assert cli.main(["--input", three_node, "--iters", "5"] + extra) == 1
    assert f"error: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--leaves", "5"), ("--parents", "2"), ("--density", "0.5")])
def test_gen_parameter_without_gen_is_usage_error_naming_the_flag(three_node, flag, value, capsys):
    assert cli.main(["--input", three_node, "--iters", "5", flag, value]) == 1
    assert f"error: {flag} needs --gen" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--input", "x.json"), ("--init", "proj_scale"), ("--sim", "jaccard"), ("--iters", "3"),
    ("--max-neighbors", "2"), ("--boundary", "square"), ("--boundary-size", "10"),
    ("--emit-trace", None), ("--emit-constraints", None), ("--emit-geometry", None),
    ("--show-unrealized", None), ("--show-disconnect", None), ("--compare", "match_swap"),
    ("--seeds", "1"),
])
def test_run_flag_with_gen_is_usage_error_naming_the_flag(flag, value, capsys):
    extra = [flag] if value is None else [flag, value]
    assert cli.main(["--gen", "m_n", "--leaves", "3"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {flag} does not apply to --gen" in captured.err


@pytest.mark.parametrize("flag, value", [
    ("--out", "x"), ("--emit-trace", None), ("--emit-constraints", None),
    ("--emit-geometry", None), ("--show-unrealized", None), ("--show-disconnect", None),
])
def test_output_flag_with_compare_is_usage_error_naming_the_flag(three_node, flag, value, tmp_path,
                                                                 monkeypatch, capsys):
    # --compare prints a table and writes no file, so an output flag would
    # be ignored without a word
    def compare(*args):
        raise AssertionError("the comparison ran")

    monkeypatch.setattr(cli, "compare", compare)
    out = tmp_path / "out"
    out.mkdir()
    extra = [flag] if value is None else [flag, str(out / value)]
    assert cli.main(["--input", three_node, "--compare", "match_swap"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {flag} does not apply to --compare" in captured.err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--iters", "--max-neighbors"])
def test_negative_count_is_usage_error(three_node, flag, capsys):
    assert cli.main(["--input", three_node, flag, "-1"]) == 1


@pytest.mark.parametrize("gen", [False, True], ids=["run", "gen"])
def test_negative_seed_is_usage_error_naming_the_flag(three_node, gen, capsys):
    source = ["--gen", "m_n"] if gen else ["--input", three_node]
    assert cli.main(source + ["--seed", "-1"]) == 1
    assert "error: --seed" in capsys.readouterr().err


def test_negative_env_seed_is_validation_error_naming_the_variable(three_node, monkeypatch, capsys):
    monkeypatch.setenv("SIMMAP_SEED", "-3")
    assert cli.main(["--input", three_node]) == 2
    assert "input error: SIMMAP_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["polygon:x", "polygon:", "polygon:5.5"])
def test_malformed_polygon_boundary_is_validation_error_naming_the_spec(three_node, spec, capsys):
    assert cli.main(["--input", three_node, "--boundary", spec]) == 2
    assert f"input error: boundary spec {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["-5", "0", "nan", "inf", "1e150", "1e-200"])
def test_bad_boundary_size_is_validation_error(three_node, size, capsys):
    assert cli.main(["--input", three_node, "--boundary-size", size]) == 2


@pytest.mark.parametrize("size", ["1e100", "1e-100"])
def test_boundary_size_at_either_end_of_its_range_runs(three_node, size, capsys):
    assert cli.main(["--input", three_node, "--boundary-size", size, "--iters", "5"]) == 0


def test_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--input", str(bad)]) == 2


def test_missing_file_is_validation_error(capsys):
    assert cli.main(["--input", "/nonexistent/x.json"]) == 2


def test_unreadable_input_is_validation_error_naming_the_path(tmp_path, capsys):
    assert cli.main(["--input", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(tmp_path) in err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"", b'{"name": "root", "chil'],
                         ids=["not_utf8", "empty", "truncated"])
def test_undecodable_input_is_validation_error_naming_the_path(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(path) in err


def test_unwritable_output_file_is_output_error_naming_the_file(tmp_path, capsys):
    (tmp_path / "x.svg").mkdir()
    dataset = str(Path(__file__).resolve().parents[1] / "datasets" / "borders.json")
    assert cli.main(["--input", dataset, "--out", str(tmp_path / "x"), "--iters", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(tmp_path / "x.svg") in err


def test_unwritable_gen_output_is_output_error_naming_the_file(tmp_path, capsys):
    (tmp_path / "p.json").mkdir()
    assert cli.main(["--gen", "m_n", "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(tmp_path / "p.json") in err


def _nested(depth: int) -> str:
    """A document of one leaf under `depth` single-child parents, as JSON text,
    built without json.dumps, which would recurse as deep."""
    text = '{"name": "leaf"}'
    for k in range(depth):
        text = f'{{"name": "n{k}", "children": [{text}]}}'
    return text


def test_document_nested_too_deep_is_validation_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(_nested(700))
    assert cli.main(["--input", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "nests deeper" in err
    shallow = tmp_path / "shallow.json"
    shallow.write_text(_nested(300))
    assert len(load_tree(str(shallow)).nodes) == 301


def test_dict_nested_too_deep_is_validation_error():
    doc = {"name": "leaf"}
    for k in range(1000):
        doc = {"name": f"n{k}", "children": [doc]}
    with pytest.raises(TreeValidationError, match="nests deeper"):
        pipeline.run(pipeline.RunConfig(input=doc))


def test_duplicate_ids_is_validation_error(tmp_path, capsys):
    doc = {"name": "r", "children": [
        {"name": "a", "weight": 1.0}, {"name": "a", "weight": 1.0}]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--input", str(path)]) == 2


@pytest.mark.parametrize("leaf", [
    {"weight": float("nan")},
    {"weight": float("inf")},
    {"weight": 1.0, "similarity": [float("nan"), 0.1]},
], ids=["nan_weight", "inf_weight", "nan_similarity"])
def test_non_finite_leaf_is_validation_error(leaf, tmp_path, capsys):
    doc = json.loads(json.dumps(THREE_NODE_DOC))
    doc["children"][1].update(leaf)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    prefix = tmp_path / "out"
    assert cli.main(["--input", str(path), "--out", str(prefix), "--iters", "5"]) == 2
    assert not os.path.exists(f"{prefix}.metrics.json")


@pytest.mark.parametrize("doc, named", [
    ({"name": "r", "children": [1, 2]}, "node 'r': child 0"),
    ({"name": "r", "children": "ab"}, "node 'r': children"),
    ({"name": "r", "children": [{"name": "a"}, {"weight": 1.0}]}, "node 'r': child 1"),
    ({"name": "r", "children": [{"name": "a"}, {"name": "b"}], "pairs": [5]}, "pair entry: 5"),
    ({"name": "r", "children": [{"name": "a"}, {"name": "b"}], "pairs": [["a", "b", None]]},
     "pair entry ['a', 'b', None]"),
    ({"name": "r", "children": [{"name": "a", "color": 5}, {"name": "b"}]}, "node 'a': color"),
    ({"name": "r", "children": [{"name": "p", "color": "zzz", "children": [{"name": "a"}]},
                                {"name": "b"}]}, "node 'p': color"),
    ({"name": "r", "children": [{"name": "a", "color": "#12"}, {"name": "b"}]}, "node 'a': color"),
    ({"name": "r", "children": [{"name": "a", "weight": 1.0}, {"name": "b", "weight": 1e308},
                                {"name": "c", "weight": 1e308}]}, "node 'r': children's weights"),
    ({"name": "r", "children": [{"name": "a", "weight": 5e-324}, {"name": "b", "weight": 1e10}]},
     "node 'a': weight 5e-324 is a share of 0"),
    ({"name": "r", "children": [{"name": "g", "children": [{"name": "a", "weight": 1e308},
                                                           {"name": "b", "weight": 1e308}]},
                                {"name": "c", "weight": 1.0}]}, "node 'g': children's weights"),
], ids=["number_children", "string_children", "nameless_child", "number_pair",
        "null_similarity_pair", "number_color", "non_hex_parent_color", "short_leaf_color",
        "root_weight_overflow", "leaf_share_underflow", "group_weight_overflow"])
def test_malformed_document_is_validation_error_naming_the_node_or_entry(doc, named, tmp_path,
                                                                         capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--input", str(path), "--iters", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and named in err


def test_target_area_underflow_is_numeric_failure_naming_the_cell(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "root", "children": [{"name": "a", "weight": 1e-200},
                                                             {"name": "b", "weight": 1}]}))
    assert cli.main(["--input", str(path), "--boundary-size", "1e-100", "--iters", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "'a'" in err


def test_missing_out_directory_is_an_error_before_any_layout(monkeypatch, capsys):
    def layout(config):
        raise AssertionError("the layout ran")

    monkeypatch.setattr(cli, "run", layout)
    dataset = str(Path(__file__).resolve().parents[1] / "datasets" / "borders.json")
    assert cli.main(["--input", dataset, "--out", "/nonexistent_dir/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: --out ") and "/nonexistent_dir" in err
    assert "input error" not in err


def test_output_file_that_is_a_directory_is_an_error_before_any_layout(tmp_path, monkeypatch,
                                                                        capsys):
    def layout(config):
        raise AssertionError("the layout ran")

    monkeypatch.setattr(cli, "run", layout)
    (tmp_path / "x.metrics.json").mkdir()
    dataset = str(Path(__file__).resolve().parents[1] / "datasets" / "two_level.json")
    assert cli.main(["--input", dataset, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(tmp_path / "x.metrics.json") in err
    assert not (tmp_path / "x.svg").exists()


TINY_SHARE_DOC = {"name": "root", "children": [{"name": "a", "weight": 1e-200},
                                               {"name": "b", "weight": 1}]}
# one leaf of weight 1e6 among 11 of weight 1, all with the same similarity
HEAVY_LEAF_DOC = {"name": "root", "children": [
    {"name": f"l{k}", "weight": 1e6 if k == 0 else 1.0, "similarity": [1.0, 0.0]}
    for k in range(12)]}


@pytest.mark.parametrize("doc, named", [
    (TINY_SHARE_DOC, "mean relative area error 3.658e+196 above 0.05"),
    (HEAVY_LEAF_DOC, " empty leaf cells, mean relative area error "),
], ids=["tiny_share", "heavy_leaf"])
def test_degraded_run_warns_and_exits_zero(doc, named, tmp_path, capsys):
    path = tmp_path / "degraded.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["--input", str(path)]) == 0
    captured = capsys.readouterr()
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1 and named in warnings[0]
    assert "warning" not in captured.out


@pytest.mark.parametrize("leaves, final, at_init", [(30, 20, 30), (60, 9, 55)])
def test_run_that_loses_its_constraints_warns(leaves, final, at_init, tmp_path, capsys):
    # generated m_n trees with one parent end with far fewer realized
    # constraints than their initial layout has (criterion 5's ratio)
    path = tmp_path / "lost.json"
    path.write_text(json.dumps(gen_synthetic("m_n", {"leaves": leaves, "parents": 1}, 0)))
    assert cli.main(["--input", str(path), "--out", str(tmp_path / "lost")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert f"{final} realized constraints, below 0.85 x the {at_init} at init" in warnings[0]
    level = json.loads((tmp_path / "lost.metrics.json").read_text())["levels"]["1"]
    assert (level["preserved"], level["preserved_at_init"]) == (final, at_init)


@pytest.mark.parametrize("name", ["dense", "m_n", "two_level"])
def test_shipped_dataset_prints_no_warning(name, capsys):
    dataset = str(Path(__file__).resolve().parents[1] / "datasets" / f"{name}.json")
    assert cli.main(["--input", dataset]) == 0
    assert "warning" not in capsys.readouterr().err


def test_healthy_run_prints_no_warning(capsys):
    dataset = str(Path(__file__).resolve().parents[1] / "datasets" / "borders.json")
    assert cli.main(["--input", dataset]) == 0
    assert "warning" not in capsys.readouterr().err


def test_bad_env_seed_is_validation_error(three_node, monkeypatch, capsys):
    monkeypatch.setenv("SIMMAP_SEED", "not-a-number")
    assert cli.main(["--input", three_node]) == 2


def test_numeric_failure_is_exit_three(three_node, monkeypatch, capsys):
    def boom(config):
        raise PipelineError("diagram collapsed")

    monkeypatch.setattr(cli, "run", boom)
    assert cli.main(["--input", three_node]) == 3


# -------------------------------------------------------------------- --compare

def test_compare_single_strategy_matches_run(three_node, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    cli.main(["--input", three_node, "--out", prefix, "--iters", "30",
              "--seed", "4"])
    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    capsys.readouterr()
    assert cli.main(["--input", three_node, "--compare", "match_swap",
                     "--seeds", "4", "--iters", "30"]) == 0
    table = capsys.readouterr().out
    assert "match_swap" in table
    frac = metrics["leaf"]["preserved_fraction"]
    assert f"{100.0 * frac:.1f}" in table or f"{frac:.3f}" in table


def test_compare_multiple_strategies_prints_all(three_node, capsys):
    assert cli.main(["--input", three_node,
                     "--compare", "match_swap,random_cvt,proj_scale",
                     "--seeds", "0,1", "--iters", "10"]) == 0
    table = capsys.readouterr().out
    for name in ("match_swap", "random_cvt", "proj_scale"):
        assert name in table


# ------------------------------------------------------------------ --emit-trace

def test_trace_roundtrip_rebuilds_final_diagram(tmp_path, capsys):
    gen_prefix = str(tmp_path / "mn")
    cli.main(["--gen", "m_n", "--leaves", "8", "--seed", "2",
              "--out", gen_prefix])
    prefix = str(tmp_path / "out")
    assert cli.main(["--input", gen_prefix + ".json", "--out", prefix,
                     "--iters", "60", "--seed", "1", "--emit-trace"]) == 0
    frames = [json.loads(line)
              for line in (tmp_path / "out.trace.ndjson").read_text().splitlines()]
    assert frames, "trace must contain at least one frame"
    assert [f["iter"] for f in frames] == sorted(f["iter"] for f in frames)
    final = frames[-1]

    metrics = json.loads((tmp_path / "out.metrics.json").read_text())
    geom_ids = sorted(final["sites"])
    # rebuild the diagram from the final frame and re-count realized pairs
    boundary = None
    from simmap.pipeline import make_boundary
    boundary = make_boundary("circle", 1000.0)
    sites = [final["sites"][nid] for nid in geom_ids]
    weights = [final["weights"][nid] for nid in geom_ids]
    d = power_diagram(sites, boundary, weights=weights, node_ids=geom_ids,
                      scale=boundary.diagonal)
    nm = cell_neighbors([d])
    constraints = metrics["leaf"]["per_constraint"]
    realized = sum(
        1 for c in constraints
        if tuple(sorted((c["a"], c["b"]))) in nm
    )
    assert realized == metrics["leaf"]["constraints_preserved"]
    assert realized == final["realized"]


# ---------------------------------------------------------------- import cost

# Run in a fresh interpreter: prints, after each stage, which of the modules
# that simmap must not load at import time are loaded.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
HEAVY = ("scipy", "xml.sax", "http.client", "urllib.request")

def heavy():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))

import simmap
stages = {"import": heavy()}
from simmap import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--gen", "m_n", "--leaves", "6", "--seed", "1"])
stages["gen"] = heavy()
from simmap import pipeline
from simmap.datasets import gen_synthetic
from simmap.optimizer import OptimizerConfig
pipeline.run(pipeline.RunConfig(input=gen_synthetic("m_n", {"leaves": 6}, 1)))
stages["run_6"] = heavy()
import numpy as np
from simmap.geometry import power_diagram, square
rng = np.random.default_rng(0)
power_diagram(rng.uniform(0.0, 1.0, size=(12, 2)), square(1.0))
stages["power_diagram_12"] = heavy()
pipeline.run(pipeline.RunConfig(input=sys.argv[2]))
stages["m_n"] = heavy()
power_diagram(rng.uniform(0.0, 1.0, size=(14, 2)), square(1.0))
stages["power_diagram_14"] = heavy()
power_diagram(rng.uniform(0.0, 1.0, size=(200, 2)), square(1.0))
stages["power_diagram_200"] = heavy()
pipeline.run(pipeline.RunConfig(input=gen_synthetic("m_n", {"leaves": 30, "parents": 1}, 0),
                                optimizer=OptimizerConfig(max_iter=5)))
stages["run_30"] = heavy()
print(json.dumps(stages))
"""


def test_import_and_gen_load_no_scipy_or_xml_sax():
    # The runtime needs numpy alone: candidate lists come from numpy at every
    # diagram size (a 200-site diagram follows the kept pairs of its sites'
    # nearest sites), and the match_swap assignment is solved in-package.
    # datasets/m_n.json has a 10-cell parent.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(root / "src"),
                           str(root / "datasets" / "m_n.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert list(stages) == ["import", "gen", "run_6", "power_diagram_12", "m_n",
                            "power_diagram_14", "power_diagram_200", "run_30"]
    for stage, loaded in stages.items():
        assert loaded == [], stage
