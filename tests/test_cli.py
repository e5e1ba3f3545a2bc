"""CLI subcommands end to end: exit codes and reproducible outputs."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spdsheaf import cli, jsonio, verify
from spdsheaf.cli import build_parser, main
from spdsheaf.covgraph import TFGraphConfig, build_tf_graph
from spdsheaf.sheaf import (
    SheafGraph,
    _coboundary_logs,
    global_sections,
    section_space_summary,
    sym_dim,
)
from spdsheaf.spd import vec_to_sym
from spdsheaf.stream import (
    canonicalize,
    diffusion_run,
    geometric_graph,
    lift_coordinates,
    local_frame,
)
from spdsheaf.verify import random_sheaf


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _write_cloud(path, points, edges, ids=None):
    """A point-cloud file in the documented schema."""
    ids = range(len(points)) if ids is None else ids
    _write_json(path, {"vertices": [{"id": v, "xyz": p} for v, p in zip(ids, points.tolist())],
                       "edges": [list(e) for e in edges]})


@pytest.fixture()
def cloud_file(tmp_path):
    rng = np.random.default_rng(38)
    pts = rng.normal(scale=0.7, size=(10, 3))
    path = str(tmp_path / "cloud.json")
    _write_cloud(path, pts, geometric_graph(pts, radius=0.8))
    return path


@pytest.fixture()
def sheaf_file(tmp_path):
    sheaf = random_sheaf(2, 5, 0, np.random.default_rng(0), identity_maps=True)
    path = str(tmp_path / "sheaf.json")
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf))
    return path


@pytest.fixture()
def segments_file(tmp_path):
    rng = np.random.default_rng(1)
    segs = [{"t_mid": 0.2 * (i // 2), "f_mid": (10.0, 20.0)[i % 2],
             "data": rng.normal(size=(3, 30)).tolist()} for i in range(6)]
    path = str(tmp_path / "segments.json")
    _write_json(path, {"segments": segs})
    return path


def test_verify_single_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    out = str(tmp_path / "ver")
    code = main(["verify", "--check", "green", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "green" in printed and "PASS" in printed
    report = json.load(open(os.path.join(out, "verdicts.json")))
    assert report["passed"] is True
    assert [v["check"] for v in report["verdicts"]] == ["green"]


def test_verify_all_smoke(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    code = main(["verify", "--all"])
    assert code == 0
    assert capsys.readouterr().out.count("PASS") == 7


@pytest.mark.parametrize("cap", ["1", "2"])
def test_verify_failure_exit_code(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("SPD_SHEAF_THREADS", cap)
    primary = verify.adjoint

    def perturbed(sheaf, tau):
        out = primary(sheaf, tau)  # (trials, |V|, n, n): scale the last vertex
        out[..., -1, :, :] *= 1.01
        return out

    monkeypatch.setattr(verify, "adjoint", perturbed)
    monkeypatch.setattr(verify, "_N_INSTANCES", 3)
    assert main(["verify", "--check", "green", "--out", str(tmp_path / "o")]) == 1


def test_verify_outputs_are_the_same_at_every_worker_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_N_INSTANCES", 10)
    outputs = []
    for cap in ("1", "2", "3"):
        monkeypatch.setenv("SPD_SHEAF_THREADS", cap)
        out = tmp_path / cap
        assert main(["verify", "--all", "--out", str(out)]) == 0
        outputs.append(((out / "verdicts.json").read_bytes(), capsys.readouterr().out))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_verify_at_a_thread_cap_of_1_starts_no_process(monkeypatch, capsys):
    import concurrent.futures
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    monkeypatch.setenv("SPD_SHEAF_THREADS", "1")
    assert main(["verify", "--all"]) == 0
    assert capsys.readouterr().out.count("PASS") == 7
    # the same run at a cap of 2 reaches the patched pool
    monkeypatch.setenv("SPD_SHEAF_THREADS", "2")
    with pytest.raises(AssertionError, match="worker process"):
        main(["verify", "--all"])


def test_verify_defaults_are_the_suite_config_defaults(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(verify, "run_suite", lambda config: (seen.append(config), ([], 0))[1])
    assert main(["verify"]) == 0
    assert seen == [verify.SuiteConfig()]


def test_parser_is_built_once_and_keeps_no_values(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(verify, "run_suite", lambda config: (seen.append(config), ([], 0))[1])
    assert main(["verify", "--check", "green", "--seed", "7"]) == 0
    assert main(["verify"]) == 0
    assert (seen[0].checks, seen[0].seed) == (("green",), 7)
    assert seen[1] == verify.SuiteConfig()


def test_commands_are_looked_up_per_call(cloud_file, monkeypatch):
    build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_lift", lambda args: calls.append(args.cloud) or 0)
    assert main(["lift", cloud_file]) == 0
    assert calls == [cloud_file]


def test_readme_names_only_what_the_parser_takes():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    examples = [line.split()[1:] for line in text.splitlines() if line.startswith("spd-sheaf ")]
    assert examples
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: spd-sheaf {' '.join(argv)}")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for opt in sub._option_string_actions}
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert named and not named - options, f"no subcommand takes {sorted(named - options)}"


def test_sections_report(sheaf_file, capsys):
    assert main(["sections", sheaf_file]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel_dim"] == 3  # identity tree, n = 2
    assert report["index"] == 3
    assert report["holonomy_fixed_total"] == 3
    assert len(report["basis"]) == 3
    for entry in report["basis"]:
        assert len(entry["edge_residuals"]) == 4
        assert max(entry["edge_residuals"], default=0.0) <= 1e-7


def test_sections_factors_no_operator_on_all_vertices(tmp_path, monkeypatch, capsys):
    sheaf = random_sheaf(2, 6, 3, np.random.default_rng(4))
    path = str(tmp_path / "sheaf.json")
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf))
    shapes, svd = [], np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert main(["sections", path]) == 0
    # the kernel comes from the per-component holonomy nullspaces (m columns)
    assert shapes and not [s for s in shapes if s[-1] == sheaf.n_vertices * 3]
    assert json.loads(capsys.readouterr().out)["kernel_dim"] >= 1


def test_sections_log_upper_is_each_vertex_slice_of_the_basis(tmp_path):
    # a tree and a component with cycles, integer and string ids out of sorted order
    rng = np.random.default_rng(9)
    tree, loops = random_sheaf(2, 4, 0, rng), random_sheaf(2, 5, 2, rng)
    ids = [3, "b", 0, "a", "e", 1, "c", 2, "d"]
    edges = ([(ids[t], ids[h]) for t, h in tree.edges]
             + [(ids[4 + t], ids[4 + h]) for t, h in loops.edges])
    path, out = str(tmp_path / "sheaf.json"), str(tmp_path / "report.json")
    sheaf = SheafGraph(2, ids, edges, [*tree.maps, *loops.maps])
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf))
    assert main(["sections", path, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    basis = global_sections(jsonio.load_sheaf(path)[0])
    m = sym_dim(2)
    assert report["components"] == 2 and len(report["basis"]) == basis.shape[1] > m
    for col, entry in enumerate(report["basis"]):
        # the report is written with sorted keys
        assert list(entry["log_upper"].items()) == sorted(
            (str(v), basis[i * m:(i + 1) * m, col].tolist()) for i, v in enumerate(ids))


def _dense_sections_report(sheaf) -> str:
    """The sections report as the dense path wrote it: the (|V| m, kernel_dim)
    basis, the coboundary residuals of every column on every edge, and every
    vertex row and edge residual of every column encoded."""
    basis = global_sections(sheaf)
    n, m, k = sheaf.n_stalk, sym_dim(sheaf.n_stalk), basis.shape[1]
    columns = basis.T.reshape(k, sheaf.n_vertices, m)
    residuals = np.linalg.norm(_coboundary_logs(sheaf, vec_to_sym(columns, n)), axis=(-2, -1))
    counts = section_space_summary(sheaf)
    keys = [str(v) for v in sheaf.vertices]
    report = {
        "n_stalk": n,
        "n_vertices": sheaf.n_vertices,
        "n_edges": sheaf.n_edges,
        "kernel_dim": counts["kernel_dim"],
        "index": counts["index"],
        "components": counts["components"],
        "holonomy_fixed_dims": counts["holonomy_fixed_dims"],
        "holonomy_fixed_total": counts["holonomy_fixed_total"],
        "basis": [{"log_upper": dict(zip(keys, rows)), "edge_residuals": norms}
                  for rows, norms in zip(columns.tolist(), residuals.tolist())],
    }
    return jsonio._dump_json(report)


_ODD_IDS = ["b\"x", "é", "10", "9", 12, 3, "a", 0, "Z", "x, y", 7, "", 25, "é9"]


def _relabelled(sheaf, rng, isolated=0):
    """`sheaf` on ids drawn from _ODD_IDS in shuffled order, plus `isolated` vertices."""
    ids = [_ODD_IDS[i] for i in rng.permutation(len(_ODD_IDS))[:sheaf.n_vertices + isolated]]
    return SheafGraph(sheaf.n_stalk, ids, [(ids[t], ids[h]) for t, h in sheaf.edges],
                      sheaf.maps)


def _report_cases():
    rng = np.random.default_rng(34)
    for n in (1, 2, 3, 4):
        for extra in (0, 1, 3):
            forest = random_sheaf(n, int(rng.integers(1, 10)), extra, rng, connected=False)
            yield _relabelled(forest, rng, isolated=int(rng.integers(0, 3)))
    yield _relabelled(SheafGraph.identity_maps(2, range(4), []), rng)
    yield SheafGraph.identity_maps(3, [], [])


def test_sections_report_is_the_dense_report_byte_for_byte(tmp_path, capsys):
    path, out = str(tmp_path / "sheaf.json"), str(tmp_path / "report.json")
    for sheaf in _report_cases():
        jsonio.write_text(path, jsonio.sheaf_to_json(sheaf))
        expected = _dense_sections_report(jsonio.load_sheaf(path)[0]) + "\n"
        assert main(["sections", path]) == 0
        assert capsys.readouterr().out == expected
        assert main(["sections", path, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == expected


def test_sections_malformed_file(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["sections", path]) == 2
    assert "line" in capsys.readouterr().err


def test_diffuse_outputs_and_determinism(cloud_file, tmp_path, capsys):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["diffuse", cloud_file, "--layers", "4", "--seed", "7",
                 "--out", out1]) == 0
    assert main(["diffuse", cloud_file, "--layers", "4", "--seed", "7",
                 "--out", out2]) == 0
    for name in ("trace.csv", "final_cochain.json", "run.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
    lines = open(os.path.join(out1, "trace.csv")).read().splitlines()
    assert lines[0] == "layer,mean_erank,mean_lambda2,min_pairwise_lem"
    assert len(lines) == 6  # header + layer 0..4
    cochain = json.load(open(os.path.join(out1, "final_cochain.json")))
    assert cochain["n_stalk"] == 3 and len(cochain["values"]) == 10


def test_diffuse_seed_required(cloud_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["diffuse", cloud_file, "--layers", "2", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_diffuse_depth_robustness_flags(cloud_file, tmp_path):
    out_h = str(tmp_path / "het")
    out_c = str(tmp_path / "ctl")
    assert main(["diffuse", cloud_file, "--layers", "32", "--seed", "42",
                 "--out", out_h]) == 0
    assert main(["diffuse", cloud_file, "--layers", "32", "--seed", "42",
                 "--identity-maps", "--no-residual", "--out", out_c]) == 0

    def last_min_lem(path):
        return float(open(path).read().splitlines()[-1].split(",")[3])

    assert last_min_lem(os.path.join(out_h, "trace.csv")) >= 0.01
    assert last_min_lem(os.path.join(out_c, "trace.csv")) < 1e-3


def test_lift_command(cloud_file, capsys):
    assert main(["lift", cloud_file]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_stalk"] == 3
    assert len(obj["values"]) == 10


def test_cochain_outputs_keep_string_ids_in_file_order(tmp_path, capsys):
    ids = ["c", "a", "b"]
    pts = np.random.default_rng(40).normal(size=(3, 3))
    path = str(tmp_path / "cloud.json")
    _write_cloud(path, pts, [("c", "a"), ("a", "b"), ("b", "c")], ids=ids)
    pc = jsonio.load_cloud(path)
    expected = {
        "lift": lift_coordinates(pc),
        "lift_canonical": canonicalize(lift_coordinates(pc), local_frame(pc)[0]),
        "diffuse": diffusion_run(pc, layers=3, seed=5)[0],
    }
    outputs = {}
    assert main(["lift", path]) == 0
    outputs["lift"] = json.loads(capsys.readouterr().out)
    assert main(["lift", path, "--canonicalize"]) == 0
    outputs["lift_canonical"] = json.loads(capsys.readouterr().out)
    out = str(tmp_path / "diffused")
    assert main(["diffuse", path, "--layers", "3", "--seed", "5", "--out", out]) == 0
    outputs["diffuse"] = json.load(open(os.path.join(out, "final_cochain.json")))
    for name, obj in outputs.items():
        assert [v for v, _ in obj["values"]] == ids, name
        assert expected[name].shape == (3, 3, 3)
        for (_, X), row in zip(obj["values"], expected[name]):
            np.testing.assert_array_equal(np.array(X), row)


def test_covgraph_command(segments_file, tmp_path, capsys):
    out = str(tmp_path / "cg")
    assert main(["covgraph", segments_file, "--eps1", "0.6", "--eps2", "12",
                 "--eps", "50", "--bandwidth", "5", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "|V|=6" in printed
    sheaf, cochain = jsonio.load_sheaf(os.path.join(out, "sheaf.json"))
    assert sheaf.n_stalk == 3
    # the file reads back bitwise what the command built
    built = build_tf_graph(jsonio.load_segments(segments_file),
                           TFGraphConfig(eps1=0.6, eps2=12, eps=50, bandwidth=5))
    assert sheaf.edges == built.sheaf.edges
    assert list(cochain) == list(built.cochain)
    for v, X in built.cochain.items():
        assert np.array_equal(cochain[v], X), v
    weights = json.load(open(os.path.join(out, "weights.json")))
    assert tuple(map(tuple, weights["edges"])) == sheaf.edges
    assert len(weights["weights"]) == sheaf.n_edges


def test_covgraph_on_midpoints_near_the_float_limit_writes_no_warning(tmp_path):
    # both gaps overflow to inf, inside the infinite windows: one edge, and a
    # fresh interpreter, which prints RuntimeWarnings, writes nothing to stderr
    data = [[1.0, 2.0, 0.5], [0.5, -1.0, 2.0]]
    path = tmp_path / "segments.json"
    _write_json(path, {"segments": [{"t_mid": -1e308, "f_mid": -1e308, "data": data},
                                    {"t_mid": 1e308, "f_mid": 1e308, "data": data}]})
    argv = ["covgraph", str(path), "--eps1", "inf", "--eps2", "inf", "--eps", "1",
            "--bandwidth", "1", "--out", str(tmp_path / "cg")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; from spdsheaf.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads((tmp_path / "cg" / "weights.json").read_text())["edges"] == [[0, 1]]


@pytest.mark.parametrize("flags", [["--shrinkage", "1e-3"], ["--normalize"]])
def test_covgraph_has_no_covariance_flags(segments_file, tmp_path, capsys, flags):
    # the ridge is the constant covgraph.SHRINKAGE and X X^T is never rescaled
    with pytest.raises(SystemExit) as exc:
        main(["covgraph", segments_file, *_COVGRAPH[:-1], str(tmp_path / "cg"), *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err
    assert not (tmp_path / "cg").exists()


@pytest.mark.parametrize("flags", [["--n", "2"], ["--trials", "5"], ["--config", "F"]],
                         ids=["n", "trials", "config"])
def test_verify_has_no_size_flags(capsys, flags):
    # the suite's sizes are constants in verify.py: no flag or file sets them
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + flags[0] in capsys.readouterr().err


def test_probe_command_small(tmp_path, capsys):
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--seed", "5", "--repeats", "1", "--samples", "12",
                 "--out", out]) == 0
    report = json.load(open(out))
    assert report["repeats"] == 1
    assert 0.0 <= report["test_accuracy_mean"] <= 1.0
    assert len(report["shuffle_control"]) == 1


def test_probe_accuracies_golden(tmp_path):
    # recorded with the per-class split and the readout fit to its optimum
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--seed", "5", "--repeats", "2", "--samples", "12",
                 "--out", out]) == 0
    report = json.load(open(out))
    accuracies = [[(r["train_accuracy"], r["test_accuracy"]) for r in report[key]]
                  for key in ("runs", "shuffle_control")]
    assert accuracies == [[(1.0, 1.0), (1.0, 1.0)],
                          [(0.6666666666666666, 0.4166666666666667), (1.0, 0.5833333333333334)]]
    assert [r["shuffled"] for r in report["runs"] + report["shuffle_control"]] == [
        False, False, True, True]
    assert report["test_accuracy_mean"] == 1.0
    assert report["shuffle_control_mean"] == 0.5


def test_probe_on_three_clouds_per_class(tmp_path):
    # one cloud of each class trains, so both halves hold both classes for the
    # run and for the control, which permutes labels within each half
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--seed", "1", "--repeats", "1", "--samples", "3",
                 "--out", out]) == 0
    assert len(json.load(open(out))["shuffle_control"]) == 1


@pytest.mark.parametrize("n_stalk", [2**16, 2**30, 2**31, 2**40])
def test_an_unaddressable_stalk_dimension_is_exit_2(tmp_path, capsys, n_stalk):
    # from 2**31 numpy cannot count the bytes of even the empty map stack
    # (ValueError); 2**16 would ask conj_operator for 2**66 bytes
    path = tmp_path / "huge.json"
    _write_json(path, {"n_stalk": n_stalk, "vertices": [0], "edges": []})
    tracemalloc.start()
    try:
        assert main(["sections", str(path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == (f"error: stalk dimension {n_stalk} is too large: its (n(n+1)/2, n, n) "
                   "array would exceed the address space\n")
    assert peak < 2**20, peak


def _sheaf_obj(map_tail=None, value0=None):
    I = [[1.0, 0.0], [0.0, 1.0]]
    return {"n_stalk": 2, "vertices": [0, 1],
            "edges": [{"tail": 0, "head": 1, "map_tail": map_tail or I, "map_head": I}],
            "cochain0": [[0, value0 or I], [1, I]]}


def _sheaf_of_ids(vertices):
    """A one-edge 1x1 sheaf on vertex ids "a" and "b", listed as `vertices`."""
    return {"n_stalk": 1, "vertices": vertices,
            "edges": [{"tail": "a", "head": "b", "map_tail": [[1.0]], "map_head": [[1.0]]}]}


def _segments_obj(t_mid=0.0, data=None):
    return {"segments": [{"t_mid": t_mid, "f_mid": 10.0,
                          "data": data or [[1.0, 2.0], [0.5, -1.0]]}]}


def _cloud_obj(ids=(0, 1, 2), scale=1.0):
    return {"vertices": [{"id": v, "xyz": [i * scale, 0.5, -1.0]} for i, v in enumerate(ids)],
            "edges": [[0, 1]]}


_CLOUD = _cloud_obj()
_COVGRAPH = ["--eps1", "1", "--eps2", "1", "--eps", "1", "--bandwidth", "1", "--out", "cg"]
_DIFFUSE = ["--out", "d"]
_I2 = [[1.0, 0.0], [0.0, 1.0]]


def _covgraph_nan(flag):
    """covgraph flags with the value of `flag` replaced by nan."""
    return ["nan" if prev == flag else a for prev, a in zip([None] + _COVGRAPH, _COVGRAPH)]


# written as a 5000-digit integer literal, which json.dumps cannot write
_LONG_INT = "__long_int__"

# case -> (argv with INPUT in place of the file path, file contents)
_MALFORMED = {
    "string_entry": (["sections", "INPUT"], _sheaf_obj(map_tail=[["a", 0.0], [0.0, 1.0]])),
    "ragged_row": (["sections", "INPUT"], _sheaf_obj(map_tail=[[1.0, 0.0], [0.0]])),
    # the log_upper form is for cochain values; exp of a symmetric log is
    # orthogonal only near I, so a map in that form could spell only I
    "map_log_upper": (["sections", "INPUT"], _sheaf_obj(map_tail={"log_upper": [0.0, 0.0, 0.0]})),
    # a cochain value is a nested list only
    "cochain_log_upper": (["sections", "INPUT"],
                          _sheaf_obj(value0={"log_upper": [0.0, 0.0, 0.0]})),
    "cochain_scalar": (["sections", "INPUT"], _sheaf_obj(value0=2.0)),
    "map_scalar": (["sections", "INPUT"], _sheaf_obj(map_tail=1.0)),
    "map_null": (["sections", "INPUT"],
                 {**_sheaf_obj(), "edges": [{"tail": 0, "head": 1, "map_tail": _I2,
                                             "map_head": None}]}),
    # numbers written as strings or booleans, which numpy would convert
    "map_string_numbers": (["sections", "INPUT"], _sheaf_obj(map_tail=[["1", "0"], ["0", "1"]])),
    "map_bool": (["sections", "INPUT"], _sheaf_obj(map_tail=[[True, 0.0], [0.0, 1.0]])),
    "cochain_string_numbers": (["sections", "INPUT"],
                               _sheaf_obj(value0=[["2", "0"], ["0", "2"]])),
    "xyz_string_numbers": (["lift", "INPUT"],
                           {"vertices": [{"id": 0, "xyz": ["1", "2", "3"]}], "edges": []}),
    "segment_string_numbers": (["covgraph", "INPUT", *_COVGRAPH],
                               _segments_obj(data=[["1.5", "2"], ["0.5", "-1"]])),
    "segment_string_t_mid_number": (["covgraph", "INPUT", *_COVGRAPH], _segments_obj(t_mid="0.5")),
    # finite entries whose symmetrization overflows
    "cochain_value_overflow": (["sections", "INPUT"], _sheaf_obj(value0=[[1e308] * 2] * 2)),
    "nan_map": (["sections", "INPUT"], _sheaf_obj(map_tail=[[float("nan"), 0.0], [0.0, 1.0]])),
    "xyz_two_numbers": (["lift", "INPUT"],
                        {"vertices": [{"id": 0, "xyz": [0.0, 0.0]}], "edges": []}),
    "segment_string_t_mid": (["covgraph", "INPUT", *_COVGRAPH], _segments_obj(t_mid="x")),
    "segment_string_data": (["covgraph", "INPUT", *_COVGRAPH],
                            _segments_obj(data=[["a", 2.0], [0.5, -1.0]])),
    "verify_negative_seed": (["verify", "--seed", "-1"], {}),
    "verify_repeated_check": (["verify", "--check", "index", "--check", "index"], {}),
    "probe_zero_repeats": (["probe", "--seed", "1", "--repeats", "0"], {}),
    "probe_negative_layers": (["probe", "--seed", "1", "--layers", "-1"], {}),
    "probe_negative_seed": (["probe", "--seed", "-1"], {}),
    "probe_zero_samples": (["probe", "--seed", "1", "--samples", "0"], {}),
    "probe_one_sample": (["probe", "--seed", "1", "--samples", "1"], {}),
    "diffuse_negative_layers": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "-2", "--seed", "1"],
                                _CLOUD),
    "diffuse_negative_seed": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "2", "--seed", "-1"],
                              _CLOUD),
    "duplicate_ids_lift": (["lift", "INPUT"], _cloud_obj(ids=[0, 1, 0])),
    "duplicate_ids_diffuse": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "2", "--seed", "1"],
                              _cloud_obj(ids=[0, 1, 0])),
    # finite coordinates whose centroid distances overflow
    "huge_coordinates_lift": (["lift", "INPUT"], _cloud_obj(scale=1e300)),
    "huge_coordinates_diffuse": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "2", "--seed", "1"],
                                 _cloud_obj(scale=1e300)),
    # finite centroid distances, but the framed edge is 2e154 long
    "far_points_canonicalize": (["lift", "INPUT", "--canonicalize"],
                                {**_cloud_obj(scale=1e154), "edges": [[0, 2]]}),
    "n_stalk_string": (["sections", "INPUT"], {**_sheaf_obj(), "n_stalk": "abc"}),
    "n_stalk_fraction": (["sections", "INPUT"], {**_sheaf_obj(), "n_stalk": 2.5}),
    "cochain0_triple": (["sections", "INPUT"],
                        {**_sheaf_obj(), "cochain0": [[0, _I2, 1], [1, _I2]]}),
    "cochain0_unknown_vertex": (["sections", "INPUT"],
                                {**_sheaf_obj(), "cochain0": [[0, _I2], [1, _I2], [7, _I2]]}),
    "cochain0_vertex_twice": (["sections", "INPUT"],
                              {**_sheaf_obj(), "cochain0": [[0, _I2], [1, _I2], [0, _I2]]}),
    "cloud_edge_triple_lift": (["lift", "INPUT"], {**_CLOUD, "edges": [[0, 1, 2]]}),
    "cloud_edge_triple_diffuse": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "2", "--seed", "1"],
                                  {**_CLOUD, "edges": [[0, 1, 2]]}),
    # strings and objects iterate too, as characters and keys
    "sheaf_vertices_string": (["sections", "INPUT"], _sheaf_of_ids("ab")),
    "sheaf_vertices_object": (["sections", "INPUT"], _sheaf_of_ids({"a": 1, "b": 2})),
    "sheaf_edges_string": (["sections", "INPUT"], {**_sheaf_obj(), "edges": ""}),
    "sheaf_edges_object": (["sections", "INPUT"], {**_sheaf_obj(), "edges": {}}),
    # distinct ids in Python, but one key in the report's per-vertex objects
    "sheaf_ids_collide_as_keys": (["sections", "INPUT"],
                                  {"n_stalk": 1, "vertices": [1, "1", 2],
                                   "edges": [{"tail": 1, "head": 2,
                                              "map_tail": [[1.0]], "map_head": [[1.0]]}]}),
    "covgraph_nan_eps": (["covgraph", "INPUT", *_covgraph_nan("--eps")], _segments_obj()),
    "covgraph_nan_bandwidth": (["covgraph", "INPUT", *_covgraph_nan("--bandwidth")],
                               _segments_obj()),
    "covgraph_nan_eps1": (["covgraph", "INPUT", *_covgraph_nan("--eps1")], _segments_obj()),
    "covgraph_overflowing_data": (["covgraph", "INPUT", *_COVGRAPH],
                                  _segments_obj(data=[[1e200, 0.0], [0.0, 1e200]])),
    # JSON true and false load as bools, which Python counts as integers
    "bool_vertex_id": (["sections", "INPUT"], {**_sheaf_obj(), "vertices": [True, 1]}),
    "bool_edge_endpoint": (["sections", "INPUT"],
                           {**_sheaf_obj(), "edges": [{"tail": True, "head": 1,
                                                       "map_tail": _I2, "map_head": _I2}]}),
    "bool_cochain0_id": (["sections", "INPUT"],
                         {**_sheaf_obj(), "cochain0": [[False, _I2], [1, _I2]]}),
    "bool_cloud_id": (["lift", "INPUT"], _cloud_obj(ids=[False, 1, 2])),
    # JSON integers too large for a float (401 digits)
    "huge_int_map": (["sections", "INPUT"], _sheaf_obj(map_tail=[[10**400, 0], [0, 1]])),
    "huge_int_cochain0": (["sections", "INPUT"], _sheaf_obj(value0=[[10**400, 0], [0, 1]])),
    "huge_int_xyz_lift": (["lift", "INPUT"],
                          {"vertices": [{"id": 0, "xyz": [10**400, 0, 0]}], "edges": []}),
    "huge_int_xyz_diffuse": (["diffuse", "INPUT", *_DIFFUSE, "--layers", "2", "--seed", "1"],
                             {"vertices": [{"id": 0, "xyz": [10**400, 0, 0]}], "edges": []}),
    "huge_int_segment_data": (["covgraph", "INPUT", *_COVGRAPH],
                              _segments_obj(data=[[10**400, 2.0], [0.5, -1.0]])),
    # integer literals longer than Python's int-from-string limit of 4300 digits
    "long_int_sheaf": (["sections", "INPUT"], {**_sheaf_obj(), "n_stalk": _LONG_INT}),
    "long_int_xyz": (["lift", "INPUT"],
                     {"vertices": [{"id": 0, "xyz": [_LONG_INT, 0, 0]}], "edges": []}),
    "long_int_segment_data": (["covgraph", "INPUT", *_COVGRAPH],
                              _segments_obj(data=[[_LONG_INT, 2.0], [0.5, -1.0]])),
}
_MESSAGES = {"duplicate_ids_lift": "duplicate vertex ids",
             "duplicate_ids_diffuse": "duplicate vertex ids",
             "huge_coordinates_lift": "too large", "huge_coordinates_diffuse": "too large",
             "far_points_canonicalize": "too large",
             "n_stalk_string": "n_stalk must be a positive integer",
             "n_stalk_fraction": "n_stalk must be a positive integer",
             "cochain0_triple": "two-element lists",
             "cochain0_unknown_vertex": "['7']",
             "cochain0_vertex_twice": "twice",
             "cloud_edge_triple_lift": "two-element lists",
             "cloud_edge_triple_diffuse": "two-element lists",
             "sheaf_vertices_string": "'vertices' must be a list",
             "sheaf_vertices_object": "'vertices' must be a list",
             "sheaf_edges_string": "'edges' must be a list",
             "sheaf_edges_object": "'edges' must be a list",
             "sheaf_ids_collide_as_keys": "['1'] are given both as integers and as strings",
             "covgraph_nan_eps": "eps and bandwidth", "covgraph_nan_bandwidth": "eps and bandwidth",
             "covgraph_nan_eps1": "window widths",
             "covgraph_overflowing_data": "too large",
             "map_log_upper": "edge (0, 1) map_tail must be a nested list, got dict",
             "cochain_log_upper": "cochain0 vertex 0 must be a nested list, got dict",
             "cochain_scalar": "cochain0 vertex 0 must be a nested list, got float",
             "map_scalar": "edge (0, 1) map_tail must be a nested list, got float",
             "map_null": "edge (0, 1) map_head must be a nested list, got NoneType",
             "map_string_numbers": "malformed edge (0, 1) map_tail: expected numbers, got str",
             "map_bool": "malformed edge (0, 1) map_tail: expected numbers, got bool",
             "cochain_string_numbers": "malformed cochain0 vertex 0: expected numbers, got str",
             "xyz_string_numbers": "malformed point coordinates: expected numbers, got str",
             "segment_string_numbers": "malformed segment data: expected numbers, got str",
             "segment_string_t_mid_number":
                 "malformed segment midpoints: expected numbers, got str",
             "cochain_value_overflow": "non-finite",
             "long_int_sheaf": "input.json: unreadable JSON number",
             "long_int_xyz": "input.json: unreadable JSON number",
             "long_int_segment_data": "input.json: unreadable JSON number",
             "verify_repeated_check": "each check may be named once",
             "probe_zero_samples": "--samples",
             "probe_one_sample": "--samples must be >= 2, got 1",
             "bool_vertex_id": "got bool", "bool_edge_endpoint": "got bool",
             "bool_cochain0_id": "got bool", "bool_cloud_id": "got bool"}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_numbers_are_exit_2(tmp_path, monkeypatch, capsys, case):
    argv, obj = _MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj).replace(f'"{_LONG_INT}"', "7" * 5000))
    monkeypatch.chdir(tmp_path)
    assert main([str(path) if a == "INPUT" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert _MESSAGES.get(case, "") in err
    # "missing" is reserved for absent keys, and no case here lacks one
    assert "missing" not in err


def test_verify_holonomy_quota_fails_on_identity_maps(monkeypatch, capsys):
    # identity maps have trivial holonomy, so the suite misses its quota on them
    real = verify.random_sheaf
    monkeypatch.setattr(verify, "random_sheaf",
                        lambda *args, **kwargs: real(*args, **{**kwargs, "identity_maps": True}))
    assert main(["verify", "--check", "holonomy"]) == 1
    # a shorter suite keeps a proportional quota: 5 instances need 1
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    assert main(["verify", "--check", "holonomy"]) == 1


@pytest.mark.parametrize("seed", ["33", "38"])
def test_verify_hodge_passes_on_small_singular_values(seed, capsys):
    # these seeds draw sheaves whose smallest nonzero singular value lies
    # below 1e-4 sigma_max, where a Gram cutoff of 1e-8 on sigma^2 miscounts
    assert main(["verify", "--check", "hodge", "--seed", seed]) == 0


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    assert main(["sections", str(tmp_path / "nope.json")]) == 2
    assert main(["lift", str(tmp_path / "nope.json")]) == 2
    # every other OSError too: an output directory that is a file, and a
    # path through a file
    cloud, file = tmp_path / "cloud.json", str(tmp_path / "cloud.json")
    cloud.write_text(json.dumps(_CLOUD))
    capsys.readouterr()
    for argv in (["diffuse", file, "--layers", "1", "--seed", "0", "--out", file],
                 ["verify", "--check", "index", "--out", file],
                 ["sections", f"{file}/x.json"],
                 ["lift", file, "--out", f"{file}/x.json"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "diffuse", "covgraph"])
def test_unusable_out_is_exit_2_before_the_work(cloud_file, segments_file, tmp_path, monkeypatch,
                                                capsys, command):
    # the output directory is made before the run, so an --out that is a
    # file is reported at once, without running the work it would hold
    def work(*args, **kwargs):
        pytest.fail(f"{command} ran its work before making --out")

    target, name, argv = {
        "verify": (verify, "run_suite", ["verify", "--all"]),
        "diffuse": (cli, "diffusion_run", ["diffuse", cloud_file, "--layers", "1", "--seed", "0"]),
        "covgraph": (cli, "build_tf_graph", ["covgraph", segments_file, *_COVGRAPH[:-2]]),
    }[command]
    monkeypatch.setattr(target, name, work)
    out = tmp_path / "file"
    out.write_text("")
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify", "--seed", "-1"],
                                  ["diffuse", "CLOUD", "--layers", "-1", "--seed", "0"],
                                  ["covgraph", "SEGMENTS", *_COVGRAPH[:5], "0", *_COVGRAPH[6:-2]]],
                         ids=["verify", "diffuse", "covgraph"])
def test_malformed_input_makes_no_out_directory(cloud_file, segments_file, tmp_path, capsys,
                                                argv):
    files = {"CLOUD": cloud_file, "SEGMENTS": segments_file}
    out = tmp_path / "out"
    assert main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_verify_all_excludes_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--all", "--check", "green"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_MAP = json.dumps(_sheaf_obj(map_tail=[[0.0]])).replace("[[0.0]]", "[" * 5000 + "]" * 5000)


@pytest.mark.parametrize("argv, text", [(["sections", "INPUT"], _DEEP), (["lift", "INPUT"], _DEEP),
                                        (["sections", "INPUT"], _DEEP_MAP)],
                         ids=["sections", "lift", "sections_map"])
def test_deeply_nested_json_is_exit_2(tmp_path, capsys, argv, text):
    # past about 1000 levels json.load raises RecursionError; _MALFORMED
    # writes through json.dumps, which cannot nest this deep
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([str(path) if a == "INPUT" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "nested too deeply" in err


def test_a_refused_allocation_is_exit_2(tmp_path, capsys):
    # n = 3000 asks conj_operator for 295 TiB, more than a 2^47-byte user
    # address space, so the allocation fails under any overcommit policy
    path = tmp_path / "huge.json"
    _write_json(path, {"n_stalk": 3000, "vertices": [0], "edges": []})
    assert main(["sections", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


_THREADS_PROBE = """
import spdsheaf, numpy as np
np.linalg.svd(np.random.default_rng(0).normal(size=(300, 300)))
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("Threads:")][0])
"""


def _fresh_python(code: str, env: dict) -> str:
    """Last word of the stdout of `code` run in a new interpreter that imports from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.split()[-1]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_thread_cap_limits_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SPD_SHEAF_THREADS"] = "1"
    assert _fresh_python(_THREADS_PROBE, env) == "1"


_MA_PROBE = """
import sys
from spdsheaf.cli import main
assert main(["probe", "--seed", "1", "--samples", "4", "--repeats", "1"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_probe_leaves_numpy_ma_unimported():
    # the first np.unique in a process imports numpy.ma, about 15 ms
    assert _fresh_python(_MA_PROBE, dict(os.environ)) == "False"


def test_cli_import_leaves_the_pool_modules_unloaded():
    # they cost 7-11 ms to import; only verify's pooled path needs them
    code = ("import sys, spdsheaf.cli; print(any(m in sys.modules for m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    assert _fresh_python(code, dict(os.environ)) == "False"


def test_importing_the_package_leaves_verify_unloaded():
    code = "import sys, spdsheaf; print('spdsheaf.verify' in sys.modules)"
    assert _fresh_python(code, dict(os.environ)) == "False"


@pytest.mark.parametrize("value", ["0", "two"])
def test_invalid_thread_cap_is_exit_2(cloud_file, monkeypatch, capsys, value):
    monkeypatch.setenv("SPD_SHEAF_THREADS", value)
    assert main(["lift", cloud_file]) == 2
    assert capsys.readouterr().err == (
        f"error: SPD_SHEAF_THREADS must be a positive integer, got {value!r}\n")
