"""CLI subcommands end to end: exit codes and reproducible outputs."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdsheaf import jsonio, verify
from spdsheaf.cli import build_parser, main
from spdsheaf.covgraph import TFGraphConfig, segment_covariance
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
    jsonio.sheaf_to_json(sheaf, path=path)
    return path


@pytest.fixture()
def segments_file(tmp_path):
    rng = np.random.default_rng(1)
    segs = [{"t_mid": 0.2 * (i // 2), "f_mid": (10.0, 20.0)[i % 2],
             "data": rng.normal(size=(3, 30)).tolist()} for i in range(6)]
    path = str(tmp_path / "segments.json")
    _write_json(path, {"segments": segs})
    return path


def test_verify_single_check(tmp_path, capsys):
    out = str(tmp_path / "ver")
    code = main(["verify", "--check", "green", "--n", "3", "--trials", "5", "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "green" in printed and "PASS" in printed
    report = json.load(open(os.path.join(out, "verdicts.json")))
    assert report["passed"] is True
    assert [v["check"] for v in report["verdicts"]] == ["green"]


def test_verify_all_smoke(capsys):
    code = main(["verify", "--all", "--trials", "5"])
    assert code == 0
    assert capsys.readouterr().out.count("PASS") == 7


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    primary = verify.adjoint

    def perturbed(sheaf, tau):
        out = primary(sheaf, tau)  # (trials, |V|, n, n): scale the last vertex
        out[..., -1, :, :] *= 1.01
        return out

    monkeypatch.setattr(verify, "adjoint", perturbed)
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as fh:
        json.dump({"checks": ["green"], "trials": 5, "n_instances": 3}, fh)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_verify_defaults_are_the_suite_config_defaults(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(verify, "run_suite", lambda config: (seen.append(config), ([], 0))[1])
    assert main(["verify"]) == 0
    assert seen == [verify.SuiteConfig()]


def test_covgraph_shrinkage_default_is_the_config_default():
    args = build_parser().parse_args(["covgraph", "segments.json", *_COVGRAPH])
    assert args.shrinkage == TFGraphConfig.shrinkage
    default = inspect.signature(segment_covariance).parameters["shrinkage"].default
    assert default == TFGraphConfig.shrinkage


def test_verify_missing_config_is_usage_error(capsys):
    assert main(["verify", "--config", "/nonexistent/x.json"]) == 2
    assert "error" in capsys.readouterr().err


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
    jsonio.sheaf_to_json(sheaf, path=path)
    shapes, svd = [], np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert main(["sections", path]) == 0
    # the kernel comes from the per-component holonomy nullspaces (m columns)
    assert shapes and not [s for s in shapes if s[-1] == sheaf.n_vertices * 3]
    assert json.loads(capsys.readouterr().out)["kernel_dim"] >= 1


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
    assert cochain is not None
    weights = json.load(open(os.path.join(out, "weights.json")))
    assert tuple(map(tuple, weights["edges"])) == sheaf.edges
    assert len(weights["weights"]) == sheaf.n_edges


def test_probe_command_small(tmp_path, capsys):
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--seed", "5", "--repeats", "1", "--samples", "12",
                 "--out", out]) == 0
    report = json.load(open(out))
    assert report["repeats"] == 1
    assert 0.0 <= report["test_accuracy_mean"] <= 1.0
    assert len(report["shuffle_control"]) == 1


def test_probe_accuracies_golden(tmp_path):
    # recorded when the run and its control still made separate descriptor passes
    out = str(tmp_path / "probe.json")
    assert main(["probe", "--seed", "5", "--repeats", "2", "--samples", "12",
                 "--out", out]) == 0
    report = json.load(open(out))
    accuracies = [[(r["train_accuracy"], r["test_accuracy"]) for r in report[key]]
                  for key in ("runs", "shuffle_control")]
    assert accuracies == [[(1.0, 0.5833333333333334), (1.0, 1.0)],
                          [(0.8333333333333334, 0.5833333333333334), (1.0, 0.5)]]
    assert [r["shuffled"] for r in report["runs"] + report["shuffle_control"]] == [
        False, False, True, True]
    assert report["test_accuracy_mean"] == 0.7916666666666667
    assert report["shuffle_control_mean"] == 0.5416666666666667


def _sheaf_obj(map_tail=None, value0=None):
    I = [[1.0, 0.0], [0.0, 1.0]]
    return {"n_stalk": 2, "vertices": [0, 1],
            "edges": [{"tail": 0, "head": 1, "map_tail": map_tail or I, "map_head": I}],
            "cochain0": [[0, value0 or I], [1, I]]}


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


# case -> (argv with INPUT in place of the file path, file contents)
_MALFORMED = {
    "string_entry": (["sections", "INPUT"], _sheaf_obj(map_tail=[["a", 0.0], [0.0, 1.0]])),
    "ragged_row": (["sections", "INPUT"], _sheaf_obj(map_tail=[[1.0, 0.0], [0.0]])),
    "map_log_overflow": (["sections", "INPUT"],
                         _sheaf_obj(map_tail={"log_upper": [1000.0, 0.0, 0.0]})),
    "cochain_log_overflow": (["sections", "INPUT"],
                             _sheaf_obj(value0={"log_upper": [1000.0, 0.0, 0.0]})),
    "nan_map": (["sections", "INPUT"], _sheaf_obj(map_tail=[[float("nan"), 0.0], [0.0, 1.0]])),
    "xyz_two_numbers": (["lift", "INPUT"],
                        {"vertices": [{"id": 0, "xyz": [0.0, 0.0]}], "edges": []}),
    "segment_string_t_mid": (["covgraph", "INPUT", *_COVGRAPH], _segments_obj(t_mid="x")),
    "segment_string_data": (["covgraph", "INPUT", *_COVGRAPH],
                            _segments_obj(data=[["a", 2.0], [0.5, -1.0]])),
    "config_string_trials": (["verify", "--config", "INPUT"], {"trials": "five"}),
    "config_bool_seed": (["verify", "--config", "INPUT"], {"seed": True}),
    "config_tolerances_key": (["verify", "--config", "INPUT"],
                              {"checks": ["correspondence"], "n_instances": 20,
                               "tolerances": {"correspondence": 1e-300}}),
    "config_misspelt_key": (["verify", "--config", "INPUT"],
                            {"checks": ["index"], "n_instanes": 2}),
    "config_check_not_a_string": (["verify", "--config", "INPUT"], {"checks": [{}]}),
    "config_unknown_check": (["verify", "--config", "INPUT"], {"checks": ["indx"]}),
    "config_checks_string": (["verify", "--config", "INPUT"], {"checks": "index"}),
    "config_checks_empty": (["verify", "--config", "INPUT"], {"checks": []}),
    "config_not_object": (["verify", "--config", "INPUT"], ["index"]),
    "config_max_vertices_1": (["verify", "--config", "INPUT"], {"max_vertices": 1}),
    "verify_negative_trials": (["verify", "--check", "green", "--trials", "-3"], {}),
    "verify_negative_seed": (["verify", "--seed", "-1"], {}),
    "verify_negative_n": (["verify", "--n", "-2"], {}),
    "probe_zero_repeats": (["probe", "--seed", "1", "--repeats", "0"], {}),
    "probe_negative_layers": (["probe", "--seed", "1", "--layers", "-1"], {}),
    "probe_negative_seed": (["probe", "--seed", "-1"], {}),
    "probe_zero_samples": (["probe", "--seed", "1", "--samples", "0"], {}),
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
    "sections_tol_nan": (["sections", "INPUT", "--tol", "nan"], _sheaf_obj()),
    "sections_tol_inf": (["sections", "INPUT", "--tol", "inf"], _sheaf_obj()),
    "sections_tol_one": (["sections", "INPUT", "--tol", "1"], _sheaf_obj()),
    "lift_negative_eps_spd": (["lift", "INPUT", "--eps-spd", "-1"], _CLOUD),
    "lift_nan_eps_spd": (["lift", "INPUT", "--eps-spd", "nan"], _CLOUD),
    "lift_nan_eps_dir": (["lift", "INPUT", "--eps-dir", "nan"], _CLOUD),
    "covgraph_nan_eps": (["covgraph", "INPUT", *_covgraph_nan("--eps")], _segments_obj()),
    "covgraph_nan_bandwidth": (["covgraph", "INPUT", *_covgraph_nan("--bandwidth")],
                               _segments_obj()),
    "covgraph_nan_eps1": (["covgraph", "INPUT", *_covgraph_nan("--eps1")], _segments_obj()),
    "covgraph_nan_shrinkage": (["covgraph", "INPUT", *_COVGRAPH, "--shrinkage", "nan"],
                               _segments_obj()),
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
             "sections_tol_nan": "tolerance", "sections_tol_inf": "tolerance",
             "sections_tol_one": "tolerance", "lift_negative_eps_spd": "eps_spd",
             "lift_nan_eps_spd": "eps_spd", "lift_nan_eps_dir": "eps_dir",
             "covgraph_nan_eps": "eps and bandwidth", "covgraph_nan_bandwidth": "eps and bandwidth",
             "covgraph_nan_eps1": "window widths", "covgraph_nan_shrinkage": "shrinkage",
             "covgraph_overflowing_data": "too large",
             "config_tolerances_key": "'tolerances'", "config_misspelt_key": "'n_instanes'",
             "config_check_not_a_string": "check names",
             "config_unknown_check": "'indx'", "config_checks_empty": "nonempty",
             "probe_zero_samples": "--samples",
             "bool_vertex_id": "got bool", "bool_edge_endpoint": "got bool",
             "bool_cochain0_id": "got bool", "bool_cloud_id": "got bool"}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_numbers_are_exit_2(tmp_path, monkeypatch, capsys, case):
    argv, obj = _MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert main([str(path) if a == "INPUT" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert _MESSAGES.get(case, "") in err
    # "missing" is reserved for absent keys, and no case here lacks one
    assert "missing" not in err


def test_verify_holonomy_quota_needs_a_stalk_dimension_of_2(monkeypatch, capsys):
    # a 1x1 special-orthogonal map is +1, so --n 1 has no nontrivial holonomy
    assert main(["verify", "--all", "--n", "1", "--trials", "5"]) == 0
    # identity maps have trivial holonomy: --n 2 still misses its quota on them
    real = verify.random_sheaf
    monkeypatch.setattr(verify, "random_sheaf",
                        lambda *args, **kwargs: real(*args, **{**kwargs, "identity_maps": True}))
    assert main(["verify", "--check", "holonomy", "--n", "2"]) == 1
    assert main(["verify", "--check", "holonomy", "--n", "1"]) == 0


@pytest.mark.parametrize("seed", ["33", "38"])
def test_verify_hodge_passes_on_small_singular_values(seed, capsys):
    # these seeds draw sheaves whose smallest nonzero singular value lies
    # below 1e-4 sigma_max, where a Gram cutoff of 1e-8 on sigma^2 miscounts
    assert main(["verify", "--check", "hodge", "--seed", seed]) == 0


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    assert main(["sections", str(tmp_path / "nope.json")]) == 2
    assert main(["lift", str(tmp_path / "nope.json")]) == 2


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


def test_importing_the_package_leaves_verify_unloaded():
    code = "import sys, spdsheaf; print('spdsheaf.verify' in sys.modules)"
    assert _fresh_python(code, dict(os.environ)) == "False"


@pytest.mark.parametrize("value", ["0", "two"])
def test_invalid_thread_cap_is_exit_2(cloud_file, monkeypatch, capsys, value):
    monkeypatch.setenv("SPD_SHEAF_THREADS", value)
    assert main(["lift", cloud_file]) == 2
    assert "SPD_SHEAF_THREADS" in capsys.readouterr().err
