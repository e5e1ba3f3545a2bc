"""Tests of the benchmark itself: generators, output checks and tracing.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from spdsheaf import cli  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402

SMALL_LAYOUT = (("tree", 5, 0), ("gauge", 6, 1), ("generic", 6, 2))


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# generators


def test_generators_are_byte_identical_per_seed():
    assert inputs.sheaf_instance((4, 1))["json"] == inputs.sheaf_instance((4, 1))["json"]
    assert inputs.sheaf_instance((4, 1))["json"] != inputs.sheaf_instance((5, 1))["json"]
    assert inputs.knn_cloud(4, 30)["json"] == inputs.knn_cloud(4, 30)["json"]
    assert inputs.knn_cloud(4, 30)["json"] != inputs.knn_cloud(5, 30)["json"]


def test_sheaf_instance_plants_kernel_and_orthogonal_maps():
    inst = inputs.sheaf_instance(3, SMALL_LAYOUT)
    assert inst["kernel_dim"] == 6 + 2 + 1
    assert len(inst["edges"]) == 17 - 3 + 3
    for pair in inst["maps"]:
        for M in pair:
            assert np.allclose(M.T @ M, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# checks accept real output and reject tampered output


@pytest.fixture
def sections_output(tmp_path):
    inst = inputs.sheaf_instance(7, SMALL_LAYOUT)
    src, out = tmp_path / "sheaf.json", tmp_path / "report.json"
    src.write_text(inst["json"])
    assert _cli(["sections", str(src), "--out", str(out)]) == 0
    return json.loads(out.read_text()), inst


def test_sections_check_passes_and_rejects_perturbed_basis(sections_output):
    report, inst = sections_output
    assert checks.check_sections(report, inst) == []
    column = report["basis"][0]["log_upper"]
    first = next(iter(column))
    column[first][0] += 1e-6
    assert any("coboundary" in p for p in checks.check_sections(report, inst))


def test_sections_check_rejects_wrong_dimensions(sections_output):
    report, inst = sections_output
    report["holonomy_fixed_total"] -= 1
    report["index"] += 6
    problems = checks.check_sections(report, inst)
    assert any("holonomy_fixed_total" in p for p in problems)
    assert any("index" in p for p in problems)


@pytest.fixture
def diffuse_output(tmp_path):
    cloud = inputs.knn_cloud(11, 12)
    src = tmp_path / "cloud.json"
    src.write_text(cloud["json"])
    out = tmp_path / "out"
    assert _cli(["diffuse", str(src), "--layers", "3", "--seed", "2", "--out", str(out)]) == 0
    return ((out / "trace.csv").read_text(), json.loads((out / "final_cochain.json").read_text()),
            cloud["points"])


def test_diffuse_check_passes(diffuse_output):
    trace, final, points = diffuse_output
    assert checks.check_diffuse(trace, final, points, 3) == []


def test_diffuse_check_rejects_off_clamp_eigenvalue(diffuse_output):
    trace, final, points = diffuse_output
    X = np.asarray(final["values"][0][1])
    w, V = np.linalg.eigh(X)
    w[-1] = 2e4
    final["values"][0][1] = ((V * w) @ V.T).tolist()
    assert any("clamp box" in p for p in checks.check_diffuse(trace, final, points, 3))


def test_diffuse_check_rejects_dropped_trace_row(diffuse_output):
    trace, final, points = diffuse_output
    lines = trace.splitlines()
    dropped = "\n".join(lines[:-1]) + "\n"
    assert any("rows" in p for p in checks.check_diffuse(dropped, final, points, 3))


def test_diffuse_check_rejects_first_row_of_other_cloud(diffuse_output):
    trace, final, points = diffuse_output
    assert checks.check_diffuse(trace, final, points[::-1] * 2.0 + 1.0, 3) == []
    moved = points.copy()
    moved[0] *= -3.0
    assert any("first trace row" in p for p in checks.check_diffuse(trace, final, moved, 3))


def _probe_report(real: float, control: float) -> dict:
    return {
        "runs": [{"train_accuracy": 1.0, "test_accuracy": real, "shuffled": False}],
        "shuffle_control": [{"train_accuracy": 0.9, "test_accuracy": control, "shuffled": True}],
    }


def test_probe_check_rejects_swapped_control():
    assert checks.check_probe(_probe_report(0.95, 0.5)) == []
    assert checks.check_probe(_probe_report(0.5, 0.5)) != []
    assert checks.check_probe(_probe_report(0.95, 0.9)) != []
    swapped = _probe_report(0.95, 0.5)
    swapped["runs"][0]["shuffled"] = True
    assert checks.check_probe(swapped) != []
    assert checks.check_probe(_probe_report(float("nan"), 0.5)) != []


def test_verify_check_on_a_small_suite(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_instances": 5, "trials": 3}))
    out = tmp_path / "verify"
    code = _cli(["verify", "--all", "--config", str(config), "--out", str(out)])
    report = json.loads((out / "verdicts.json").read_text())
    assert checks.check_verify(code, report) == []
    assert checks.check_verify(1, report) != []
    report["verdicts"][2]["max_residual"] = 1.0
    assert checks.check_verify(0, report) != []
    report["verdicts"] = report["verdicts"][:-1]
    assert any("missing" in p for p in checks.check_verify(0, report))


# ---------------------------------------------------------------------------
# tracing


def _traced_counts(tmp_path) -> dict:
    cloud_path = tmp_path / "cloud.json"
    cloud_path.write_text(inputs.knn_cloud(3, 10)["json"])
    sheaf_path = tmp_path / "sheaf.json"
    sheaf_path.write_text(inputs.sheaf_instance(3, SMALL_LAYOUT)["json"])
    tracer = Tracer()
    tracer.install()
    try:
        assert _cli(["diffuse", str(cloud_path), "--layers", "2", "--seed", "1",
                     "--out", str(tmp_path / "d")]) == 0
        assert _cli(["sections", str(sheaf_path), "--out", str(tmp_path / "s.json")]) == 0
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    units = metric_units()
    assert set(metrics) == set(units)
    return {k: v for k, v in metrics.items() if units[k] in ("count", "bytes")}


def test_traced_counts_repeat_exactly_and_uninstall_restores(tmp_path):
    original = (cli.diffusion_run, np.linalg.svd)
    first = _traced_counts(tmp_path)
    assert (cli.diffusion_run, np.linalg.svd) == original
    assert first == _traced_counts(tmp_path)
    assert first["sheaf.diffusion_step_calls"] == 2
    assert first["stream.trace_pairs"] == 3 * 45
    # three of the dense operator, one holonomy nullspace per component with a cycle
    assert first["sheaf.svd_calls"] == 3 + 2
    assert first["jsonio.bytes_read"] == (tmp_path / "cloud.json").stat().st_size + (
        tmp_path / "sheaf.json").stat().st_size


def _run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_two_traced_runs_report_equal_counts():
    args = ("--workload", "diffuse", "--seed", "5", "--seconds", "1", "--trace", "1")
    results = [json.loads(_run_bench(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2)]
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
              for r in results]
    assert results[0]["correct"] and results[0]["failed"] == 0
    assert counts[0] == counts[1]
    assert counts[0]["sheaf.diffusion_step_calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
