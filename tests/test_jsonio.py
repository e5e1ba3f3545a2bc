"""Serialization round trips and parse errors."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from spdsheaf import jsonio, verify
from spdsheaf.cli import main
from spdsheaf.covgraph import Segment
from spdsheaf.errors import ParseError
from spdsheaf.spd import EIG_FLOOR, as_spd
from spdsheaf.stream import PointCloud, geometric_graph
from spdsheaf.verify import random_cochain0, random_sheaf, random_spd

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdsheaf"


def test_matrix_round_trip():
    P = random_spd(3, np.random.default_rng(0))
    obj = json.loads(json.dumps(P.tolist()))
    assert np.array_equal(jsonio._square_matrix(obj, 3, "P"), P)
    with pytest.raises(ParseError, match="P: expected a 2x2"):
        jsonio._square_matrix(obj, 2, "P")


def test_sheaf_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    sheaf = random_sheaf(2, 5, 2, rng)
    sigma = random_cochain0(sheaf, rng)
    path = str(tmp_path / "sheaf.json")
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf, cochain0=sigma))
    loaded, cochain = jsonio.load_sheaf(path)
    assert loaded.n_stalk == sheaf.n_stalk
    assert loaded.edges == sheaf.edges
    # repr-style floats read back bitwise
    for (a, b), (c, d) in zip(loaded.maps, sheaf.maps):
        assert np.array_equal(a, c) and np.array_equal(b, d)
    for v in sheaf.vertices:
        assert np.array_equal(cochain[v], sigma[v]), v


def test_cochain_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = np.array([random_spd(3, rng), random_spd(3, rng)])
    path = str(tmp_path / "cochain.json")
    jsonio.write_text(path, jsonio.cochain0_to_json([0, "a"], values))
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj["n_stalk"] == 3
    loaded = {v: np.array(X) for v, X in obj["values"]}
    assert set(loaded) == {0, "a"}
    np.testing.assert_array_equal(loaded["a"], values[1])


def test_cloud_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 3))
    path = str(tmp_path / "cloud.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [{"id": i, "xyz": p} for i, p in enumerate(pts.tolist())],
                   "edges": [[0, 1], [2, 5]]}, fh)
    loaded = jsonio.load_cloud(path)
    np.testing.assert_array_equal(loaded.points, pts)
    assert loaded.edges == ((0, 1), (2, 5))


def test_segments_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.normal(size=(2, 10))
    path = str(tmp_path / "segments.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"segments": [{"t_mid": 0.5, "f_mid": 12.0, "data": data.tolist()}]}, fh)
    loaded = jsonio.load_segments(path)
    np.testing.assert_array_equal(loaded[0].data, data)
    assert loaded[0].t_mid == 0.5 and loaded[0].f_mid == 12.0


def test_parse_error_has_line_info(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"n_stalk": 2,\n  "vertices": [0, 1\n}')
    with pytest.raises(ParseError, match="line"):
        jsonio.load_sheaf(path)


def test_malformed_objects_rejected(tmp_path):
    path = str(tmp_path / "nearly.json")
    with open(path, "w") as fh:
        fh.write('{"vertices": [0, 1]}')
    with pytest.raises(ParseError):
        jsonio.load_sheaf(path)
    # a cochain value is a nested list; the object form is not read
    with open(path, "w") as fh:
        json.dump({"n_stalk": 1, "vertices": [0], "edges": [],
                   "cochain0": [[0, {"log_upper": [0.0]}]]}, fh)
    with pytest.raises(ParseError, match="cochain0 vertex 0 must be a nested list, got dict"):
        jsonio.load_sheaf(path)


def test_loaded_cochain_values_are_clamped(tmp_path):
    obj = {
        "n_stalk": 2,
        "vertices": [0, 1],
        "edges": [],
        "cochain0": [[0, [[1.0, 0.0], [0.0, -1.0]]], [1, [[1.0, 0.0], [0.0, 1.0]]]],
    }
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(obj))
    _, cochain = jsonio.load_sheaf(str(path))
    assert np.linalg.eigvalsh(cochain[0]).min() >= EIG_FLOOR - 1e-15


def test_load_sheaf_floors_cochain0_in_one_eigh(tmp_path, monkeypatch):
    rng = np.random.default_rng(6)
    sheaf = random_sheaf(3, 12, 4, rng)
    # about half the values below the eigenvalue floor, one of them indefinite
    values = {v: random_spd(3, rng) * (1e-6 if i % 2 else 1.0)
              for i, v in enumerate(sheaf.vertices)}
    values[sheaf.vertices[1]] = np.diag([1.0, 0.0, -1.0])
    path = str(tmp_path / "sheaf.json")
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf, cochain0=values))
    calls, eigh = [], np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    _, cochain = jsonio.load_sheaf(path)
    assert calls == [(sheaf.n_vertices, 3, 3)]
    monkeypatch.undo()
    assert list(cochain) == list(sheaf.vertices)
    for v, X in values.items():
        assert np.array_equal(cochain[v], as_spd(X)), v


def test_deterministic_output():
    rng = np.random.default_rng(5)
    sheaf = random_sheaf(2, 4, 1, rng)
    assert jsonio.sheaf_to_json(sheaf) == jsonio.sheaf_to_json(sheaf)


# ---------------------------------------------------------------------------
# the JSON text format

# a JSON string, one punctuation mark, or a bare literal (number, true, NaN, ...)
_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|[][{},:]|[^\s\][{},:"]+')


def _tokens(text: str) -> list[str]:
    return _TOKEN.findall(text)


def test_dump_json_writes_one_line_from_the_c_encoder(tmp_path):
    obj = {"b": [1.0, 0.1, -2.5e-17, 3], "a": {"z": None, "y": True}, "c": "x, y: [z]"}
    path = tmp_path / "out.json"
    text = jsonio._dump_json(obj)
    jsonio.write_text(str(path), text)
    assert text == json.dumps(obj, sort_keys=True)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True) + "\n"
    assert _tokens(text) == _tokens(json.dumps(obj, indent=2, sort_keys=True))


def test_nan_residual_is_written_as_the_nan_token(tmp_path, monkeypatch, capsys):
    nan = verify.Verdict("green", 2, float("nan"), 0)
    monkeypatch.setattr(verify, "run_suite", lambda config: ([nan], 1))
    assert main(["verify", "--out", str(tmp_path)]) == 1
    text = (tmp_path / "verdicts.json").read_text(encoding="utf-8")
    tokens = _tokens(text)
    assert tokens[tokens.index('"max_residual"') + 2] == "NaN"
    assert np.isnan(json.loads(text)["verdicts"][0]["max_residual"])


def _sections_output(tmp_path):
    path = str(tmp_path / "sheaf.json")
    sheaf = random_sheaf(2, 6, 3, np.random.default_rng(4))
    jsonio.write_text(path, jsonio.sheaf_to_json(sheaf))
    assert main(["sections", path, "--out", str(tmp_path / "report.json")]) == 0
    return tmp_path / "report.json"


def _diffuse_output(tmp_path):
    pts = np.random.default_rng(38).normal(scale=0.7, size=(10, 3))
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({
        "vertices": [{"id": i, "xyz": p} for i, p in enumerate(pts.tolist())],
        "edges": [list(e) for e in geometric_graph(pts, radius=0.8)]}))
    assert main(["diffuse", str(path), "--layers", "3", "--seed", "7",
                 "--out", str(tmp_path / "d")]) == 0
    return tmp_path / "d" / "final_cochain.json"


def _probe_output(tmp_path):
    out = tmp_path / "probe.json"
    assert main(["probe", "--seed", "5", "--repeats", "1", "--samples", "12",
                 "--out", str(out)]) == 0
    return out


def _verify_output(tmp_path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_N_INSTANCES", 5)
        assert main(["verify", "--check", "green", "--out", str(tmp_path / "v")]) == 0
    return tmp_path / "v" / "verdicts.json"


@pytest.mark.parametrize("output", [_sections_output, _diffuse_output, _probe_output,
                                    _verify_output])
def test_outputs_keep_the_tokens_of_the_indented_form(tmp_path, capsys, output):
    text = output(tmp_path).read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    obj = json.loads(text)
    assert _tokens(text) == _tokens(json.dumps(obj, indent=2, sort_keys=True))


def _json_writers(path: Path) -> list[tuple[str, str]]:
    """(module, enclosing function) of every use of json.dump or json.dumps in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "json"}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        writes = (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                  and isinstance(node.value, ast.Name) and node.value.id in aliases)
        imports = (isinstance(node, ast.ImportFrom) and node.module == "json"
                   and {a.name for a in node.names} & {"dump", "dumps"})
        if writes or imports:
            found.append((path.stem, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_dump_json_writes_json_text():
    writers = [w for p in sorted(PACKAGE.glob("*.py")) for w in _json_writers(p)]
    assert writers == [("jsonio", "_dump_json")]


def _writes_and_prints(path: Path) -> list[tuple[str, str, str]]:
    """(module, enclosing function, "open" or "print") of every ``open`` call
    with a mode other than reading, and every use of ``print``, in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((path.stem, where, "print"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            modes = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "mode")]
            if any(not (isinstance(m, ast.Constant) and m.value in ("r", "rb", "rt"))
                   for m in modes):
                found.append((path.stem, where, "open"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_one_function_writes_files_and_only_the_cli_prints():
    found = [w for p in sorted(PACKAGE.glob("*.py")) for w in _writes_and_prints(p)]
    assert [w for w in found if w[2] == "open"] == [("jsonio", "write_text", "open")]
    assert {module for module, _, kind in found if kind == "print"} == {"cli"}
