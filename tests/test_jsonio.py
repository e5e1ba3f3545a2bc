"""Serialization round trips and parse errors."""

import json

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import jsonio
from spdsheaf.covgraph import Segment
from spdsheaf.errors import ParseError
from spdsheaf.spd import EIG_FLOOR, sym_to_vec
from spdsheaf.stream import PointCloud
from spdsheaf.verify import random_cochain0, random_sheaf, random_spd


def test_matrix_log_upper_round_trip():
    P = random_spd(3, np.random.default_rng(0))
    obj = {"log_upper": sym_to_vec(s.spd_log(P)).tolist()}
    np.testing.assert_allclose(jsonio.matrix_from_json(obj), P, atol=1e-9)
    with pytest.raises(ParseError, match="expected 2"):
        jsonio.matrix_from_json(obj, n_expected=2)
    np.testing.assert_allclose(jsonio.matrix_from_json(jsonio.matrix_to_json(P)), P,
                               atol=1e-15)


def test_sheaf_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    sheaf = random_sheaf(2, 5, 2, rng)
    sigma = random_cochain0(sheaf, rng)
    path = str(tmp_path / "sheaf.json")
    jsonio.sheaf_to_json(sheaf, cochain0=sigma, path=path)
    loaded, cochain = jsonio.load_sheaf(path)
    assert loaded.n_stalk == sheaf.n_stalk
    assert loaded.edges == sheaf.edges
    for (a, b), (c, d) in zip(loaded.maps, sheaf.maps):
        np.testing.assert_allclose(a, c, atol=1e-12)
        np.testing.assert_allclose(b, d, atol=1e-12)
    for v in sheaf.vertices:
        np.testing.assert_allclose(cochain[v], sigma[v], atol=1e-8)


def test_cochain_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    values = {0: random_spd(3, rng), "a": random_spd(3, rng)}
    path = str(tmp_path / "cochain.json")
    jsonio.cochain0_to_json(3, values, path=path)
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    assert obj["n_stalk"] == 3
    loaded = {v: np.array(X) for v, X in obj["values"]}
    assert set(loaded) == {0, "a"}
    np.testing.assert_array_equal(loaded["a"], values["a"])


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
    with pytest.raises(ParseError):
        jsonio.matrix_from_json({"wrong": []})
    with pytest.raises(ParseError):
        jsonio.matrix_from_json({"log_upper": [1.0, 2.0]})  # not triangular


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


def test_deterministic_output():
    rng = np.random.default_rng(5)
    sheaf = random_sheaf(2, 4, 1, rng)
    assert jsonio.sheaf_to_json(sheaf) == jsonio.sheaf_to_json(sheaf)
