"""Seeded CLI fuzz: corrupted input files end in exit 0 or 2, never in a crash.

Valid sheaf, cochain, cloud, segments and ``verify --config`` files are
truncated, have one value or the whole document replaced (NaN, +-inf, 1e999
or a value of another type) or lose one entry. Every subcommand that reads such a file runs on
each corruption. ``verify --config`` reads only the config fixture: an object
without any of the six config keys is a valid config that runs the whole
default suite.
"""

import json
import os

import numpy as np
import pytest

from spdsheaf.cli import main

_I = [[1.0, 0.0], [0.0, 1.0]]
_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_ROT = [[0.0, -1.0], [1.0, 0.0]]

_FIXTURES = {
    "sheaf": {
        "n_stalk": 2, "vertices": [0, 1, 2],
        "edges": [{"tail": 0, "head": 1, "map_tail": _I, "map_head": _SWAP},
                  {"tail": 1, "head": 2, "map_tail": _ROT, "map_head": _I},
                  {"tail": 2, "head": 0, "map_tail": _I, "map_head": {"log_upper": [0, 0, 0]}}],
        "cochain0": [[0, [[2.0, 0.5], [0.5, 1.0]]], [1, {"log_upper": [0.1, 0.2, 0.3]}],
                     [2, _I]],
    },
    "cochain": {"n_stalk": 2, "values": [[0, [[2.0, 0.5], [0.5, 1.0]]],
                                         [1, {"log_upper": [0.1, 0.2, 0.3]}]]},
    "cloud": {"vertices": [{"id": i, "xyz": [0.3 * i, (-1.0) ** i, 0.1 * i * i]}
                           for i in range(5)],
              "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
    "segments": {"segments": [{"t_mid": 0.5 * (i // 2), "f_mid": (10.0, 20.0)[i % 2],
                               "data": [[1.0, 0.5 * i, -1.0], [0.25, 2.0, 1.0 - i]]}
                              for i in range(4)]},
    "config": {"checks": ["index", "holonomy"], "seed": 3, "trials": 2, "n_instances": 4,
               "max_vertices": 4, "extra_edges": 1},
}

_FILE_COMMANDS = {
    "sections": ["sections", "INPUT", "--out", "OUT/sections.json"],
    "lift": ["lift", "INPUT", "--canonicalize", "--out", "OUT/lift.json"],
    "diffuse": ["diffuse", "INPUT", "--layers", "2", "--seed", "1", "--out", "OUT/diffuse"],
    "covgraph": ["covgraph", "INPUT", "--eps1", "1", "--eps2", "15", "--eps", "50",
                 "--bandwidth", "5", "--out", "OUT/covgraph"],
}

_HUGE = "__huge__"  # written as the number token 1e999, which loads as inf
_REPLACEMENTS = (float("nan"), float("inf"), float("-inf"), _HUGE, "x", True, None, [], {},
                 [1, 2, 3])
_CASES_PER_FIXTURE = 25


def _paths(obj, prefix=()):
    """Every position below the root, as a tuple of keys and indices."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _corrupt(name: str, case: int) -> str:
    """Text of fixture `name` with corruption number `case`, the same on every run."""
    obj = json.loads(json.dumps(_FIXTURES[name]))
    rng = np.random.default_rng([case, len(name)])
    text = json.dumps(obj)
    if case % 5 == 0:
        return text[:int(rng.integers(1, len(text)))]
    if case % 5 == 4:  # not {}: as a config it would run the whole default suite
        return json.dumps([float("nan"), "x", None, [obj]][int(rng.integers(4))])
    paths = list(_paths(obj))
    path = paths[int(rng.integers(len(paths)))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if case % 5 == 3:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _REPLACEMENTS[int(rng.integers(len(_REPLACEMENTS)))]
    return json.dumps(obj).replace(f'"{_HUGE}"', "1e999")


def _written_text(out_dir) -> str:
    texts = []
    for root, _, files in os.walk(out_dir):
        for f in files:
            with open(os.path.join(root, f), encoding="utf-8") as fh:
                texts.append(fh.read())
    return "".join(texts)


@pytest.mark.parametrize("case", range(_CASES_PER_FIXTURE))
@pytest.mark.parametrize("name", sorted(_FIXTURES))
def test_corrupted_input_exits_0_or_2(tmp_path, capsys, name, case):
    path = tmp_path / f"{name}.json"
    path.write_text(_corrupt(name, case), encoding="utf-8")
    runs = ([["verify", "--config", "INPUT", "--out", "OUT/verify"]] if name == "config"
            else list(_FILE_COMMANDS.values()))
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        out.mkdir()
        code = main([str(path) if a == "INPUT" else a.replace("OUT", str(out)) for a in argv])
        captured = capsys.readouterr()
        assert code in (0, 2), (argv[0], code, captured.err)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
                (argv[0], captured.err)
        else:
            written = captured.out + _written_text(out)
            assert "NaN" not in written and "Infinity" not in written, argv[0]
