"""Seeded CLI fuzz: corrupted input files end in exit 0 or 2, never in a crash.

Valid sheaf, cochain, cloud and segments files are truncated, have one value
or the whole document replaced (NaN, +-inf, 1e999 or a value of another type)
or lose one entry. Every subcommand that reads such a file runs on each
corruption.
"""

import json
import os

import numpy as np
import pytest

from spdsheaf.cli import main

_I = [[1.0, 0.0], [0.0, 1.0]]
_SWAP = [[0.0, 1.0], [1.0, 0.0]]
_ROT = [[0.0, -1.0], [1.0, 0.0]]
# sym_exp of the log [[0.1, 0.2 / sqrt(2)], [0.2 / sqrt(2), 0.3]]
_EXP = [[1.1170177540613908, 0.17359739316285402], [0.17359739316285402, 1.3625215418649135]]

_FIXTURES = {
    "sheaf": {
        "n_stalk": 2, "vertices": [0, 1, 2],
        "edges": [{"tail": 0, "head": 1, "map_tail": _I, "map_head": _SWAP},
                  {"tail": 1, "head": 2, "map_tail": _ROT, "map_head": _I},
                  {"tail": 2, "head": 0, "map_tail": _I, "map_head": _I}],
        "cochain0": [[0, [[2.0, 0.5], [0.5, 1.0]]], [1, _EXP], [2, _I]],
    },
    "cochain": {"n_stalk": 2, "values": [[0, [[2.0, 0.5], [0.5, 1.0]]], [1, _EXP]]},
    "cloud": {"vertices": [{"id": i, "xyz": [0.3 * i, (-1.0) ** i, 0.1 * i * i]}
                           for i in range(5)],
              "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
    "segments": {"segments": [{"t_mid": 0.5 * (i // 2), "f_mid": (10.0, 20.0)[i % 2],
                               "data": [[1.0, 0.5 * i, -1.0], [0.25, 2.0, 1.0 - i]]}
                              for i in range(4)]},
}

_FILE_COMMANDS = {
    "sections": ["sections", "INPUT", "--out", "OUT/sections.json"],
    "lift": ["lift", "INPUT", "--canonicalize", "--out", "OUT/lift.json"],
    "diffuse": ["diffuse", "INPUT", "--layers", "2", "--seed", "1", "--out", "OUT/diffuse"],
    "covgraph": ["covgraph", "INPUT", "--eps1", "1", "--eps2", "15", "--eps", "50",
                 "--bandwidth", "5", "--out", "OUT/covgraph"],
}

# the commands that read each fixture; no command reads a cochain file
_READERS = {"sheaf": ["sections"], "cloud": ["lift", "diffuse"], "segments": ["covgraph"]}

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
    if case % 5 == 4:
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


def _run(argv, path, out) -> int:
    return main([str(path) if a == "INPUT" else a.replace("OUT", str(out)) for a in argv])


@pytest.mark.parametrize("name, command",
                         [(name, command) for name in _READERS for command in _READERS[name]])
def test_uncorrupted_fixture_is_read(tmp_path, capsys, name, command):
    # corruptions of a fixture its readers reject would stop at its first bad value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_FIXTURES[name]), encoding="utf-8")
    assert _run(_FILE_COMMANDS[command], path, tmp_path) == 0, capsys.readouterr().err


@pytest.mark.parametrize("case", range(_CASES_PER_FIXTURE))
@pytest.mark.parametrize("name", sorted(_FIXTURES))
def test_corrupted_input_exits_0_or_2(tmp_path, capsys, name, case):
    path = tmp_path / f"{name}.json"
    path.write_text(_corrupt(name, case), encoding="utf-8")
    for i, argv in enumerate(_FILE_COMMANDS.values()):
        out = tmp_path / f"out{i}"
        out.mkdir()
        code = _run(argv, path, out)
        captured = capsys.readouterr()
        assert code in (0, 2), (argv[0], code, captured.err)
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, \
                (argv[0], captured.err)
        else:
            written = captured.out + _written_text(out)
            assert "NaN" not in written and "Infinity" not in written, argv[0]
