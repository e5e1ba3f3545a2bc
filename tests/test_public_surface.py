"""Every public definition has a user outside the tests, and the package
re-exports exactly what the acceptance suite and the demos use through it.

A module-level public function or class of ``spdsheaf`` must be named
somewhere besides its own definition: in the package source (other than
``__init__``, whose re-exports use nothing), a demo, the README or the
acceptance suite. A name that only the unit tests reach is dead surface.
"""

import ast
import re
import types
from pathlib import Path

import spdsheaf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdsheaf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "demos").glob("*.py"))]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def test_public_definitions_are_used_outside_the_tests():
    outside = [p.read_text(encoding="utf-8") for p in [ROOT / "README.md", *CALLERS]]
    sources = {p: p.read_text(encoding="utf-8") for p in MODULES}
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node in _public_definitions(ast.parse(text)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            # the module without this definition, then every other text
            rest = "\n".join(lines[:first - 1] + lines[node.end_lineno:])
            corpus = [rest, *outside, *(t for p, t in sources.items() if p != path)]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(t) for t in corpus):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names that only the unit tests reach: {unused}"


def _names_used_through_the_package(path: Path) -> set[str]:
    """Attributes of every ``import spdsheaf [as x]`` alias, and the names of
    every ``from spdsheaf import ...``, in one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "spdsheaf"}
        elif isinstance(node, ast.ImportFrom) and node.module == "spdsheaf" and not node.level:
            names |= {a.name for a in node.names}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases}


def test_package_exports_what_the_acceptance_suite_and_demos_use():
    used = set().union(*map(_names_used_through_the_package, CALLERS))
    exported = {name for name, obj in vars(spdsheaf).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    exported -= {"THREAD_ENV", "thread_cap"}
    assert not used - exported, f"used but not exported: {sorted(used - exported)}"
    assert not exported - used, f"exported but unused: {sorted(exported - used)}"
