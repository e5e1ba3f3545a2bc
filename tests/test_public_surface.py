"""Every public definition has a user outside the tests.

A module-level public function or class of ``spdsheaf`` must be named
somewhere besides its own definition: in the package source (other than
``__init__``, whose re-exports use nothing), a demo, the README or the
acceptance suite. A name that only the unit tests reach is dead surface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdsheaf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def test_public_definitions_are_used_outside_the_tests():
    outside = [(ROOT / "README.md").read_text(encoding="utf-8"),
               (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]
    outside += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
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
