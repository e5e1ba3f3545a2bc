"""Every public definition and every defaulted parameter has a user outside
the unit tests, and the package re-exports exactly what the acceptance suite
and the demos use through it.

The users are code: the package modules (other than ``__init__``, whose
re-exports use nothing), the acceptance suite, the demos and the bench
harness, which runs the command line. Prose does not count, so a name that
only the README or a docstring mentions is dead surface.

- A module-level public function or class is used when some ``ast.Name`` or
  ``ast.Attribute`` outside its own definition refers to it.
- A public method of a public class is used when some ``ast.Attribute``
  outside the method refers to it: a local variable of the same name is not
  a use.
- A defaulted parameter of a public function, method or constructor is set
  when some call outside the definition, whose callee has the same name,
  passes it, by keyword or by position, a value other than the default's own
  literal, or may pass it through ``*`` or ``**``. A literal equal to the
  default in value and type (``trials=200`` for ``trials: int = 200``) sets
  nothing.
"""

import ast
import collections
import dataclasses
import functools
import types
from pathlib import Path

import spdsheaf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdsheaf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "demos").glob("*.py"))]
CORPUS = [*MODULES, *CALLERS, *sorted((ROOT / "bench").glob("*.py"))]


@dataclasses.dataclass
class _Definition:
    qualname: str
    name: str
    node: ast.AST
    is_method: bool
    # (name, index among the positional parameters or None, default expression)
    defaulted: list


def _defaulted(args: ast.arguments, skip_first: bool) -> list:
    """The defaulted parameters of a signature; `skip_first` drops self or cls."""
    positional = (args.posonlyargs + args.args)[skip_first:]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return [(a.arg, i, d) for i, (a, d) in enumerate(zip(positional, defaults)) if d] + [
        (a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _constructor(node: ast.ClassDef) -> list:
    """The defaulted parameters of a class's ``__init__``, written or made by
    @dataclass."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return _defaulted(item.args, skip_first=True)
    if not _is_dataclass(node):
        return []
    fields = [item for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and not (isinstance(item.value, ast.Call) and any(
                  k.arg == "init" and getattr(k.value, "value", None) is False
                  for k in item.value.keywords))]
    return [(f.target.id, i, f.value) for i, f in enumerate(fields) if f.value is not None]


def _public_definitions(path: Path, tree: ast.Module):
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield _Definition(f"{path.stem}.{node.name}", node.name, node, False,
                              _defaulted(node.args, skip_first=False))
        elif isinstance(node, ast.ClassDef):
            yield _Definition(f"{path.stem}.{node.name}", node.name, node, False,
                              _constructor(node))
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield _Definition(f"{path.stem}.{node.name}.{item.name}", item.name, item,
                                      True, _defaulted(item.args, skip_first=not static))


def _inside(node: ast.AST, definition: ast.AST) -> bool:
    first = min([definition.lineno] + [d.lineno for d in definition.decorator_list])
    return first <= node.lineno <= definition.end_lineno


def _name(node: ast.AST) -> str | None:
    """The name a Name or an Attribute refers to, or the one a Call calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _is_literal(value: ast.AST, default: ast.AST) -> bool:
    """Whether `value` is the literal `default`: two constants equal in value and type."""
    return (isinstance(value, ast.Constant) and isinstance(default, ast.Constant)
            and type(value.value) is type(default.value) and value.value == default.value)


def _sets(call: ast.Call, name: str, index: int | None, default: ast.AST) -> bool:
    """Whether `call` may pass parameter `name` a value other than its default."""
    for k in call.keywords:
        if k.arg is None:
            return True
        if k.arg == name:
            return not _is_literal(k.value, default)
    if index is None:
        return False
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    if starred and starred[0] <= index:
        return True
    return len(call.args) > index and not _is_literal(call.args[index], default)


@functools.cache
def _survey() -> tuple[list, list]:
    """Public definitions that nothing references, and defaulted parameters
    that no call sets, as qualified names."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in CORPUS}
    by_name = collections.defaultdict(list)
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute, ast.Call)):
                by_name[_name(node)].append((path, node))
    unused, unset = [], []
    for path in MODULES:
        for d in _public_definitions(path, trees[path]):
            rest = [n for p, n in by_name[d.name] if p is not path or not _inside(n, d.node)]
            if not any(isinstance(n, ast.Attribute) or isinstance(n, ast.Name) and not d.is_method
                       for n in rest):
                unused.append(d.qualname)
                continue
            calls = [n for n in rest if isinstance(n, ast.Call)]
            unset += [f"{d.qualname}({name})" for name, index, default in d.defaulted
                      if not any(_sets(c, name, index, default) for c in calls)]
    return unused, unset


def test_public_definitions_are_used_outside_the_tests():
    unused, _ = _survey()
    assert not unused, f"public names that only the unit tests reach: {unused}"


def test_defaulted_parameters_are_set_outside_the_tests():
    _, unset = _survey()
    assert not unset, f"defaulted parameters that only their default reaches: {unset}"


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
