"""Source hygiene checks on the package itself, by static inspection."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "swarmperm"
SOURCES = sorted(SRC.glob("*.py"))
# __init__.py imports names only to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"engine.py", "geometry.py", "protocols.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """`python -O` strips asserts, so a runtime check must raise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


BROAD = {"Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[int]:
    """Lines of `except:` and of handlers naming Exception or BaseException,
    alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD for t in types):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    """Every failure is a typed error: a broad handler would turn a bug
    into a silent refusal or swallow an interrupt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _broad_handlers(tree) == []


ROOT = SRC.parent.parent
# every program directory; the tests are not callers
PROGRAMS = [p for d in ("src", "demos", "bench", "tools") for p in sorted((ROOT / d).rglob("*.py"))
            if p.name != "__init__.py"]


def _exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names]


def _module_names(tree: ast.Module) -> list[str]:
    """The defs, classes and assigned names at a module's top level, but
    not the dunders, which Python itself reads."""
    out: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.Module) -> set[str]:
    """Every name read, as a bare name or an attribute, outside the body of
    the function or class of that name."""
    out: set[str] = set()

    def walk(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) \
                and node.id not in inside:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return out


def test_every_export_has_a_caller():
    """A public name, or any name a module defines at its top level, that
    only the tests read is not worth its lines."""
    used = set().union(*(_references(ast.parse(p.read_text())) for p in PROGRAMS))
    assert [name for name in _exports() if name not in used] == []
    assert [(p.name, name) for p in SOURCES for name in _module_names(ast.parse(p.read_text()))
            if name not in used] == []


def _dict_tables(tree: ast.Module) -> list[tuple[str, frozenset]]:
    """(name, key set) of each module-level dict literal whose keys are all
    constants."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            keys = node.value.keys
            if keys and all(isinstance(k, ast.Constant) for k in keys):
                out.append((ast.unparse(node.targets[0]), frozenset(k.value for k in keys)))
    return out


def test_no_parallel_tables():
    """Two tables keyed by the same ids hold one concept twice, kept aligned
    only by hand: one record per id should carry both."""
    by_keys: dict[frozenset, list[str]] = {}
    for p in SOURCES:
        for name, keys in _dict_tables(ast.parse(p.read_text())):
            by_keys.setdefault(keys, []).append(f"{p.name}:{name}")
    assert [names for names in by_keys.values() if len(names) > 1] == []


def _row_recomputations(tree: ast.Module) -> list[int]:
    """Lines of `offsets(x, x.sec.center)` calls, or of `offsets(x,
    sec.center)`, outside `Analysis.rows`: the rows about an analysis's own
    circle center, which that property caches once per analysis."""
    lines: list[int] = []

    def walk(node: ast.AST, path: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = path + (node.name,)
        if isinstance(node, ast.Call) and len(node.args) == 2 and path[-2:] != ("Analysis", "rows"):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            x, c = (ast.unparse(arg) for arg in node.args)
            if name == "offsets" and c in (f"{x}.sec.center", "sec.center"):
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(child, path)

    walk(tree, ())
    return lines


def test_row_check_sees_a_recomputation():
    src = ("class Analysis:\n"
           "    def rows(self):\n"
           "        return offsets(self, self.sec.center)\n"
           "def f(a, sec):\n"
           "    return offsets(a, a.sec.center), geometry.offsets(a, sec.center), offsets(a, c)\n")
    assert _row_recomputations(ast.parse(src)) == [5, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_row_set_per_analysis(path):
    """Offsets about an analysis's own enclosing-circle center come from its
    cached `rows` alone, never from a second `offsets` pass."""
    assert _row_recomputations(ast.parse(path.read_text(), filename=str(path))) == []
