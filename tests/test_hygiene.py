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


_UNPACKERS = {"enumerate", "zip", "reversed", "iter", "list", "tuple", "sorted", "map", "filter"}


def _elementwise_reads(tree: ast.Module) -> list[int]:
    """Lines that build a `Point` or read a configuration element by
    element: a loop or comprehension over one, or an index into one.  A
    configuration is a `.positions`, a parameter annotated with Point, a
    name bound to either, or an item of a list of `.positions`."""
    configs: set[str] = set()
    config_lists: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None \
                and "Point" in ast.unparse(node.annotation):
            configs.add(node.arg)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value, name = node.value, node.targets[0].id
            if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
                if _is_config(value.elt, configs, config_lists):
                    config_lists.add(name)
            elif _is_config(value, configs, config_lists):
                configs.add(name)
    lines: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "Point"
                                           or getattr(node.func, "attr", None) == "Point"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and _is_config(node.value, configs, config_lists):
            lines.append(node.lineno)
        elif isinstance(node, (ast.For, ast.comprehension)):
            todo = [node.iter]
            while todo:
                it = todo.pop()
                if isinstance(it, ast.Starred):
                    todo.append(it.value)
                elif isinstance(it, ast.Call) and getattr(it.func, "id", None) in _UNPACKERS:
                    todo += it.args
                elif _is_config(it, configs, config_lists):
                    lines.append(it.lineno)
    return sorted(lines)


def _is_config(node: ast.AST, configs: set[str], config_lists: set[str]) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "positions")
            or (isinstance(node, ast.Name) and node.id in configs)
            or (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in config_lists))


def test_elementwise_check_sees_point_reads():
    src = ("def f(trace, c_a: Sequence[Point], k):\n"
           "    configs = [rec.positions for rec in trace.records]\n"
           "    base = trace.records[0].positions\n"
           "    got = configs[k]\n"
           "    a = [p.x for p in c_a] + [p for p in enumerate(base)]\n"
           "    for i, p in zip(range(3), trace.records[1].positions):\n"
           "        pass\n"
           "    return got[0], configs[0][1], Point(0, 0), geometry.Point(1, 1)\n"
           "def g(trace, configs):\n"
           "    xs, ys = columns(trace.records[0].positions)\n"
           "    return [rec.positions for rec in trace.records], len(configs), configs[0]\n")
    assert _elementwise_reads(ast.parse(src)) == [5, 5, 6, 8, 8, 8, 8]


def test_verifier_reads_columns():
    """The verifier reads each round through its coordinate columns and
    builds no Point, so a trace audit costs no Point per robot-round."""
    path = SRC / "verify.py"
    assert _elementwise_reads(ast.parse(path.read_text(), filename=str(path))) == []


def _index_constructions(tree: ast.Module) -> list[str]:
    """The dotted path of the def or class around each `PointIndex(...)` call."""
    out: list[str] = []

    def walk(node: ast.AST, path: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = path + (node.name,)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "PointIndex":
                out.append(".".join(path))
        for child in ast.iter_child_nodes(node):
            walk(child, path)

    walk(tree, ())
    return out


def test_index_check_sees_every_construction():
    src = ("def f(a, tol):\n"
           "    return PointIndex(a, tol)\n"
           "class C:\n"
           "    def g(self, tol):\n"
           "        return [geometry.PointIndex(b, tol) for b in self], index(self)\n")
    assert _index_constructions(ast.parse(src)) == ["f", "C.g"]


def test_verifier_builds_an_index_only_to_label_a_trace_or_extract_a_step():
    """The k-step check and the visit matrix read one labelling of the
    trace's rounds against round 0's sites; only that labelling and
    `extract_permutation`, the shift check's pairwise fallback, index sites."""
    path = SRC / "verify.py"
    made = _index_constructions(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(made) == ["_SiteLabels.__init__", "extract_permutation"]
