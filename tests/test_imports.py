"""Every import in ``src/uzeta`` comes from the standard library or from
``uzeta`` and is read by the module that makes it,
every definition there (function, class or module-level name) is named
somewhere outside the line that defines it,
and every field or attribute it stores is read somewhere.  A name in a
comment or docstring does not count."""

import ast
import io
import pathlib
import re
import subprocess
import sys
import tokenize
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "uzeta"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read_names(tree):
    """Names that Name nodes read, also inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _read_names(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _read_names(tree))
    assert not unused, f"{path.name} imports {unused} and never reads them"


def _imported_modules(tree):
    """The top-level module of every absolute import; a relative import
    is ``uzeta`` itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "uzeta" if node.level else node.module.split(".")[0]


def test_dependency_free():
    # the package runs on a bare Python: no third-party import anywhere
    foreign = sorted(
        f"{path.name}: {name}"
        for path in SRC.glob("*.py")
        for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name != "uzeta" and name not in sys.stdlib_module_names
    )
    assert not foreign, f"imports from outside the standard library: {foreign}"


def _definitions(tree):
    """(name, line) of every function, method, class and name bound at
    module level, dunders left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                found += [(n.id, n.lineno) for n in ast.walk(target) if isinstance(n, ast.Name)]
    for name, line in found:
        if not (name.startswith("__") and name.endswith("__")):
            yield name, line


def _code_words(text):
    """The words of a file outside its comments and docstrings; other
    string literals count: uzbench wraps some methods by their dotted names."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add((node.body[0].lineno, node.body[0].col_offset))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.COMMENT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            yield from re.findall(r"[A-Za-z_]\w*", tok.string)


def _words():
    """How often each word appears in the code and string literals of src,
    tests and uzbench; comments and docstrings are not a use."""
    words = Counter()
    for folder in ("src", "tests", "uzbench"):
        for path in (ROOT / folder).rglob("*.py"):
            words.update(_code_words(path.read_text()))
    return words


def test_no_dead_definition():
    # a name counts as used wherever code or a string literal names it
    words = _words()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs += [(path.name, name, line) for name, line in _definitions(tree)]
    # each def line or binding names its own definition once; that is not a use
    words.subtract(name for _, name, _ in defs)
    dead = [f"{f}:{line} {name}" for f, name, line in defs if words[name] <= 0]
    assert not dead, f"defined and never named elsewhere: {dead}"


def _is_record(node):
    """A dataclass or NamedTuple class: its annotated names are fields."""
    return isinstance(node, ast.ClassDef) and (
        any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
        or any(ast.unparse(b) == "NamedTuple" for b in node.bases)
    )


def _stores(tree):
    """Every dataclass or NamedTuple field, ``self.x = ...`` and
    ``object.__setattr__(obj, "x", ...)`` of a module, by name, once per
    store."""
    for node in ast.walk(tree):
        if _is_record(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.target.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__setattr__" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_no_unread_state():
    # a field or attribute is read if its name appears as a word more often
    # than the program stores it
    words = _words()
    stores = Counter()
    for path in sorted(SRC.glob("*.py")):
        stores.update(_stores(ast.parse(path.read_text(), filename=str(path))))
    unread = sorted(name for name, n in stores.items() if words[name] <= n)
    assert not unread, f"stored and never read: {unread}"


def test_start_up_imports_no_dataclasses():
    # dataclasses and the inspect module it loads cost every process
    # start-up time; the commands' modules need neither.  A fresh
    # interpreter without site, since the tests import dataclasses
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import uzeta.cli, uzeta.cohomlite, uzeta.cache; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "[]\n", f"importing uzeta.cli, uzeta.cohomlite and uzeta.cache loads {out.strip()}"


def test_verify_does_not_import_the_resolution():
    # a verify run never loads uzeta.cohomlite, so work on the resolution
    # alone cannot change what the verify workloads compile.  A fresh
    # interpreter, since the tests import it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from uzeta import cli; "
        "recs = cli.run_suites(cli.RunConfig('A1', 3), ['rootcrit'], [{'spec': 'verma(2)', 'expect_injective': True}]); "
        "print(recs[0]['agree'], 'uzeta.cohomlite' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "True False\n", f"a rootcrit case printed {out.strip()!r} (agree, cohomlite loaded)"


def test_module_spec_is_the_only_dataclass():
    found = sorted(
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list)
    )
    assert found == ["qmodules.ModuleSpec"], (
        f"dataclasses in src/uzeta: {found}; only qmodules.ModuleSpec may be one, because "
        "uzbench/workloads.py::_reseed calls dataclasses.replace on it"
    )
