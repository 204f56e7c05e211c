"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fermipin"
README = SOURCE.parent.parent / "README.md"
BENCH = SOURCE.parent.parent / "bench"


def _parsed(directory: Path) -> dict[Path, ast.AST]:
    """The syntax tree of each Python file of ``directory``, by path."""
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never references.

    An import statement carrying ``# noqa: F401`` on any of its lines is a
    deliberate re-export and is skipped.
    """
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path: Path) -> None:
    assert _unused_imports(path) == []


def test_every_public_definition_is_read() -> None:
    """No public ``def`` or ``class`` in the package is dead surface.

    A name counts as read when some line of the package uses it as a name,
    an attribute or an imported name, or when it is a word of the README.
    The check goes by name alone, so it misses a definition whose name some
    other identifier shares: an unread method named ``count`` passes because
    lists have one, and so does one named like a local variable
    (``occupied``) or like another class's method (``residual``).
    """
    trees = _parsed(SOURCE)
    read = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert unread == []


def test_every_public_member_is_read() -> None:
    """No public method or property of a package class is dead surface.

    A member counts as read only through an attribute access in the package
    that is not rooted at ``np``, or as a word of the README.  A local
    variable or a numpy function of the same name (``trace``, ``norm``)
    does not hide an unread member here, as it does in the check above.
    """
    trees = _parsed(SOURCE)
    read = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id == "np"):
                    read.add(node.attr)
    unread = [
        f"{path.name}:{node.lineno} {cls.name}.{node.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert unread == []


def test_every_class_field_is_read() -> None:
    """No annotated class field in the package is dead weight.

    A field counts as read when some line of the package or of a benchmark
    file reads it as an attribute, or when it is a word of the README (a
    documented result field).  Setting a field through a constructor does
    not count: a field that only ever receives a value is never used.  Like
    the check above it goes by name, so a field passes when any attribute
    of the same name is read.
    """
    trees = _parsed(SOURCE)
    read = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    read.update(node.attr for tree in [*trees.values(), *_parsed(BENCH).values()]
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [
        f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
        for path, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    ]
    assert unread == []


def _imported_modules(tree: ast.AST) -> list[tuple[str, int]]:
    """Every absolute module import, function bodies included, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append((node.module, node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_where_it_is_used(path: Path) -> None:
    # scipy is used nowhere, so no module imports it, not even inside a
    # function: numpy is the only runtime dependency, and importing scipy
    # would add about 0.25 s and 30 MB to a cold start
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [(name, line) for name, line in _imported_modules(tree)
            if name.split(".")[0] == "scipy"] == []


def test_sparse_path_solve_leaves_scipy_unimported() -> None:
    # 400 determinants, above the dense crossover
    argv = ["solve", "--model", "hubbard", "--sites", "6", "--U", "4", "--N", "6",
            "--sz", "0", "--format", "json"]
    child = (
        "import contextlib, io, json, sys\n"
        "from fermipin import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'exit': code, 'scipy': 'scipy' in sys.modules}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                            env=env, timeout=120, check=True)
    assert json.loads(result.stdout) == {"exit": 0, "scipy": False}
