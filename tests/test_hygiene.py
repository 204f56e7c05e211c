"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fermipin"


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


def _module_level_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """Modules imported outside every function body, with their lines."""
    found = []
    pending = list(ast.iter_child_nodes(tree))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append((node.module, node.lineno))
        pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_is_imported_only_where_it_is_used(path: Path) -> None:
    # scipy costs a small command's cold start about 0.2 s; only the
    # sparse solve imports it, inside the function that needs it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [(name, line) for name, line in _module_level_imports(tree)
            if name.split(".")[0] == "scipy"] == []
