"""Layout rule: no code in the package is kept alive by the tests alone.

Every top-level function and class of ``src/nlbox`` must be used somewhere
else in the package, or be public in ``nlbox.__all__``.  Code whose only
callers are tests belongs in ``tests/oracle.py`` or nowhere.
"""

import ast
from pathlib import Path

import nlbox

PACKAGE = Path(nlbox.__file__).parent


def _used_names(node: ast.AST) -> set[str]:
    """Names that ``node`` reads, as bare names or as attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_definition_has_a_caller_in_the_package():
    statements = [
        (path.name, stmt, _used_names(stmt))
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in nlbox.__all__:
            continue
        # a definition that only names itself (recursion, its own methods)
        # has no caller
        if not any(stmt.name in used for _, other, used in statements if other is not stmt):
            unused.append(f"{module}:{stmt.name}")
    assert unused == [], f"defined in the package but used only outside it: {unused}"
