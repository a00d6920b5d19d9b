"""The package defines nothing that only the tests use.

Every function, class and method defined in `src/tacpush/` must be
referenced by name from `src/`, `tools/` or `perfbench/`: as an identifier,
an attribute, or a string constant (the benchmark's tracer names the
functions it patches by string). An `__all__` entry or a docstring is not a
reference, and neither is a test under `tests/`: code that only the tests
call is a second implementation kept for them, so it goes, and the tests
that need it keep their own copy. Dunder methods are exempt, since the
interpreter calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "tools", "perfbench")

# qualified name -> why it stays although nothing outside the tests uses it
ALLOWED = {
    "PlanarPose.to_transform": (
        "the benchmark's self-test asserts that scene binds euler_to_transform, "
        "which only to_transform calls, until the benchmark stops tracing "
        "pose_math (ROADMAP item 1)"
    ),
}


def _definitions(node, prefix=""):
    """(qualified name, name) of every function, class and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + child.name, child.name
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _not_references(tree) -> set:
    """The ids of the string constants that are docstrings or __all__ entries."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skip.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skip.update(id(n) for n in ast.walk(node.value))
    return skip


def referenced_names() -> set:
    names = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            skip = _not_references(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in skip):
                    names.add(node.value)
    return names


def unreferenced_definitions() -> dict:
    """Qualified name -> module of each non-dunder definition that nothing
    in src/, tools/ or perfbench/ names."""
    used = referenced_names()
    found = {}
    for path in sorted((ROOT / "src" / "tacpush").glob("*.py")):
        for qualname, name in _definitions(ast.parse(path.read_text(), str(path))):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in used:
                found[qualname] = path.name
    return found


def test_every_definition_is_used_outside_the_tests():
    unused = {q: m for q, m in unreferenced_definitions().items() if q not in ALLOWED}
    assert not unused, (
        "defined in src/tacpush but named only by tests (or by nothing); delete "
        f"them, or move what the tests need into tests/: {unused}"
    )


def test_every_allowed_name_is_still_unused():
    # an entry whose definition went, or came into use, is stale
    assert sorted(ALLOWED) == sorted(q for q in unreferenced_definitions() if q in ALLOWED)
