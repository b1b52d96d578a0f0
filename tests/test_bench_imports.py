"""The benchmark's traced replica (bench/traced.py) calls fbont's internals directly.

A refactor of ``src/`` that renames or removes one of them would only show up
when the benchmark runs with ``--trace 1``; this test catches it first.
"""

import ast
import importlib
import os

TRACED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "traced.py")


def test_traced_replica_names_exist_in_fbont():
    with open(TRACED, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    modules = {}  # local alias -> module, for `import fbont.x as y`
    names = []  # (module, attribute) pairs the replica relies on
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fbont"):
            names += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fbont"):
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                names.append((modules[node.value.id], node.attr))
    assert names
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"bench/traced.py uses names fbont no longer has: {missing}"
