"""The benchmark's traced replica (bench/traced.py) calls fbont's internals directly.

A refactor of ``src/`` that renames or removes one of them would only show up
when the benchmark runs with ``--trace 1``; this test catches it first.
"""

import ast
import importlib
import inspect
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


def test_traced_replica_calls_bind_to_fbont_signatures():
    """Each direct call of an fbont name binds to that name's current signature.

    A new required parameter of, say, ``parse_line`` would break the replica
    while every name still exists, so new parameters must stay optional.
    """
    with open(TRACED, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {}  # local name -> fbont object
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fbont"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fbont"):
                    imported[alias.asname or alias.name] = importlib.import_module(alias.name)
    checked, unbound = 0, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            target, name = imported[func.id], func.id
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = imported.get(func.value.id)
            if not inspect.ismodule(module) or not hasattr(module, func.attr):
                continue
            target, name = getattr(module, func.attr), f"{func.value.id}.{func.attr}"
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue  # *args / **kwargs: arity unknown at the call site
        args = [None] * len(node.args)
        kwargs = {k.arg: None for k in node.keywords}
        try:
            inspect.signature(target).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {name}: {exc}")
        checked += 1
    assert checked > 10
    assert not unbound, f"bench/traced.py calls no longer bind: {unbound}"


def test_traced_replica_payload_fields_have_merge_laws(tmp_path, monkeypatch):
    """Every field the replica's partitions return merges by a law of MERGE_LAWS,
    so deleting a law the folds no longer need cannot break ``--trace 1``."""
    from dumpgen import random_dump_lines
    from fbont.pipeline import MERGE_LAWS, Partition

    monkeypatch.syspath_prepend(os.path.dirname(TRACED))
    traced = importlib.import_module("traced")
    dump = tmp_path / "dump.nt"
    dump.write_text("".join(line + "\n" for line in random_dump_lines(200, seed=2)), encoding="utf-8")
    part = Partition(str(dump), 0, -1, 0)
    for command in ("slice", "study", "semantics"):
        payload = traced.run_partition((command, part, None, None, True))["payload"]
        fields = {name for name, value in payload.items() if value is not None}
        assert fields and not fields - set(MERGE_LAWS), command
