"""Guard against switch creep through the environment.

``src/repro`` reads exactly two environment variables, both deployment
paths (where the kernel cache and the trace files live).  A behaviour
switch smuggled in as a third doubles the configurations tests and
benches must cover, so it has to fail a build, not wait for a review.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {"REPRO_BATCH_KERNEL_CACHE", "REPRO_TRACE_DIR"}


def _is_environ(node) -> bool:
    """``os.environ`` or a bare ``environ`` (``from os import environ``)."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") \
        or (isinstance(node, ast.Name) and node.id == "environ")


def _is_getenv(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "getenv") \
        or (isinstance(node, ast.Name) and node.id == "getenv")


def _scan():
    """``(constants, reads, stray, mentioned)`` over every source file:
    module-level ``NAME = "literal"`` bindings, the name argument of each
    environment read, uses of ``environ`` that are not a keyed read, and
    every ``REPRO_*`` token in any string literal."""
    constants, reads, stray, mentioned = {}, [], [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                constants[node.targets[0].id] = node.value.value
        keyed = set()
        where = str(path.relative_to(SRC))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.update(re.findall(r"REPRO_[A-Z0-9_]+", node.value))
            elif isinstance(node, ast.Call) and node.args \
                    and isinstance(node.func, ast.Attribute) \
                    and _is_environ(node.func.value):
                keyed.add(id(node.func.value))   # environ.get(NAME, ...)
                reads.append((f"{where}:{node.lineno}", node.args[0]))
            elif isinstance(node, ast.Call) and node.args \
                    and _is_getenv(node.func):         # getenv(NAME, ...)
                reads.append((f"{where}:{node.lineno}", node.args[0]))
            elif isinstance(node, ast.Subscript) and _is_environ(node.value):
                keyed.add(id(node.value))            # environ[NAME]
                reads.append((f"{where}:{node.lineno}", node.slice))
        stray += [f"{where}:{node.lineno}"
                  for node in ast.walk(tree)
                  if _is_environ(node) and id(node) not in keyed]
    return constants, reads, stray, mentioned


def test_environment_reads_are_pinned():
    constants, reads, stray, mentioned = _scan()
    assert not stray, (
        f"environ used other than as a keyed read at {stray}; the guard "
        f"cannot tell which variables that consults")
    read_names = set()
    for where, arg in reads:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            read_names.add(arg.value)
        elif isinstance(arg, ast.Name) and arg.id in constants:
            read_names.add(constants[arg.id])
        else:
            raise AssertionError(
                f"{where}: environment read whose variable name is not a "
                f"literal or a module-level string constant")
    assert read_names == ALLOWED, (
        f"src/repro reads {sorted(read_names)} from the environment; "
        f"only {sorted(ALLOWED)} (deployment paths) are allowed — make a "
        f"new behaviour the default or remove it instead of adding a "
        f"switch")
    assert mentioned == ALLOWED, (
        f"REPRO_* names in source strings {sorted(mentioned)} != "
        f"{sorted(ALLOWED)}")


def test_the_guard_sees_reads_through_constants(tmp_path, monkeypatch):
    """Non-vacuity: a read through a module constant is resolved, and a
    stray ``dict(os.environ)`` is reported."""
    (tmp_path / "mod.py").write_text(
        'import os\n'
        'SWITCH_ENV = "REPRO_SNEAKY"\n'
        'def f():\n'
        '    return os.environ.get(SWITCH_ENV), os.getenv("REPRO_OTHER")\n'
        'def g():\n'
        '    return dict(os.environ)\n')
    monkeypatch.setattr(f"{__name__}.SRC", tmp_path)
    constants, reads, stray, mentioned = _scan()
    names = {constants[arg.id] if isinstance(arg, ast.Name) else arg.value
             for _where, arg in reads}
    assert names == {"REPRO_SNEAKY", "REPRO_OTHER"} == mentioned
    assert stray == ["mod.py:6"]
