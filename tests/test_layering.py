"""The layers below the diagram pipeline never import the layers above them.

The relational engines are the ground truth that the Logic Trees and the
diagrams are checked against, the logic layer is what diagrams are built
from, and the pipeline, renderers and server sit on top of all three.  An
import upward, even a lazy one inside a function or one only for type
checking, would make a lower layer depend on what it is meant to check.

``repro.metrics``, the counter type under every layer's stats, is a leaf:
it imports no ``repro`` module at all.  ``repro.lru``, the bounded cache
under every layer's memos, imports only it, so any layer may use either.

Inside the serving tier the one service sits below its backends: the
service module knows neither the pool supervisor nor the worker loop, and
the worker loop knows neither the supervisor nor the HTTP layer.

A process that only compiles diagrams never loads the engines: the
single-process server, a pool worker and ``repro fingerprint`` import
neither NumPy, ``sqlite3`` nor ``multiprocessing``, nor
``repro.logic.evaluate`` or the relational executor, planner, plans, key
indexes, columnar engine, statistics or SQL backend.  ``repro.logic`` and
``repro.relational`` import their names on first access instead, and hand
out the submodules' own; ``DiagramBatchCompiler`` imports
``multiprocessing`` only to fan a corpus over processes.

The tree is found through ``repro.__file__``, so a run against an
installed package checks the code that run actually imports.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path
from typing import Iterator

import pytest

import repro
import repro.logic
import repro.relational

PACKAGE = Path(repro.__file__).resolve().parent

#: Layer -> the top-level ``repro`` packages and modules it may not import.
FORBIDDEN = {
    "relational": {"logic", "diagram", "render", "pipeline", "serve", "workloads", "cli"},
    "logic": {"diagram", "render", "pipeline", "serve", "workloads", "cli"},
    "diagram": {"render", "pipeline", "serve", "workloads", "cli"},
}


def _imports(path: Path) -> Iterator[str]:
    """Absolute dotted names of every module ``path`` imports, anywhere in it.

    ``from package import name`` (``from repro import cli``, ``from . import
    http``) also yields ``package.name``, since ``name`` may be a subpackage
    or module.
    """
    package = ["repro", *path.relative_to(PACKAGE).with_suffix("").parts][:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join([*base, node.module] if node.module else base)
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def _top_level(module: str) -> str | None:
    """The ``repro`` subpackage or module that ``module`` belongs to."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else None


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_above_it(layer):
    files = sorted((PACKAGE / layer).rglob("*.py"))
    assert files, f"no modules found under {PACKAGE / layer}"
    upward = sorted(
        f"{path.relative_to(PACKAGE)} imports {module}"
        for path in files
        for module in set(_imports(path))
        if _top_level(module) in FORBIDDEN[layer]
    )
    assert not upward, "\n".join(upward)


#: Leaf module -> the ``repro`` modules it may import.
LEAVES = {"metrics": set(), "lru": {"repro.metrics", "repro.metrics.Counters"}}


@pytest.mark.parametrize("module", sorted(LEAVES))
def test_leaf_imports_no_other_repro_module(module):
    path = PACKAGE / f"{module}.py"
    internal = sorted(
        name
        for name in set(_imports(path)) - LEAVES[module]
        if name.split(".")[0] == "repro"
    )
    assert not internal, f"{path.relative_to(PACKAGE)} imports {internal}"


#: Serving module -> the ``repro.serve`` modules it may not import.
SERVE_FORBIDDEN = {
    "service": {"supervisor", "pool"},
    "pool": {"supervisor", "http"},
}


@pytest.mark.parametrize("module", sorted(SERVE_FORBIDDEN))
def test_serving_module_imports_nothing_built_on_it(module):
    path = PACKAGE / "serve" / f"{module}.py"
    forbidden = {f"repro.serve.{name}" for name in SERVE_FORBIDDEN[module]}
    imported = sorted(
        name
        for name in set(_imports(path))
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    )
    assert not imported, f"{path.relative_to(PACKAGE)} imports {imported}"



#: What a process that only compiles diagrams must not import.
ENGINE_MODULES = (
    "numpy",
    "sqlite3",
    "multiprocessing",
    "repro.logic.evaluate",
    *(
        f"repro.relational.{name}"
        for name in (
            "executor",
            "planner",
            "plan",
            "keyindex",
            "columnar",
            "stats",
            "sqlbackend",
        )
    ),
)

#: Each case ends with the engine modules it loaded printed as JSON.
_REPORT = f"""
import json, sys
print(json.dumps([name for name in {ENGINE_MODULES!r} if name in sys.modules]))
"""

_COMPILE_PATHS = {
    "serve": """
import asyncio
import repro.cli
from repro.paper_queries import Q_ONLY_SQL
from repro.serve import CompileService

service = CompileService()
response = asyncio.run(service.compile(Q_ONLY_SQL, ("svg", "dot", "text")))
assert response.served == "compile" and set(response.payload["outputs"]) == {
    "svg", "dot", "text"
}
assert service.healthz()["engine_breakers"] == {}
service.close()
""",
    "pool-worker": """
import asyncio, json
from repro.paper_queries import Q_ONLY_SQL
from repro.serve.pool import main
from repro.serve.service import LocalCompiler

compiler = LocalCompiler()
body, _served = asyncio.run(compiler.compile(Q_ONLY_SQL, ("svg",)))
assert json.loads(body)["outputs"]["svg"].startswith("<svg")
compiler.close()
""",
    "fingerprint": """
import contextlib, io, pathlib, tempfile
from repro.cli import main
from repro.paper_queries import Q_ONLY_SQL

with tempfile.TemporaryDirectory() as folder:
    path = pathlib.Path(folder) / "q.sql"
    path.write_text(Q_ONLY_SQL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fingerprint", str(path)]) == 0
assert out.getvalue().split()[1] == str(path)
""",
}


@pytest.mark.parametrize("case", sorted(_COMPILE_PATHS))
def test_compile_path_loads_no_engine(case):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("REPRO_FAULT_PLAN", None)
    run = subprocess.run(
        [sys.executable, "-c", _COMPILE_PATHS[case] + _REPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []


def test_lazy_names_are_the_submodules_own():
    namespace: dict = {}
    exec("from repro.relational import *", namespace)
    exported = {
        name: module
        for module, names in repro.relational._EXPORTS.items()
        for name in names
    }
    assert set(repro.relational.__all__) == {*exported, "BatchExecutor"}
    for name, module in exported.items():
        own = getattr(import_module(f"repro.relational.{module}"), name)
        assert namespace[name] is own, name
    assert namespace["BatchExecutor"] is namespace["Executor"]
    evaluate = import_module("repro.logic.evaluate")
    assert repro.logic.evaluate_logic_tree is evaluate.evaluate_logic_tree
