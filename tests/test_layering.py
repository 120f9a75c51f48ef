"""The layers below the diagram pipeline never import the layers above them.

The relational engines are the ground truth that the Logic Trees and the
diagrams are checked against, the logic layer is what diagrams are built
from, and the pipeline, renderers and server sit on top of all three.  An
import upward, even a lazy one inside a function or one only for type
checking, would make a lower layer depend on what it is meant to check.

The tree is found through ``repro.__file__``, so a run against an
installed package checks the code that run actually imports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: Layer -> the top-level ``repro`` packages and modules it may not import.
FORBIDDEN = {
    "relational": {"logic", "diagram", "render", "pipeline", "serve", "workloads", "cli"},
    "logic": {"diagram", "render", "pipeline", "serve", "workloads", "cli"},
    "diagram": {"render", "pipeline", "serve", "workloads", "cli"},
}


def _imports(path: Path) -> Iterator[str]:
    """Absolute dotted names of every module ``path`` imports, anywhere in it.

    ``from repro import name`` (or ``from .. import name`` one level down)
    yields ``repro.name``, since ``name`` is then a subpackage or module.
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
            if module == "repro":
                for alias in node.names:
                    yield f"repro.{alias.name}"
            else:
                yield module


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
