"""API-shape guards: one execution path through ``repro.core``.

The per-limb loops are a test oracle (:mod:`repro.core.reference`), not
a mode of the library: no public class takes a ``packed`` switch, and
no library module imports the oracle.
"""

import ast
import inspect
import pathlib

import pytest

import repro
from repro.core import CkksContext, Decryptor, Encryptor, Evaluator
from repro.ntt import NTTEngine

SRC = pathlib.Path(repro.__file__).resolve().parent
ORACLE = "repro.core.reference"

#: The ``native --self-test`` CLI command prints the three-way
#: ``native == packed == reference`` check, so it may load the oracle —
#: lazily, inside the command, never at import time.
LAZY_IMPORTERS = {"__main__.py"}


@pytest.mark.parametrize("fn", [
    Evaluator.__init__,
    Encryptor.__init__,
    Decryptor.__init__,
    NTTEngine.__init__,
    NTTEngine.subengine,
    CkksContext.__init__,
    CkksContext.to_ntt,
    CkksContext.from_ntt,
    CkksContext.divide_round_drop_ntt,
    CkksContext.rescale_ntt,
], ids=lambda fn: fn.__qualname__)
def test_no_packed_parameter(fn):
    assert "packed" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("cls", [Evaluator, Encryptor, Decryptor, NTTEngine])
def test_no_packed_property(cls):
    assert not hasattr(cls, "packed")


def _imported_modules(path: pathlib.Path, tree: ast.AST):
    """Absolute names of every module an AST imports, with its node."""
    package = ".".join(("repro",) + path.relative_to(SRC).parent.parts)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                mod = f"{base}.{node.module}" if node.module else base
            else:
                mod = node.module or ""
            yield mod, node
            for alias in node.names:
                yield f"{mod}.{alias.name}", node


def test_reference_oracle_is_not_imported_by_the_library():
    assert (SRC / "core" / "reference.py").is_file()
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "core/reference.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = set(map(id, tree.body))
        for mod, node in _imported_modules(path, tree):
            if mod != ORACLE:
                continue
            if rel in LAZY_IMPORTERS and id(node) not in top_level:
                continue
            offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, f"library modules import {ORACLE}: {offenders}"
