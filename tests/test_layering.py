"""The protocol and scheme layers never import the service layer.

:mod:`repro.service` builds on :mod:`repro.attestation` and
:mod:`repro.schemes` (servers, campaigns and the measurement database call
the verifier and the scheme backends); an import the other way would make
the verifier depend on its own callers.  Every module under those two
packages is parsed, function-local imports included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER_PACKAGES = ("attestation", "schemes")
FORBIDDEN = "repro.service"

MODULES = sorted(
    path for package in LOWER_PACKAGES
    for path in (PACKAGE_ROOT / package).rglob("*.py"))


def imported_modules(path: Path):
    """Every absolute module name ``path`` imports, relative ones resolved."""
    package = path.relative_to(PACKAGE_ROOT.parent).parent.parts
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield module
            for alias in node.names:
                yield module + "." + alias.name


def test_modules_found():
    assert any(path.name == "verifier.py" for path in MODULES)
    assert any(path.parent.name == "schemes" for path in MODULES)


@pytest.mark.parametrize(
    "path", MODULES,
    ids=[str(path.relative_to(PACKAGE_ROOT)) for path in MODULES])
def test_no_service_import(path):
    offending = [
        name for name in imported_modules(path)
        if name == FORBIDDEN or name.startswith(FORBIDDEN + ".")
    ]
    assert not offending, offending
