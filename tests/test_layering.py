"""Imports flow down the layer stack, never back up.

* :mod:`repro.attestation` and :mod:`repro.schemes` never import the
  service layer: :mod:`repro.service` builds on them (servers, campaigns
  and the measurement database call the verifier and the scheme backends),
  and an import the other way would make the verifier depend on its own
  callers.
* :mod:`repro.cpu` and :mod:`repro.lofat` import none of the layers above
  them (schemes, attestation, service, analysis).  The one measurement
  result type lives in :mod:`repro.lofat.engine` and is re-exported by
  :mod:`repro.schemes`, so the dependency stays scheme -> engine.

Every module under the checked packages is parsed, function-local imports
included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package -> the packages none of its modules may import.
FORBIDDEN = {
    "attestation": ("repro.service",),
    "schemes": ("repro.service",),
    "cpu": ("repro.schemes", "repro.attestation", "repro.service",
            "repro.analysis"),
    "lofat": ("repro.schemes", "repro.attestation", "repro.service",
              "repro.analysis"),
}

MODULES = sorted(
    (package, path) for package in FORBIDDEN
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
    found = {(package, path.name) for package, path in MODULES}
    assert ("attestation", "verifier.py") in found
    assert ("cpu", "core.py") in found
    assert ("lofat", "engine.py") in found
    assert any(package == "schemes" for package, _ in found)


@pytest.mark.parametrize(
    "package, path", MODULES,
    ids=[str(path.relative_to(PACKAGE_ROOT)) for _, path in MODULES])
def test_no_upward_import(package, path):
    offending = [
        name for name in imported_modules(path)
        for forbidden in FORBIDDEN[package]
        if name == forbidden or name.startswith(forbidden + ".")
    ]
    assert not offending, offending
