"""Offline check of the CI ruff gate's unused-import rule (F401).

The ``static-analysis`` CI job runs ``ruff check`` with the selection and
per-file ignores of ``pyproject.toml``.  ruff is not a dependency, so this
test applies F401 itself with a stdlib ``ast`` scan, over the same paths
(read from the CI workflow) and honouring the same ``extend-exclude``,
``per-file-ignores`` and ``# noqa`` comments.  An import is unused when the
name it binds is never read in its scope: the module for a top-level
import, the function for a local one.  Names in ``__all__`` and in string
annotations count as reads; ``from __future__`` imports and explicit
re-exports (``import x as x``) are exempt, as in ruff.
"""

import ast
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI_WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def _read_names(node):
    """Names a subtree reads, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
    annotations = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [arg.annotation for arg in every if arg and arg.annotation]
            annotations += [sub.returns] if sub.returns else []
        elif isinstance(sub, ast.AnnAssign):
            annotations.append(sub.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _imports_of(scope):
    """Import statements whose nearest enclosing function is ``scope``."""
    pending = list(ast.iter_child_nodes(scope))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def _noqa_f401(lines, node):
    for line in lines[node.lineno - 1:node.end_lineno]:
        match = re.search(r"#\s*noqa(?::\s*([\w, ]+))?", line, re.IGNORECASE)
        if match and (match.group(1) is None or "F401" in match.group(1).upper()):
            return True
    return False


def unused_imports(source):
    """``[(line, name)]`` of the imports in ``source`` that F401 reports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= {elt.value for elt in getattr(node.value, "elts", [])
                         if isinstance(elt, ast.Constant)}
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for scope in scopes:
        read = None
        for node in _imports_of(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if _noqa_f401(lines, node):
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                if alias.asname:
                    bound = alias.asname
                elif isinstance(node, ast.Import):
                    bound = alias.name.split(".")[0]
                else:
                    bound = alias.name
                if read is None:
                    read = _read_names(scope) | (exported if scope is tree else set())
                if bound not in read:
                    found.append((node.lineno, bound))
    return sorted(found)


def _glob_regex(pattern):
    """ruff's path globs: ``**/`` spans zero or more directories."""
    out = ""
    index = 0
    while index < len(pattern):
        if pattern.startswith("**/", index):
            out, index = out + "(?:.*/)?", index + 3
        elif pattern.startswith("**", index):
            out, index = out + ".*", index + 2
        elif pattern[index] == "*":
            out, index = out + "[^/]*", index + 1
        elif pattern[index] == "?":
            out, index = out + "[^/]", index + 1
        else:
            out, index = out + re.escape(pattern[index]), index + 1
    return re.compile(out + r"\Z")


def _matches(path, pattern):
    if "/" not in pattern:
        return bool(_glob_regex(pattern).match(os.path.basename(path)))
    return bool(_glob_regex(pattern.rstrip("/")).match(path)) or \
        bool(_glob_regex(pattern.rstrip("/") + "/**").match(path))


def _ruff_paths():
    with open(CI_WORKFLOW) as handle:
        for line in handle:
            command = line.split("run:", 1)[-1].split()
            if command[:2] == ["ruff", "check"]:
                return command[2:]
    raise AssertionError("no 'ruff check' step in %s" % CI_WORKFLOW)


def _ruff_config():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        return tomllib.load(handle)["tool"]["ruff"]


def _checked_files():
    config = _ruff_config()
    excludes = config.get("extend-exclude", [])
    ignores = config.get("lint", {}).get("per-file-ignores", {})
    for top in _ruff_paths():
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.relpath(os.path.join(directory, name), ROOT)
                path = path.replace(os.sep, "/")
                if not path.endswith(".py") or any(_matches(path, p) for p in excludes):
                    continue
                if any("F401" in codes and _matches(path, pattern)
                       for pattern, codes in ignores.items()):
                    continue
                yield path


def test_f401_is_selected():
    assert "F401" in _ruff_config()["lint"]["select"]


def test_no_unused_imports():
    findings = []
    files = list(_checked_files())
    assert any(path.startswith("src/") for path in files)
    assert not any(path.endswith("/__init__.py") and path.startswith("src/repro/")
                   for path in files)
    for path in files:
        with open(os.path.join(ROOT, path)) as handle:
            findings += ["%s:%d %s" % (path, line, name)
                         for line, name in unused_imports(handle.read())]
    assert not findings, "unused imports (F401):\n" + "\n".join(findings)


SAMPLE = '''
from __future__ import annotations
import os
import os.path as osp
import json as json
from typing import List, Optional
import re  # noqa: F401
from collections import OrderedDict

__all__ = ["OrderedDict"]


def function(value: "Optional[int]") -> None:
    import sys
    import shutil
    return sys.argv
'''


def test_scanner_on_a_sample():
    assert unused_imports(SAMPLE) == [(3, "os"), (4, "osp"), (6, "List"), (15, "shutil")]


def test_globs_follow_ruff():
    assert _matches("src/repro/__init__.py", "src/repro/**/__init__.py")
    assert _matches("src/repro/lofat/__init__.py", "src/repro/**/__init__.py")
    assert not _matches("src/repro/lofat/engine.py", "src/repro/**/__init__.py")
    assert _matches("tests/data/lang_corpus/x.py", "tests/data")
    assert not _matches("tests/test_cli.py", "tests/data")
