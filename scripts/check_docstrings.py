#!/usr/bin/env python
"""Docstring-coverage gate: every public item must say what it is.

Walks the source files passed on the command line (defaults to the
gated set: ``src/repro/server/``, ``src/repro/explore/``,
``src/repro/backend/`` and ``src/repro/__main__.py``), parses
them with ``ast`` — no imports, so it runs anywhere — and fails if any
public module, class, function or method lacks a docstring.  "Public"
means not underscore-prefixed; ``__init__`` is exempt when its class is
documented, property setters and ``@overload`` stubs are exempt, and a
nested function is private by construction.

tests/test_docs.py runs it as a tier-1 test.
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = (
    "src/repro/server",
    "src/repro/explore",
    "src/repro/backend",
    "src/repro/__main__.py",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _decorator_names(node: ast.AST) -> set:
    names = set()
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def missing_docstrings(path: pathlib.Path) -> list:
    """Return ``"file:line: item"`` strings for undocumented public items."""
    tree = ast.parse(path.read_text(), filename=str(path))
    problems = []
    rel = path.relative_to(REPO)

    if ast.get_docstring(tree) is None:
        problems.append(f"{rel}:1: module")

    def visit(node: ast.AST, prefix: str, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_public(child.name):
                    if ast.get_docstring(child) is None:
                        problems.append(f"{rel}:{child.lineno}: class {prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.", depth + 1)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_public(child.name) or depth >= 2:
                    continue  # private, or nested inside a function
                decorators = _decorator_names(child)
                if "overload" in decorators or "setter" in decorators:
                    continue
                if ast.get_docstring(child) is None:
                    kind = "method" if prefix else "function"
                    problems.append(f"{rel}:{child.lineno}: {kind} {prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", 99)  # nested = private
    visit(tree, "", 0)
    return problems


def gather(targets) -> list:
    """Collect the python files behind each target path."""
    files = []
    for target in targets:
        path = REPO / target
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.exists():
            files.append(path)
        else:
            raise SystemExit(f"no such target: {target}")
    return files


def main(argv) -> int:
    """Check every target; print findings; exit 1 if any."""
    targets = argv or list(DEFAULT_TARGETS)
    problems = []
    files = gather(targets)
    for path in files:
        problems.extend(missing_docstrings(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} undocumented public item(s) in {len(files)} file(s)")
        return 1
    print(f"docstring coverage: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
