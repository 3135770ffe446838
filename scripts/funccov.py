#!/usr/bin/env python
"""Function-level coverage of ``src/repro/`` by tier-1, with no dependency.

Trace: ``PYTHONPATH=src python -m pytest -q -p scripts.funccov`` records,
per code object under ``src/repro/``, which test files called it
(``sys.setprofile``), and writes ``.funccov.json`` at session end.
Read: ``python scripts/funccov.py`` prints the functions no test executed
and those reached through exactly one test file.  In-process only: pool /
shard worker children and import-time decorators are not traced.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src" / "repro")
OUT = REPO / ".funccov.json"

_foreign: set = set()  # every code object outside SRC shares this one
_calls: dict = {}  # code object -> test files that called it
_test = ["<collection>"]


def _profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        tests = _calls.get(code)
        if tests is None:
            tests = _calls[code] = set() if code.co_filename.startswith(SRC) else _foreign
        tests.add(_test[0])


def pytest_sessionstart(session):
    sys.setprofile(_profile)


def pytest_runtest_setup(item):
    _test[0] = item.location[0]


def pytest_sessionfinish(session):
    sys.setprofile(None)
    reached = {
        f"{pathlib.Path(code.co_filename).relative_to(REPO)}:{code.co_firstlineno}": sorted(tests)
        for code, tests in _calls.items()
        if tests is not _foreign
    }
    OUT.write_text(json.dumps(reached, indent=0, sort_keys=True))


def _functions():
    """Every ``def`` under ``src/repro/``: (trace key, display name, lines)."""
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        rel = path.relative_to(REPO)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name not in ("__repr__", "__str__"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield f"{rel}:{first}", f"{rel}:{node.lineno} {node.name}", node.end_lineno - first + 1


def main() -> int:
    reached = json.loads(OUT.read_text())
    functions = list(_functions())
    tables = {"never executed": [(n, ln) for key, n, ln in functions if key not in reached]}
    for key, name, lines in functions:
        if len(reached.get(key, ())) == 1:
            tables.setdefault(f"reached only through {reached[key][0]}", []).append((name, lines))
    for title, rows in tables.items():
        print(f"\n{title}: {len(rows)} of {len(functions)} functions, {sum(n for _, n in rows)} lines")
        for name, lines in rows:
            print(f"  {lines:4d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
