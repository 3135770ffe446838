#!/usr/bin/env python
"""Function- and line-level coverage of ``src/repro/`` by tier-1, with no dependency.

Functions: ``PYTHONPATH=src python -m pytest -q -p scripts.funccov`` records,
per code object under ``src/repro/``, which test files called it
(``sys.setprofile``), and writes ``.funccov.json`` at session end;
``python scripts/funccov.py`` prints the functions no test executed and
those reached through exactly one test file.

Lines: add ``--funccov-lines`` to the pytest command (``sys.settrace``; a
code object is traced only until every one of its lines has been seen, so
the cost falls on functions with an arm nothing reaches — 11 min against
2m24 plain).  It writes ``.funccov.lines.json``; ``python scripts/funccov.py
--lines`` lists the statements never executed inside functions that *did*
run — untested error and repair arms — and counts those in functions never
called.  ``--lines FILE[:FIRST-LAST] ...`` narrows the listing.

In-process only: pool / shard worker children and import-time decorators
are not traced.  No CI step runs either mode.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src" / "repro")
OUT = REPO / ".funccov.json"
LINES_OUT = REPO / ".funccov.lines.json"

_foreign: set = set()  # every code object outside SRC shares this one
_calls: dict = {}  # code object -> test files that called it
_test = ["<collection>"]
_unseen: dict = {}  # code object -> its lines not yet executed (() outside SRC)


def _profile(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        tests = _calls.get(code)
        if tests is None:
            tests = _calls[code] = set() if code.co_filename.startswith(SRC) else _foreign
        tests.add(_test[0])


def _trace(frame, _event, _arg):
    """Global trace function: one ``call`` event per new frame."""
    code = frame.f_code
    unseen = _unseen.get(code)
    if unseen is None:
        unseen = ()
        if code.co_filename.startswith(SRC):
            # The ``def`` line itself never gets a line event.
            unseen = {line for *_, line in code.co_lines() if line} - {code.co_firstlineno}
        _unseen[code] = unseen
    return _trace_lines if unseen else None


def _trace_lines(frame, event, _arg):
    if event == "line":
        unseen = _unseen[frame.f_code]
        unseen.discard(frame.f_lineno)
        if not unseen:
            return None  # every line seen: stop paying for this code object
    return _trace_lines


def pytest_addoption(parser):
    parser.addoption("--funccov-lines", action="store_true", help="trace lines, not calls")


def pytest_sessionstart(session):
    if session.config.getoption("--funccov-lines"):
        sys.settrace(_trace)
    else:
        sys.setprofile(_profile)


def pytest_runtest_setup(item):
    _test[0] = item.location[0]


def _key(code) -> str:
    return f"{pathlib.Path(code.co_filename).relative_to(REPO)}:{code.co_firstlineno}"


def pytest_sessionfinish(session):
    if session.config.getoption("--funccov-lines"):
        sys.settrace(None)
        # code object (a frame of it ran) -> the lines of it that never did
        missed = {_key(code): sorted(unseen) for code, unseen in _unseen.items() if unseen != ()}
        LINES_OUT.write_text(json.dumps(missed, indent=0, sort_keys=True))
        return
    sys.setprofile(None)
    reached = {_key(code): sorted(tests) for code, tests in _calls.items() if tests is not _foreign}
    OUT.write_text(json.dumps(reached, indent=0, sort_keys=True))


def _functions():
    """Every ``def`` under ``src/repro/``: (trace key, display name, lines, node)."""
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        rel = path.relative_to(REPO)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name not in ("__repr__", "__str__"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield f"{rel}:{first}", f"{rel}:{node.lineno} {node.name}", node.end_lineno - first + 1, node


def _statements(function):
    """First line of each statement in ``function``'s own body (nested
    ``def``s are their own code objects); the docstring and ``global`` /
    ``nonlocal`` compile to nothing and are left out."""
    stack = list(function.body)
    if isinstance(stack[0], ast.Expr) and isinstance(stack[0].value, ast.Constant):
        stack.pop(0)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal)):
            yield min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for name in ("body", "orelse", "finalbody", "handlers", "cases"):
                stack.extend(getattr(node, name, ()))


def _report_functions() -> None:
    reached = json.loads(OUT.read_text())
    functions = list(_functions())
    tables = {"never executed": [(n, ln) for key, n, ln, _ in functions if key not in reached]}
    for key, name, lines, _ in functions:
        if len(reached.get(key, ())) == 1:
            tables.setdefault(f"reached only through {reached[key][0]}", []).append((name, lines))
    for title, rows in tables.items():
        print(f"\n{title}: {len(rows)} of {len(functions)} functions, {sum(n for _, n in rows)} lines")
        for name, lines in rows:
            print(f"  {lines:4d}  {name}")


def _report_lines(only: list) -> None:
    missed = json.loads(LINES_OUT.read_text())
    wanted = []  # (file suffix, first, last)
    for spec in only:
        path, _, span = spec.partition(":")
        first, _, last = span.partition("-")
        wanted.append((path, int(first or 0), int(last or first or 10**9)))
    total = uncalled = dark = 0
    for key, name, _, node in _functions():
        statements = sorted(_statements(node))
        total += len(statements)
        if key not in missed:
            uncalled += len(statements)
            continue
        unseen = set(missed[key])
        never = [line for line in statements if line in unseen]
        dark += len(never)
        path = name.split(":")[0]
        shown = [
            line for line in never
            if not wanted or any(path.endswith(p) and lo <= line <= hi for p, lo, hi in wanted)
        ]
        if shown:
            print(f"  {name}: " + " ".join(map(str, shown)))
    print(
        f"\n{uncalled + dark} of {total} statement lines under src/repro/ never executed: "
        f"{uncalled} in never-called functions, {dark} in called ones (listed above)"
    )


def main(argv: list) -> int:
    if argv[:1] == ["--lines"]:
        _report_lines(argv[1:])
    else:
        _report_functions()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
