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

Production: ``python scripts/funccov.py --prod`` (~10 min) runs the
production entry points in this process under the same profiler — the
eight ``bench`` workloads at full size with a traced round's tracer and
probes, every ``repro`` command with its ``tests/test_cli.py`` arguments
plus ``--json``, ``--replay``, ``--storm faults``, ``--backend``,
full-matrix ``chaos`` and ``RIO_FAST_PATH=0`` variants, and
``examples/*.py`` — all at one job, so pool and shard bodies run here.
It prints the functions ``.funccov.json`` says tier-1 reaches and no
entry point did — code only tests call — each with its class from
:data:`KEEP`, and exits 1 when one has no class or an entry of that table
matches none of them (``make keep-list`` runs both steps).  A paper
claim is not a class: a claim prints from a ``repro`` command, or its
code leaves ``src/``.
``--prod --lines [FILE[:FIRST-LAST]
...]`` (~5 min, no ``.funccov.json`` needed) runs the same entry points
under the line tracer and lists, as ``--lines`` does, the statements
production never executes.

In-process only: pool / shard worker children and import-time decorators
are not traced.  No CI step runs any mode.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys
from fnmatch import fnmatchcase

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = str(REPO / "src" / "repro")
OUT = REPO / ".funccov.json"
LINES_OUT = REPO / ".funccov.lines.json"

#: Why a function that tier-1 reaches and no production entry point runs
#: stays in ``src/``: one of these classes ...
ISA = "ISA handler that corrupted kernel text can reach"
POOL = "runs only in a pool or shard process"
ARM = "fault or repair arm"
ORACLE = "oracle or tooling accessor"
MFS = "MFS's VFS interface"

#: ... per ``(path glob under src/repro/, qualified-name glob, class)``.
#: ``--prod`` prints each such function's class and exits 1 when one has
#: none, or when an entry matches none of them (its function went, or
#: production runs it now).
KEEP = (
    ("isa/interpreter.py", "Interpreter._build_dispatch.h_*", ISA),
    ("reliability/pool.py", "WorkerPool.*", POOL),
    ("server/cluster.py", "ProcessShardHost.*", POOL),
    ("backend/objectstore.py", "ObjectStoreBackend.fail_for", ARM),
    # The allocation fault's deferred frees, and the heap check they make.
    ("faults/injector.py", "FaultInjector._ensure_clock_hook", ARM),
    ("faults/injector.py", "FaultInjector._process_pending_frees", ARM),
    ("kernel/kmalloc.py", "KernelHeap.is_live", ARM),
    ("fs/fsck.py", "_claimed_blocks", ARM),
    # A trial that crashed before its fault was injected.
    ("reliability/propagation.py", "PropagationSummary.add_uninjected", ARM),
    ("reliability/journal.py", "CampaignJournal._skip", ARM),
    ("server/cluster.py", "ClusterService._merged_failure", ARM),
    # No call creates a symlink, but a loaded or corrupted image can hold one.
    ("fs/ufs.py", "UFS._read_symlink", ARM),
    ("disk/device.py", "SimulatedDisk.busy_until_ns", ORACLE),
    ("fs/ondisk.py", "DirEntry.from_bytes", ORACLE),
    ("hw/memory.py", "PhysicalMemory.dump_image", ORACLE),
    ("obs/events.py", "FlightRecorder.events", ORACLE),
    ("util/sparse.py", "SparseBytes.__*__", ORACLE),
    ("fs/mfs.py", "*", MFS),
)

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


def _missed() -> dict:
    """Trace key of each code object a frame of which ran -> its lines that never did."""
    return {_key(code): sorted(unseen) for code, unseen in _unseen.items() if unseen != ()}


def pytest_sessionfinish(session):
    if session.config.getoption("--funccov-lines"):
        sys.settrace(None)
        LINES_OUT.write_text(json.dumps(_missed(), indent=0, sort_keys=True))
        return
    sys.setprofile(None)
    reached = {_key(code): sorted(tests) for code, tests in _calls.items() if tests is not _foreign}
    OUT.write_text(json.dumps(reached, indent=0, sort_keys=True))


def _functions():
    """Every ``def`` under ``src/repro/``: (trace key, display name, lines,
    node); the display name is ``path:line Class.method``."""
    for path in sorted(pathlib.Path(SRC).rglob("*.py")):
        rel = path.relative_to(REPO)
        found = []
        stack = [("", ast.parse(path.read_text()))]
        while stack:
            outer, node = stack.pop()
            inner = outer
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{outer}{node.name}."
            stack += [(inner, child) for child in ast.iter_child_nodes(node)]
            if isinstance(node, ast.FunctionDef) and node.name not in ("__repr__", "__str__"):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found.append((f"{rel}:{first}", f"{rel}:{node.lineno} {inner[:-1]}",
                              node.end_lineno - first + 1, node))
        yield from sorted(found, key=lambda row: row[3].lineno)


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


def _report_lines(missed: dict, only: list) -> None:
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


def _cli_argvs(scenarios: dict, tmp: str) -> list:
    """Every ``repro`` argv production runs: the tier-1 gate's scenarios
    at one job, then the variants that gate does not take."""
    argvs = []
    for steps in scenarios.values():
        for argv, _status, _out in steps:
            argv = [arg.format(tmp=tmp) for arg in argv]
            if "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = "1"
            argvs.append(argv)
    json_too = ("serve", "loadgen", "cluster", "dissect")
    argvs += [argv + ["--json"] for argv in argvs if argv[0] in json_too]
    small = ["--clients", "8", "--ops", "10", "--crashes", "1"]
    return argvs + [
        ["serve", *small, "--storm", "faults", "--backend", "tiered"],
        ["serve", *small, "--storm", "faults", "--faults", "allocation"],
        ["serve", *small, "--system", "disk", "--repair", "--backend", "local"],
        ["serve", *small, "--system", "disk", "--backend", "objectstore"],
        ["cluster", *small, "--storm", "faults", "--backend", "tiered"],
        ["chaos", "--clients", "4", "--ops", "6", "--crashes", "1"],
        ["explore", "basic", "--ops", "0", "--json"],
        ["explore", "basic", "--ops", "0", "--backend", "tiered"],
        ["explore", "traffic", "--plant-ack-bug", "--clients", "1", "--ops-per-client", "3",
         "--artifacts", tmp],
    ]


def _prod_runs(tmp: str):
    """``(label, function, *args)`` per production entry point, imports
    made lazily so that module bodies run under the profiler too."""
    import importlib.util
    import os
    from unittest import mock

    import bench.workloads as workloads
    from bench.hostclock import HostClock
    from bench.layers import run_probes
    from bench.tracing import Tracer
    from repro.__main__ import main as repro_main
    from tests.test_cli import SCENARIOS

    def command(argv):
        try:
            repro_main(argv)
        except SystemExit:
            pass

    def reference_engine(argv):
        with mock.patch.dict(os.environ, RIO_FAST_PATH="0"):
            command(argv)

    def replay(*tail):
        from repro.explore import ExploreConfig, run_enumeration

        first = run_enumeration(ExploreConfig("basic", ops=0)).boundaries[0].index
        command(["explore", "basic", "--ops", "0", "--replay", str(first), *tail])

    def example(path):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()

    for sizes in workloads.SIZES.values():
        if "jobs" in sizes:
            sizes["jobs"] = 1  # fan-out bodies run here, where the profiler is
    for name in workloads.WORKLOADS:
        yield f"bench {name}", workloads.run_round, name, 1, workloads.Env(HostClock(), Tracer())
    yield "bench probes", run_probes
    for argv in _cli_argvs(SCENARIOS, tmp):
        yield "repro " + " ".join(argv), command, argv
    yield "RIO_FAST_PATH=0 repro demo", reference_engine, ["demo"]
    yield "repro explore --replay", replay
    yield "repro explore --replay --json", replay, "--json"
    for path in sorted((REPO / "examples").glob("*.py")):
        yield f"example {path.name}", example, path


def _run_prod(lines: bool) -> None:
    """Run every production entry point (module docstring) under the
    call profiler, or under the line tracer when ``lines``."""
    import contextlib
    import io
    import tempfile

    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    hook = sys.settrace if lines else sys.setprofile
    hook(_trace if lines else _profile)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            for label, fn, *args in _prod_runs(tmp):
                print(label, file=sys.stderr)
                fn(*args)
    finally:
        hook(None)


def _keep_class(name: str, used: set) -> str:
    """The class of the first :data:`KEEP` entry matching the display
    name ``src/repro/PATH:LINE QUALNAME`` (``""``: none), recording the
    entries that match in ``used``."""
    path, _, rest = name.partition(":")
    path, qualname = path.removeprefix("src/repro/"), rest.split(" ", 1)[1]
    hits = [i for i, (p, f, _) in enumerate(KEEP) if fnmatchcase(path, p) and fnmatchcase(qualname, f)]
    used.update(hits)
    return KEEP[hits[0]][2] if hits else ""


def _report_prod() -> int:
    tested = json.loads(OUT.read_text())
    _run_prod(lines=False)
    reached = {_key(code) for code, tests in _calls.items() if tests is not _foreign}
    functions = list(_functions())
    prod = [(n, ln) for key, n, ln, _ in functions if key in reached]
    only = [(n, ln) for key, n, ln, _ in functions if key in tested and key not in reached]
    print(f"\nproduction entry points run {len(prod)} of {len(functions)} functions, "
          f"{sum(n for _, n in prod)} lines")
    print(f"reached only by tests: {len(only)} functions, {sum(n for _, n in only)} lines")
    used: set = set()
    unclassed = 0
    for name, lines in only:
        keep = _keep_class(name, used)
        unclassed += not keep
        print(f"  {lines:4d}  {name}  [{keep or 'NO CLASS'}]")
    stale = [entry for i, entry in enumerate(KEEP) if i not in used]
    for path, function, _ in stale:
        print(f"KEEP entry matches no function reached only by tests: {path} {function}")
    if unclassed:
        print(f"{unclassed} function(s) reached only by tests have no class in KEEP")
    return 1 if unclassed or stale else 0


def main(argv: list) -> int:
    if argv[:2] == ["--prod", "--lines"]:
        _run_prod(lines=True)
        _report_lines(_missed(), argv[2:])
    elif argv[:1] == ["--lines"]:
        _report_lines(json.loads(LINES_OUT.read_text()), argv[1:])
    elif argv[:1] == ["--prod"]:
        return _report_prod()
    else:
        _report_functions()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
