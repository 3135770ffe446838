"""The documentation is executable and checked.

* every ``python`` code block in docs/TUTORIAL.md runs, top to bottom,
  in one namespace — the tutorial cannot drift from the code;
* every relative link in README.md and docs/*.md resolves;
* docs/*.md total at most 2 200 lines;
* docs/ARCHITECTURE.md names every package under src/repro/;
* every tier-1 test id and module DESIGN.md's experiment index names exists;
* every backticked ``test_*`` name in EXPERIMENTS.md is a test that exists;
* every ``Regenerate:`` line in EXPERIMENTS.md is a ``repro`` command;
* every Table 1, trap-save and section 3.3 MTTF number README.md,
  EXPERIMENTS.md and DESIGN.md quote is RESULTS_table1.json's;
* the docstring-coverage gate (scripts/check_docstrings.py) passes.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOCS = REPO / "docs"
TUTORIAL = DOCS / "TUTORIAL.md"


def extract_python_blocks(path: pathlib.Path) -> list[str]:
    return re.findall(r"```python\n(.*?)```", path.read_text(), re.S)


def test_tutorial_blocks_execute():
    blocks = extract_python_blocks(TUTORIAL)
    assert len(blocks) >= 5, "the tutorial lost its code blocks"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = compile(block, f"{TUTORIAL.name}[block {index}]", "exec")
        exec(code, namespace)  # asserts inside the blocks do the checking


def _markdown_files():
    return [REPO / "README.md", *sorted(DOCS.glob("*.md"))]


@pytest.mark.parametrize("path", _markdown_files(), ids=lambda p: p.name)
def test_relative_links_resolve(path):
    text = path.read_text()
    links = re.findall(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)", text)
    broken = []
    for link in links:
        if link.startswith(("http://", "https://", "mailto:")):
            continue
        target = (path.parent / link).resolve()
        if not target.exists():
            broken.append(link)
    assert not broken, f"{path.name}: broken relative links: {broken}"


def test_docs_stay_within_their_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in DOCS.glob("*.md"))
    assert lines <= 2200, f"docs/*.md total {lines} lines, over the 2200-line budget"


def test_every_documented_command_is_registered():
    """``python -m repro <cmd>`` / `` `repro <cmd>` `` in the docs must
    name a subcommand the CLI still has."""
    from repro.__main__ import COMMANDS

    registered = {name for name, *_ in COMMANDS}
    stale = {
        f"{path.name}: repro {command}"
        for path in _markdown_files()
        for command in re.findall(r"(?:-m repro|`repro) ([a-z][a-z0-9-]*)", path.read_text())
        if command not in registered
    }
    assert not stale, sorted(stale)


def test_architecture_names_every_package():
    text = (DOCS / "ARCHITECTURE.md").read_text()
    packages = sorted(
        child.name
        for child in (REPO / "src" / "repro").iterdir()
        if child.is_dir() and (child / "__init__.py").exists()
    )
    assert packages, "src/repro lost its packages?"
    missing = [name for name in packages if f"`{name}/`" not in text]
    assert not missing, f"ARCHITECTURE.md does not cover: {missing}"
    for module in ("system.py", "errors.py"):
        assert module in text


def test_architecture_covers_request_lifecycle():
    text = (DOCS / "ARCHITECTURE.md").read_text()
    for phrase in ("Request lifecycle", "vfs.batch", "rebind_all", "journal.audit"):
        assert phrase in text, f"lifecycle section lost {phrase!r}"


def test_design_experiment_index_names_real_tests():
    """DESIGN.md section 4's "Verified by" column: every
    ``tests/<file>.py::[Class::]test`` id resolves to a definition, and
    no row is left without one of the three kinds of home."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 4. Experiment index"):text.index("## 5.")]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    assert len(rows) >= 15, "the experiment index lost its rows"
    for row in rows:
        verified_by = row.rstrip("|").rsplit("|", 1)[1]
        assert re.search(r"tests/|`bench`|`repro ", verified_by), row
    ids = re.findall(r"`(tests/\w+\.py)((?:::\w+)*)`", section)
    assert ids
    for path, names in ids:
        scope = ast.parse((REPO / path).read_text()).body
        for name in names.split("::")[1:]:
            found = [
                node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ]
            assert found, f"DESIGN.md names {path}{names}, which does not exist"
            scope = found[0].body


def test_experiments_names_real_tests():
    """EXPERIMENTS.md points each claim at its tier-1 home: every
    backticked ``test_*`` name there is a ``def`` under tests/."""
    spans = re.findall(r"`([^`]+)`", (REPO / "EXPERIMENTS.md").read_text())
    named = {
        name for span in spans for name in re.findall(r"(?<![\w/])(test_\w+)\b(?!\.py)", span)
    }
    assert named, "EXPERIMENTS.md lost its test names"
    defined = {
        node.name
        for path in (REPO / "tests").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }
    assert not named - defined, f"EXPERIMENTS.md names missing tests: {sorted(named - defined)}"


def test_every_regenerate_line_is_a_repro_command():
    """A claim regenerates with a command, not a test run: each
    ``Regenerate:`` line of EXPERIMENTS.md names a registered ``python -m
    repro`` subcommand and no pytest node id."""
    from repro.__main__ import COMMANDS

    registered = {name for name, *_ in COMMANDS}
    text = (REPO / "EXPERIMENTS.md").read_text()
    lines = [line for line in text.splitlines() if line.startswith("Regenerate:")]
    assert len(lines) >= 6, "EXPERIMENTS.md lost its Regenerate lines"
    for line in lines:
        commands = re.findall(r"python -m repro ([a-z][a-z0-9-]*)", line)
        assert commands and set(commands) <= registered, line
        assert "pytest" not in line and "::" not in line, line


def test_design_experiment_index_names_real_modules():
    """The index's "Modules" column is the keep-list a dead-code pass
    reads, so it may not outlive its modules: every backticked name
    imports as ``repro.<name>``."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 4. Experiment index"):text.index("## 5.")]
    rows = [line for line in section.splitlines() if line.startswith("| ")][1:]
    names = {
        name
        for row in rows
        for name in re.findall(r"`([a-z_.]+)`", row.strip("|").split("|")[3])
    }
    assert len(names) >= 20, "the Modules column lost its entries"
    for name in sorted(names):
        importlib.import_module(f"repro.{name}")


#: How the docs name each Table 1 system in their MTTF sentences.
MTTF_LABELS = {"disk": "disk", "rio_noprot": "Rio −P", "rio_prot": "Rio +P"}


def _section(text: str, heading: str) -> str:
    start = text.index(heading)
    return text[start:text.index("\n## ", start + 1)]


def test_table1_numbers_are_the_recorded_run():
    """Table 1 has one home, ``RESULTS_table1.json`` (``make table1``):
    each total, interval, trap-save count, row count and MTTF the docs
    quote is formatted from it, and EXPERIMENTS' Table 1 section states
    no ``corruptions / crashes`` pair the file does not hold."""
    results = json.loads((REPO / "RESULTS_table1.json").read_text())
    readme, design, experiments = (
        (REPO / name).read_text() for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    )
    # Compared with line breaks and indents folded to single spaces.
    table1, mttf = (" ".join(_section(experiments, h).split()) for h in ("## Table 1", "## §3.3"))
    readme, design = (" ".join(text.split()) for text in (readme, design))

    def total(corruptions: int, crashes: int) -> str:
        return f"{corruptions} / {crashes} ({100 * corruptions / crashes:.1f} %)"

    pairs = set()
    for system, totals in results["systems"].items():
        paper = totals["paper"]
        measured = total(totals["corruptions"], totals["crashes"])
        low, high = totals["rate_ci95"]
        assert f"{measured}, 95 % CI {100 * low:.1f}–{100 * high:.1f} %" in table1, system
        assert total(paper["corruptions"], paper["crashes"]) in table1, system
        assert measured in readme, system
        label = MTTF_LABELS[system]
        for years in (totals["mttf_years"], paper["mttf_years"]):
            assert f"{label} {years:.1f} yr" in mttf, (system, years)
        assert f"{label} {totals['mttf_years']:.1f} yr" in design, system
        pairs |= {
            (totals["corruptions"], totals["crashes"]),
            (paper["corruptions"], paper["crashes"]),
        }
    quoted = {(int(a), int(b)) for a, b in re.findall(r"(\d+) / (\d+)", table1)}
    assert quoted <= pairs, f"EXPERIMENTS' Table 1 quotes {sorted(quoted - pairs)}"

    cells = results["cells"]
    trapped = results["systems"]["rio_prot"]["trap_saves"]
    saves = sorted(
        (-c["protection_trap_saves"], c["fault_type"])
        for c in cells
        if c["system"] == "rio_prot" and c["protection_trap_saves"]
    )
    by_fault = ", ".join(f"{fault} {-n}" for n, fault in saves)
    assert f"| {trapped} ({by_fault}) |" in table1
    assert f"{trapped} trap saves" in readme and f"{trapped} trap saves" in design
    for fault in dict.fromkeys(c["fault_type"] for c in cells if c["corruptions"]):
        row = " · ".join(str(c["corruptions"]) for c in cells if c["fault_type"] == fault)
        assert f"{fault} {row}" in table1, fault
    assert f"{len(results['divergences'])} fsck/dissect divergences" in table1
    discarded = sum(c["discarded"] for c in cells)
    attempts = discarded + sum(c["crashes"] for c in cells)
    assert f"{discarded:,} of {attempts:,} injected runs".replace(",", " ") in table1
    by_fault = {}
    for c in cells:
        by_fault[c["fault_type"]] = by_fault.get(c["fault_type"], 0) + c["discarded"]
    (a, m), (b, n), (c, k) = sorted(by_fault.items(), key=lambda kv: -kv[1])[:3]
    assert f"{a} {m}, {b} {n} and {c} {k}" in table1


def test_docstring_gate():
    spec = importlib.util.spec_from_file_location(
        "check_docstrings", REPO / "scripts" / "check_docstrings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0, "undocumented public items (see output)"
