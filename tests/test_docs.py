"""The documentation is executable and checked.

* every ``python`` code block in docs/TUTORIAL.md runs, top to bottom,
  in one namespace — the tutorial cannot drift from the code;
* every relative link in README.md and docs/*.md resolves;
* docs/ARCHITECTURE.md names every package under src/repro/;
* every tier-1 test id DESIGN.md's experiment index names exists;
* the docstring-coverage gate (scripts/check_docstrings.py) passes.
"""

from __future__ import annotations

import ast
import importlib.util
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


def test_docstring_gate():
    spec = importlib.util.spec_from_file_location(
        "check_docstrings", REPO / "scripts" / "check_docstrings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0, "undocumented public items (see output)"
