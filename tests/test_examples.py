"""Smoke tests: the shipped examples must run end to end.

(The two campaign-style examples — fault_injection and performance_table —
are not run here: they take a minute or more, and the campaign and
Table 2 code they call is held by test_parallel_campaign.py and
test_perf_analysis.py.)
"""

import importlib.util
import pathlib
import re

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run_example(name: str) -> None:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "inspect_rio",
        "transaction_processing",
        "file_server",
        "crash_survival",
        "load_and_crash",
    ],
)
def test_example_runs(name, capsys):
    run_example(name)
    out = capsys.readouterr().out
    assert out.strip()  # produced some narrative
    assert "Traceback" not in out


def test_readme_quickstart_block():
    # The README promises this block is executed verbatim; here it is.
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks, "README lost its quickstart block"
    exec(compile(blocks[0], "README.md[quickstart]", "exec"), {})
