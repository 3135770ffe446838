"""The repository benchmark: eight named workloads over the Rio simulator
and its service tier, measured from outside through public entry points.

Two clocks, always labelled: ``virt_*`` is virtual time (the ``repro.hw``
clock cost model — the paper's claim, a pure function of the seed) and
``host_*`` / ``*_host_s`` is wall time (what the simulator costs us).

Run one workload the way the benchmark driver does::

    python3 -m bench --workload serve_calm --seed 7 --seconds 5 --trace 0

or the whole set (see ``bench/README.md``)::

    python3 -m bench [--seed N] [--workloads a,b] [--repeat K] [--trace] [--out PATH]
"""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


class BenchError(Exception):
    """The harness cannot produce a trustworthy measurement."""


def require_src() -> None:
    """Put ``src/`` on ``sys.path``; raise when the program is not there.

    The benchmark measures ``src/repro`` and nothing else, so a checkout
    that holds only the benchmark's own files must fail, not report.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise BenchError(f"no program to measure: {SRC_DIR}/repro is missing")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
