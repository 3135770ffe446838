"""Command line of the benchmark (``python3 -m bench``).

Driver form — one workload, one JSON line last on stdout::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

Suite form — every workload (or ``--workloads a,b``), every metric by
name; exits non-zero when any check fails::

    python3 -m bench [--seed N] [--workloads a,b] [--repeat K] [--trace] [--quick] [--out PATH]
    python3 -m bench --verify [--out PATH]
    python3 -m bench --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import sys

from bench import BenchError, require_src

#: Size of a ``--quick`` pass relative to the reported size.
QUICK_SCALE = 0.1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", help="run this one workload and print the driver's JSON line")
    parser.add_argument("--seconds", type=float, help="measure for this long (driver form)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="add a traced round: per-layer host times, probes, span file")
    parser.add_argument("--workloads", help="comma-separated subset (suite form)")
    parser.add_argument("--repeat", type=int, default=3, help="untraced rounds per workload")
    parser.add_argument("--quick", action="store_true", help="every workload at about 1/10 size")
    parser.add_argument("--out", help="write the suite's results here as JSON")
    parser.add_argument("--out-dir", default=None, help="where span files go (default .bench_out)")
    parser.add_argument("--verify", action="store_true",
                        help="run the set twice with one seed and require agreement")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="apply the bounds table to two result files")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    from bench import harness, suite

    if args.compare:
        findings = suite.compare(*(suite.read_json(path) for path in args.compare))
        for finding in findings:
            print("REGRESSION", finding)
        print("compare:", "ok" if not findings else f"{len(findings)} regression(s)")
        return 1 if findings else 0

    require_src()
    from bench.workloads import WORKLOADS

    contract = harness.load_contract()
    out_dir = args.out_dir or harness.DEFAULT_OUT_DIR
    scale = QUICK_SCALE if args.quick else 1.0

    if args.workload:
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; know {', '.join(WORKLOADS)}")
        result = harness.run_workload(
            args.workload, args.seed, seconds=args.seconds or contract["run_seconds"],
            trace=bool(args.trace), scale=scale, out_dir=out_dir,
        )
        for error in result["errors"]:
            print("bench:", error, file=sys.stderr)
        print(suite.format_result(result), file=sys.stderr)
        print(harness.contract_line(result, contract, bool(args.trace)))
        return 0 if result["correct"] else 1

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in contract["workloads"]]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise BenchError(f"unknown workload(s) {unknown}; know {', '.join(WORKLOADS)}")
    options = dict(repeat=args.repeat, trace=bool(args.trace), scale=scale, out_dir=out_dir)
    doc = suite.run_suite(names, args.seed, **options)
    if args.verify:
        print("== second run-set")
        second = suite.run_suite(names, args.seed, **options)
        findings = suite.verify(doc, second)
        for finding in findings:
            print("DISAGREE", finding)
        print("verify:", "ok" if not findings else f"{len(findings)} disagreement(s)")
        doc = {
            "schema": 1, "host": doc["host"], "seed": args.seed,
            "verify": {"ok": not findings, "findings": findings},
            "run_sets": [doc, second],
            "correct": doc["correct"] and second["correct"] and not findings,
        }
    if args.out:
        suite.write_json(args.out, doc)
    print("bench:", "all checks passed" if doc["correct"] else "CHECKS FAILED")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
