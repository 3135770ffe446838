"""Command-line interface: ``python -m repro <command>``.

Every command is one row of :data:`COMMANDS` — name, help, flags,
handler — and the parser, the dispatch, ``repro --help`` and
``tests/test_cli.py`` all read that list.  Exit statuses and the flags
several commands share are documented in ``docs/API.md`` ("Command-line
interface"); everything else is ``repro <command> --help``.
"""

from __future__ import annotations

import argparse
import sys


def cmd_demo(_args) -> int:
    """The quickstart: write, crash, warm reboot, read back."""
    from repro import RioConfig, SystemSpec, build_system

    system = build_system(SystemSpec(policy="rio", rio=RioConfig.with_protection()))
    fd = system.vfs.open("/demo", create=True)
    system.vfs.write(fd, b"memory, surviving a crash")
    system.vfs.close(fd)
    print(f"wrote /demo with {system.disk.stats.writes} disk writes")
    system.crash("demo crash")
    report = system.reboot()
    print(
        f"warm reboot: {report.warm.ubc_restored} file pages restored, "
        f"{report.fsck.fix_count} fsck fixes"
    )
    data = system.fs.read(system.fs.namei("/demo"), 0, 64)
    print(f"recovered: {data!r}")
    return 0 if data == b"memory, surviving a crash" else 1


def _parse_fault_types(text: str):
    """CSV of Table 1 row labels ("kernel text") or enum names
    ("KERNEL_TEXT", case-insensitive)."""
    from repro.faults.types import FaultType

    faults = []
    for token in text.split(","):
        token = token.strip()
        by_value = {f.value: f for f in FaultType}
        by_name = {f.name.lower(): f for f in FaultType}
        fault = by_value.get(token) or by_name.get(token.lower().replace(" ", "_"))
        if fault is None:
            known = ", ".join(f.value for f in FaultType)
            raise SystemExit(f"unknown fault type {token!r}; known: {known}")
        faults.append(fault)
    return tuple(faults)


def cmd_table1(args) -> int:
    """Run the Table 1 reliability campaign."""
    from repro.faults.types import ALL_FAULT_TYPES
    from repro.reliability import SYSTEM_NAMES, CampaignEngine, format_table1

    crashes = max(1, args.scale)
    systems = tuple(args.systems.split(",")) if args.systems else SYSTEM_NAMES
    unknown = [s for s in systems if s not in SYSTEM_NAMES]
    if unknown:
        raise SystemExit(f"unknown system {unknown[0]!r}; known: {SYSTEM_NAMES}")
    fault_types = _parse_fault_types(args.faults) if args.faults else ALL_FAULT_TYPES
    if args.trace_corruptions and args.resume is None:
        raise SystemExit(
            "--trace-corruptions needs --resume PATH: the per-trial traces "
            "are written next to the checkpoint journal"
        )
    print(
        f"running the Table 1 campaign ({crashes} crashes/cell; paper used 50) "
        f"on {args.jobs} worker(s)"
        + (f", checkpointing to {args.resume}" if args.resume else "")
        + " ..."
    )
    engine = CampaignEngine(
        crashes_per_cell=crashes,
        systems=systems,
        fault_types=fault_types,
        config_overrides={"trace_events": True} if args.trace_corruptions else None,
        jobs=args.jobs,
        checkpoint=args.resume,
        progress=lambda line: print("  " + line, file=sys.stderr),
    )
    table = engine.run()
    print(format_table1(table, systems=systems))
    stats = engine.stats
    print(
        f"({stats.executed} trials run, {stats.from_checkpoint} from checkpoint, "
        f"{stats.worker_crashes} worker crashes, {stats.wall_seconds:.1f}s)",
        file=sys.stderr,
    )
    if not engine.complete:
        print("campaign incomplete; re-run with --resume to continue", file=sys.stderr)
        return 3
    return 0


def cmd_forensics(args) -> int:
    """Per-trial crash forensics over a traced campaign journal."""
    from repro.obs import build_forensic_report, format_forensic_report
    from repro.reliability.campaign import (
        CrashTestConfig,
        CrashTestResult,
        run_baseline_trace,
    )
    from repro.reliability.journal import read_trials

    try:
        entries = read_trials(args.journal)
    except FileNotFoundError:
        raise SystemExit(f"no such journal: {args.journal}")

    wanted = None
    if args.trial:
        parts = args.trial.split("/")
        if len(parts) < 3:
            raise SystemExit("--trial wants SYSTEM/FAULT/ATTEMPT")
        try:
            wanted = (parts[0], "/".join(parts[1:-1]), int(parts[-1]))
        except ValueError:
            raise SystemExit(f"--trial attempt must be an integer, got {parts[-1]!r}")

    def norm(fault: str) -> str:
        return fault.replace(" ", "_")

    selected = []
    for key in sorted(entries):
        system, fault, attempt = key
        if wanted is not None and (
            system != wanted[0] or norm(fault) != norm(wanted[1]) or attempt != wanted[2]
        ):
            continue
        _seed, result = entries[key]
        if wanted is None and not (
            result.get("crashed") and CrashTestResult.from_json_dict(result).corrupted
        ):
            continue
        selected.append((key, result))

    if wanted is not None and not selected:
        raise SystemExit(f"trial {args.trial!r} not found in {args.journal}")
    if not selected:
        print(f"no corrupting trials in {args.journal}; nothing to report")
        return 0

    reported = 0
    for key, result in selected:
        label = "/".join(map(str, key))
        events = result.get("trace_events")
        if events is None:
            print(f"=== {label}: no event trace (campaign ran without "
                  "--trace-corruptions); skipping ===\n")
            continue
        baseline = None
        if not args.no_baseline:
            config = CrashTestConfig.from_json_dict(result["config"])
            # ops_run + 1 so the baseline fully executes the operation
            # the faulted run died inside.
            baseline = run_baseline_trace(config, result.get("ops_run", 0) + 1)
        report = build_forensic_report(result, events, baseline)
        print(f"=== {label} ===")
        print(format_forensic_report(report))
        print()
        reported += 1
    if reported == 0 and wanted is not None:
        return 1
    return 0


def cmd_table2(_args) -> int:
    """Run the Table 2 performance grid and its ratio summary."""
    from repro.perf import Table2, format_table2, ratio_summary, run_table2
    from repro.perf.report import format_ratio_summary

    table = Table2(results=run_table2())
    print(format_table2(table))
    print()
    print(format_ratio_summary(ratio_summary(table)))
    return 0


def cmd_mttf(_args) -> int:
    """Print the section 3.3 MTTF illustration."""
    from repro.analysis import mttf_table
    from repro.analysis.mttf import PAPER_RATES

    print("MTTF at one crash per two months (paper's Table 1 rates):")
    for name, years in mttf_table(PAPER_RATES).items():
        print(f"  {name:11s}: {years:5.1f} years")
    return 0


def cmd_analyze(args) -> int:
    """Static analysis of kernel routines: disassembly, CFG, lint, patch plan."""
    from repro.isa.analysis import build_cfg, disassemble_words, lint_words, patch_routine
    from repro.isa.assembler import assemble
    from repro.isa.routines import ROUTINE_SOURCES

    names = [args.routine] if args.routine else sorted(ROUTINE_SOURCES)
    unknown = [n for n in names if n not in ROUTINE_SOURCES]
    if unknown:
        print(f"unknown routine {unknown[0]!r}; known: {', '.join(sorted(ROUTINE_SOURCES))}")
        return 2
    for name in names:
        words, labels = assemble(ROUTINE_SOURCES[name])
        dis = disassemble_words(words, labels=labels, name=name)
        cfg = build_cfg(dis)
        print(f"=== {name} ({len(words)} words, {len(cfg.blocks)} blocks) ===")
        print(dis.source, end="")
        print("blocks:")
        for block in cfg.blocks.values():
            succs = ", ".join(str(s) for s in sorted(block.succs)) or "-"
            term = "  [terminates]" if block.terminates else ""
            print(f"  [{block.start:3d}..{block.end:3d})  succs: {succs}{term}")
        findings = lint_words(name, words, labels=labels)
        if findings:
            print("lint:")
            for finding in findings:
                print(f"  {finding}")
        else:
            print("lint: clean")
        _, _, report = patch_routine(name, words, labels, optimize=not args.naive)
        print(
            f"patch: {report.stores} stores, {report.checked} checked "
            f"({report.spilled} spilled), {report.elided_stack} elided (stack), "
            f"{report.elided_rewalk} elided (rewalk); "
            f"+{report.added_words} words"
        )
        print()
    return 0


def _traffic_config(args, **fields):
    """The TrafficConfig the shared load flags describe, plus the
    command's own ``fields``."""
    from repro.reliability import TrafficConfig
    from repro.server import LoadSpec

    return TrafficConfig(
        system=args.system,
        clients=args.clients,
        seed=args.seed,
        load=LoadSpec(ops_per_client=args.ops, pipeline=args.pipeline),
        **fields,
    )


def _emit(result, args, formatter) -> int:
    """Print ``result`` as JSON (``--json``) or through ``formatter``;
    the exit status is the result's zero-lost-acks verdict."""
    if args.json:
        import json

        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(formatter(result))
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """``serve``: the file service under a crash storm; ``loadgen``: the
    same deterministic load with no storm; ``cluster``: ``serve`` behind
    a sharded front-end.  Exit 1 if any ack was lost."""
    from repro.reliability import format_traffic_report, run_traffic_campaign

    config = _traffic_config(
        args,
        crashes=max(0, args.crashes),
        storm=args.storm,
        repair=args.repair,
        backend=args.backend,
    )
    if args.faults:
        config.fault_type = _parse_fault_types(args.faults)[0]
    storm = f"{config.crashes} {config.storm} crash(es)"
    if args.command == "cluster":
        config.shards, config.router_mode, config.jobs = args.shards, args.router, args.jobs
        banner = (
            f"clustering: {config.clients} clients over {config.shards} "
            f"{config.system} shard(s) through {storm} per shard ..."
        )
    elif args.command == "serve":
        banner = f"serving {config.clients} clients on {config.system} through {storm} ..."
    else:
        banner = f"load-generating: {config.clients} clients on {config.system} ..."
    print(banner, file=sys.stderr)
    return _emit(run_traffic_campaign(config), args, format_traffic_report)


def cmd_chaos(args) -> int:
    """The chaos capability matrix; exit 1 on any SLO violation."""
    from repro.reliability import (
        ChaosCampaignConfig,
        format_chaos_report,
        run_chaos_campaign,
    )

    config = ChaosCampaignConfig(
        base=_traffic_config(args, crashes=max(0, args.crashes), jobs=args.jobs)
    )
    if args.trials:
        wanted = [name.strip() for name in args.trials.split(",")]
        by_name = dict(config.matrix)
        unknown = [name for name in wanted if name not in by_name]
        if unknown:
            known = ", ".join(trial for trial, _ in config.matrix)
            raise SystemExit(f"unknown trial {unknown[0]!r}; known: {known}")
        config.matrix = tuple((name, by_name[name]) for name in wanted)
    print(
        f"chaos matrix: {len(config.matrix)} trial(s) x {args.clients} "
        f"clients on {args.system}, {args.jobs} job(s) ...",
        file=sys.stderr,
    )
    return _emit(run_chaos_campaign(config), args, format_chaos_report)


def cmd_explore(args) -> int:
    """Exhaustive boundary sweep (or one-counterexample replay)."""
    from repro.explore import (
        ExploreConfig,
        ExploreError,
        explore,
        format_explore_report,
        replay,
    )

    config = ExploreConfig(
        workload=args.workload,
        system=args.system,
        seed=args.seed,
        ops=args.ops,
        clients=args.clients,
        ops_per_client=args.ops_per_client,
        plant_ack_bug=args.plant_ack_bug,
        backend=args.backend,
    )
    if args.replay is not None:
        try:
            verdict = replay(config, args.replay, artifact_dir=args.artifacts)
        except ExploreError as exc:
            raise SystemExit(str(exc))
        if args.json:
            import json

            print(json.dumps(verdict.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"replayed {config.workload} seed {config.seed} "
                f"event {args.replay} ({verdict.boundary.key()}): "
                + ("spec holds" if verdict.ok else "SPEC VIOLATED")
            )
            for violation in verdict.violations:
                print(f"  [{violation.clause}] {violation.detail}")
            if verdict.artifact_image:
                print(f"  image: {verdict.artifact_image}")
            if verdict.artifact_report:
                print(f"  forensics: {verdict.artifact_report}")
        return 0 if verdict.ok else 1
    print(
        f"exploring {config.workload} on {config.system} "
        f"(seed {config.seed}, {args.jobs} job(s)) ...",
        file=sys.stderr,
    )
    progress = lambda line: print("  " + line, file=sys.stderr)  # noqa: E731
    try:
        report = explore(
            config,
            jobs=args.jobs,
            checkpoint=args.resume,
            artifact_dir=args.artifacts,
            progress=progress,
        )
    except ExploreError as exc:
        raise SystemExit(str(exc))
    if args.json:
        import json

        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(format_explore_report(report))
    if not report.complete:
        print("sweep incomplete; re-run with --resume to continue", file=sys.stderr)
        return 2
    return 1 if report.violations else 0


def _read_image(path: str) -> bytes:
    """Image payload from ``path``: a ``RIOIMG1`` container (digest
    verified) or, when the magic is absent, the file's raw bytes."""
    from repro.fs.dissect import IMAGE_MAGIC, ImageFormatError, load_image

    try:
        with open(path, "rb") as fh:
            head = fh.read(len(IMAGE_MAGIC))
    except FileNotFoundError:
        raise SystemExit(f"no such image: {path}")
    if head == IMAGE_MAGIC:
        try:
            payload, _meta = load_image(path)
        except ImageFormatError as exc:
            raise SystemExit(f"bad image container {path}: {exc}")
        return payload
    with open(path, "rb") as fh:
        return fh.read()


def cmd_dissect(args) -> int:
    """Static analysis of a disk image with the independent verifier."""
    from repro.fs.dissect import dissect_image

    report = dissect_image(_read_image(args.image))
    if args.json:
        print(report.to_json())
    else:
        print(report.format())
    return 0 if report.clean else 1


def _age_filesystem(system, *, ops: int, seed: int, prefix: str = "/aged") -> None:
    """Seeded create/overwrite/unlink churn — ages an image for dumping.

    Pure function of ``(ops, seed, prefix)`` so two dumps of the same
    configuration produce byte-identical images.
    """
    import random

    rng = random.Random(seed)
    system.vfs.mkdir(prefix)
    live: list[str] = []
    for i in range(ops):
        action = rng.random()
        if live and action < 0.2:
            system.vfs.unlink(live.pop(rng.randrange(len(live))))
            continue
        if live and action < 0.5:
            path = rng.choice(live)
        else:
            path = f"{prefix}/f{i}"
            live.append(path)
        fd = system.vfs.open(path, create=True, truncate=True)
        body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 4096)))
        system.vfs.write(fd, body)
        system.vfs.close(fd)


def cmd_dump_disk(args) -> int:
    """Build a file system, optionally age it, flush, and dump the image."""
    from repro.fs.dissect import dump_image, snapshot
    from repro.system import build_system, system_spec_for

    system = build_system(system_spec_for(args.system, fs_blocks=args.blocks))
    if args.age:
        _age_filesystem(system, ops=args.age, seed=args.seed)
    # Only a fully flushed image is expected to parse clean: on Rio the
    # disk is legitimately stale between flushes.
    system.settle()
    digest = dump_image(
        args.out,
        snapshot(system.disk),
        meta={
            "system": args.system,
            "blocks": args.blocks,
            "aged_ops": args.age,
            "seed": args.seed,
        },
    )
    print(f"wrote {args.out}: {args.blocks} blocks, sha256 {digest[:16]}")
    return 0


def cmd_fsck_remote(args) -> int:
    """The worked outage-recovery scenario for the remote tier.

    Builds a tiered stack, ages it to a sealed baseline, churns again
    and crashes the kernel with the upload queue still dirty (the queue
    is kernel memory: it dies with the machine), optionally holds the
    object store down through the reboot (``--outage``: the mount-time
    reconcile defers, exactly like a cloud filesystem that must mount
    before the network is back), then heals the store and runs the
    explicit ``fsck_remote`` pass under ``--batch``/``--force``.
    Finishes with the second opinion: the image materialized from the
    object store *alone* is dissected and cross-checked against fsck.
    Exit 0 when the tier reconciled and the verdicts agree; 1 when
    repairs still need ``--batch`` or the second opinion diverges.
    """
    from repro.backend.audit import mount_materialized
    from repro.backend.fsck_remote import fsck_remote
    from repro.fs.dissect import second_opinion
    from repro.system import build_system, system_spec_for

    say = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    spec = system_spec_for(
        args.system,
        fs_blocks=args.blocks,
        backend=args.backend,
        backend_seed=args.seed,
    )
    system = build_system(spec)
    store = system.backing

    # Phase 1: seeded churn, drained and sealed — the healthy baseline.
    _age_filesystem(system, ops=args.age, seed=args.seed)
    system.settle()
    store.drain_uploads()
    baseline = fsck_remote(store, batch=True)
    say(
        f"baseline: {store.stats.uploads} block(s) uploaded "
        f"({baseline.repairs} mkfs-era reconciled), "
        f"{len(store.remote.list('obj/'))} blob(s) in the store, sealed"
    )

    # Phase 2: churn again and crash with the upload queue still dirty.
    # Raising the drain threshold holds the queue: flushes keep landing
    # on the local disk, nothing reaches the object store, the crash
    # strands every queued upload.
    from dataclasses import replace as _replace

    store.config = _replace(store.config, dirty_threshold=10**9)
    _age_filesystem(system, ops=args.age, seed=args.seed + 1, prefix="/aged2")
    system.settle()
    say(
        f"crashing with {len(store._dirty)} block(s) dirty in the "
        "upload queue (kernel memory: the queue dies with the machine)"
    )
    system.crash("fsck-remote scenario", kind="forced")
    store.config = _replace(store.config, dirty_threshold=8)

    if args.outage:
        store.remote.set_down(True)
        report = system.reboot()
        remote = report.remote
        say(
            "reboot during object-store outage: reconcile "
            + ("DEFERRED (as declared)" if remote and remote.deferred else "ran?!")
        )
        store.remote.set_down(False)
        say("object store healed; running the explicit pass")
    else:
        report = system.reboot()
        remote = report.remote
        say(
            f"reboot reconcile: {remote.repairs} repair(s), "
            f"needs_batch={remote.needs_batch}"
        )

    check = fsck_remote(store, batch=args.batch, force=args.force)
    print(check.format())
    if check.needs_batch:
        say("repairs pending: re-run with --batch to apply them (s3ql rule)")

    # Second opinion: the remote tier alone must reproduce an image both
    # judges bless.
    _scratch, scratch_report, image = mount_materialized(store)
    scan, divergence = second_opinion(image, scratch_report.fsck)
    print(
        f"materialized image {scan.image_sha256[:16]}: "
        f"{len(scan.findings)} dissect finding(s), "
        f"{scratch_report.fsck.fix_count} fsck fix(es), verdicts "
        + ("AGREE" if divergence.agreed else "DIVERGE")
    )
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "reconcile": check.to_json_dict(),
                    "divergence": divergence.to_json_dict(),
                    "image_sha256": scan.image_sha256,
                    "store_stats": store.stats.to_json_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    return 0 if check.ok and divergence.agreed else 1


def cmd_load_disk(args) -> int:
    """Install an image onto a fresh disk, fsck it, and cross-check with
    the independent verifier; exit 1 when their verdicts diverge."""
    from repro.disk.device import SimulatedDisk
    from repro.fs.dissect import install, second_opinion
    from repro.fs.dissect.layout import SECTOR_SIZE
    from repro.fs.fsck import fsck

    payload = _read_image(args.image)
    if not payload or len(payload) % SECTOR_SIZE:
        raise SystemExit(
            f"image is {len(payload)} bytes: not a whole number of sectors"
        )
    disk = SimulatedDisk("image", num_sectors=len(payload) // SECTOR_SIZE)
    install(disk, payload)
    report = fsck(disk)
    # Dissect the payload, not the disk: fsck repaired that in place and
    # would have hidden the evidence.
    scan, divergence = second_opinion(payload, report)
    print(scan.format())
    print(
        f"fsck: {report.fix_count} fix(es), "
        + ("UNRECOVERABLE" if report.unrecoverable else "file system recovered")
    )
    print(divergence.format())
    return 0 if divergence.agreed else 1


def _add_system_flag(parser) -> None:
    parser.add_argument(
        "--system",
        default="rio_prot",
        help="disk | rio_noprot | rio_prot (default rio_prot)",
    )


def _add_load_flags(parser, *, pipeline: bool = True) -> None:
    """The flags ``serve``/``loadgen``/``cluster``/``chaos`` share."""
    _add_system_flag(parser)
    parser.add_argument("--clients", type=int, default=16, help="concurrent clients")
    parser.add_argument(
        "--ops", type=int, default=30, help="programs per client (default 30)"
    )
    if pipeline:
        parser.add_argument(
            "--pipeline", type=int, default=4, help="requests each client keeps in flight"
        )
    else:
        parser.set_defaults(pipeline=4)
    parser.add_argument("--seed", type=int, default=1, help="campaign seed")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_storm_flags(parser, *, crashes: int | None) -> None:
    """The storm flags ``serve``, ``loadgen`` and ``cluster`` share;
    ``crashes`` is the command's ``--crashes`` default (None: no flag,
    never a crash)."""
    if crashes is None:
        parser.set_defaults(crashes=0)
    else:
        parser.add_argument(
            "--crashes",
            type=int,
            default=crashes,
            help=f"mid-traffic crashes per kernel (default {crashes})",
        )
    parser.add_argument(
        "--storm",
        default="forced",
        choices=("forced", "faults"),
        help="crash storm flavour (loadgen never crashes; a cluster's storm "
        "rolls, one shard down at a time)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help='fault type for --storm faults, e.g. "kernel stack"',
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="re-apply lost journal entries during recovery (for disk runs)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("local", "objectstore", "tiered"),
        help="tiered backing store behind the disk (default: none); adds "
        "remote-tier reconciles at every recovery plus the final "
        "remote-only audit",
    )


def _flags_table1(p) -> None:
    p.add_argument("--scale", type=int, default=2, help="crashes per cell (paper: 50)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the campaign engine (default 1: in process; "
        "the same table, bit for bit, at any N)",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint journal: created if missing, resumed if "
        "present; finished trials are never re-run",
    )
    p.add_argument(
        "--systems",
        default=None,
        help="comma-separated subset of disk,rio_noprot,rio_prot (default: all)",
    )
    p.add_argument(
        "--faults",
        default=None,
        help='comma-separated fault types, e.g. "kernel text,pointer" (default: all 13)',
    )
    p.add_argument(
        "--trace-corruptions",
        action="store_true",
        help="record flight-recorder streams for every trial and write "
        "per-corrupting-trial JSONL traces next to the --resume journal",
    )


def _flags_forensics(p) -> None:
    p.add_argument("journal", help="JSONL checkpoint journal from table1 --resume")
    p.add_argument(
        "--trial",
        default=None,
        metavar="SYSTEM/FAULT/ATTEMPT",
        help='one trial to report on, e.g. "rio_noprot/kernel_text/3" '
        "(default: every corrupting trial)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the injection-suppressed baseline re-run and use the "
        "documented heuristic attribution instead",
    )


def _flags_analyze(p) -> None:
    p.add_argument("routine", nargs="?", help="routine name (default: all)")
    p.add_argument("--naive", action="store_true", help="show the unoptimized patch plan")


def _flags_serve(p) -> None:
    _add_load_flags(p)
    _add_storm_flags(p, crashes=3)


def _flags_loadgen(p) -> None:
    _add_load_flags(p)
    _add_storm_flags(p, crashes=None)


def _flags_cluster(p) -> None:
    _add_load_flags(p)
    _add_storm_flags(p, crashes=0)
    p.add_argument("--shards", type=int, default=2, help="kernel shards (default 2)")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="1: all shards in-process; >1: one worker process per shard "
        "(identical digests either way)",
    )
    p.add_argument(
        "--router",
        default="dir",
        choices=("dir", "hash"),
        help="routing key: parent directory (colocates) or full path (scatters)",
    )


def _flags_chaos(p) -> None:
    _add_load_flags(p, pipeline=False)
    p.add_argument(
        "--crashes",
        type=int,
        default=2,
        help="forced crashes per trial (default 2; 0 = no storm)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trial fan-out (identical digests at any N)",
    )
    p.add_argument(
        "--trials",
        default=None,
        help="comma-separated subset of the matrix, e.g. baseline,slow_io "
        "(default: every trial)",
    )


def _flags_explore(p) -> None:
    p.add_argument(
        "workload",
        nargs="?",
        default="basic",
        help="basic | traffic (default basic)",
    )
    _add_system_flag(p)
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default 1: serial; identical "
        "report at any N)",
    )
    p.add_argument("--ops", type=int, default=8, help="basic: seeded write rounds (default 8)")
    p.add_argument("--clients", type=int, default=2, help="traffic: clients (default 2)")
    p.add_argument(
        "--ops-per-client",
        type=int,
        default=4,
        help="traffic: programs per client (default 4)",
    )
    p.add_argument(
        "--plant-ack-bug",
        action="store_true",
        help="traffic: switch on the planted ack-before-execute ordering bug",
    )
    p.add_argument(
        "--backend",
        default=None,
        choices=("local", "objectstore", "tiered"),
        help="tiered backing store: enumerates backend/upload and "
        "backend/commit boundaries and arms the remote-tier spec clause",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint journal: created if missing, resumed if present",
    )
    p.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="directory for counterexample images + forensics reports",
    )
    p.add_argument(
        "--replay",
        type=int,
        default=None,
        metavar="INDEX",
        help="re-run exactly one counterexample by its event index",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _flags_dissect(p) -> None:
    p.add_argument("image", help="RIOIMG1 container or raw image file")
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _flags_dump_disk(p) -> None:
    p.add_argument("out", help="output path (RIOIMG1 container)")
    _add_system_flag(p)
    p.add_argument("--blocks", type=int, default=256, help="file system size in 8 KB blocks")
    p.add_argument(
        "--age",
        type=int,
        default=0,
        metavar="OPS",
        help="seeded churn operations to run before dumping (default 0)",
    )
    p.add_argument("--seed", type=int, default=1, help="churn seed")


def _flags_load_disk(p) -> None:
    p.add_argument("image", help="image produced by dump-disk")


def _flags_fsck_remote(p) -> None:
    _add_system_flag(p)
    p.add_argument(
        "--backend",
        default="tiered",
        choices=("local", "objectstore", "tiered"),
        help="backing-store flavour (default tiered)",
    )
    p.add_argument("--blocks", type=int, default=256, help="file system size in 8 KB blocks")
    p.add_argument(
        "--age",
        type=int,
        default=25,
        metavar="OPS",
        help="seeded churn operations per phase (default 25)",
    )
    p.add_argument("--seed", type=int, default=1, help="scenario seed")
    p.add_argument(
        "--batch",
        action="store_true",
        help="apply repairs instead of only reporting them (s3ql --batch)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="full rescan even when the seal says local and remote match",
    )
    p.add_argument(
        "--outage",
        action="store_true",
        help="hold the object store down through the reboot: the mount-time "
        "reconcile defers, the explicit pass runs after the heal",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")


#: Every command, declared once: ``(name, help, add_flags, handler)``.
#: ``add_flags`` is None for a command that takes no arguments.
COMMANDS = (
    ("demo", "the quickstart: write, crash, warm reboot, read back", None, cmd_demo),
    ("table1", "run the reliability campaign (Table 1) and print it", _flags_table1, cmd_table1),
    (
        "forensics",
        "per-trial crash forensics over a traced table1 journal: injection -> "
        "first divergent store -> crash -> detector evidence",
        _flags_forensics,
        cmd_forensics,
    ),
    ("table2", "run the performance grid (Table 2) and its ratio summary", None, cmd_table2),
    ("mttf", "the section 3.3 MTTF illustration from the paper's rates", None, cmd_mttf),
    (
        "analyze",
        "static analysis of the kernel text: disassembly, CFG, lint findings "
        "and the code-patching plan for one routine (or all)",
        _flags_analyze,
        cmd_analyze,
    ),
    (
        "serve",
        "the file service under a crash storm: N clients, M mid-traffic "
        "kernel crashes, warm reboots, zero-lost-acks audit (exit 1 on lost acks)",
        _flags_serve,
        cmd_serve,
    ),
    ("loadgen", "the same deterministic multi-client load, no crashes", _flags_loadgen, cmd_serve),
    (
        "cluster",
        "serve behind a sharded front-end: N kernels behind a deterministic "
        "router, the storm rolling one shard at a time (exit 1 on lost acks)",
        _flags_cluster,
        cmd_serve,
    ),
    (
        "chaos",
        "the chaos capability matrix: one traffic-under-faults trial per "
        "fault capability (exit 1 on SLO violations)",
        _flags_chaos,
        cmd_chaos,
    ),
    (
        "explore",
        "exhaustive crash-point sweep: crash at every store/flush/shadow-flip "
        "boundary and hold recovery to the spec (exit 1 on violations, 2 if incomplete)",
        _flags_explore,
        cmd_explore,
    ),
    (
        "dissect",
        "the independent on-disk-format verifier over a disk image (exit 1 on findings)",
        _flags_dissect,
        cmd_dissect,
    ),
    ("dump-disk", "build a file system, optionally age it, dump the disk image", _flags_dump_disk, cmd_dump_disk),
    (
        "load-disk",
        "install a dumped image, run fsck and dissect over it (exit 1 if they diverge)",
        _flags_load_disk,
        cmd_load_disk,
    ),
    (
        "fsck-remote",
        "the worked outage drill: crash a tiered stack mid-upload, reconcile the "
        "remote tier (exit 1 if repairs still pend or the second opinion diverges)",
        _flags_fsck_remote,
        cmd_fsck_remote,
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` parser: one subparser per :data:`COMMANDS` row."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="<command>")
    for name, help_text, add_flags, handler in COMMANDS:
        command = sub.add_parser(name, help=help_text, description=help_text)
        if add_flags is not None:
            add_flags(command)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to one command."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
