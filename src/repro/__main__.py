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
    """The quickstart: write, crash, warm reboot, read back; then
    footnote 1's toggle through a power loss (a cold reboot), an AdvFS
    journal replay, and section 2.2's warm-reboot cost."""
    from repro import SystemSpec, build_system
    from repro.errors import FileNotFound
    from repro.perf.report import format_warm_reboot
    from repro.perf.runner import run_warm_reboot

    def crashed(name, data, *, fsync=False, toggle=False, warm=True):
        """Write /demo on a fresh ``name`` system, crash, reboot: the disk
        writes before the crash, the reboot's report, what /demo reads."""
        system = build_system(SystemSpec(name))
        fd = system.vfs.open("/demo", create=True)
        system.vfs.write(fd, data)
        if fsync:
            system.vfs.fsync(fd)
        system.vfs.close(fd)
        writes = system.disk.stats.writes
        if toggle:
            system.enable_reliability_writes()
        system.crash("demo crash")
        report = system.reboot(preserve_memory=warm)
        if toggle:
            system.disable_reliability_writes()  # maintenance over
        try:
            return writes, report, system.fs.read(system.fs.namei("/demo"), 0, 64)
        except FileNotFound:
            return writes, report, "FileNotFound"

    data = b"memory, surviving a crash"
    writes, report, quick = crashed("rio_prot", data)
    print(f"wrote /demo with {writes} disk writes")
    print(f"warm reboot: {report.warm.ubc_restored} file pages restored, "
          f"{report.fsck.fix_count} fsck fixes")
    print(f"recovered: {quick!r}")
    kept = crashed("rio_prot", data, toggle=True, warm=False)[2]
    lost = crashed("rio_prot", data, warm=False)[2]
    print(f"footnote 1, power lost (cold reboot): with reliability writes on recovered {kept!r}; "
          f"without them {lost}")
    _, advfs, logged = crashed("advfs", data, fsync=True)
    print(f"AdvFS, fsync then crash: journal replay applied {advfs.journal_records_applied} "
          f"records, {advfs.fsck.fix_count} fsck fixes, recovered {logged!r}")
    warm, split = run_warm_reboot()
    print(format_warm_reboot(split))
    fixes = report.fsck.fix_count + advfs.fsck.fix_count + warm.fsck.fix_count
    return 0 if quick == kept == logged == data and lost == "FileNotFound" and not fixes else 1


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
    """Run the Table 1 reliability campaign: the table, footnote 2's
    propagation per system, section 3.3's MTTF and the digest — or, with
    ``--json``, the summary ``RESULTS_table1.json`` holds."""
    from repro.faults.types import ALL_FAULT_TYPES
    from repro.reliability import (
        SYSTEM_NAMES,
        CampaignEngine,
        format_propagation,
        format_table1,
        summarize_propagation,
        table1_digest,
    )
    from repro.reliability.report import format_mttf

    crashes = args.scale
    systems = tuple(args.systems.split(",")) if args.systems else SYSTEM_NAMES
    unknown = [s for s in systems if s not in SYSTEM_NAMES]
    if unknown:
        raise SystemExit(f"unknown system {unknown[0]!r}; known: {SYSTEM_NAMES}")
    fault_types = _parse_fault_types(args.faults) if args.faults else ALL_FAULT_TYPES
    if args.trace_corruptions and args.resume is None:
        raise SystemExit(
            "--trace-corruptions needs --resume PATH: the per-trial traces "
            "are kept in the checkpoint journal"
        )
    print(
        f"running the Table 1 campaign ({crashes} crashes/cell; paper used 50) "
        f"on {args.jobs} worker(s)"
        + (f", checkpointing to {args.resume}" if args.resume else "")
        + " ...",
        file=sys.stderr,
    )
    engine = CampaignEngine(
        crashes_per_cell=crashes,
        systems=systems,
        fault_types=fault_types,
        trace_events=args.trace_corruptions,
        jobs=args.jobs,
        checkpoint=args.resume,
        progress=lambda line: print("  " + line, file=sys.stderr),
    )

    def text(table) -> str:
        lines = [format_table1(table, systems=systems)]
        for system in systems:
            lines.append(f"\nFault propagation on {system} (footnote 2):")
            lines.append(format_propagation(summarize_propagation(table, system)))
        lines.append("\n" + format_mttf(table, systems))
        lines.append(f"\ntable1 digest: {table1_digest(table)}")
        return "\n".join(lines)

    status = _emit(engine.run(), args, text)
    stats = engine.stats
    print(
        f"({stats.executed} trials run, {stats.from_checkpoint} from checkpoint, "
        f"{stats.worker_crashes} worker crashes, {stats.wall_seconds:.1f}s)",
        file=sys.stderr,
    )
    if not engine.complete:
        print("campaign incomplete; re-run with --resume to continue", file=sys.stderr)
        return 3
    for system, fault, got, attempts in engine.table.short_cells():
        print(
            f"short cell {system}/{fault}: {got} of {crashes} crashes after {attempts} attempts",
            file=sys.stderr,
        )
    for system, fault, seed in engine.table.divergent_trials():
        print(
            f"divergence {system}/{fault}/{seed}: fsck repaired an image dissect finds damaged",
            file=sys.stderr,
        )
    return status


def cmd_forensics(args) -> int:
    """Per-trial crash forensics over a traced campaign journal."""
    from repro.obs import build_forensic_report, format_forensic_report
    from repro.reliability.campaign import CrashTestResult, run_baseline_trace
    from repro.reliability.journal import read_trials

    entries = read_trials(args.journal)

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
        label = "/".join(map(str, key))
        _seed, result = entries[key]
        try:
            trial = CrashTestResult.from_json_dict(result)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"{args.journal}: trial {label} does not decode: {exc}")
        if wanted is None and not (trial.crashed and trial.corrupted):
            continue
        selected.append((label, result, trial))

    if wanted is not None and not selected:
        raise SystemExit(f"trial {args.trial!r} not found in {args.journal}")
    if not selected:
        print(f"no corrupting trials in {args.journal}; nothing to report")
        return 0

    reported = 0
    for label, result, trial in selected:
        events = result.get("trace_events")
        if events is None:
            print(f"=== {label}: no event trace (campaign ran without "
                  "--trace-corruptions); skipping ===\n")
            continue
        # ops_run + 1 so the baseline fully executes the operation the
        # faulted run died inside.
        baseline = run_baseline_trace(trial.config, trial.ops_run + 1)
        report = build_forensic_report(result, events, baseline)
        print(f"=== {label} ===")
        print(format_forensic_report(report))
        print()
        reported += 1
    if reported == 0 and wanted is not None:
        return 1
    return 0


def cmd_table2(_args) -> int:
    """Run the Table 2 performance grid, its ratio summary, section 2.1's
    code-patching cost, section 2.3's cache overflow and section 6's
    debit/credit commit rates."""
    from repro.perf import report, runner

    table = report.Table2(results=runner.run_table2())
    print(report.format_table2(table))
    print()
    print(report.format_ratio_summary(report.ratio_summary(table)))
    print(report.format_store_dense(runner.run_store_dense()))
    print(report.format_overflow(runner.run_overflow()))
    print(report.format_debit_credit(runner.run_debit_credit()))
    return 0


def cmd_analyze(args) -> int:
    """Kernel routines as the code patcher sees them: disassembly and patch size."""
    from repro.isa.analysis import disassemble_words, patch_routine
    from repro.isa.assembler import assemble
    from repro.isa.routines import ROUTINE_SOURCES

    names = [args.routine] if args.routine else sorted(ROUTINE_SOURCES)
    unknown = [n for n in names if n not in ROUTINE_SOURCES]
    if unknown:
        print(f"unknown routine {unknown[0]!r}; known: {', '.join(sorted(ROUTINE_SOURCES))}")
        return 2
    for name in names:
        words, labels = assemble(ROUTINE_SOURCES[name])
        print(f"=== {name} ({len(words)} words) ===")
        print(disassemble_words(words, labels=labels, name=name).source, end="")
        _, _, report = patch_routine(name, words, labels)
        print(f"patch: {report.stores} stores checked; +{report.added_words} words")
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
    the exit status is the result's verdict (``result.ok``)."""
    if args.json:
        import json

        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(formatter(result))
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """``serve``: the file service under a crash storm; ``loadgen``: the
    same deterministic load with no storm; ``cluster``: ``serve`` behind
    a sharded front-end.  Exit 1 if any check failed: an ack lost, or a
    storm that fired fewer crashes than ``--crashes`` on some kernel."""
    from repro.reliability import format_traffic_report, run_traffic_campaign

    config = _traffic_config(
        args,
        crashes=args.crashes,
        storm=args.storm,
        repair=args.repair,
        backend=args.backend,
    )
    if args.faults:
        if args.storm != "faults":
            raise SystemExit("--faults names the fault of --storm faults; add --storm faults")
        fault_types = _parse_fault_types(args.faults)
        if len(fault_types) != 1:
            raise SystemExit(f"--faults takes one fault type, got {len(fault_types)}")
        (config.fault_type,) = fault_types
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
        base=_traffic_config(args, crashes=args.crashes, jobs=args.jobs)
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

        def text(verdict) -> str:
            lines = [
                f"replayed {config.workload} seed {config.seed} "
                f"event {args.replay} ({verdict.boundary.key()}): "
                + ("spec holds" if verdict.ok else "SPEC VIOLATED")
            ]
            lines += [f"  [{v.clause}] {v.detail}" for v in verdict.violations]
            if verdict.artifact_image:
                lines.append(f"  image: {verdict.artifact_image}")
            if verdict.artifact_report:
                lines.append(f"  forensics: {verdict.artifact_report}")
            return "\n".join(lines)

        return _emit(verdict, args, text)
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

    with open(path, "rb") as fh:
        head = fh.read(len(IMAGE_MAGIC))
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


def _build_system(args, **overrides):
    """The ``--system`` / ``--blocks`` stack; a file system too small
    for mkfs ends the command with mkfs's message."""
    from repro.errors import InvalidArgument
    from repro.system import build_system, system_spec_for

    try:
        return build_system(system_spec_for(args.system, fs_blocks=args.blocks, **overrides))
    except InvalidArgument as exc:
        raise SystemExit(f"mkfs --blocks {args.blocks}: {exc}")


def cmd_dump_disk(args) -> int:
    """Build a file system, optionally age it, flush, and dump the image."""
    from repro.fs.dissect import dump_image, snapshot

    system = _build_system(args)
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

    if args.outage and args.backend == "local":
        raise SystemExit(
            "fsck-remote: --outage needs a store that can go down "
            "(--backend objectstore or tiered), not --backend local"
        )
    say = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    system = _build_system(args, backend=args.backend, backend_seed=args.seed)
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
    # strands every queued upload.  The store's own config comes back
    # after the crash.
    from dataclasses import replace as _replace

    held = store.config
    store.config = _replace(held, dirty_threshold=10**9)
    _age_filesystem(system, ops=args.age, seed=args.seed + 1, prefix="/aged2")
    system.settle()
    say(
        f"crashing with {len(store._dirty)} block(s) dirty in the "
        "upload queue (kernel memory: the queue dies with the machine)"
    )
    system.crash("fsck-remote scenario", kind="forced")
    store.config = held

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
    from repro.fs.dissect import dissect_image, install, second_opinion, snapshot
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
    # The evidence is the payload's scan (fsck repaired the disk in place);
    # the verdicts are judged on the disk as fsck left it.
    print(dissect_image(payload).format())
    _scan, divergence = second_opinion(snapshot(disk), report)
    print(
        f"fsck: {report.fix_count} fix(es), "
        + ("UNRECOVERABLE" if report.unrecoverable else "file system recovered")
    )
    print(divergence.format())
    return 0 if divergence.agreed else 1


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """An argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _add_system_flag(parser) -> None:
    from repro.system import SYSTEM_NAMES

    parser.add_argument(
        "--system",
        default="rio_prot",
        choices=SYSTEM_NAMES,
        help="the system under test (default rio_prot)",
    )


def _add_load_flags(parser, *, pipeline: bool = True) -> None:
    """The flags ``serve``/``loadgen``/``cluster``/``chaos`` share."""
    _add_system_flag(parser)
    parser.add_argument("--clients", type=_positive_int, default=16, help="concurrent clients")
    parser.add_argument(
        "--ops", type=_non_negative_int, default=30, help="programs per client (default 30)"
    )
    if pipeline:
        parser.add_argument(
            "--pipeline",
            type=_positive_int,
            default=4,
            help="requests each client keeps in flight",
        )
    else:
        parser.set_defaults(pipeline=4)
    parser.add_argument("--seed", type=int, default=1, help="campaign seed")
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _add_storm_flags(parser, *, crashes: int) -> None:
    """The storm flags ``serve`` and ``cluster`` share; ``crashes`` is
    the command's ``--crashes`` default."""
    parser.add_argument(
        "--crashes",
        type=_non_negative_int,
        default=crashes,
        help=f"mid-traffic crashes per kernel (default {crashes})",
    )
    parser.add_argument(
        "--storm",
        default="forced",
        choices=("forced", "faults"),
        help="crash storm flavour (a cluster's storm rolls, one shard down at a time)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        help='the one fault type of --storm faults, e.g. "kernel stack"',
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help="re-apply lost journal entries during recovery (for disk runs)",
    )
    _add_backend_flag(parser)


def _add_backend_flag(parser) -> None:
    from repro.backend import BACKEND_NAMES

    parser.add_argument(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help="tiered backing store behind the disk (default: none); adds "
        "remote-tier reconciles at every recovery plus the final "
        "remote-only audit",
    )


def _flags_table1(p) -> None:
    p.add_argument("--scale", type=_positive_int, default=2, help="crashes per cell (paper: 50)")
    p.add_argument(
        "--jobs",
        type=_positive_int,
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
        help="record flight-recorder streams for every trial in the --resume "
        "journal, for repro forensics",
    )
    p.add_argument("--json", action="store_true", help="machine-readable summary")


def _flags_forensics(p) -> None:
    p.add_argument("journal", help="JSONL checkpoint journal from table1 --resume")
    p.add_argument(
        "--trial",
        default=None,
        metavar="SYSTEM/FAULT/ATTEMPT",
        help='one trial to report on, e.g. "rio_noprot/kernel_text/3" '
        "(default: every corrupting trial)",
    )


def _flags_analyze(p) -> None:
    p.add_argument("routine", nargs="?", help="routine name (default: all)")


def _flags_serve(p) -> None:
    _add_load_flags(p)
    _add_storm_flags(p, crashes=3)


def _flags_loadgen(p) -> None:
    """``serve`` with no storm: the storm flags would do nothing."""
    _add_load_flags(p)
    _add_backend_flag(p)
    p.set_defaults(crashes=0, storm="forced", faults=None, repair=False)


def _flags_cluster(p) -> None:
    from repro.server.router import Router

    _add_load_flags(p)
    _add_storm_flags(p, crashes=0)
    p.add_argument("--shards", type=_positive_int, default=2, help="kernel shards (default 2)")
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="1: all shards in-process; >1: one worker process per shard "
        "(identical digests either way)",
    )
    p.add_argument(
        "--router",
        default="dir",
        choices=Router.MODES,
        help="routing key: parent directory (colocates) or full path (scatters)",
    )


def _flags_chaos(p) -> None:
    _add_load_flags(p, pipeline=False)
    p.add_argument(
        "--crashes",
        type=_non_negative_int,
        default=2,
        help="forced crashes per trial (default 2; 0 = no storm)",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
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
    from repro.backend import BACKEND_NAMES
    from repro.explore import WORKLOAD_NAMES

    p.add_argument(
        "workload",
        nargs="?",
        default="basic",
        choices=WORKLOAD_NAMES,
        help="the workload to sweep (default basic)",
    )
    _add_system_flag(p)
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the sweep (default 1: serial; identical "
        "report at any N)",
    )
    p.add_argument(
        "--ops", type=_non_negative_int, default=8, help="basic: seeded write rounds (default 8)"
    )
    p.add_argument("--clients", type=_positive_int, default=2, help="traffic: clients (default 2)")
    p.add_argument(
        "--ops-per-client",
        type=_non_negative_int,
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
        choices=BACKEND_NAMES,
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
        type=_non_negative_int,
        default=0,
        metavar="OPS",
        help="seeded churn operations to run before dumping (default 0)",
    )
    p.add_argument("--seed", type=int, default=1, help="churn seed")


def _flags_load_disk(p) -> None:
    p.add_argument("image", help="image produced by dump-disk")


def _flags_fsck_remote(p) -> None:
    from repro.backend import BACKEND_NAMES

    _add_system_flag(p)
    p.add_argument(
        "--backend",
        default="tiered",
        choices=BACKEND_NAMES,
        help="backing-store flavour (default tiered)",
    )
    p.add_argument("--blocks", type=int, default=256, help="file system size in 8 KB blocks")
    p.add_argument(
        "--age",
        type=_non_negative_int,
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
    (
        "table1",
        "run the reliability campaign (Table 1) and print it (exit 1 if a cell "
        "ends short of its target or fsck and dissect disagree on a trial, 3 if "
        "incomplete)",
        _flags_table1,
        cmd_table1,
    ),
    (
        "forensics",
        "per-trial crash forensics over a traced table1 journal: injection -> "
        "first divergent store -> crash -> detector evidence",
        _flags_forensics,
        cmd_forensics,
    ),
    ("table2", "run the performance grid (Table 2) and its ratio summary", None, cmd_table2),
    (
        "analyze",
        "the kernel text as section 2.1's code patcher sees it: disassembly "
        "and patch size for one routine (or all)",
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
    """Parse arguments and dispatch to one command.  A host file the
    command cannot use (missing, a directory, unwritable) or a checkpoint
    journal of another campaign ends it with a message, not a traceback."""
    from repro.reliability.journal import CampaignResumeError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CampaignResumeError as exc:
        raise SystemExit(f"cannot resume: {exc}")
    except OSError as exc:
        if exc.filename is None:
            raise
        raise SystemExit(f"{exc.filename}: {exc.strerror}")


if __name__ == "__main__":
    raise SystemExit(main())
