"""Cross-commit golden digests: "same behaviour as the parent commit".

Every other digest assertion in the suite is relative (serial vs
``--jobs``, fast vs reference engine).  These are absolute: each value
below was captured on the commit *before* the bulk data plane landed
(PR 12, 2f6d615) and must never move under a change that claims to be
behaviour-neutral.  A PR that changes behaviour on purpose updates the
value and says why in CHANGES.md.

The observations are small fixed configs of every seeded digest the
repo has — explorer (enumeration stream + per-boundary verdicts), a
traffic storm (acks, expected state, virtual time, final image), the
same on the ``disk`` policy behind each backend flavour (remote image and
upload count too; see the note on ``GOLDEN["backend"]``), the service
tier's other axes (a two-shard cluster under each router, the chaos
matrix, a fault storm, a repairing ``disk`` run; see ``GOLDEN["cluster"]``),
a Table 1 campaign, every named system's shape — plus the two pieces of
boot state the bulk boot scans rebuild: the free-inode list and the
registry region's bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter

import pytest

from repro.explore import ExploreConfig, explore, run_enumeration
from repro.errors import FileNotFound
from repro.faults import ChaosSpec
from repro.faults.types import FaultType
from repro.fs.fsck import LOST_FOUND_INO, FsckReport
from repro.fs.ondisk import INODES_PER_BLOCK, INODE_SIZE, Inode
from repro.fs.types import FileType, ROOT_INO, SECTORS_PER_BLOCK
from repro.perf.systems import TABLE2_KEYS, spec_for_row
from repro.reliability import CampaignEngine, table1_digest
from repro.reliability.campaign import SYSTEM_NAMES, system_spec_for
from repro.reliability.chaos import ChaosCampaignConfig, run_chaos_campaign
from repro.reliability.traffic import TrafficConfig, run_traffic_campaign
from repro.server import LoadSpec
from repro.system import build_system

GOLDEN = {
    # Every virtual time below, and every image, registry, report, stream
    # and Table 1 digest that embeds one, was re-recorded when the native
    # routines began returning the steps their assembly executes instead
    # of a side table's estimate.  Each new value is what the parent
    # (832ea1f) produces with every routine interpreted
    # (``Interpreter.force_interpret`` on in every interpreter); the ack,
    # state, cluster and intent digests, counts and ``table2/rio_patch``
    # (no natives) did not move.
    #
    # The two stream digests were re-recorded in PR 24 (the parent, 29dae24,
    # read ae88c6a6... / 2361fa07... over 2 042 events): a registry window
    # opens the entry's frame, not all thirteen, so 1 584 ``mmu/kseg-protect``
    # events are gone and every later ``seq`` moved down.  ``projection_digest``
    # is what that may not move, recorded on that parent and unchanged here.
    #
    # ``report_digest`` and ``table1`` were re-recorded when the trial
    # configs lost the keys that only ever held constants (``fs_blocks`` and
    # ``event_cap``; ``sim_budget_s``, ``andrew_copies``,
    # ``inject_after_ops``, ``memtest`` and ``faults``).  Each new value is
    # the parent's (43f4d8b) output digested with those keys deleted from
    # its configs; no trial, verdict or stream moved.
    "explore": {
        "boundaries": 146,
        "enumeration_digest": "3794503a54a09800ffc3aede5a9bf5a57d0a97e69e26318871fc060c3aca93b0",
        "report_digest": "30a0aeec76698be4a689f3bada2f6ff668e9163f6f1ea9cb6394d57e9bb00525",
        "projection_digest": "3987585353cf4fdfd059b9ca11a1871933dd3f07f7536ecf60bb47e47dfe08db",
    },
    "traffic": {
        "ack_digest": "2cda5709683f86b1f61d804586e309545ba3def72a2e46c7954b61518ed411cb",
        "state_digest": "f2cd5034670b26abd15a24780ec96e0c5509e1384e63cf176e40a4a54767081a",
        "virtual_ns": 101058207675,
        "recovery_ns": 101006931340,
        "final_image_sha256": "0a7651daa6951401339a88f43ba9b8c8e21e2c6253f0429a50d869d90a1d3c9b",
        "report_sha256": "0112294092f85338d5cbaa3aa76d7e42a51f32a3af1e99ff67582ac523438bb9",
    },
    "table1": "82cab01fc95d9e748ade0c012e1a17b1a1faac29560c99a4828243b81459e0e6",
    # ``local`` and ``objectstore`` wait for every remote request: recorded
    # on the parent of PR 18 (4c934b9) and unmoved by it — the oracle that
    # the link charges a waited request exactly what ``clock.consume`` did.
    # ``tiered`` posts its uploads since PR 18 (the parent read 69 uploads,
    # 32 412 893 412 ns, image 1dbb77fb...): new there, acknowledged.
    "backend": {
        "local": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "141a259892eb2774dd62591afaa3d36949dd206c59651998f5e0cbd1c6847630",
            "virtual_ns": 31784178290,
            "uploads": 147,
        },
        "objectstore": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "0ef39d84b68fabbf8dd4192e370a842a3a9cf13d6821ba3f23444fbb04da664b",
            "virtual_ns": 32869559139,
            "uploads": 147,
        },
        "tiered": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "b8d62873e2520fd83cc7158ce9947b7b81ab85ac01758098b8b8fde221193406",
            "virtual_ns": 32007218275,
            "uploads": 75,
        },
    },
    # The service tier's axes, recorded on the parent of PR 20 (b2ffda4)
    # before that PR folded the two campaign paths into one.
    "cluster": {
        "dir": {
            "cluster_digest": "0073682890b18126680910fb557d4eac9953c8b65d986be7ae2ccf6e9eadef97",
            "intent_digest": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "virtual_ns": 33525443565,
            "acked": 90,
            "recoveries": 2,
            "intents": 0,
            "report_sha256": "7af47db609a7d41e083a9efb848426a1374b5e055540f0969a5025ecbcb3ebc4",
        },
        "hash": {
            "cluster_digest": "6d14b06b976f5236c883ac1c2625fd15cd62fd8c44326fda832ac4997c582046",
            "intent_digest": "21f201213ae3c534a68317b1c7b4be36de3d2475c17cee0cb2b93b8de235c037",
            "virtual_ns": 33534513155,
            "acked": 90,
            "recoveries": 2,
            "intents": 1,
            "report_sha256": "d0ac7d8ccf7c90a2e3b8fd15dab995e1ffaeaedaee80b7d17b24be14b9a28e5d",
        },
    },
    # New in PR 20 (the parent refused the combination), acknowledged.
    # ``report_sha256`` re-recorded once (it read 94d6cf15... before): an
    # ``unlink`` past its commit point runs calm, so the one ``slow_io``
    # evaluation in its block release is gone and the later ones shift
    # (the tiered link's busy time moves); digests and acks are unchanged.
    "composed": {
        "cluster_digest": "835f9344b89c8d811c93d67a1e1b0415364abf79661618e14c229f6189d4d33e",
        "virtual_ns": 34005757436,
        "acked": 90,
        "recoveries": 2,
        "faults_injected": 2,
        "chaos_fires": [8, 6],
        "final_images": [
            "2209ccd83e2da3ce5f9afcb251fd0c35be3f5e81196621f2ee7591776c02a1c4",
            "be88fba02f7714f54d2fed08f8449dd8fdf935d06b4468b6c29e96f461aaa391",
        ],
        "report_sha256": "47d1d13a7e4bf0a59bf604ed7cda3577a7c77df9e361fec30a520bb1d392796f",
    },
    # Re-recorded once (it read 64de0b40... before): a kernel lock now
    # releases on an errno, so ``fail_alloc`` no longer declines to fire
    # inside a lock section.  Still 17 fires; which requests they hit moved.
    # ``report_sha256`` re-recorded once more (it read d675bdc7... before):
    # the ``fail_alloc`` trial's denied ``mkdir`` now gives back its inode
    # and block, which costs virtual time — that trial's
    # ``throughput_ops_per_vsec`` moves in the seventh digit, nothing else.
    # ``digest`` and ``report_sha256`` re-recorded once more (they read
    # 8c59afb1... / e5beb60d... before): an ``unlink`` past its commit
    # point runs calm, so the one ``fail_alloc`` evaluation in its block
    # release is gone; the trial's later fires shift (26 calls -> 24, still
    # 17 fires in all), and with them its ack and state digests.
    "chaos": {
        "digest": "30152b3a2f207f0152df2191a74b1c116013fbfde57fe8de0a3be6fabe00829f",
        "fires": 17,
        "report_sha256": "f850edd34a257e22180fb748df5283548b79eefb848395508d48b1841762dd94",
    },
    "fault_storm": {
        "ack_digest": "de6b6c5f0cfcc1341ae18ed95e80a41d32b71b664fc90bfd0c7ccef75fe04d03",
        "state_digest": "6471bcc4542d73739301997df1af7dfbc81ca836e95a09286e77642eb99ec125",
        "faults_injected": 2,
        "watchdog_fired": 0,
        "virtual_ns": 67189713895,
        "report_sha256": "5cc534c3ae5a00d769bd326bc25c16bf65689b1f147d3d59adefab0439b2e6f1",
    },
    "repair": {
        "ack_digest": "0ccc74a21fa1ee1852dec73120e86f5298897196588dd628533729063e6af273",
        "lost_acks": 24,
        "repaired_acks": 24,
        "final_audit_ok": True,
        "virtual_ns": 63753574130,
        "report_sha256": "44fcdefbe888fb1908c098d768d77c7080a915eb444f7cac2a404d0312d9c5ab",
    },
    "boot": {
        "cold": {
            "free_inodes": 508,
            "free_inodes_sha256": "c621ee140f6c5a75b59dc00b59adea07fc819a4115d9667b19305d998c844c32",
            "registry_sha256": "b7305e32ca59e54302147cb52c381665db6a930ce9d24bb5120863c581754448",
            "now_ns": 138426840,
        },
        "warm_unchecked": {
            "free_inodes": 505,
            "free_inodes_sha256": "cefe907d204d7a3c5377df0341bf04e676a4d2005f101bf87c1b396e5d6a9e27",
            "registry_sha256": "20e0f1d0f3b798702f8d6c9a9eff3d799b16619b5f410a4aa0527baae722433e",
            "now_ns": 33613826060,
        },
        "warm_fsck": {
            "free_inodes": 505,
            "free_inodes_sha256": "cefe907d204d7a3c5377df0341bf04e676a4d2005f101bf87c1b396e5d6a9e27",
            "registry_sha256": "6ff0edc13ae4684ddc6efbde60db15fdda8157be4a84365acb9727a0dbe994b4",
            "now_ns": 67027735940,
            "fsck_fixes": "9f7c2dab1a5364de9ce2e2da55653237b06be83a5a322cc667e98145a22bdbc7",
        },
    },
    # Each system the two tables name: its shape (file system, policy,
    # mounts, cache config, footnote 1's write-off, disk and swap sizes)
    # and one write-crash-reboot run, recorded on c5a0f0f.  ``table1/disk``
    # and ``table2/ufs`` are one system.
    "systems": {
        "table1/disk": "243837b2a73ba2968bfb4e7ccf87b98460107820afbf58bd44cbc2dc39a3562f",
        "table1/rio_noprot": "7a4265a5ce7ca111eb5d3ebdfa11d439e3dd46d0756749ea25c6f1288175ff97",
        "table1/rio_prot": "4e0937d6cf2e2ae8372080f2f7220ef50922bc5938c29e72468e75d1df2884a6",
        "table2/mfs": "7f0b2cf8ef5f142c5f8702a6bf7fe3d5880857f4f06127fddd324c03eb7b94f4",
        "table2/ufs_delayed": "6389eaf005e417b6b047039f2a2e56a36365b1dd51218992ce026421d7c648ab",
        "table2/advfs": "aeb04e5cb4bdd7745346990b3ce8889ae512549a47575921d2c49d45bcb2e0aa",
        "table2/ufs": "243837b2a73ba2968bfb4e7ccf87b98460107820afbf58bd44cbc2dc39a3562f",
        "table2/wt_close": "b0af84ed9c60bc0723cfa8541bb53cddfad9f22e4d3230912f48a7da2947a036",
        "table2/wt_write": "ee9623dccffe0aef1f29bdae556d31f461e0fa2fd8bd384c1bcf49ff86b185a3",
        "table2/rio_noprot": "3fde7f539ca19a194c21ec55ac28e81741b909dd64674ab29746dbf256ea2922",
        "table2/rio_prot": "122565a5f081216bea133de31410baf0777849a0a764cc6fc8f6b56f13d27724",
        # Re-recorded when the patcher stopped eliding checks: every store
        # now pays the spilled check, so only the run's ``now_ns`` moves
        # (33 613 907 540 -> 33 614 006 780).
        "table2/rio_patch": "0f08436e4905c63ed41dacdaa75f324034211fd0f4f8318bd5aa0b07dd87ad2c",
    },
}

#: (bus loads, bus stores) of one boot on this geometry — the one thing the
#: bulk boot scans move on purpose, so not a parent value: PR 12 read
#: (534, 2405) cold and (554, 2423) warm.  The free-inode scan loads each
#: of the 8 inode-table blocks once instead of each of 508 inodes (-500),
#: and ``Registry.format`` zeroes its 2 217 entries with one store per
#: registry page instead of one per entry (-2 204).
BOOT_BUS = {"cold": (34, 201), "warm_unchecked": (54, 219), "warm_fsck": (54, 219)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_sha(result, drop: tuple = ()) -> str:
    """sha256 of the result's whole JSON report, minus the ``drop`` keys.

    Every ``report_sha256`` value was recorded on 8de18e1, before the
    report became one fold of the kernels' :meth:`Shard.verdict`."""
    report = {key: value for key, value in result.to_json_dict().items() if key not in drop}
    return _sha(json.dumps(report, sort_keys=True).encode())


# -- observations (also run by hand on a parent checkout to re-capture) ------


def observe_explore() -> dict:
    """Traffic workload, rio_prot, 1 client x 2 programs: every boundary."""
    config = ExploreConfig("traffic", "rio_prot", seed=11, clients=1, ops_per_client=2)
    report = explore(config)
    # The projection: the stream without frame toggles and ``seq``, each
    # verdict keyed by its boundary's ordinal within ``kind/op`` instead
    # of its event index.
    stream = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in run_enumeration(config).events
        if (event["kind"], event["op"]) != ("mmu", "kseg-protect")
    ]
    ordinals: Counter = Counter()
    verdicts = []
    for verdict in report.verdicts:
        body = verdict.canonical_json_dict()
        bucket = "{kind}/{op}".format(**body.pop("boundary"))
        ordinals[bucket] += 1
        verdicts.append([bucket, ordinals[bucket], body])
    return {
        "boundaries": report.boundaries_total,
        "enumeration_digest": report.enumeration_digest,
        "report_digest": report.report_digest(),
        "projection_digest": _sha(json.dumps([stream, verdicts], sort_keys=True).encode()),
    }


def observe_traffic() -> dict:
    """A forced three-crash storm under eight clients."""
    result = run_traffic_campaign(
        TrafficConfig(
            system="rio_prot", clients=8, crashes=3, seed=5,
            load=LoadSpec(ops_per_client=20),
        )
    )
    assert result.ok
    return {
        "ack_digest": result.ack_digest,
        "state_digest": result.state_digest,
        "virtual_ns": result.load.wall_virtual_ns,
        "recovery_ns": result.verdict["recovery_ns"],
        "final_image_sha256": result.verdict["final_image_sha256"],
        "report_sha256": _report_sha(result),
    }


def observe_backend(flavour: str) -> dict:
    """A one-crash storm on the ``disk`` policy — the tier is on the
    request path — behind one backend flavour."""
    result = run_traffic_campaign(
        TrafficConfig(
            system="disk", clients=4, crashes=1, seed=9,
            load=LoadSpec(ops_per_client=15), backend=flavour,
        )
    )
    return {
        "ack_digest": result.ack_digest,
        "state_digest": result.state_digest,
        "remote_image_sha256": result.verdict["remote_audit"]["image_sha256"],
        "virtual_ns": result.load.wall_virtual_ns,
        "uploads": result.verdict["remote_stats"]["uploads"],
    }


#: Small enough that the five service-tier observations take about a second.
LIGHT = LoadSpec(
    ops_per_client=10, files_per_client=2, max_file_bytes=4096, write_bytes=(64, 512)
)


def observe_cluster(router_mode: str) -> dict:
    """Two shards, one rolling crash each; ``hash`` moves one file across."""
    result = run_traffic_campaign(
        TrafficConfig(
            shards=2, clients=6, crashes=1, seed=11, router_mode=router_mode, load=LIGHT
        )
    )
    assert result.ok
    return {
        "cluster_digest": result.cluster_digest,
        "intent_digest": result.load.digests["intent_digest"],
        "virtual_ns": result.load.wall_virtual_ns,
        "acked": result.load.acked,
        "recoveries": result.verdict["recoveries"],
        "intents": result.intent_audit["intents"],
        "report_sha256": _report_sha(result),
    }


def observe_composed(jobs: int) -> dict:
    """Every axis at once on two shards: a fault storm under chaos, on the
    tiered backend, with repair armed (and, on Rio, nothing to repair)."""
    result = run_traffic_campaign(
        TrafficConfig(
            shards=2, clients=6, crashes=1, seed=11, router_mode="hash", jobs=jobs,
            storm="faults", watchdog_budget=20, backend="tiered", repair=True,
            chaos=(
                ChaosSpec("slow_io", interval=6, times=20),
                ChaosSpec("fail_nth_syscall", nth=9, times=4),
            ),
            load=LIGHT,
        )
    )
    assert result.ok and result.verdict["lost_acks"] == 0
    for kernel in result.kernels:  # the object store alone rebuilds the image
        assert kernel["remote_audit"]["image_sha256"] == kernel["final_image_sha256"]
    return {
        "cluster_digest": result.cluster_digest,
        "virtual_ns": result.load.wall_virtual_ns,
        "acked": result.load.acked,
        "recoveries": result.verdict["recoveries"],
        "faults_injected": result.verdict["faults_injected"],
        "chaos_fires": [kernel["chaos_fires"] for kernel in result.kernels],
        "final_images": [kernel["final_image_sha256"] for kernel in result.kernels],
        # ``jobs`` is the one report key that names the fan-out.
        "report_sha256": _report_sha(result, drop=("jobs",)),
    }


def observe_chaos() -> dict:
    """The default capability matrix over a one-crash storm."""
    result = run_chaos_campaign(
        ChaosCampaignConfig(
            base=TrafficConfig(
                clients=4, crashes=1, seed=11, load=LoadSpec(ops_per_client=10)
            )
        )
    )
    assert result.ok
    return {
        "digest": result.digest,
        "fires": result.total_fires,
        "report_sha256": _report_sha(result),
    }


def observe_fault_storm() -> dict:
    """Two Table 1 faults injected mid-traffic, a 60-request watchdog."""
    result = run_traffic_campaign(
        TrafficConfig(
            system="rio_prot", clients=6, crashes=2, seed=9, storm="faults",
            fault_type=FaultType.KERNEL_STACK, watchdog_budget=60,
            load=LoadSpec(ops_per_client=15),
        )
    )
    return {
        "ack_digest": result.ack_digest,
        "state_digest": result.state_digest,
        "faults_injected": result.verdict["faults_injected"],
        "watchdog_fired": result.verdict["watchdog_fired"],
        "virtual_ns": result.load.wall_virtual_ns,
        "report_sha256": _report_sha(result),
    }


def observe_repair() -> dict:
    """The ``disk`` policy loses acks to a storm; repair re-applies them."""
    result = run_traffic_campaign(
        TrafficConfig(
            system="disk", clients=6, crashes=2, seed=4, repair=True,
            load=LoadSpec(ops_per_client=15),
        )
    )
    return {
        "ack_digest": result.ack_digest,
        "lost_acks": result.verdict["lost_acks"],
        "repaired_acks": result.verdict["repaired_acks"],
        "final_audit_ok": result.verdict["final_audit_ok"],
        "virtual_ns": result.load.wall_virtual_ns,
        "report_sha256": _report_sha(result),
    }


def observe_table1() -> str:
    """Two counted crashes in each of two fault cells on rio_prot."""
    table = CampaignEngine(
        crashes_per_cell=2,
        systems=("rio_prot",),
        fault_types=(FaultType.KERNEL_TEXT, FaultType.POINTER),
        base_seed=1000,
    ).run()
    return table1_digest(table)


def _boot_state(system) -> dict:
    registry = system.rio.registry
    free = system.fs._free_inos
    return {
        "free_inodes": len(free),
        "free_inodes_sha256": _sha(struct.pack(f"<{len(free)}I", *free)),
        "registry_sha256": _sha(
            system.machine.memory.read(registry.base_paddr, registry.region_bytes)
        ),
        "now_ns": system.clock.now_ns,
        "bus": (system.machine.bus.stats.loads, system.machine.bus.stats.stores),
    }


def _read_kept(system) -> bytes:
    fd = system.vfs.open("/kept")
    try:
        return system.vfs.read(fd, 1 << 16)
    finally:
        system.vfs.close(fd)


def _poke_inode(disk, inode_start: int, ino: int, raw: bytes) -> None:
    sector = (inode_start + ino // INODES_PER_BLOCK) * SECTORS_PER_BLOCK
    block = bytearray(disk.peek(sector, SECTORS_PER_BLOCK))
    off = (ino % INODES_PER_BLOCK) * INODE_SIZE
    block[off : off + INODE_SIZE] = raw
    disk.poke(sector, bytes(block))


def observe_boot(monkeypatch) -> dict:
    """Free-inode list + registry bytes: cold boot, then two warm reboots
    over an image holding a bad-magic inode, a bad-type inode and an
    allocated orphan in an inode-table block no live file shares (the
    scan also passes ``LOST_FOUND_INO``).  The first reboot stubs fsck out
    so the mount-time scan itself meets the mangled inodes; the second
    runs the real chain, so fsck's and the scan's views both feed it."""
    system = build_system(system_spec_for("rio_prot", fs_blocks=512))
    out = {"cold": _boot_state(system)}
    assert ROOT_INO < LOST_FOUND_INO < system.fs.sb.num_inodes

    fd = system.vfs.open("/kept", create=True)
    system.vfs.write(fd, b"golden" * 500)
    system.vfs.close(fd)
    system.vfs.mkdir("/d")

    def mangle() -> None:
        good = Inode(ino=72, ftype=FileType.REGULAR, nlink=1).to_bytes()
        inode_start = system.fs.sb.inode_start
        _poke_inode(system.disk, inode_start, 70, b"\xff\xff" + good[2:])
        _poke_inode(system.disk, inode_start, 71, good[:2] + b"\x7f" + good[3:])
        _poke_inode(system.disk, inode_start, 72, good)

    system.crash("golden: unchecked image")
    mangle()
    with monkeypatch.context() as patch:
        patch.setattr("repro.system.fsck", lambda disk: FsckReport())
        system.reboot()
    assert {70, 71} <= set(system.fs._free_inos) and 72 not in system.fs._free_inos
    out["warm_unchecked"] = _boot_state(system)
    assert _read_kept(system) == b"golden" * 500

    system.crash("golden: checked image")
    mangle()
    report = system.reboot()
    out["warm_fsck"] = _boot_state(system)
    out["warm_fsck"]["fsck_fixes"] = _sha("\n".join(report.fsck.fixes).encode())
    assert _read_kept(system) == b"golden" * 500
    return out


def _system_specs() -> dict:
    """Every name the two tables build: Table 1's three (detection
    checksums on), Table 2's eight plus the ``rio_patch`` ablation
    (checksums off)."""
    specs = {f"table1/{name}": system_spec_for(name) for name in SYSTEM_NAMES}
    for key in TABLE2_KEYS + ("rio_patch",):
        specs[f"table2/{key}"] = spec_for_row(key)
    return specs


def observe_system(spec) -> str:
    """The shape one spec builds plus one short write-crash-reboot run."""
    system = build_system(spec)
    config = system.rio and system.rio.config
    shape = {
        "fs": type(system.fs).__name__,
        "policy": system.fs.policy.name,
        "mounts": [[prefix, type(fs).__name__] for prefix, fs in system.vfs._mounts],
        "cache": config
        and [config.protection.value, config.maintain_checksums, config.shadow_metadata],
        "reliability_writes_off": system.kernel.reliability_writes_off,
        "disk_sectors": system.disk.num_sectors,
        "swap_sectors": system.swap.num_sectors,
    }
    fd = system.vfs.open("/golden", create=True)
    system.vfs.write(fd, b"survivor" * 100)
    system.vfs.close(fd)
    system.crash("golden: system shape")
    report = system.reboot()
    try:
        survived = system.fs.read(system.fs.namei("/golden"), 0, 800) == b"survivor" * 100
    except FileNotFound:
        survived = False
    shape["run"] = {
        "registry_found": report.warm and report.warm.registry_found,
        "survived": survived,
        "fsck_fixes": len(report.fsck.fixes),
        "now_ns": system.clock.now_ns,
    }
    return _sha(json.dumps(shape, sort_keys=True).encode())


# -- the assertions ------------------------------------------------------------


def test_explore_digests_match_parent():
    assert observe_explore() == GOLDEN["explore"]


def test_traffic_storm_digests_match_parent():
    assert observe_traffic() == GOLDEN["traffic"]


@pytest.mark.parametrize("flavour", sorted(GOLDEN["backend"]))
def test_backend_flavour_digests_match_parent(flavour):
    assert observe_backend(flavour) == GOLDEN["backend"][flavour]


def test_posted_uploads_keep_the_remote_tier_consistent_at_every_boundary():
    """Every crash boundary of a ``disk`` + ``tiered`` traffic run, posted
    uploads in flight at most of them: the remote tier reconciles at each.
    The ``acked-data-durable`` findings are the paper's Table 1 point (a
    disk-based system loses unflushed acks), not the tier's — and there are
    more boundaries with one than on the parent of PR 18 (69 against 64):
    the CPU no longer idles on the link, so fewer queued disk writes have
    retired when a crash comes."""
    report = explore(
        ExploreConfig("traffic", "disk", backend="tiered", clients=2, ops_per_client=6),
        jobs=2,
    )
    assert report.complete and report.coverage_percent == 100.0
    assert {v.clause for v in report.violations} == {"acked-data-durable"}
    assert sum(1 for verdict in report.verdicts if verdict.violations) == 69


@pytest.mark.parametrize("router_mode", sorted(GOLDEN["cluster"]))
def test_cluster_digests_match_parent(router_mode):
    assert observe_cluster(router_mode) == GOLDEN["cluster"][router_mode]


def test_composed_cluster_is_pinned_and_jobs_independent():
    observed = observe_composed(jobs=1)
    assert observed == observe_composed(jobs=2)
    assert observed == GOLDEN["composed"]


def test_chaos_campaign_digest_matches_parent():
    assert observe_chaos() == GOLDEN["chaos"]


def test_fault_storm_digests_match_parent():
    assert observe_fault_storm() == GOLDEN["fault_storm"]


def test_repairing_disk_run_matches_parent():
    assert observe_repair() == GOLDEN["repair"]


def test_table1_digest_matches_parent():
    assert observe_table1() == GOLDEN["table1"]


def test_boot_state_matches_parent(monkeypatch):
    observed = observe_boot(monkeypatch)
    assert {phase: state.pop("bus") for phase, state in observed.items()} == BOOT_BUS
    assert observed == GOLDEN["boot"]


@pytest.mark.parametrize("key", sorted(GOLDEN["systems"]))
def test_system_shapes_match_parent(key):
    assert observe_system(_system_specs()[key]) == GOLDEN["systems"][key]
