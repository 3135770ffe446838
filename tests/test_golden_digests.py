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
a Table 1 campaign — plus the two pieces of boot state the bulk boot
scans rebuild: the free-inode list and the registry region's bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter

import pytest

from repro.explore import ExploreConfig, explore, run_enumeration
from repro.faults.types import FaultType
from repro.fs.fsck import LOST_FOUND_INO, FsckReport
from repro.fs.ondisk import INODES_PER_BLOCK, INODE_SIZE, Inode
from repro.fs.types import FileType, ROOT_INO, SECTORS_PER_BLOCK
from repro.reliability.campaign import system_spec_for
from repro.reliability.chaos import ChaosCampaignConfig, run_chaos_campaign
from repro.reliability.report import run_table1_campaign, table1_digest
from repro.reliability.traffic import TrafficConfig, run_traffic_campaign
from repro.server import LoadSpec
from repro.system import build_system

GOLDEN = {
    # The two stream digests were re-recorded in PR 24 (the parent, 29dae24,
    # read ae88c6a6... / 2361fa07... over 2 042 events): a registry window
    # opens the entry's frame, not all thirteen, so 1 584 ``mmu/kseg-protect``
    # events are gone and every later ``seq`` moved down.  ``projection_digest``
    # is what that may not move, recorded on that parent and unchanged here.
    "explore": {
        "boundaries": 146,
        "enumeration_digest": "2388dc04514053c66e2f34933bb0918223dd8bd79984c0842ed4a0c4cb53f08b",
        "report_digest": "269eb0f416ea5f5671b968d6a0c7c9d3ab7ba51e21672bca001a5a23e5694080",
        "projection_digest": "b7ed6b8e3644f9ed65a49d2b166a9bd207bd77d7d75d6ef9c30ba238453203db",
    },
    "traffic": {
        "ack_digest": "2cda5709683f86b1f61d804586e309545ba3def72a2e46c7954b61518ed411cb",
        "state_digest": "f2cd5034670b26abd15a24780ec96e0c5509e1384e63cf176e40a4a54767081a",
        "virtual_ns": 101061389695,
        "recovery_ns": 101008872700,
        "final_image_sha256": "0646460c8e88a5a97591c88837cd356db8adfe37fb60a8b5266a4dc98019ba73",
    },
    "table1": "48c199392bbb89bfee45487615c7bc7726e23c2ed0c9670d806a5f141891a90e",
    # ``local`` and ``objectstore`` wait for every remote request: recorded
    # on the parent of PR 18 (4c934b9) and unmoved by it — the oracle that
    # the link charges a waited request exactly what ``clock.consume`` did.
    # ``tiered`` posts its uploads since PR 18 (the parent read 69 uploads,
    # 32 412 893 412 ns, image 1dbb77fb...): new there, acknowledged.
    "backend": {
        "local": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "5b27ba09ee3c331736b7071a6ec1f882123d97455bb1821603f53beba06aaf12",
            "virtual_ns": 31784987970,
            "uploads": 147,
        },
        "objectstore": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "cc6a8a0301a81fdfc8576fcda2952900997a35fb1b12c46482c93e330c7f8c06",
            "virtual_ns": 32870368819,
            "uploads": 147,
        },
        "tiered": {
            "ack_digest": "2c58669d9f3bf38581ff536a95e31469de2fcf5a6a90d2c22af402cffa90172d",
            "state_digest": "acfcc21394b689efef384f5b5a48d0b460e317769cdcad56f2bca315ca56d281",
            "remote_image_sha256": "89f994dd0509e519f83e59517d3d498e5caeb2c949855ea4a806be88df891de2",
            "virtual_ns": 32008023075,
            "uploads": 75,
        },
    },
    # The service tier's axes, recorded on the parent of PR 20 (b2ffda4)
    # before that PR folded the two campaign paths into one.
    "cluster": {
        "dir": {
            "cluster_digest": "0073682890b18126680910fb557d4eac9953c8b65d986be7ae2ccf6e9eadef97",
            "intent_digest": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "virtual_ns": 33525975165,
            "acked": 90,
            "recoveries": 2,
            "intents": 0,
        },
        "hash": {
            "cluster_digest": "6d14b06b976f5236c883ac1c2625fd15cd62fd8c44326fda832ac4997c582046",
            "intent_digest": "21f201213ae3c534a68317b1c7b4be36de3d2475c17cee0cb2b93b8de235c037",
            "virtual_ns": 33534891015,
            "acked": 90,
            "recoveries": 2,
            "intents": 1,
        },
    },
    # New in PR 20 (the parent refused the combination), acknowledged.
    "composed": {
        "cluster_digest": "835f9344b89c8d811c93d67a1e1b0415364abf79661618e14c229f6189d4d33e",
        "virtual_ns": 34006249976,
        "acked": 90,
        "recoveries": 2,
        "faults_injected": 2,
        "chaos_fires": [8, 6],
        "final_images": [
            "14d2f012e558169bf6536dda583f2d8ddce2304658d5484925d411c5065f1504",
            "509d508ceda8c5b2a6316d4ba29aa311e47d2807dd974a7e7429ae682f30cf7f",
        ],
    },
    "chaos": {
        "digest": "64de0b4008114be460dfe46753d289a02811485b9f6c35abc1f888f852181d38",
        "fires": 17,
    },
    "fault_storm": {
        "ack_digest": "de6b6c5f0cfcc1341ae18ed95e80a41d32b71b664fc90bfd0c7ccef75fe04d03",
        "state_digest": "6471bcc4542d73739301997df1af7dfbc81ca836e95a09286e77642eb99ec125",
        "faults_injected": 2,
        "watchdog_fired": 0,
        "virtual_ns": 67191435155,
    },
    "repair": {
        "ack_digest": "0ccc74a21fa1ee1852dec73120e86f5298897196588dd628533729063e6af273",
        "lost_acks": 24,
        "repaired_acks": 24,
        "final_audit_ok": True,
        "virtual_ns": 63755514070,
    },
    "boot": {
        "cold": {
            "free_inodes": 508,
            "free_inodes_sha256": "c621ee140f6c5a75b59dc00b59adea07fc819a4115d9667b19305d998c844c32",
            "registry_sha256": "b7305e32ca59e54302147cb52c381665db6a930ce9d24bb5120863c581754448",
            "now_ns": 138426740,
        },
        "warm_unchecked": {
            "free_inodes": 505,
            "free_inodes_sha256": "cefe907d204d7a3c5377df0341bf04e676a4d2005f101bf87c1b396e5d6a9e27",
            "registry_sha256": "e248fd133bd19c4fb2700fd9c0a7177a9825ce8d2b8e4ae21e0711fd8d0a0817",
            "now_ns": 33613844200,
        },
        "warm_fsck": {
            "free_inodes": 505,
            "free_inodes_sha256": "cefe907d204d7a3c5377df0341bf04e676a4d2005f101bf87c1b396e5d6a9e27",
            "registry_sha256": "dee5ccbb8e6db0601ebfcc0d576f4f4a7cede346f12c0b629562aadceb2e64f0",
            "now_ns": 67027768540,
            "fsck_fixes": "9f7c2dab1a5364de9ce2e2da55653237b06be83a5a322cc667e98145a22bdbc7",
        },
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
        "recovery_ns": result.recovery_ns,
        "final_image_sha256": result.final_image_sha256,
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
        "remote_image_sha256": result.remote_audit["image_sha256"],
        "virtual_ns": result.load.wall_virtual_ns,
        "uploads": result.remote_stats["uploads"],
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
        "recoveries": result.recoveries,
        "intents": result.intent_audit["intents"],
    }


def observe_composed(jobs: int) -> dict:
    """Every axis at once on two shards: a fault storm under chaos, on the
    tiered backend, with repair armed (and, on Rio, nothing to repair)."""
    result = run_traffic_campaign(
        TrafficConfig(
            shards=2, clients=6, crashes=1, seed=11, router_mode="hash", jobs=jobs,
            storm="faults", watchdog_budget=20, backend="tiered", repair=True,
            chaos=(
                {"name": "slow_io", "interval": 6, "times": 20},
                {"name": "fail_nth_syscall", "nth": 9, "times": 4},
            ),
            load=LIGHT,
        )
    )
    assert result.ok and result.lost_acks == 0
    for kernel in result.kernels:  # the object store alone rebuilds the image
        assert kernel["remote_audit"]["image_sha256"] == kernel["final_image_sha256"]
    return {
        "cluster_digest": result.cluster_digest,
        "virtual_ns": result.load.wall_virtual_ns,
        "acked": result.load.acked,
        "recoveries": result.recoveries,
        "faults_injected": result.faults_injected,
        "chaos_fires": [kernel["chaos_fires"] for kernel in result.kernels],
        "final_images": [kernel["final_image_sha256"] for kernel in result.kernels],
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
    return {"digest": result.digest, "fires": result.total_fires}


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
        "faults_injected": result.faults_injected,
        "watchdog_fired": result.watchdog_fired,
        "virtual_ns": result.load.wall_virtual_ns,
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
        "lost_acks": result.lost_acks,
        "repaired_acks": result.repaired_acks,
        "final_audit_ok": result.final_audit_ok,
        "virtual_ns": result.load.wall_virtual_ns,
    }


def observe_table1() -> str:
    """Two counted crashes in each of two fault cells on rio_prot."""
    table = run_table1_campaign(
        crashes_per_cell=2,
        systems=("rio_prot",),
        fault_types=(FaultType.KERNEL_TEXT, FaultType.POINTER),
        base_seed=1000,
    )
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
