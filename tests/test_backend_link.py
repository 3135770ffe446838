"""The object-store link: posted writes, FIFO landing, crash severing.

``LocalBackend`` gives every store the disk's request model — a link with
its own busy-until timeline, waited requests that stop the machine until
they complete, posted writes that return at once, land later and vanish
if the machine dies first.  The reference model below restates it
independently as the issue put it: a list of ``(completion_ns, op)``
applied in order up to the crash instant.  Random programs run against
both; the blob map, ``link_free_ns``, the clock and every
``BackendStats`` field must agree after every step.

The second half drives posted writes through a whole system: a crash at
every landing instant of one posted batch (and 1 ns before it) must
leave the remote tier at exactly that prefix of the issued stream, and
the reboot must reconcile it — the exhaustive coverage ``repro explore
--backend`` gives waited puts, restated for posted ones.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import (
    BackendOutage,
    BackendStats,
    ObjectStoreBackend,
    TransientBackendError,
)
from repro.backend.audit import remote_recovery_audit
from repro.backend.objectstore import BANDWIDTH_BYTES_PER_SEC, JITTER_NS, LATENCY_NS
from repro.faults.capabilities import ChaosRegistry
from repro.hw.clock import NS_PER_SEC, Clock
from repro.reliability.campaign import system_spec_for
from repro.server import AckJournal, CrashPoints, FileService, LoadClient, LoadSpec, run_load
from repro.system import build_system
from repro.util.prng import DeterministicRandom


class LinkModel:
    """Reference model: every write ever issued as ``(completion_ns, key,
    data or None)``; a crash keeps the entries that completed by then."""

    def __init__(self, seed: int, chaos: ChaosRegistry | None, clock: Clock) -> None:
        self.chaos, self.clock = chaos, clock
        self.rng = DeterministicRandom(seed ^ 0x0B15C0DE)
        self.base: dict[str, bytes] = {}
        self.log: list[tuple[int, str, bytes | None]] = []
        self.link_free_ns, self.down, self.stats = 0, False, BackendStats()

    def blobs(self) -> dict[str, bytes]:
        out = dict(self.base)
        for _, key, data in self.log:
            if data is None:
                out.pop(key, None)
            else:
                out[key] = data
        return out

    def _issue(self, nbytes: int, wait: bool) -> int:
        stats = self.stats
        if self.down:
            stats.outage_rejections += 1
            raise BackendOutage("down")
        if self.chaos is not None and self.chaos.should_fail("backend_fail"):
            stats.transient_errors += 1
            raise TransientBackendError("chaos")
        service = LATENCY_NS + self.rng.randrange(JITTER_NS)
        if nbytes:
            service += nbytes * NS_PER_SEC // BANDWIDTH_BYTES_PER_SEC
        now = self.clock.now_ns
        done = self.link_free_ns = max(now, self.link_free_ns) + service
        stats.service_ns += service
        if wait:
            stats.waited_ns += done - now
            self.clock.advance_to(done)
        else:
            stats.posted_writes += 1
        return done

    def put(self, key: str, data: bytes, *, sync: bool = True) -> None:
        self.stats.puts += 1
        self.stats.bytes_in += len(data)
        self.log.append((self._issue(len(data), sync), key, data))

    def delete(self, key: str, *, sync: bool = True) -> None:
        self.stats.deletes += 1
        self.log.append((self._issue(0, sync), key, None))

    def get(self, key: str) -> bytes:
        self.stats.gets += 1
        blob = self.blobs().get(key)
        self._issue(len(blob) if blob is not None else 0, True)
        if blob is None:
            raise KeyError(key)
        self.stats.bytes_out += len(blob)
        return blob

    def list(self, prefix: str = "") -> list[str]:
        self.stats.lists += 1
        self._issue(0, True)
        return sorted(k for k in self.blobs() if k.startswith(prefix))

    def drain(self) -> None:
        self.stats.waited_ns += max(0, self.link_free_ns - self.clock.now_ns)
        self.clock.advance_to(self.link_free_ns)

    def set_down(self, down: bool) -> None:
        self.down = down

    def sever(self, crash_ns: int) -> int:
        issued = len(self.log)
        self.log = [entry for entry in self.log if entry[0] <= crash_ns]
        severed = issued - len(self.log)
        self.base, self.log = self.blobs(), []
        self.link_free_ns = min(self.link_free_ns, crash_ns)
        self.stats.severed_writes += severed
        return severed

    def in_flight(self) -> list[int]:
        """Completion instants of the writes that have not landed yet."""
        return [done for done, _, _ in self.log if done > self.clock.now_ns]


def failing(seed: int, fail_pct: int) -> ChaosRegistry | None:
    """A registry arming ``backend_fail`` at ``fail_pct`` percent (None
    at 0); two calls with one seed take the same decisions."""
    if not fail_pct:
        return None
    chaos = ChaosRegistry(seed)
    chaos.enable("backend_fail", probability=fail_pct)
    return chaos


def make_pair(seed: int = 4, fail_pct: int = 0):
    """The store and the model, each failing through its own twin registry."""
    real = ObjectStoreBackend(seed=seed, clock=Clock())
    real.chaos = failing(seed, fail_pct)
    return real, LinkModel(seed, failing(seed, fail_pct), Clock())


def assert_same(real: ObjectStoreBackend, model: LinkModel) -> None:
    assert real._blobs == model.blobs()
    assert real.link_free_ns == model.link_free_ns
    assert real._clock.now_ns == model.clock.now_ns
    assert real.stats == model.stats


def both(real, model, call):
    """Apply ``call`` to both; they must return the same or raise alike."""
    outcomes = []
    for link in (real, model):
        try:
            outcomes.append(("ok", call(link)))
        except (KeyError, TransientBackendError) as exc:
            outcomes.append(("raised", type(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# -- (a) random programs against the reference model ---------------------------

KEYS = [f"{ns}/{i}" for ns in ("obj", "map") for i in range(4)]
key_st = st.sampled_from(KEYS)
step_st = st.one_of(
    st.tuples(st.just("put"), key_st, st.integers(0, 20_000), st.booleans()),
    st.tuples(st.just("delete"), key_st, st.booleans()),
    st.tuples(st.just("get"), key_st),
    st.tuples(st.just("list"), st.sampled_from(["", "obj/", "map/"])),
    # Mostly inside one round trip, sometimes past a whole queue.
    st.tuples(st.just("advance"), st.one_of(st.integers(0, 3_000_000), st.integers(0, 10**8))),
    st.tuples(st.just("drain")),
    st.tuples(st.just("down"), st.booleans()),
    # Crash now, or at the instant the k-th write in flight lands / 1 ns before.
    st.tuples(st.just("crash"), st.one_of(st.none(), st.integers(0, 12)), st.booleans()),
)


@given(
    program=st.lists(step_st, min_size=1, max_size=50),
    fail_pct=st.sampled_from([0, 0, 25]),
)
@settings(max_examples=200, deadline=None)
def test_link_matches_landing_list_model(program, fail_pct):
    real, model = make_pair(fail_pct=fail_pct)
    for step in program:
        op = step[0]
        if op == "put":
            data = bytes([step[2] & 0xFF]) * step[2]
            both(real, model, lambda link: link.put(step[1], data, sync=step[3]))
        elif op == "delete":
            both(real, model, lambda link: link.delete(step[1], sync=step[2]))
        elif op in ("get", "list"):
            both(real, model, lambda link: getattr(link, op)(step[1]))
        elif op == "advance":
            real._clock.consume(step[1])
            model.clock.consume(step[1])
        elif op == "drain":
            real.drain()
            model.drain()
        elif op == "down":
            real.set_down(step[1])
            model.set_down(step[1])
        else:
            flying = model.in_flight()
            if step[1] is not None and flying:
                at = flying[step[1] % len(flying)] - step[2]
                real._clock.advance_to(at)
                model.clock.advance_to(at)
            assert real.sever(real._clock.now_ns) == model.sever(model.clock.now_ns)
        assert_same(real, model)


# -- (b)-(d) explicit cases on the link ------------------------------------------


def test_waited_request_on_an_idle_link_costs_its_service_time():
    """The values ``clock.consume(service)`` charged on the parent commit."""
    real, _ = make_pair(seed=4)
    clock, costs = real._clock, []
    for call in (
        lambda: real.put("obj/x", b"y" * 8192),
        lambda: real.get("obj/x"),
        lambda: real.list("obj/"),
        lambda: real.delete("obj/x"),
        lambda: real.put("map/1", b"z" * 64),
    ):
        before = clock.now_ns
        call()
        costs.append(clock.now_ns - before)
    assert costs == [2445615, 2573691, 2382031, 2204389, 2176592]
    assert real.stats.service_ns == real.stats.waited_ns == clock.now_ns == 11782318
    assert real.stats.posted_writes == 0 and real.link_free_ns == clock.now_ns


def test_read_behind_posted_writes_waits_for_them_and_sees_them():
    real, _ = make_pair()
    clock = real._clock
    real.put("obj/a", b"old")
    start = clock.now_ns
    real.put("obj/a", b"new" * 1000, sync=False)
    real.put("map/1", b"a", sync=False)
    real.delete("obj/gone", sync=False)
    assert clock.now_ns == start  # posted: nobody waited
    queued_until = real.link_free_ns
    assert queued_until > start + 3 * LATENCY_NS
    assert real.get("obj/a") == b"new" * 1000
    # The read started only when the last posted write had landed...
    assert clock.now_ns == real.link_free_ns > queued_until + LATENCY_NS
    assert real.stats.waited_ns == clock.now_ns  # ...and the machine with it
    # ...so a crash now severs nothing.
    assert real.sever(clock.now_ns) == 0
    assert real.list() == ["map/1", "obj/a"]


def test_admission_is_decided_when_a_request_is_issued():
    real, _ = make_pair()
    clock = real._clock
    real.fail_for(10_000_000)
    for sync in (True, False):
        with pytest.raises(BackendOutage):
            real.put("obj/x", b"y", sync=sync)
    # A rejected request takes no link time.
    assert real.link_free_ns == 0 and real.stats.service_ns == 0
    assert real.stats.outage_rejections == 2 and not real._blobs
    clock.consume(10_000_001)
    for i in range(8):  # well past 10 ms of queued link time
        real.put(f"obj/{i}", b"y" * 8192, sync=False)
    real.fail_for(5_000_000)
    # Issued inside the window: rejected, although the link would not
    # have started it until long after the window closed.
    assert real.link_free_ns > clock.now_ns + 5_000_000
    with pytest.raises(BackendOutage):
        real.put("obj/late", b"y", sync=False)
    clock.consume(5_000_001)
    # Issued after it: accepted, although the link is still busy.
    assert real.link_free_ns > clock.now_ns
    real.put("obj/late", b"y", sync=False)
    assert "obj/late" in real._blobs


#: Which of 40 puts fail at ``seed=9`` under ``backend_fail`` armed at
#: 30 percent on a ``ChaosRegistry(9)`` — recorded before the store lost
#: its own seeded-failure knob; posting must not move a single draw.
SEED_9_FAILURES = [1, 5, 7, 8, 9, 10, 12, 13, 14, 15, 21, 28, 33, 34, 35, 39]


@pytest.mark.parametrize("sync", [True, False])
def test_seeded_draws_do_not_depend_on_who_waits(sync):
    real, _ = make_pair(seed=9, fail_pct=30)
    failed, before = [], 0
    for i in range(40):
        try:
            real.put(f"obj/{i}", b"data", sync=sync)
        except TransientBackendError:
            failed.append(i)
            assert real.stats.service_ns == before  # no link time taken
        before = real.stats.service_ns
    assert failed == SEED_9_FAILURES
    assert real.stats.service_ns == 53_903_378  # jitter draws: the recorded sum


# -- (e)-(f) posted batches through a whole system -------------------------------


def _system(seed: int = 1):
    return build_system(
        system_spec_for("disk", fs_blocks=128, backend="tiered", backend_seed=seed)
    )


def _post_one_batch():
    """A ``disk`` + ``tiered`` system with one threshold batch just posted.

    Returns ``(system, base, issued)``: the remote blob map before the
    batch and the batch's writes as ``(completion_ns, key, data or
    None)``, in issue order, taken from the public verbs.
    """
    system = _system()
    store, remote = system.backing, system.backing.remote

    def rewrite(fill):
        for i in range(3):
            fd = system.vfs.open(f"/f{i}", create=True)
            system.vfs.write(fd, bytes([fill(i)]) * 9000)
            system.vfs.close(fd)
        system.fs.flush_data(sync=True)
        system.fs.flush_metadata(sync=True)
        system.drain_disks()

    store.config = replace(store.config, dirty_threshold=10**9)  # hold the queue
    rewrite(lambda i: i + 1)
    store.drain_uploads()  # a waited baseline for the batch to overwrite
    rewrite(lambda i: 9)  # same bytes in every file: dedup, shared refcounts
    store.config = replace(store.config, dirty_threshold=len(store.dirty_blocks()))
    issued, base = [], dict(remote._blobs)
    put, delete = remote.put, remote.delete

    def tapped_put(key, data, *, sync=True):
        put(key, data, sync=sync)
        issued.append((remote.link_free_ns, key, bytes(data)))

    def tapped_delete(key, *, sync=True):
        delete(key, sync=sync)
        issued.append((remote.link_free_ns, key, None))

    remote.put, remote.delete = tapped_put, tapped_delete
    now = system.clock.now_ns
    store.note_flush(store.dirty_blocks()[-1])  # the flush that tips the threshold
    del remote.put, remote.delete
    assert system.clock.now_ns == now and not store.dirty_blocks()
    assert len(issued) == remote.stats.posted_writes >= 12
    kinds = {(key[:4], data is None) for _, key, data in issued}
    assert kinds == {(ns, gone) for ns in ("obj/", "ref/") for gone in (0, 1)} | {("map/", False)}
    assert [done for done, _, _ in issued] == sorted({done for done, _, _ in issued})
    return system, base, issued


def _short(blobs):
    """Blob map with contents hashed, so a mismatch prints readably."""
    return {key: hashlib.sha256(data).hexdigest()[:12] for key, data in blobs.items()}


def _prefix(base, issued, k):
    blobs = dict(base)
    for _, key, data in issued[:k]:
        if data is None:
            blobs.pop(key, None)
        else:
            blobs[key] = data
    return _short(blobs)


def _crash_and_reboot(system, at_ns):
    """Crash at ``at_ns``; returns the remote blob map as recovery found
    it (after the sever, before the reconcile) and the reboot report."""
    store, found = system.backing, []
    on_machine_crash = store.on_machine_crash

    def spy(crash_ns):
        on_machine_crash(crash_ns)
        found.append(_short(store.remote._blobs))

    store.on_machine_crash = spy
    system.clock.advance_to(at_ns)
    system.crash("landing sweep")
    report = system.reboot()
    del store.on_machine_crash
    return found[0], report


def test_crash_at_every_landing_instant_leaves_that_prefix():
    """Crash when the k-th posted write has just landed, and 1 ns before
    (k = 0: before anything has), for every k.  Remote must be exactly
    the k-prefix (the (k-1)-prefix a nanosecond earlier) and the reboot
    must reconcile it: the remote tier alone then reproduces the disk."""
    n = len(_post_one_batch()[2])
    for k, early in [(0, 0)] + [(k, early) for k in range(1, n + 1) for early in (0, 1)]:
        system, base, issued = _post_one_batch()
        at_ns = issued[k - 1][0] - early if k else system.clock.now_ns
        found, report = _crash_and_reboot(system, at_ns)
        store = system.backing
        assert found == _prefix(base, issued, k - early), (k, early)
        assert store.remote.stats.severed_writes == n - (k - early)
        assert report.remote.ok and not report.remote.deferred
        if early:
            continue  # the remote state of k - 1 at its own landing instant
        check = remote_recovery_audit(system, AckJournal())
        assert check.ok, (k, check.to_json_dict())
        assert check.image_sha256 == store.local_image_sha256()


def test_sever_uses_the_crash_instant_not_the_reboot_instant():
    """``Machine.reset`` spends 30 virtual s before recovery looks at the
    store — by which time every posted write *would* have landed."""
    system, base, issued = _post_one_batch()
    crash_ns = system.clock.now_ns
    assert crash_ns < issued[0][0]
    found, _ = _crash_and_reboot(system, crash_ns)
    assert system.clock.now_ns - crash_ns >= 30 * NS_PER_SEC > issued[-1][0] - crash_ns
    assert found == _short(base)
    assert system.backing.remote.stats.severed_writes == len(issued)


@pytest.mark.parametrize("seed", [3, 21])
def test_crash_storm_on_disk_tiered_reconciles_every_recovery(seed):
    """Crashes mid-traffic sever posted uploads; every recovery must
    reconcile, and the remote tier may lose only what the local disk
    lost too (the ``disk`` policy legitimately loses unflushed acks)."""
    system = _system(seed)
    service = FileService(system)
    clients = [
        LoadClient(i, seed=seed, spec=LoadSpec(ops_per_client=30)) for i in range(6)
    ]
    service.before_execute = CrashPoints(system, [55, 110, 165, 220])
    reconciles = []
    system.add_reboot_hook(lambda _system, report: reconciles.append(report.remote))
    run_load(service, clients)
    assert len(reconciles) == 4 and all(r.ok for r in reconciles)
    link = system.backing.remote.stats
    assert link.posted_writes > 0 and link.waited_ns < link.service_ns
    local_lost = set(service.audit().lost)
    check = remote_recovery_audit(system, service.journal)
    assert check.reconcile.ok and check.divergence.agreed and check.error is None
    assert set(check.lost) <= local_lost
    assert check.image_sha256 == system.backing.local_image_sha256()
    assert hashlib.sha256(bytes(system.backing.materialize())).hexdigest() == check.image_sha256
