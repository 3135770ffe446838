"""The file service: sessions, scheduling, admission, crash transparency.

Single-service unit and integration tests; the multi-client crash-storm
campaigns live in test_server_traffic.py.
"""

import pytest

from repro import SystemSpec, build_system
from repro.errors import FileNotFound
from repro.kernel.kernel import BATCH_SYSCALL_OVERHEAD_NS, SYSCALL_OVERHEAD_NS
from repro.server import (
    AckJournal,
    Backpressure,
    FileService,
    QuotaExceeded,
    Request,
    RequestScheduler,
    ServiceConfig,
    SessionError,
)
from repro.server.service import MAX_OPEN_FDS
from repro.server.session import FdState, resolve_path


def rio_system(**overrides):
    return build_system(SystemSpec("rio_prot", **overrides))


def make_service(**config):
    return FileService(rio_system(), ServiceConfig(**config))


def ok(service, request):
    """Submit one request, pump, and return its successful response."""
    rejection = service.submit(request)
    assert rejection is None, rejection
    responses = service.drain()
    assert len(responses) == 1
    assert responses[0].ok, (responses[0].error, responses[0].value)
    return responses[0]


# -- path resolution ----------------------------------------------------


def test_resolve_path_handles_dots_and_root():
    assert resolve_path("/srv/c000", "f1") == "/srv/c000/f1"
    assert resolve_path("/srv/c000", "./d/../f1") == "/srv/c000/f1"
    assert resolve_path("/srv", "/abs/x") == "/abs/x"
    assert resolve_path("/", "../../escape") == "/escape"
    with pytest.raises(SessionError):
        resolve_path("/srv", "")


# -- sessions -----------------------------------------------------------


def test_sessions_get_homes_and_private_fd_spaces():
    service = make_service()
    a = service.open_session(1)
    b = service.open_session(2)
    assert a.home == "/srv/c001" and b.home == "/srv/c002"
    assert service.system.vfs.exists("/srv/c001")

    fd_a = ok(service, Request(client_id=1, req_id=1, op="open", path="f", create=True)).value
    fd_b = ok(service, Request(client_id=2, req_id=1, op="open", path="f", create=True)).value
    ok(service, Request(client_id=1, req_id=2, op="write", fd=fd_a, offset=0, data=b"A"))
    ok(service, Request(client_id=2, req_id=2, op="write", fd=fd_b, offset=0, data=b"B"))
    # Same relative path, different files: the homes isolate the clients.
    assert ok(service, Request(client_id=1, req_id=3, op="read", fd=fd_a, offset=0, length=1)).value == b"A"
    assert ok(service, Request(client_id=2, req_id=3, op="read", fd=fd_b, offset=0, length=1)).value == b"B"


def test_unknown_session_and_unknown_fd_are_fatal():
    service = make_service()
    response = service.submit(Request(client_id=9, req_id=1, op="stat", path="x"))
    assert response is not None and not response.ok and not response.retryable
    assert response.error == "EBADSESSION"

    service.open_session(0)
    service.submit(Request(client_id=0, req_id=1, op="read", fd=77, length=1))
    [response] = service.drain()
    assert not response.ok and response.error == "EBADSESSION"


def test_open_fd_quota():
    service = make_service()
    service.open_session(0)
    for i in range(MAX_OPEN_FDS):
        ok(service, Request(client_id=0, req_id=i + 1, op="open", path=f"f{i}", create=True))
    service.submit(Request(client_id=0, req_id=99, op="open", path="over", create=True))
    [response] = service.drain()
    assert not response.ok and response.error == "EQUOTA" and response.retryable


@pytest.mark.parametrize(
    "request_",
    [
        Request(client_id=0, req_id=2, op="chdir", path="d"),
        Request(client_id=0, req_id=2, op="rmdir", path="d"),
        Request(client_id=0, req_id=2, op="read", fd=3, length=1),
        Request(client_id=0, req_id=2, op="write", fd=3, data=b"x"),
    ],
    ids=["chdir", "rmdir", "read-without-offset", "write-without-offset"],
)
def test_requests_outside_the_protocol_are_refused_unjournaled(request_):
    service = make_service()
    service.open_session(0)
    ok(service, Request(client_id=0, req_id=1, op="mkdir", path="d"))
    assert ok(service, Request(client_id=0, req_id=9, op="open", path="f", create=True)).value == 3
    journaled = len(service.journal.entries)
    service.submit(request_)
    [refused] = service.drain()
    assert not refused.ok and refused.error == "EBADSESSION" and not refused.retryable
    assert len(service.journal.entries) == journaled
    assert service.system.vfs.exists("/srv/c000/d")
    assert service.sessions.get(0).home == "/srv/c000"


# -- scheduler ----------------------------------------------------------


def _req(client, n):
    return Request(client_id=client, req_id=n, op="stat", path="x")


def test_scheduler_backpressure():
    scheduler = RequestScheduler(queue_depth=2)
    scheduler.enqueue(_req(0, 1))
    scheduler.enqueue(_req(0, 2))
    with pytest.raises(Backpressure):
        scheduler.enqueue(_req(0, 3))
    assert scheduler.backlog(0) == 2


def test_scheduler_fairness_and_rotation():
    scheduler = RequestScheduler(queue_depth=64)
    for n in range(8):
        scheduler.enqueue(_req(0, n))
    for n in range(2):
        scheduler.enqueue(_req(1, n))
    batch = scheduler.next_batch(batch_size=6, quantum=2)
    # Deficit round-robin: the heavy client cannot take the whole batch.
    per_client = {cid: sum(1 for r in batch if r.client_id == cid) for cid in (0, 1)}
    assert per_client == {0: 4, 1: 2}
    # The rotation resumes after the last client served.
    scheduler.enqueue(_req(2, 0))
    batch2 = scheduler.next_batch(batch_size=2, quantum=2)
    assert batch2[0].client_id == 2


def test_scheduler_requeue_front_preserves_order():
    scheduler = RequestScheduler()
    for n in range(4):
        scheduler.enqueue(_req(0, n))
    batch = scheduler.next_batch(batch_size=4, quantum=4)
    scheduler.requeue_front(batch[1:])
    replay = scheduler.next_batch(batch_size=4, quantum=4)
    assert [r.req_id for r in replay] == [1, 2, 3]


def test_scheduler_determinism():
    def schedule():
        scheduler = RequestScheduler()
        order = []
        for n in range(30):
            scheduler.enqueue(_req(n % 3, n))
        while True:
            batch = scheduler.next_batch(batch_size=7, quantum=3)
            if not batch:
                return order
            order.extend((r.client_id, r.req_id) for r in batch)

    assert schedule() == schedule()


# -- admission ----------------------------------------------------------


def test_submit_backpressure_is_retryable():
    service = make_service(queue_depth=1)
    service.open_session(0)
    assert service.submit(Request(client_id=0, req_id=1, op="stat", path="x")) is None
    response = service.submit(Request(client_id=0, req_id=2, op="stat", path="x"))
    assert response is not None and response.error == "EAGAIN" and response.retryable
    service.drain()
    assert service.submit(Request(client_id=0, req_id=3, op="stat", path="x")) is None


# -- the ack journal ----------------------------------------------------


def test_journal_model_and_digests():
    journal = AckJournal()
    journal.record(0, 1, "open", "/f")
    journal.record(0, 2, "write", "/f", offset=4, data=b"abcd")
    journal.record(0, 3, "mkdir", "/d")
    journal.record(0, 4, "rename", "/f", new_path="/g")
    journal.record(0, 5, "unlink", "/g")
    assert journal.files == {}
    assert journal.dirs == {"/d"}
    assert journal.absent == {"/f", "/g"}
    assert journal.ack_digest() != journal.state_digest()
    replay = AckJournal()
    replay.record(0, 1, "open", "/f")
    replay.record(0, 2, "write", "/f", offset=4, data=b"abcd")
    replay.record(0, 3, "mkdir", "/d")
    replay.record(0, 4, "rename", "/f", new_path="/g")
    replay.record(0, 5, "unlink", "/g")
    assert replay.ack_digest() == journal.ack_digest()
    assert replay.state_digest() == journal.state_digest()


def test_audit_detects_and_repairs_loss():
    system = rio_system()
    service = FileService(system, ServiceConfig())
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value
    ok(service, Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=b"keep me"))
    assert service.audit().ok

    # Sabotage the file behind the journal's back: the audit must see it.
    system.vfs.unlink("/srv/c000/f")
    report = service.journal.audit(system.vfs)
    assert not report.ok and any("missing" in item for item in report.lost)

    repaired = service.journal.audit(system.vfs, repair=True)
    assert repaired.repaired >= 1
    assert service.journal.audit(system.vfs).ok


# -- crash transparency (single client) ---------------------------------


def test_crash_between_requests_is_transparent():
    service = make_service()
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value
    ok(service, Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=b"pre-crash"))

    system.machine.crash("between pumps", kind="forced")
    service.submit(Request(client_id=0, req_id=3, op="read", fd=fd, offset=0, length=9))
    [response] = service.drain()
    assert response.ok and response.value == b"pre-crash"
    assert service.stats.recoveries == 1
    assert service.stats.lost_acks == 0
    assert service.last_audit is not None and service.last_audit.ok


def test_crash_mid_batch_retries_in_order():
    service = make_service(batch_size=8, quantum=8)
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value

    # Crash while the middle request of a three-request batch executes.
    service.submit(Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=b"one"))
    service.submit(Request(client_id=0, req_id=3, op="write", fd=fd, offset=8, data=b"two"))
    service.submit(Request(client_id=0, req_id=4, op="write", fd=fd, offset=16, data=b"three"))
    state = {"n": 0}

    def storm(_executed):
        state["n"] += 1
        if state["n"] == 2:
            system.machine.crash("mid-batch", kind="forced")

    service.before_execute = storm
    responses = service.pump()
    # The first write acked before the crash; its response is delivered.
    assert [r.req_id for r in responses] == [2] and responses[0].ok
    assert service.stats.transparent_retries == 1
    service.before_execute = None

    # The interrupted request and its successor replay in order.
    responses = service.drain()
    assert [r.req_id for r in responses] == [3, 4]
    assert all(r.ok for r in responses)
    read = ok(service, Request(client_id=0, req_id=5, op="read", fd=fd, offset=16, length=5))
    assert read.value == b"three"
    assert service.stats.lost_acks == 0


def test_crash_mid_pump_requeues_the_dying_request_first():
    service = make_service(batch_size=3, quantum=4)
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value
    for req_id in (2, 3, 4, 5):  # one batch of three, one request left queued
        data = b"w%d" % req_id
        service.submit(Request(client_id=0, req_id=req_id, op="write", fd=fd, offset=0, data=data))
    state = {"n": 0}

    def storm(_executed):
        state["n"] += 1
        if state["n"] == 2:
            system.machine.crash("mid-batch", kind="forced")

    service.before_execute = storm
    system.machine.recorder.start()
    assert [r.req_id for r in service.pump()] == [2]
    service.before_execute = None
    [detected] = [e for e in system.machine.recorder.events() if e.op == "crash-detected"]
    # Still queued (5) plus the requeued remainder (3, 4).
    assert detected.payload["backlog"] == 3
    assert [r.req_id for r in service.drain()] == [3, 4, 5]
    read = ok(service, Request(client_id=0, req_id=6, op="read", fd=fd, offset=0, length=2))
    assert read.value == b"w5"


def crash_at_next_preemption_point(system):
    """Arm a one-shot machine crash at the kernel's next preemption point
    — inside ``UFS.rename`` that is exactly between ``dir_add`` (new name
    in) and ``dir_remove`` (old name out)."""
    kernel, original = system.kernel, system.kernel.preemption_point

    def crash_once():
        kernel.preemption_point = original
        system.machine.crash("mid-rename", kind="forced")
        original()

    kernel.preemption_point = crash_once


def test_rename_interrupted_between_its_two_dirents_is_finished_by_the_retry():
    service = make_service()
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f0", create=True)).value
    ok(service, Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=b"payload"))
    ok(service, Request(client_id=0, req_id=3, op="close", fd=fd))

    crash_at_next_preemption_point(system)
    # One transparent retry: the client sees a single ok response.
    ok(service, Request(client_id=0, req_id=4, op="rename", path="f0", new_path="r0"))
    assert service.stats.transparent_retries == 1 and service.stats.recoveries == 1

    vfs = system.vfs
    assert not vfs.exists("/srv/c000/f0"), "acknowledged rename left the old name behind"
    assert vfs.stat("/srv/c000/r0").nlink == 1
    fd = ok(service, Request(client_id=0, req_id=5, op="open", path="r0")).value
    read = ok(service, Request(client_id=0, req_id=6, op="read", fd=fd, offset=0, length=7))
    assert read.value == b"payload"
    assert service.audit().ok and service.stats.lost_acks == 0


def test_interrupted_directory_rename_fails_honestly_instead_of_acking():
    # POSIX has no call that drops one name of a directory, so the retry
    # cannot finish this one; what it must not do is acknowledge it.
    service = make_service()
    service.open_session(0)
    ok(service, Request(client_id=0, req_id=1, op="mkdir", path="d0"))
    crash_at_next_preemption_point(service.system)
    service.submit(Request(client_id=0, req_id=2, op="rename", path="d0", new_path="d1"))
    [response] = service.drain()
    assert not response.ok and response.error == "EISDIR"
    assert service.system.vfs.exists("/srv/c000/d0")
    assert service.audit().ok


def _renamed_directory_with_an_open_file(service):
    """``mkdir d; open d/f (create); write; mkdir d/sub; rename d e`` —
    all acknowledged; returns the still-open fd."""
    service.open_session(1)
    ok(service, Request(client_id=1, req_id=1, op="mkdir", path="d"))
    fd = ok(service, Request(client_id=1, req_id=2, op="open", path="d/f", create=True)).value
    ok(service, Request(client_id=1, req_id=3, op="write", fd=fd, offset=0, data=b"moved"))
    ok(service, Request(client_id=1, req_id=4, op="mkdir", path="d/sub"))
    ok(service, Request(client_id=1, req_id=5, op="rename", path="d", new_path="e"))
    return fd


def test_directory_rename_moves_everything_under_it_in_the_promise_ledger():
    service = make_service()
    _renamed_directory_with_an_open_file(service)
    journal = service.journal
    assert {"/srv/c001/e", "/srv/c001/e/sub"} <= journal.dirs
    assert bytes(journal.files["/srv/c001/e/f"]) == b"moved"
    assert not any(p.startswith("/srv/c001/d") for p in [*journal.files, *journal.dirs])
    # Only the old name itself is promised absent; nothing is promised
    # about paths under a directory that no longer exists.
    assert {p for p in journal.absent if p.startswith("/srv/c001/")} == {"/srv/c001/d"}
    audit = service.audit()
    assert audit.ok and audit.lost == []


def test_open_fd_under_a_renamed_directory_rebinds_after_a_crash():
    service = make_service()
    fd = _renamed_directory_with_an_open_file(service)
    assert service.sessions.get(1).fds[fd].path == "/srv/c001/e/f"

    service.system.machine.crash("after the directory rename", kind="forced")
    read = ok(service, Request(client_id=1, req_id=6, op="read", fd=fd, offset=0, length=5))
    assert read.value == b"moved"
    session = service.sessions.get(1)
    assert session.rebinds == 1 and session.rebind_failures == 0
    assert service.stats.recoveries == 1 and service.stats.lost_acks == 0
    audit = service.audit()
    assert audit.ok and audit.lost == []


def test_journal_rename_replaces_the_destination_and_rekeys_absences():
    journal = AckJournal()
    journal.record(0, 1, "mkdir", "/a")
    journal.record(0, 2, "write", "/a/x", offset=0, data=b"x")
    journal.record(0, 3, "write", "/a/y", offset=0, data=b"y")
    journal.record(0, 4, "unlink", "/a/y")
    journal.record(0, 5, "write", "/ab", offset=0, data=b"sibling")
    journal.record(0, 6, "unlink", "/b/x")  # a promise under the new name
    journal.record(0, 7, "rename", "/a", new_path="/b")
    assert journal.dirs == {"/b"}
    # "/ab" shares the prefix "/a" but is not under "/a/": it stays.
    assert {p: bytes(c) for p, c in journal.files.items()} == {"/b/x": b"x", "/ab": b"sibling"}
    assert journal.absent == {"/a", "/b/y"}
    # A file renamed over another takes its place, whatever the dict order.
    journal.record(0, 8, "rename", "/ab", new_path="/b/x")
    assert {p: bytes(c) for p, c in journal.files.items()} == {"/b/x": b"sibling"}
    journal.record(0, 9, "write", "/c", offset=0, data=b"c")
    journal.record(0, 10, "rename", "/b/x", new_path="/c")
    assert {p: bytes(c) for p, c in journal.files.items()} == {"/c": b"sibling"}


def test_rebind_restores_offsets_across_crash():
    service = make_service()
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value
    ok(service, Request(client_id=0, req_id=2, op="write", fd=fd, offset=0, data=b"12345"))

    system.machine.crash("offsets", kind="forced")
    # The rebound fd takes the next positional write where it says.
    service.submit(Request(client_id=0, req_id=3, op="write", fd=fd, offset=5, data=b"678"))
    [w] = service.drain()
    assert w.ok
    read = ok(service, Request(client_id=0, req_id=4, op="read", fd=fd, offset=0, length=8))
    assert read.value == b"12345678"
    session = service.sessions.get(0)
    assert session.rebinds >= 1 and session.rebind_failures == 0


def test_stale_fd_after_lossy_recovery():
    # On a delayed-write disk system a file created just before the
    # crash is gone afterwards; its fd must go stale, not silently
    # point at air.
    service = FileService(build_system(SystemSpec("ufs_delayed")), ServiceConfig())
    system = service.system
    service.open_session(0)
    fd = ok(service, Request(client_id=0, req_id=1, op="open", path="f", create=True)).value
    system.machine.crash("lossy", kind="forced")
    service.submit(Request(client_id=0, req_id=2, op="read", fd=fd, offset=0, length=1))
    [response] = service.drain()
    assert not response.ok and response.error == "EBADSESSION"
    assert service.sessions.get(0).fds[fd].stale
    assert service.sessions.get(0).fds[fd].backing_fd == FdState.STALE
    # Only close still works on it, and gives the quota slot back.
    ok(service, Request(client_id=0, req_id=3, op="close", fd=fd))
    assert service.sessions.get(0).fds == {}


# -- batched syscalls ---------------------------------------------------


def test_vfs_batch_prices_prologue_once():
    system = rio_system()
    vfs, kernel = system.vfs, system.kernel

    fd = vfs.open("/f", create=True)
    start = system.clock.now_ns
    vfs.pwrite(fd, b"x", 0)
    single = system.clock.now_ns - start
    assert kernel.stat_batched_syscalls == 0

    start = system.clock.now_ns
    with vfs.batch():
        for i in range(8):
            vfs.pwrite(fd, b"x", i)
    batched = system.clock.now_ns - start
    assert kernel.stat_batched_syscalls == 7
    # Eight batched writes must cost far less than eight unbatched ones.
    assert batched < 8 * single
    assert batched >= SYSCALL_OVERHEAD_NS + 7 * BATCH_SYSCALL_OVERHEAD_NS


def test_vfs_batch_error_propagates_and_closes_the_scope():
    system = rio_system()
    vfs, kernel = system.vfs, system.kernel
    with pytest.raises(FileNotFound):
        with vfs.batch():
            vfs.mkdir("/d")
            vfs.readdir("/nope")
    assert kernel.stat_batched_syscalls == 1
    assert vfs.exists("/d")  # the scope is closed: a full-price syscall again
    assert kernel.stat_batched_syscalls == 1


def test_quota_error_importable_and_typed():
    assert issubclass(QuotaExceeded, Backpressure.__mro__[1])
    assert QuotaExceeded.retryable and QuotaExceeded.code == "EQUOTA"
