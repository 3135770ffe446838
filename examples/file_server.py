#!/usr/bin/env python3
"""The paper's departmental file server, on ``repro.server``.

Section 7: "we have installed a departmental file server using the Rio
file cache with protection and with reliability-induced writes to disk
turned off.  Among other things, this file server stores our kernel
source tree, this paper, and the authors' mail."

Here that server is the real subsystem: three clients — the mail
spooler, a developer editing the source tree, and the authors revising
the paper — open sessions against a :class:`repro.server.FileService`
and push requests through admission, scheduling, and batched execution.
Twice during the day the kernel crashes mid-traffic.  The service
warm-reboots, re-binds every session's descriptors, audits its
acknowledged-write journal against the restored cache, and resumes the
very request it died inside — the clients never see the crash.

Run:  python examples/file_server.py
"""

from repro import SystemSpec, build_system
from repro.server import FileService, Request, ServiceConfig
from repro.util.prng import pattern_bytes

MAIL, SRC, PAPERS = 0, 1, 2


class Client:
    """A thin wrapper: one session, synchronous request/response."""

    def __init__(self, service: FileService, client_id: int) -> None:
        self.service = service
        self.client_id = client_id
        self._req_id = 0
        service.open_session(client_id)

    def call(self, op: str, **kwargs):
        self._req_id += 1
        request = Request(
            client_id=self.client_id, req_id=self._req_id, op=op, **kwargs
        )
        rejection = self.service.submit(request)
        assert rejection is None, rejection
        responses = self.service.drain()
        mine = [r for r in responses if r.req_id == self._req_id]
        assert mine and mine[0].ok, (op, mine)
        return mine[0].value


def main() -> None:
    system = build_system(SystemSpec("rio_prot", fs_blocks=1024))
    service = FileService(system, ServiceConfig())
    mail = Client(service, MAIL)
    src = Client(service, SRC)
    papers = Client(service, PAPERS)

    print("== Departmental file server on repro.server (Rio, protection on) ==")

    # The paper lives in the papers session's home; open it once and
    # keep the descriptor across the whole day — crashes included.
    paper_fd = papers.call("open", path="rio.tex", create=True)
    papers.call("write", fd=paper_fd, offset=0, data=b"\\title{The Rio File Cache}\n")

    delivered = 0
    edits = 0
    revision = 0

    def busy_hour(events: int) -> None:
        nonlocal delivered, edits, revision
        for _ in range(events):
            fd = mail.call("open", path=f"msg{delivered:04d}", create=True)
            mail.call("write", fd=fd, offset=0,
                      data=pattern_bytes(0xA1A1 + delivered, 0, 600))
            mail.call("fsync", fd=fd)  # the MTA insists; on Rio this is free
            mail.call("close", fd=fd)
            delivered += 1

            fd = src.call("open", path=f"file{edits % 8}.c", create=True)
            src.call("write", fd=fd, offset=512 * (edits % 16),
                     data=pattern_bytes(0x50DA + edits, 0, 512))
            src.call("close", fd=fd)
            edits += 1

            revision += 1
            papers.call("write", fd=paper_fd, offset=64 * revision,
                        data=f"% revision {revision}\n".encode())

    for crash_no in (1, 2):
        busy_hour(12)
        print(
            f"  [{crash_no}] {delivered} mails, {edits} edits, "
            f"rev {revision} of the paper — and then the kernel crashed"
        )
        system.machine.crash(f"crash #{crash_no} of the day", kind="panic")
        # The next request finds the machine down; the service recovers
        # in line: warm reboot, session re-bind, journal audit.
        busy_hour(4)
        audit = service.last_audit
        print(
            f"      recovered: sessions re-bound, audit over "
            f"{audit.files_checked} files, lost acks: {len(audit.lost)}"
        )

    # End of day: the paper descriptor opened this morning still works.
    tail = papers.call("read", fd=paper_fd, offset=64 * revision,
                       length=len(f"% revision {revision}\n"))
    assert tail == f"% revision {revision}\n".encode()

    final = service.audit()
    print()
    print(f"end-of-day audit: {final.files_checked} files checked, "
          f"{len(final.lost)} acknowledged operations lost")
    print(f"(served {service.stats.acked} acks through "
          f"{service.stats.recoveries} crashes; "
          f"{service.stats.transparent_retries} requests replayed transparently)")
    assert final.ok
    assert service.stats.recoveries == 2


if __name__ == "__main__":
    main()
