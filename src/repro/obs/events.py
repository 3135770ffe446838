"""The flight recorder: a bounded structured event stream.

Every causally interesting point in the stack — fault injection,
protection traps, MMU toggles, syscall entry/exit, cache writes,
writeback, registry updates, panics, warm-reboot phases — emits an
:class:`Event` into the machine's :class:`FlightRecorder`.  The
recorder is disabled by default and designed so the disabled case costs
one attribute load and one truth test at each emission site (and
*nothing* in the interpreter hot loop, which never consults it):

    rec = self.recorder
    if rec is not None and rec.enabled:
        rec.emit("trap", "protection", address=vaddr)

Events carry only engine-independent facts.  Payloads must be plain
JSON values and must never include live bus statistics (the hot-path
engine settles its fetch counters in batches, so mid-call counter reads
would diverge between engines); page-content checksums are fine and are
exactly what lets forensics see *data* divergence.  Virtual time
(``vtime``) comes from the machine clock, which both engines advance
identically.

The ring is a ``collections.deque(maxlen=cap)``: appends are O(1) and
old events fall off the front once ``cap`` is reached; ``dropped``
counts how many were lost.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

#: Default ring capacity.  A fault trial emits a few thousand events;
#: 64k leaves generous headroom without unbounded memory growth.
DEFAULT_EVENT_CAP = 65536

#: The crash-point boundary taxonomy: every ``(kind, op)`` whose
#: emission marks a store/flush/shadow-flip/registry/ack synchronization
#: point the crash-point explorer must crash at.  Each of these events
#: is emitted *before* (or atomically around) the state change it
#: names, so "crash at boundary N" means "the machine dies the instant
#: event N is recorded, before the store it announces lands":
#:
#: * ``cache/write``   — a file-cache page store (emitted pre-copy);
#: * ``cache/fill``    — a cache fill from disk;
#: * ``wb/flush``      — a writeback flush (emitted pre-disk-write);
#: * ``shadow/begin-write`` / ``shadow/end-write`` — the Rio guard's
#:   shadow-page flip around an in-place metadata write;
#: * ``registry/update`` — a registry-entry store (emitted pre-store);
#: * ``server/ack``    — the file service acknowledging a request (the
#:   durability promise the crash-consistency spec holds it to);
#: * ``backend/upload`` — the tiered store starting one block's upload
#:   transaction (emitted before the blob put);
#: * ``backend/commit`` — the upload's map flip (emitted before the map
#:   put, so a crash here strands at worst an orphan blob).
#:
#: Boundary identity is the event's ``seq`` — stable across re-runs
#: because both execution engines emit byte-identical streams.
BOUNDARY_EVENT_KEYS = (
    ("cache", "write"),
    ("cache", "fill"),
    ("wb", "flush"),
    ("shadow", "begin-write"),
    ("shadow", "end-write"),
    ("registry", "update"),
    ("server", "ack"),
    ("backend", "upload"),
    ("backend", "commit"),
)

_BOUNDARY_SET = frozenset(BOUNDARY_EVENT_KEYS)


def is_boundary(kind: str, op: str) -> bool:
    """True when ``(kind, op)`` is a crash-point boundary event."""
    return (kind, op) in _BOUNDARY_SET

#: The event taxonomy (the ``kind`` axis).  Documented in
#: INTERNALS.md "Observability"; kept here so tools can validate.
EVENT_KINDS = (
    "trial",     # campaign milestones: injection point reached
    "fault",     # injector activity: flips applied, armed hooks firing
    "trap",      # protection / machine-check traps out of the MMU or checker
    "mmu",       # KSEG-through-TLB and page/frame writability toggles
    "prot",      # protection-manager installs and write windows
    "crash",     # kernel go_down: kind, reason, panic_code
    "syscall",   # VFS entry/exit
    "cache",     # file-cache page writes and fills
    "wb",        # writeback: page flushes, fsync, policy-triggered flushes
    "shadow",    # Rio guard shadow-page flips around in-place writes
    "registry",  # registry entry updates
    "reboot",    # warm-reboot phases: dump, audit, metadata/UBC restore
    "server",    # file service: session opens, acks, rejects, crash
                 # detection, session rebinds, recovery audits
    "backend",   # tiered backing store: block uploads and map commits
)


class Event(NamedTuple):
    """One flight-recorder record.

    ``seq`` is a monotone per-recorder sequence number (survives ring
    eviction, so ``events[0].seq == dropped`` once the ring wraps),
    ``kind`` is one of :data:`EVENT_KINDS`, ``op`` a short operation
    label within the kind (syscall name, fault type, trap flavour,
    reboot phase), ``vtime`` the machine clock in ns, and ``payload`` a
    small JSON-serializable dict of engine-independent facts.
    """

    seq: int
    kind: str
    op: str
    vtime: int
    payload: Dict[str, Any]

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "op": self.op,
            "vtime": self.vtime,
            "payload": self.payload,
        }


def events_digest(events: Iterable[Dict[str, Any]]) -> str:
    """sha256 over the canonical JSON encoding of serialized events.

    Canonical: one compact, key-sorted JSON object per event, newline
    separated — byte-identical streams have identical digests, which is
    what the differential suite asserts across execution engines.
    """
    h = hashlib.sha256()
    for ev in events:
        h.update(json.dumps(ev, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


class FlightRecorder:
    """Bounded, low-overhead event stream for one machine.

    Created by :class:`repro.hw.Machine` and attached to the MMU and
    the memory bus (re-attached across :meth:`Machine.reset`, so one
    recorder spans a crash and the warm reboot that follows).  Disabled
    by default; ``start()`` clears the ring and begins recording.
    """

    def __init__(self, clock=None, cap: int = DEFAULT_EVENT_CAP) -> None:
        if cap <= 0:
            raise ValueError(f"FlightRecorder cap must be positive, got {cap}")
        self._clock = clock
        self.cap = cap
        self.enabled = False
        self._events: deque = deque(maxlen=cap)
        self._seq = 0
        self._crash_seq: Optional[int] = None
        self._crash_hook = None
        #: Constant key/values merged into every event's payload —
        #: e.g. the cluster sets ``{"shard": shard_id}`` so merged
        #: multi-shard streams stay attributable.  Empty costs nothing.
        self.static_tags: Dict[str, Any] = {}

    # -- lifecycle -----------------------------------------------------

    def start(self, cap: Optional[int] = None) -> None:
        """Clear the ring and begin recording (optionally resizing)."""
        if cap is not None:
            if cap <= 0:
                raise ValueError(f"FlightRecorder cap must be positive, got {cap}")
            self.cap = cap
            self._events = deque(maxlen=cap)
        self.clear()
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._events.clear()
        self._seq = 0

    # -- armed crash points --------------------------------------------

    def arm_crash(self, seq: int, hook) -> None:
        """Arm a one-shot crash point at event sequence number ``seq``.

        The instant the event with that ``seq`` is appended —
        *before* the store/flush/flip it announces takes effect —
        ``hook(event)`` runs with the crash point already disarmed.
        The crash-point explorer's hook brings the machine down (by
        raising a :class:`~repro.errors.SystemCrash` out of the
        emitting call site), turning every recorded boundary into a
        reachable, deterministic crash.  Because both execution
        engines emit byte-identical streams, the event at ``seq`` in a
        re-run is exactly the event at ``seq`` in the enumeration run.
        """
        if seq < 0:
            raise ValueError(f"crash seq must be non-negative, got {seq}")
        self._crash_seq = seq
        self._crash_hook = hook

    def disarm_crash(self) -> None:
        """Remove any armed crash point (idempotent)."""
        self._crash_seq = None
        self._crash_hook = None

    # -- recording -----------------------------------------------------

    def emit(self, kind: str, op: str, /, **payload: Any) -> None:
        """Append one event; no-op when disabled.

        ``kind`` and ``op`` are positional-only so payloads may reuse
        those key names (e.g. the cache's ``kind=`` payload field).
        Call sites should guard with ``rec is not None and rec.enabled``
        so payload kwargs are never even built when the recorder is off.
        """
        if not self.enabled:
            return
        vtime = self._clock.now_ns if self._clock is not None else 0
        if self.static_tags:
            payload = {**self.static_tags, **payload}
        seq = self._seq
        event = Event(seq, kind, op, vtime, payload)
        self._events.append(event)
        self._seq = seq + 1
        if seq == self._crash_seq:
            hook = self._crash_hook
            self.disarm_crash()  # one-shot: recovery emissions must not re-fire
            hook(event)

    # -- reading -------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to ring eviction (total emitted minus retained)."""
        return self._seq - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[Event]:
        return list(self._events)

    def to_json_list(self) -> List[Dict[str, Any]]:
        return [ev.to_json_dict() for ev in self._events]

    def digest(self) -> str:
        return events_digest(self.to_json_list())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (
            f"<FlightRecorder {state} {len(self._events)}/{self.cap} events"
            f" (+{self.dropped} dropped)>"
        )
