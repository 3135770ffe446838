"""Unit tests for the flight recorder and the forensic report builder.

The recorder tests cover the lifecycle (disabled by default, start/stop,
ring eviction with dropped accounting); the forensics tests run the
report builder on small *synthetic* event streams so every attribution
path — baseline diff, crash stand-in, no injection — is
exercised without running a campaign.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    DEFAULT_EVENT_CAP,
    FlightRecorder,
    MissingBaseline,
    NoDivergence,
    build_forensic_report,
    events_digest,
    first_divergence,
    format_forensic_report,
)


def ev(seq, kind, op, vtime=0, **payload):
    return {"seq": seq, "kind": kind, "op": op, "vtime": vtime, "payload": payload}


class FakeClock:
    def __init__(self):
        self.now_ns = 0


class TestFlightRecorder:
    def test_disabled_by_default(self):
        rec = FlightRecorder()
        assert not rec.enabled
        rec.emit("cache", "write", page="p")
        assert len(rec.events()) == 0

    def test_default_cap(self):
        assert FlightRecorder().cap == DEFAULT_EVENT_CAP

    def test_start_records_and_stop_freezes(self):
        clock = FakeClock()
        rec = FlightRecorder(clock)
        rec.start()
        clock.now_ns = 7
        rec.emit("cache", "write", page="p")
        rec.stop()
        rec.emit("cache", "write", page="q")
        assert rec.to_json_list() == [
            {"seq": 0, "kind": "cache", "op": "write", "vtime": 7,
             "payload": {"page": "p"}}
        ]

    def test_payload_may_reuse_kind_and_op_keys(self):
        """kind/op are positional-only on emit, so payloads can carry
        fields with those names (the cache layer does)."""
        rec = FlightRecorder()
        rec.start()
        rec.emit("cache", "fill", kind="data", op="x")
        assert rec.to_json_list()[0]["payload"] == {"kind": "data", "op": "x"}

    def test_cap_evicts_oldest_and_counts_dropped(self):
        rec = FlightRecorder(cap=3)
        rec.start()
        for i in range(5):
            rec.emit("cache", "write", i=i)
        assert len(rec.events()) == 3
        assert rec.dropped == 2
        assert rec.events()[0].seq == 2  # seq survives eviction

    def test_start_clears_previous_run(self):
        rec = FlightRecorder(cap=3)
        rec.start()
        for i in range(5):
            rec.emit("cache", "write", i=i)
        rec.start()
        assert len(rec.events()) == 0 and rec.dropped == 0
        rec.emit("cache", "write", i=9)
        assert rec.events()[0].seq == 0

    def test_start_can_resize(self):
        rec = FlightRecorder(cap=2)
        rec.start(cap=5)
        for i in range(5):
            rec.emit("cache", "write", i=i)
        assert len(rec.events()) == 5 and rec.dropped == 0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            FlightRecorder(cap=0)
        with pytest.raises(ValueError):
            FlightRecorder().start(cap=-1)

    def test_digest_is_order_and_content_sensitive(self):
        a = ev(0, "cache", "write", page="a")
        b = ev(1, "cache", "write", page="b")
        assert events_digest([a, b]) != events_digest([b, a])
        assert events_digest([a]) != events_digest([ev(0, "cache", "write", page="z")])


FAULTED = [
    ev(0, "syscall", "write", vtime=10, phase="enter"),
    ev(1, "trial", "inject", vtime=11, at_op=3, fault="pointer"),
    ev(2, "fault", "inject", vtime=11, details=["flip word 7"]),
    ev(3, "cache", "write", vtime=12, page="a", offset=0),
    ev(4, "cache", "write", vtime=13, page="b", offset=99),  # corrupted offset
    ev(5, "wb", "flush", vtime=14, page="b"),
    ev(6, "crash", "machine_check", vtime=15, reason="boom", panic_code=None),
]

# Same trial, injection suppressed.  vtimes deliberately differ so the
# tests prove timing is excluded from the comparison.
BASELINE = [
    ev(0, "syscall", "write", vtime=100, phase="enter"),
    ev(1, "cache", "write", vtime=120, page="a", offset=0),
    ev(2, "cache", "write", vtime=130, page="b", offset=1),
    ev(3, "wb", "flush", vtime=140, page="b"),
]

RESULT = {
    "config": {"system": "rio_prot", "fault_type": "pointer", "seed": 7},
    "crashed": True,
    "ops_run": 44,
    "memtest_problems": [{"path": "/f", "problem": "missing"}],
    "checksum_mismatches": 1,
    "static_copy_mismatch": False,
    "recovery_failed": False,
    "protection_trap": True,
}


class TestFirstDivergence:
    def test_identical_streams(self):
        assert first_divergence(BASELINE, BASELINE) == (None, None)

    def test_injector_events_are_filtered(self):
        """A stream differing only by trial/fault events is identical."""
        clean = [e for e in FAULTED[:4] if e["kind"] not in ("trial", "fault")]
        idx, div = first_divergence(FAULTED[:4], clean)
        assert (idx, div) == (None, None)

    def test_vtime_is_excluded(self):
        shifted = [dict(e, vtime=e["vtime"] + 1000) for e in BASELINE]
        assert first_divergence(shifted, BASELINE) == (None, None)

    def test_diverging_payload(self):
        idx, div = first_divergence(FAULTED, BASELINE)
        assert idx == 2  # index into the injector-filtered faulted stream
        assert div["payload"]["offset"] == 99

    def test_truncated_faulted_stream(self):
        idx, div = first_divergence(BASELINE[:2], BASELINE)
        assert idx == 2 and div is None


class TestForensicReportBuilder:
    def test_baseline_diff_attribution(self):
        report = build_forensic_report(RESULT, FAULTED, BASELINE)
        assert report.system == "rio_prot"
        assert report.fault == "pointer"
        assert report.seed == 7
        assert report.injection["payload"]["at_op"] == 3
        assert [e["payload"] for e in report.fault_events] == [
            {"details": ["flip word 7"]}
        ]
        assert report.divergence_basis == "baseline-diff"
        assert report.first_divergence["payload"]["offset"] == 99
        assert report.first_divergent_store == report.first_divergence
        assert report.crash["op"] == "machine_check"
        assert report.events_total == len(FAULTED)

    def test_detector_evidence_lines(self):
        report = build_forensic_report(RESULT, FAULTED, BASELINE)
        text = " | ".join(report.detectors)
        assert "memtest: 1 file problem(s)" in text
        assert "/f" in text and "missing" in text
        assert "registry checksums: 1 mismatched slot(s)" in text
        assert "protection trap" in text

    def test_injection_without_baseline_is_refused(self):
        with pytest.raises(MissingBaseline, match="rio_prot/pointer"):
            build_forensic_report(RESULT, FAULTED, None)

    def test_crash_stands_in_when_no_store_event(self):
        stream = [FAULTED[0], FAULTED[1], FAULTED[2], FAULTED[6]]
        report = build_forensic_report(RESULT, stream, BASELINE)
        assert report.first_divergent_store["kind"] == "crash"
        assert any("stands in" in n for n in report.notes)

    def test_identical_to_baseline_means_no_divergence(self):
        report = build_forensic_report(RESULT, BASELINE, BASELINE)
        assert report.divergence_basis == "none"
        assert report.first_divergence is None
        assert isinstance(report.first_divergent_store, NoDivergence)
        assert "identical" in report.first_divergent_store.reason
        assert any("identical" in n for n in report.notes)

    def test_no_injection_recorded(self):
        report = build_forensic_report(RESULT, BASELINE, None)
        assert report.injection is None
        assert report.divergence_basis == "none"
        assert isinstance(report.first_divergent_store, NoDivergence)
        assert "no fault injected" in report.first_divergent_store.reason

    def test_crash_at_event_index_zero_is_typed_not_crash(self):
        """A trial that crashes at the very first event (an explorer
        boundary-0 trial) attributes nothing: there is no prior store to
        blame, and the report says so in a typed way."""
        stream = [ev(0, "crash", "machine_check", reason="armed", panic_code=None)]
        report = build_forensic_report(RESULT, stream, None)
        assert report.divergence_basis == "none"
        assert isinstance(report.first_divergent_store, NoDivergence)
        assert "no prior" in report.first_divergent_store.reason
        assert any("before any fault" in n for n in report.notes)
        # and the typed outcome survives the renderer
        assert "no prior" in format_forensic_report(report)

    def test_no_injection_crash_after_stores(self):
        """Explorer trials that crash mid-workload: the stores on record
        are ordinary workload stores, not divergence."""
        stream = BASELINE + [
            ev(4, "crash", "machine_check", vtime=150, reason="armed", panic_code=None)
        ]
        report = build_forensic_report(RESULT, stream, None)
        assert isinstance(report.first_divergent_store, NoDivergence)
        assert "ordinary workload stores" in report.first_divergent_store.reason

    def test_truncated_stream_notes_the_truncation(self):
        report = build_forensic_report(RESULT, BASELINE[:2], BASELINE)
        assert report.divergence_basis == "baseline-diff"
        assert report.first_divergence is None
        assert any("truncated" in n for n in report.notes)


class TestFormatting:
    def test_format_names_the_whole_chain(self):
        report = build_forensic_report(RESULT, FAULTED, BASELINE)
        text = format_forensic_report(report)
        assert "system=rio_prot fault=pointer seed=7" in text
        assert "injection:" in text and "trial/inject" in text
        assert "fault action:" in text
        assert "first divergence:" in text and "offset=99" in text
        assert "first divergent store:" in text
        assert "crash:" in text and "machine_check" in text
        assert "detector evidence:" in text
        assert "events recorded: 7" in text

    def test_format_handles_missing_pieces(self):
        report = build_forensic_report(RESULT, [], None)
        text = format_forensic_report(report)
        assert "injection:        (none)" in text
