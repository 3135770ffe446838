"""Unit tests for the warm-reboot module internals (dump, audit, restore
functions in isolation, complementing the end-to-end tests)."""

from types import SimpleNamespace

import pytest

from repro.core.registry import (
    FLAG_CHANGING,
    FLAG_DIRTY,
    FLAG_META,
    FLAG_VALID,
    RegistryEntry,
)
from repro.core.warm_reboot import (
    WarmRebootReport,
    audit_checksums,
    restore_ubc,
)
from repro.obs import FlightRecorder
from repro.util.checksum import fletcher32

PAGE = 8192


def entry(slot, data_offset, image, **kw):
    defaults = dict(
        slot=slot,
        phys_addr=data_offset,
        dev=0,
        ino=5,
        file_offset=0,
        size=PAGE,
        flags=FLAG_VALID | FLAG_DIRTY,
        checksum=fletcher32(image[data_offset : data_offset + PAGE]),
    )
    defaults.update(kw)
    return RegistryEntry(**defaults)


class TestAuditChecksums:
    def test_intact_entries_pass(self):
        image = bytes(PAGE * 4)
        report = WarmRebootReport()
        audit_checksums(image, [entry(0, 0, image), entry(1, PAGE, image)], report)
        assert report.checksum_mismatches == []
        assert report.changing_entries == 0

    def test_mismatch_detected(self):
        image = bytearray(PAGE * 4)
        good = entry(0, 0, bytes(image))
        image[100] = 0xFF  # corruption after the checksum was recorded
        report = WarmRebootReport()
        audit_checksums(bytes(image), [good], report)
        assert report.checksum_mismatches == [0]

    def test_changing_entries_cannot_be_classified(self):
        image = bytearray(PAGE * 2)
        mid_write = entry(3, 0, bytes(image))
        mid_write.flags |= FLAG_CHANGING
        image[5] = 0x77  # differs from the checksum, but CHANGING exempts it
        report = WarmRebootReport()
        audit_checksums(bytes(image), [mid_write], report)
        assert report.checksum_mismatches == []
        assert report.changing_entries == 1


class _FakeFs:
    """Minimal restore target implementing the by-inode interface."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.writes = []
        self.kernel = SimpleNamespace(recorder=FlightRecorder())

    def inode_exists(self, ino):
        return ino in self.sizes

    def inode_size(self, ino):
        return self.sizes[ino]

    def write(self, ino, offset, data):
        self.writes.append((ino, offset, len(data)))
        return len(data)


class TestRestoreUbc:
    def make_image(self):
        return bytes(range(256)) * (PAGE * 4 // 256)

    def test_restores_dirty_data_entries(self):
        image = self.make_image()
        fs = _FakeFs({5: PAGE * 2})
        report = WarmRebootReport()
        entries = [entry(0, 0, image, ino=5, file_offset=0)]
        restore_ubc(fs, image, entries, report)
        assert fs.writes == [(5, 0, PAGE)]
        assert report.ubc_restored == 1

    def test_skips_clean_entries(self):
        image = self.make_image()
        fs = _FakeFs({5: PAGE})
        report = WarmRebootReport()
        clean = entry(0, 0, image, flags=FLAG_VALID)  # not dirty
        restore_ubc(fs, image, [clean], report)
        assert fs.writes == []
        assert report.ubc_restored == 0

    def test_skips_metadata_entries(self):
        image = self.make_image()
        fs = _FakeFs({5: PAGE})
        report = WarmRebootReport()
        meta = entry(0, 0, image, flags=FLAG_VALID | FLAG_DIRTY | FLAG_META)
        restore_ubc(fs, image, [meta], report)
        assert fs.writes == []

    def test_skips_dead_inodes(self):
        image = self.make_image()
        fs = _FakeFs({})
        report = WarmRebootReport()
        restore_ubc(fs, image, [entry(0, 0, image, ino=99)], report)
        assert fs.writes == []
        assert report.ubc_skipped == 1

    def test_clamps_to_file_size(self):
        """A tail page restores only up to the inode's size."""
        image = self.make_image()
        fs = _FakeFs({5: PAGE + 100})
        report = WarmRebootReport()
        tail = entry(0, 0, image, ino=5, file_offset=PAGE)
        restore_ubc(fs, image, [tail], report)
        assert fs.writes == [(5, PAGE, 100)]

    def test_skips_entries_beyond_truncated_file(self):
        image = self.make_image()
        fs = _FakeFs({5: 100})
        report = WarmRebootReport()
        beyond = entry(0, 0, image, ino=5, file_offset=PAGE * 2)
        restore_ubc(fs, image, [beyond], report)
        assert fs.writes == []
        assert report.ubc_skipped == 1
