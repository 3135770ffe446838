"""Tests for UFS: files, directories, block mapping, policies, flushing."""

import pytest

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotADirectory,
    OutOfMemory,
)
from repro.faults.capabilities import ChaosRegistry
from repro.fs.dissect import dissect_image, snapshot
from repro.fs.ondisk import DIRENT_SIZE, INODES_PER_BLOCK, indirect_pointers
from repro.fs.types import BLOCK_SIZE, N_DIRECT, FileType
from repro.system import SystemSpec, build_system
from repro.util import pattern_bytes


def free_space(fs) -> dict:
    """Free data blocks (by the bitmap) and free inodes."""
    sb = fs.sb
    blocks = range(sb.data_start, sb.total_blocks)
    return {
        "free_blocks": sum(not fs.allocator.is_allocated(b) for b in blocks),
        "free_inodes": len(fs._free_inos),
    }


@pytest.fixture
def system():
    return build_system(SystemSpec("ufs_delayed", fs_blocks=512))


@pytest.fixture
def fs(system):
    return system.fs


class TestNamespace:
    def test_create_and_lookup(self, fs):
        ino = fs.create("/a")
        assert fs.namei("/a") == ino

    def test_create_duplicate_fails(self, fs):
        fs.create("/a")
        with pytest.raises(FileExists):
            fs.create("/a")

    def test_missing_file(self, fs):
        with pytest.raises(FileNotFound):
            fs.namei("/nope")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.namei("relative")

    def test_mkdir_and_nested_create(self, fs):
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        ino = fs.create("/d/e/f")
        assert fs.namei("/d/e/f") == ino

    def test_readdir(self, fs):
        fs.mkdir("/d")
        fs.create("/d/one")
        fs.create("/d/two")
        assert fs.readdir("/d") == ["one", "two"]

    def test_root_readdir_has_lost_found(self, fs):
        assert "lost+found" in fs.readdir("/")

    def test_file_as_directory_fails(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.create("/f/child")

    def test_unlink(self, fs):
        fs.create("/gone")
        fs.unlink("/gone")
        assert not fs.exists("/gone")

    def test_unlink_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.unlink("/missing")

    def test_unlink_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")

    def test_unlink_frees_resources(self, fs):
        before = free_space(fs)
        ino = fs.create("/big")
        fs.write(ino, 0, b"z" * (4 * BLOCK_SIZE))
        assert free_space(fs)["free_blocks"] < before["free_blocks"]
        fs.unlink("/big")
        after = free_space(fs)
        assert after["free_blocks"] == before["free_blocks"]
        assert after["free_inodes"] == before["free_inodes"]

    def test_rmdir(self, fs):
        fs.mkdir("/d")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rmdir_nonempty_fails(self, fs):
        fs.mkdir("/d")
        fs.create("/d/x")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d")

    def test_rmdir_fixes_parent_nlink(self, fs):
        root_before = fs.iget(fs.namei("/")).nlink
        fs.mkdir("/d")
        assert fs.iget(fs.namei("/")).nlink == root_before + 1
        fs.rmdir("/d")
        assert fs.iget(fs.namei("/")).nlink == root_before

    def test_rename_same_dir(self, fs):
        ino = fs.create("/old")
        fs.rename("/old", "/new")
        assert not fs.exists("/old")
        assert fs.namei("/new") == ino

    def test_rename_across_dirs(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        ino = fs.create("/a/f")
        fs.rename("/a/f", "/b/g")
        assert fs.namei("/b/g") == ino
        assert fs.readdir("/a") == []

    def test_rename_replaces_target(self, fs):
        ino = fs.create("/src")
        fs.create("/dst")
        fs.write(fs.namei("/dst"), 0, b"target data")
        free_before = free_space(fs)["free_inodes"]
        fs.rename("/src", "/dst")
        assert fs.namei("/dst") == ino
        assert free_space(fs)["free_inodes"] == free_before + 1

    def test_rename_directory_updates_dotdot(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.mkdir("/a/sub")
        fs.rename("/a/sub", "/b/sub")
        sub = fs.iget(fs.namei("/b/sub"))
        assert fs.dir_lookup(sub, "..") == fs.namei("/b")

    def test_many_files_grow_directory(self, fs):
        fs.mkdir("/many")
        names = [f"file{i:03d}" for i in range(300)]  # > 256 entries/block
        for name in names:
            fs.create(f"/many/{name}")
        assert fs.readdir("/many") == sorted(names)


class TestDataPath:
    def test_write_read_roundtrip(self, fs):
        ino = fs.create("/data")
        payload = pattern_bytes(1, 0, 1000)
        fs.write(ino, 0, payload)
        assert fs.read(ino, 0, 1000) == payload

    def test_read_respects_size(self, fs):
        ino = fs.create("/short")
        fs.write(ino, 0, b"abc")
        assert fs.read(ino, 0, 100) == b"abc"
        assert fs.read(ino, 2, 100) == b"c"
        assert fs.read(ino, 5, 100) == b""

    def test_overwrite(self, fs):
        ino = fs.create("/ow")
        fs.write(ino, 0, b"aaaaaa")
        fs.write(ino, 2, b"BB")
        assert fs.read(ino, 0, 6) == b"aaBBaa"

    def test_sparse_hole_reads_zeroes(self, fs):
        ino = fs.create("/sparse")
        fs.write(ino, 3 * BLOCK_SIZE, b"end")
        assert fs.read(ino, 0, 8) == b"\x00" * 8
        assert fs.read(ino, 3 * BLOCK_SIZE, 3) == b"end"

    def test_multi_block_write(self, fs):
        ino = fs.create("/multi")
        payload = pattern_bytes(2, 0, 3 * BLOCK_SIZE + 500)
        fs.write(ino, 0, payload)
        assert fs.read(ino, 0, len(payload)) == payload
        assert fs.iget(ino).size == len(payload)

    def test_indirect_blocks(self, fs):
        ino = fs.create("/big")
        offset = (N_DIRECT + 3) * BLOCK_SIZE  # needs the indirect block
        fs.write(ino, offset, b"indirect data")
        assert fs.read(ino, offset, 13) == b"indirect data"
        assert fs.iget(ino).indirect != 0

    def test_truncate(self, fs):
        ino = fs.create("/t")
        fs.write(ino, 0, b"x" * (2 * BLOCK_SIZE))
        free_before = free_space(fs)["free_blocks"]
        fs.truncate(ino)
        assert fs.iget(ino).size == 0
        assert fs.read(ino, 0, 10) == b""
        assert free_space(fs)["free_blocks"] == free_before + 2

    def test_write_survives_cache_eviction(self, system):
        """Dirty pages evicted under memory pressure are flushed and
        re-readable — the only disk write a Rio system performs."""
        fs = system.fs
        system.kernel.ubc.capacity = 8  # make eviction easy to trigger
        ino = fs.create("/pressure")
        payload = pattern_bytes(3, 0, BLOCK_SIZE)
        fs.write(ino, 0, payload)
        # Force the page out by filling the UBC with another file.
        filler = fs.create("/filler")
        for i in range(12):
            fs.write(filler, i * BLOCK_SIZE, b"f" * 64)
        assert system.kernel.ubc.stat_evictions > 0
        assert fs.read(ino, 0, BLOCK_SIZE) == payload


class TestDurability:
    def test_data_reaches_disk_after_unmount(self, system):
        fs = system.fs
        ino = fs.create("/durable")
        fs.write(ino, 0, b"must hit the platter")
        system.settle()
        system.crash("after unmount")
        system.reboot()
        ino = system.fs.namei("/durable")
        assert system.fs.read(ino, 0, 64) == b"must hit the platter"

    def test_fsync_makes_data_durable_in_delayed_mode(self, system):
        fs = system.fs
        ino = fs.create("/fsynced")
        fs.write(ino, 0, b"explicitly flushed")
        fs.fsync(ino)
        system.crash("right after fsync")
        system.reboot()
        ino = system.fs.namei("/fsynced")
        assert system.fs.read(ino, 0, 64) == b"explicitly flushed"

    def test_unfsynced_data_lost_in_delayed_mode(self, system):
        fs = system.fs
        ino = fs.create("/unsafe")
        fs.write(ino, 0, b"still in memory")
        system.crash("before any flush")
        system.reboot()
        # The delayed policy wrote nothing: file (or its data) is gone.
        if system.fs.exists("/unsafe"):
            ino = system.fs.namei("/unsafe")
            assert system.fs.read(ino, 0, 64) != b"still in memory"

    def test_update_daemon_flushes_after_30s(self, system):
        fs = system.fs
        ino = fs.create("/periodic")
        fs.write(ino, 0, b"wait for update")
        # Let 30+ virtual seconds pass, then poke the kernel.
        system.clock.consume(31 * 10**9)
        system.kernel.maybe_run_update()
        system.drain_disks()
        system.crash("after update ran")
        system.reboot()
        ino = system.fs.namei("/periodic")
        assert system.fs.read(ino, 0, 64) == b"wait for update"


class TestPartialWrite:
    """A mid-write allocation failure is a clean POSIX partial write."""

    def _fill_disk(self, fs, path="/filler"):
        """Append block-sized writes until the disk is genuinely full."""
        ino = fs.create(path)
        offset = 0
        with pytest.raises(NoSpace):
            while True:
                fs.write(ino, offset, b"\xaa" * BLOCK_SIZE)
                offset += BLOCK_SIZE

    def test_enospc_mid_write_commits_the_prefix(self, fs):
        spare = fs.create("/spare")
        fs.write(spare, 0, b"\xbb" * (2 * BLOCK_SIZE))
        victim = fs.create("/victim")
        self._fill_disk(fs)
        # Exactly two blocks come back; a four-block write must stop
        # after them with the written prefix visible — not vanish, and
        # not leave invisible debris.
        fs.unlink("/spare")
        data = pattern_bytes(0xD1CE, 0, 4 * BLOCK_SIZE)
        with pytest.raises(NoSpace):
            fs.write(victim, 0, data)
        inode = fs.iget(victim)
        assert inode.size == 2 * BLOCK_SIZE
        assert fs.read(victim, 0, 2 * BLOCK_SIZE) == data[: 2 * BLOCK_SIZE]

    def test_failed_write_leaves_no_zombie_extent(self, fs):
        spare = fs.create("/spare")
        fs.write(spare, 0, b"\xbb" * (2 * BLOCK_SIZE))
        victim = fs.create("/victim")
        self._fill_disk(fs)
        fs.unlink("/spare")
        with pytest.raises(NoSpace):
            fs.write(victim, 0, pattern_bytes(0xD1CE, 0, 4 * BLOCK_SIZE))
        # Free plenty of space, then extend the file far past the failed
        # write: the gap must read as zeros — a reused block from the
        # failed attempt must not resurrect with stale bytes.
        fs.unlink("/filler")
        tail = pattern_bytes(0x7A11, 0, BLOCK_SIZE)
        fs.write(victim, 8 * BLOCK_SIZE, tail)
        assert fs.read(victim, 2 * BLOCK_SIZE, 6 * BLOCK_SIZE) == b"\x00" * (6 * BLOCK_SIZE)
        assert fs.read(victim, 8 * BLOCK_SIZE, BLOCK_SIZE) == tail

    def test_failed_first_chunk_gives_back_a_fresh_indirect_block(self, system):
        fs = system.fs
        big = fs.create("/big")
        fs.write(big, 0, b"\x01" * (N_DIRECT * BLOCK_SIZE))
        fs.write(fs.create("/one"), 0, b"\x02" * BLOCK_SIZE)
        self._fill_disk(fs)
        fs.unlink("/one")
        before = free_space(fs)
        # The one free block becomes /big's indirect block; its data block
        # then finds none.
        with pytest.raises(NoSpace):
            fs.write(big, N_DIRECT * BLOCK_SIZE, b"\x03" * BLOCK_SIZE)
        assert free_space(fs) == before
        system.settle()
        assert dissect_image(snapshot(system.disk)).clean


class TestDeniedCreate:
    """A ``create`` or ``mkdir`` denied part-way gives back what it took:
    the free counts stay put and the flushed image dissects clean."""

    @pytest.fixture
    def full(self, system):
        """``/d`` with a full first block, then a full disk but for the
        one block ``/one`` gives back."""
        fs = system.fs
        fs.mkdir("/d")
        for i in range(BLOCK_SIZE // DIRENT_SIZE - 2):  # past "." and ".."
            fs.create(f"/d/f{i}")
        one = fs.create("/one")
        fs.write(one, 0, b"\x01" * BLOCK_SIZE)
        TestPartialWrite._fill_disk(None, fs)
        fs.unlink("/one")
        return system

    @pytest.mark.parametrize(
        "op, path, spare",
        [
            ("create", "/d/x", 0),  # the inode, then no block to grow /d
            ("mkdir", "/x", 0),  # the inode, then no block of its own
            ("mkdir", "/d/x", 1),  # the inode and the last block, then none for /d
        ],
    )
    def test_denied_part_way_leaks_nothing(self, full, op, path, spare):
        fs = full.fs
        if not spare:
            fs.write(fs.create("/last"), 0, b"\x02" * BLOCK_SIZE)
        before = free_space(fs)
        assert before["free_blocks"] == spare
        with pytest.raises(NoSpace):
            getattr(fs, op)(path)
        assert free_space(fs) == before
        with pytest.raises(FileNotFound):
            fs.namei(path)
        full.settle()
        assert dissect_image(snapshot(full.disk)).clean

    @pytest.mark.parametrize("op, path", [("create", "/d/x"), ("mkdir", "/x")])
    def test_denied_page_grant_gives_back_the_fresh_block(self, full, op, path, monkeypatch):
        fs = full.fs
        fs.unlink("/filler")
        before = free_space(fs)

        def denied(block_no, meta_class):
            raise OutOfMemory("page grant denied")

        # The block /d grows by, or the new directory's own, has no page.
        monkeypatch.setattr(fs, "_fresh_meta_page", denied)
        with pytest.raises(OutOfMemory):
            getattr(fs, op)(path)
        monkeypatch.undo()
        assert free_space(fs) == before
        full.settle()
        assert dissect_image(snapshot(full.disk)).clean


def held_blocks(fs, ino) -> int:
    """Blocks one file holds: its data blocks and its indirect block."""
    inode = fs.iget(ino)
    held = sum(1 for b in inode.direct if b)
    if inode.indirect:
        raw = fs.read_meta(inode.indirect, 0, BLOCK_SIZE, meta_class="indirect")
        held += 1 + sum(1 for b in indirect_pointers(raw) if b)
    return held


def namespace(fs) -> dict:
    """Every path in the tree with the inode it names."""
    names = {}

    def walk(ino, prefix):
        for entry in fs.dir_entries(fs.iget(ino)):
            if entry.name in (".", ".."):
                continue
            path = prefix + entry.name
            names[path] = entry.ino
            if fs.iget(entry.ino).ftype == FileType.DIRECTORY:
                walk(entry.ino, path + "/")

    walk(fs.namei("/"), "/")
    return names


def _write(path, file_block, blocks):
    def op(fs):
        fs.write(fs.namei(path), file_block * BLOCK_SIZE, b"\x5a" * (blocks * BLOCK_SIZE))

    return op


def _ino_op(name, path):
    return lambda fs: getattr(fs, name)(fs.namei(path))


def _path_op(name, *paths):
    return lambda fs: getattr(fs, name)(*paths)


class TestFailNth:
    """Every faultable call of every op shape, failed one at a time.

    On ``rio_prot`` with cold caches, the n-th ``fail_alloc`` (a page
    grant) or ``fail_disk_full`` (a block allocation) evaluation of one
    op is denied, for n = 1, 2, ... until the op makes fewer than n.  A
    denied op leaves nothing behind (a write may keep its prefix, the
    POSIX short write): the free counts and the namespace are as before,
    no lock is held, and the flushed image dissects clean.
    """

    #: op shape -> (needs the full directory ``/full``, the op, the file
    #: a denied write may keep its prefix in).
    SHAPES = {
        "create": (False, _path_op("create", "/new"), None),
        "create_grow": (True, _path_op("create", "/full/new"), None),
        "mkdir": (False, _path_op("mkdir", "/new"), None),
        "mkdir_grow": (True, _path_op("mkdir", "/full/new"), None),
        "unlink_direct": (False, _path_op("unlink", "/small"), None),
        "unlink_indirect": (False, _path_op("unlink", "/big"), None),
        "rmdir": (False, _path_op("rmdir", "/empty"), None),
        "rename": (False, _path_op("rename", "/src", "/moved"), None),
        "rename_over_direct": (False, _path_op("rename", "/src", "/small"), None),
        "rename_over_indirect": (False, _path_op("rename", "/src", "/big"), None),
        "rename_into_full": (True, _path_op("rename", "/src", "/full/src"), None),
        "rename_in_full": (True, _path_op("rename", "/full/f0", "/full/new"), None),
        "rename_dir": (False, _path_op("rename", "/dir", "/other/dir"), None),
        "write_direct": (False, _write("/src", 0, 3), "/src"),
        "write_indirect": (False, _write("/small", N_DIRECT - 1, 3), "/small"),
        "truncate": (False, _ino_op("truncate", "/big"), None),
    }

    @staticmethod
    def build(full: bool):
        system = build_system(SystemSpec("rio_prot", fs_blocks=256))
        fs = system.fs
        fs.write(fs.create("/small"), 0, b"\x01" * BLOCK_SIZE)
        fs.write(fs.create("/big"), 0, b"\x02" * ((N_DIRECT + 2) * BLOCK_SIZE))
        fs.write(fs.create("/src"), 0, b"")
        fs.mkdir("/empty")
        fs.mkdir("/dir")
        fs.create("/dir/inner")
        fs.mkdir("/other")
        fs.mkdir("/pad")
        while fs._free_inos[-1] < INODES_PER_BLOCK:  # new inodes: a cold table block
            fs.create(f"/pad/p{fs._free_inos[-1]}")
        if full:
            fs.mkdir("/full")
            for i in range(BLOCK_SIZE // DIRENT_SIZE - 2):  # past "." and ".."
                fs.create(f"/full/f{i}")
        system.settle()
        return system

    def trial(self, shape: str, capability: str, n: int):
        """Run one trial; returns (the capability's calls, violations)."""
        full, op, written = self.SHAPES[shape]
        system = self.build(full)
        fs = system.fs
        before = (free_space(fs), namespace(fs))
        held = held_blocks(fs, fs.namei(written)) if written else 0
        system.drop_caches()
        registry = ChaosRegistry()
        cap = registry.enable(capability, interval=n, times=1)
        system.install_chaos(registry)
        denied = None
        with registry.request_scope(client=0):
            try:
                op(fs)
            except (NoSpace, OutOfMemory) as exc:
                denied = exc
        problems = []
        if cap.fires and denied is None:
            problems.append("denied op returned success")
        if denied is not None:
            free, names = free_space(fs), namespace(fs)
            kept = held_blocks(fs, fs.namei(written)) - held if written else 0
            expected = dict(before[0], free_blocks=before[0]["free_blocks"] - kept)
            if free != expected:
                problems.append(f"free counts {free} != {expected}")
            if names != before[1]:
                problems.append("namespace changed")
        held_locks = sorted(name for name, lock in system.kernel.locks._locks.items() if lock.held)
        if held_locks:
            problems.append(f"locks held: {held_locks}")
        system.settle()
        report = dissect_image(snapshot(system.disk))
        if not report.clean:
            problems.append(f"dissect: {sorted({f.kind.value for f in report.findings})}")
        return cap.calls, problems

    def test_every_denial_leaves_nothing_behind(self):
        trials, violations = 0, {}
        for shape in self.SHAPES:
            for capability in ("fail_alloc", "fail_disk_full"):
                n = 1
                while True:
                    calls, problems = self.trial(shape, capability, n)
                    if calls < n:
                        break
                    trials += 1
                    if problems:
                        violations[(shape, capability, n)] = problems
                    n += 1
        assert trials > 0
        assert violations == {}, f"{len(violations)} of {trials} trials: {violations}"


@pytest.mark.parametrize("name", ["rio_prot", "ufs_delayed"])
def test_denied_truncate_keeps_the_file(name):
    """A truncate denied its first page grant raises before it drops a
    dirty page: the size and the bytes are what they were."""
    system = build_system(SystemSpec(name, fs_blocks=256))
    fs = system.fs
    ino = fs.create("/big")
    old = pattern_bytes(0x7C0D, 0, (N_DIRECT + 2) * BLOCK_SIZE)
    fs.write(ino, 0, old)
    system.settle()
    new = pattern_bytes(0x5EED, 0, len(old))
    fs.write(ino, 0, new)  # dirty UBC pages over the flushed ones
    cache = system.kernel.buffer_cache
    cache.drop(cache.lookup(("meta", fs.dev, fs.iget(ino).indirect)))
    registry = ChaosRegistry()
    registry.enable("fail_alloc", times=1)
    system.install_chaos(registry)
    with registry.request_scope(client=0), pytest.raises(OutOfMemory):
        fs.truncate(ino)
    assert fs.size_of(ino) == len(new)
    assert fs.read(ino, 0, len(new)) == new
