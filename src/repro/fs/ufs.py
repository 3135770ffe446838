"""UFS: the Unix file system the paper's systems are built on.

Inodes (12 direct pointers + one indirect block), fixed-record
directories with ``.``/``..``, a block bitmap, and a superblock — all
byte-serialized on the simulated disk and cached per the Digital Unix
split: metadata (inodes, directories, bitmap, indirect blocks) in the
buffer cache, regular file data in the UBC.

Write-back behaviour is delegated to a :class:`~repro.fs.writeback.WritePolicy`,
which is how one code base provides the UFS / no-order / write-through /
Rio rows of Table 2.

Crash-consistency habits of real FFS are preserved where they matter:
metadata updates within an operation are committed in update order
(inode initialised before the directory entry that names it; directory
entry removed before the inode is freed), and fsck can repair the
orphans/leaks a badly-timed crash leaves behind.

An errno is not a crash: an operation denied by one leaves nothing
behind or finishes.  Each runs in an :class:`_OpRecord` holding the
inverse of every inode, block and block pointer it took, which an errno
runs newest first; past its ``commit()`` it runs calm and cannot be
denied.  Only the short write keeps part of its work, its written
prefix.  A crash runs no inverses: fsck owns crash debris.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidArgument,
    IsADirectory,
    KernelPanic,
    NoSpace,
    NotADirectory,
)
from repro.fs.allocator import BlockAllocator
from repro.fs.cache import CachePage, IO_CONTEXT
from repro.fs.ondisk import (
    CorruptStructure,
    DIRENT_SIZE,
    DirEntry,
    INODES_PER_BLOCK,
    INODE_SIZE,
    Inode,
    Superblock,
    allocated_slots,
    find_dirent,
    free_dirent_offset,
    indirect_pointers,
    parse_dirents,
)
from repro.fs.types import (
    BLOCK_SIZE,
    FileId,
    FileType,
    MAX_FILE_BLOCKS,
    MAX_FILE_SIZE,
    MAX_NAME,
    N_DIRECT,
    ROOT_INO,
    SECTORS_PER_BLOCK,
)
from repro.fs.writeback import RioPolicy, WritePolicy

LOST_FOUND_INO = 3


@dataclass
class UFSParams:
    """mkfs-time geometry."""

    total_blocks: int
    inode_blocks: int = 8
    journal_blocks: int = 0

    def geometry(self) -> Superblock:
        """Compute the on-disk layout for these parameters."""
        bitmap_blocks = -(-self.total_blocks // (BLOCK_SIZE * 8))
        inode_start = 1 + bitmap_blocks
        journal_start = inode_start + self.inode_blocks
        data_start = journal_start + self.journal_blocks
        if data_start + 2 > self.total_blocks:
            raise InvalidArgument("file system too small for its metadata")
        return Superblock(
            total_blocks=self.total_blocks,
            bitmap_start=1,
            bitmap_blocks=bitmap_blocks,
            inode_start=inode_start,
            inode_blocks=self.inode_blocks,
            data_start=data_start,
            journal_start=journal_start if self.journal_blocks else 0,
            journal_blocks=self.journal_blocks,
        )


class _OpRecord:
    """One operation's undo record: the inverses of what it has taken
    (``ialloc``, ``balloc`` and ``bmap``'s pointer stores push them)."""

    def __init__(self, fs: "UFS") -> None:
        self.fs = fs
        self.inverses: list = []
        self.calm = None

    def keep(self) -> None:
        """What the operation has taken so far stays."""
        self.inverses.clear()

    def commit(self) -> None:
        """:meth:`keep`, then run the rest of the operation calm: it
        cannot be denied, so it finishes."""
        self.keep()
        if self.calm is None:
            self.calm = self.fs._housekeeping()
            self.calm.__enter__()

    def undo(self) -> None:
        """Give back what was not kept, newest first, calm."""
        inverses, self.inverses = self.inverses, []
        with self.fs._housekeeping():
            for inverse in reversed(inverses):
                inverse()


def _fs_op(method):
    """Wrap a public operation in an :class:`_OpRecord`: an errno gives
    back what the operation took, success commits its touched metadata.
    A crash gives back nothing, the same split as ``Lock.__exit__``."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        op = self._op = _OpRecord(self)
        try:
            result = method(self, *args, **kwargs)
        except FileSystemError:
            op.undo()
            raise
        finally:
            self._op = None
            if op.calm is not None:
                op.calm.__exit__(None, None, None)
        self._commit_metadata()
        return result

    return wrapper


class UFS:
    """A mounted UFS instance."""

    def __init__(self, kernel, dev: int, policy: WritePolicy | None = None) -> None:
        self.kernel = kernel
        self.dev = dev
        self.policy = policy or RioPolicy()
        self.disk = kernel.block_device(dev)
        self.sb: Superblock | None = None
        self.allocator: BlockAllocator | None = None
        self._free_inos: list[int] = []
        #: The metadata pages the running operation dirtied, in update
        #: order (a dict used as an insertion-ordered set).
        self._meta_touched: dict[CachePage, None] = {}
        #: The running operation's undo record (None between operations).
        self._op: _OpRecord | None = None
        self.mounted = False

    # ------------------------------------------------------------------
    # mkfs
    # ------------------------------------------------------------------

    @staticmethod
    def mkfs(disk, params: UFSParams) -> Superblock:
        """Create a fresh file system (offline: raw sector pokes)."""
        sb = params.geometry()
        root_blk = sb.data_start
        lf_blk = sb.data_start + 1
        backup_sb_blk = sb.total_blocks - 1

        disk.poke(0, sb.to_bytes())
        # Backup superblock in the last block (fsck's fallback copy).
        disk.poke(backup_sb_blk * SECTORS_PER_BLOCK, sb.to_bytes())

        bitmap = bytearray(sb.bitmap_blocks * BLOCK_SIZE)
        for block_no in list(range(sb.data_start)) + [root_blk, lf_blk, backup_sb_blk]:
            bitmap[block_no // 8] |= 1 << (block_no % 8)
        disk.poke(sb.bitmap_start * SECTORS_PER_BLOCK, bytes(bitmap))

        inodes = bytearray(sb.inode_blocks * BLOCK_SIZE)

        def put_inode(inode: Inode) -> None:
            off = inode.ino * INODE_SIZE
            inodes[off : off + INODE_SIZE] = inode.to_bytes()

        root = Inode(ino=ROOT_INO, ftype=FileType.DIRECTORY, nlink=3, size=BLOCK_SIZE)
        root.direct[0] = root_blk
        put_inode(root)
        lost_found = Inode(
            ino=LOST_FOUND_INO, ftype=FileType.DIRECTORY, nlink=2, size=BLOCK_SIZE
        )
        lost_found.direct[0] = lf_blk
        put_inode(lost_found)
        disk.poke(sb.inode_start * SECTORS_PER_BLOCK, bytes(inodes))

        def dir_block(entries: list[DirEntry]) -> bytes:
            data = b"".join(e.to_bytes() for e in entries)
            return data + b"\x00" * (BLOCK_SIZE - len(data))

        disk.poke(
            root_blk * SECTORS_PER_BLOCK,
            dir_block(
                [
                    DirEntry(ROOT_INO, "."),
                    DirEntry(ROOT_INO, ".."),
                    DirEntry(LOST_FOUND_INO, "lost+found"),
                ]
            ),
        )
        disk.poke(
            lf_blk * SECTORS_PER_BLOCK,
            dir_block([DirEntry(LOST_FOUND_INO, "."), DirEntry(ROOT_INO, "..")]),
        )
        return sb

    # ------------------------------------------------------------------
    # mount
    # ------------------------------------------------------------------

    @_fs_op
    def mount(self) -> None:
        """Mount: parse the superblock, scan free inodes, mark unclean."""
        raw = self.read_meta(0, 0, BLOCK_SIZE, meta_class="super")
        self.sb = Superblock.from_bytes(raw)
        self.allocator = BlockAllocator(self)
        self._scan_free_inodes()
        self.sb.clean = False
        self.sb.mount_count += 1
        self._write_superblock()
        self.kernel.register_filesystem(self.dev, self)
        self.mounted = True

    def _write_superblock(self) -> None:
        self.write_meta(0, 0, self.sb.to_bytes(), meta_class="super")

    def _scan_free_inodes(self) -> None:
        """Rebuild the free list: one metadata read per inode-table block,
        last block first — the order in which a descending per-inode walk
        first touches them, so the buffer cache's LRU order is the same."""
        self._free_inos = []
        num_inodes = self.sb.num_inodes
        for index in range((num_inodes - 1) // INODES_PER_BLOCK, -1, -1):
            allocated = allocated_slots(
                self.read_meta(self.sb.inode_start + index, 0, BLOCK_SIZE, meta_class="inode")
            )
            base = index * INODES_PER_BLOCK
            last = min(num_inodes, base + INODES_PER_BLOCK) - 1
            for ino in range(last, max(base, ROOT_INO + 1) - 1, -1):
                if ino != LOST_FOUND_INO and not allocated[ino - base]:
                    self._free_inos.append(ino)

    # ------------------------------------------------------------------
    # metadata access through the buffer cache
    # ------------------------------------------------------------------

    def _meta_page(self, block_no: int, meta_class: str | None) -> CachePage:
        cache = self.kernel.buffer_cache

        def loader(page: CachePage) -> None:
            cache.fill(page, self.disk.read(block_no * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK))

        page = cache.get(
            ("meta", self.dev, block_no), loader=loader, disk_block=block_no
        )
        if meta_class is not None:
            page.meta_class = meta_class
        return page

    def _fresh_meta_page(self, block_no: int, meta_class: str) -> CachePage:
        """A metadata page for a newly allocated block (no disk read).

        The page is marked dirty — a freshly allocated metadata block must
        eventually reach the disk even if nothing else is written to it."""
        cache = self.kernel.buffer_cache
        page = cache.get(
            ("meta", self.dev, block_no),
            loader=lambda p: cache.fill(p, b"\x00" * BLOCK_SIZE),
            disk_block=block_no,
        )
        page.meta_class = meta_class
        cache.set_dirty(page, True)
        self._touch_meta(page)
        return page

    def read_meta(self, block_no: int, offset: int, length: int, *, meta_class: str | None = None) -> bytes:
        """Read metadata bytes through the buffer cache."""
        page = self._meta_page(block_no, meta_class)
        return self.kernel.buffer_cache.read(page, offset, length)

    def write_meta(
        self,
        block_no: int,
        offset: int,
        data: bytes,
        *,
        meta_class: str | None = None,
        defer: bool = False,
    ) -> None:
        """Update metadata bytes through the buffer cache.

        ``defer=True`` marks the page dirty without handing it to the
        write policy this operation — FFS semantics for non-structural
        updates (e.g. a size-only inode change), which reach disk via the
        update daemon or fsync rather than a synchronous write."""
        page = self._meta_page(block_no, meta_class)
        self.kernel.buffer_cache.write_into(page, offset, data, IO_CONTEXT)
        if not defer:
            self._touch_meta(page)

    def _touch_meta(self, page: CachePage) -> None:
        self._meta_touched[page] = None

    def _on_undo(self, inverse, *args, **kwargs) -> None:
        """Record how the running operation gives back what it takes."""
        if self._op is not None:
            self._op.inverses.append(functools.partial(inverse, *args, **kwargs))

    def _commit_metadata(self) -> None:
        """End of operation: hand the dirtied metadata pages, in update
        order, to the write policy."""
        pages, self._meta_touched = self._meta_touched, {}
        if pages:
            self.policy.on_metadata_pages(self, pages)

    # ------------------------------------------------------------------
    # inodes
    # ------------------------------------------------------------------

    def _inode_location(self, ino: int) -> tuple[int, int]:
        if not 0 < ino < self.sb.num_inodes:
            raise FileNotFound(f"inode {ino} out of range")
        return (
            self.sb.inode_start + ino // INODES_PER_BLOCK,
            (ino % INODES_PER_BLOCK) * INODE_SIZE,
        )

    def _iget_raw(self, ino: int, *, strict: bool) -> Inode:
        block_no, offset = self._inode_location(ino)
        raw = self.read_meta(block_no, offset, INODE_SIZE, meta_class="inode")
        if raw == b"\x00" * INODE_SIZE:
            return Inode(ino=ino)  # never-used slot: a valid free inode
        return Inode.from_bytes(ino, raw, strict=strict)

    def iget(self, ino: int) -> Inode:
        """Fetch an allocated inode; a mangled one is a kernel panic —
        the sanity check a production kernel applies on inode fetch."""
        try:
            inode = self._iget_raw(ino, strict=True)
        except CorruptStructure as exc:
            raise KernelPanic(f"iget: {exc}") from exc
        if not inode.is_allocated:
            raise FileNotFound(f"inode {ino} not allocated")
        return inode

    def write_inode(self, inode: Inode, *, defer: bool = False) -> None:
        """Serialize an inode back into its table block (``defer`` skips
        the policy: FFS semantics for non-structural updates)."""
        block_no, offset = self._inode_location(inode.ino)
        self.write_meta(
            block_no, offset, inode.to_bytes(), meta_class="inode", defer=defer
        )

    def ialloc(self, ftype: FileType) -> Inode:
        """Allocate an inode of ``ftype`` (generation bumped)."""
        with self.kernel.locks.lock("inode_table"):
            if not self._free_inos:
                raise NoSpace("out of inodes")
            ino = self._free_inos.pop()
            self._on_undo(self._free_inos.append, ino)
            old = self._iget_raw(ino, strict=False)
            inode = Inode(ino=ino, ftype=ftype, nlink=0, generation=old.generation + 1)
            inode.mtime_ns = self.kernel.clock.now_ns
            self._on_undo(self.write_inode, Inode(ino=ino, generation=inode.generation))
            self.write_inode(inode)
            return inode

    def ifree(self, inode: Inode) -> None:
        """Free an inode back to the table."""
        with self.kernel.locks.lock("inode_table"):
            self.write_inode(Inode(ino=inode.ino, generation=inode.generation))
            self._free_inos.append(inode.ino)

    # ------------------------------------------------------------------
    # block mapping
    # ------------------------------------------------------------------

    def balloc(self) -> int:
        """Allocate a data block (the allocator takes the bitmap lock)."""
        block = self.allocator.alloc()
        self._on_undo(self.bfree, block)
        return block

    def bfree(self, block_no: int) -> None:
        """Free a data block (the allocator takes the bitmap lock)."""
        self.allocator.free(block_no)

    def bmap(self, inode: Inode, file_block: int, *, allocate: bool = False) -> int:
        """Map a file block index to a disk block (0 = hole).

        With ``allocate=True``, holes are filled; the caller must
        ``write_inode`` afterwards (the in-memory inode is mutated).
        """
        if file_block >= MAX_FILE_BLOCKS:
            raise InvalidArgument("file too large")
        if file_block < N_DIRECT:
            block = inode.direct[file_block]
            if block == 0 and allocate:
                block = self.balloc()
                self._on_undo(inode.direct.__setitem__, file_block, 0)
                inode.direct[file_block] = block
            return block
        index = file_block - N_DIRECT
        if inode.indirect == 0:
            if not allocate:
                return 0
            inode.indirect = self.balloc()
            self._on_undo(setattr, inode, "indirect", 0)
            self._fresh_meta_page(inode.indirect, "indirect")
        raw = self.read_meta(inode.indirect, index * 4, 4, meta_class="indirect")
        block = int.from_bytes(raw, "little")
        if block == 0 and allocate:
            block = self.balloc()
            slot = inode.indirect, index * 4
            self._on_undo(self.write_meta, *slot, bytes(4), meta_class="indirect")
            self.write_meta(*slot, block.to_bytes(4, "little"), meta_class="indirect")
        return block

    def _file_blocks(self, inode: Inode) -> list[int]:
        """Every block a file holds: its data blocks in file order, then
        its indirect block."""
        blocks = [b for b in inode.direct if b]
        if inode.indirect:
            raw = self.read_meta(inode.indirect, 0, BLOCK_SIZE, meta_class="indirect")
            blocks += [b for b in indirect_pointers(raw) if b]
            blocks.append(inode.indirect)
        return blocks

    def _drop_file(self, inode: Inode) -> None:
        """The last name is gone: drop the pages, blocks and inode."""
        self.kernel.ubc.invalidate_file(FileId(self.dev, inode.ino))
        for block in self._file_blocks(inode):
            self.bfree(block)
        self.ifree(inode)

    # ------------------------------------------------------------------
    # directories
    # ------------------------------------------------------------------

    def _dir_blocks(self, dinode: Inode) -> list[int]:
        count = -(-dinode.size // BLOCK_SIZE)
        return [self.bmap(dinode, i) for i in range(count)]

    def dir_entries(self, dinode: Inode) -> list[DirEntry]:
        """All records of a directory, including "." and ".."."""
        entries: list[DirEntry] = []
        for block_no in self._dir_blocks(dinode):
            if block_no == 0:
                continue
            entries += parse_dirents(
                self.read_meta(block_no, 0, BLOCK_SIZE, meta_class="dir")
            )
        return entries

    def _find_dirent(self, dinode: Inode, name: str) -> tuple[int, int, DirEntry] | None:
        """Locate ``name``; returns (block_no, offset, entry)."""
        for block_no in self._dir_blocks(dinode):
            if block_no == 0:
                continue
            found = find_dirent(
                self.read_meta(block_no, 0, BLOCK_SIZE, meta_class="dir"), name
            )
            if found is not None:
                return block_no, *found
        return None

    def dir_lookup(self, dinode: Inode, name: str) -> int | None:
        """Inode number for ``name`` in the directory, or None."""
        found = self._find_dirent(dinode, name)
        return found[2].ino if found else None

    def dir_add(self, dinode: Inode, name: str, ino: int) -> None:
        """Insert a record (growing the directory if full)."""
        with self.kernel.locks.lock(f"dir:{dinode.ino}"):
            record = DirEntry(ino, name).to_bytes()
            for block_no in self._dir_blocks(dinode):
                if block_no == 0:
                    continue
                off = free_dirent_offset(
                    self.read_meta(block_no, 0, BLOCK_SIZE, meta_class="dir")
                )
                if off is not None:
                    self.write_meta(block_no, off, record, meta_class="dir")
                    return
            # Directory full: grow it by one block.
            block_no = self.bmap(dinode, dinode.size // BLOCK_SIZE, allocate=True)
            self._fresh_meta_page(block_no, "dir")
            self.write_meta(block_no, 0, record, meta_class="dir")
            dinode.size += BLOCK_SIZE
            self.write_inode(dinode)

    def dir_remove(self, dinode: Inode, name: str) -> int:
        """Remove a record; returns the inode it named."""
        with self.kernel.locks.lock(f"dir:{dinode.ino}"):
            found = self._find_dirent(dinode, name)
            if found is None:
                raise FileNotFound(name)
            block_no, off, entry = found
            self.write_meta(block_no, off, b"\x00" * DIRENT_SIZE, meta_class="dir")
            return entry.ino

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    @staticmethod
    def _split_path(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute: {path!r}")
        parts = [p for p in path.split("/") if p]
        for part in parts:
            if len(part.encode()) > MAX_NAME:
                raise InvalidArgument(f"name too long: {part!r}")
        return parts

    #: Maximum symlink expansions during one resolution (ELOOP guard).
    MAX_SYMLINK_DEPTH = 8

    def namei(self, path: str) -> int:
        """Resolve a path to an inode number, following on-disk symlinks."""
        parts = list(self._split_path(path))
        ino = ROOT_INO
        expansions = 0
        index = 0
        while index < len(parts):
            part = parts[index]
            dinode = self.iget(ino)
            if dinode.ftype != FileType.DIRECTORY:
                raise NotADirectory(path)
            child = self.dir_lookup(dinode, part)
            if child is None:
                raise FileNotFound(path)
            child_inode = self.iget(child)
            if child_inode.ftype == FileType.SYMLINK:
                expansions += 1
                if expansions > self.MAX_SYMLINK_DEPTH:
                    raise InvalidArgument(f"too many symlinks: {path!r}")
                target = self._read_symlink(child_inode)
                remainder = parts[index + 1 :]
                if target.startswith("/"):
                    parts = self._split_path(target) + remainder
                    ino = ROOT_INO
                else:
                    parts = [p for p in target.split("/") if p] + remainder
                index = 0
                continue
            ino = child
            index += 1
        return ino

    def namei_parent(self, path: str) -> tuple[Inode, str]:
        """Resolve to (parent directory inode, final component), following
        symlinks in the intermediate components."""
        parts = self._split_path(path)
        if not parts:
            raise InvalidArgument("path refers to the root directory")
        if len(parts) == 1:
            parent_ino = ROOT_INO
        else:
            parent_ino = self.namei("/" + "/".join(parts[:-1]))
        parent = self.iget(parent_ino)
        if parent.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        return parent, parts[-1]

    # ------------------------------------------------------------------
    # file operations (ino-level; the VFS resolves paths and fds)
    # ------------------------------------------------------------------

    @_fs_op
    def create(self, path: str) -> int:
        """Create a regular file; returns its inode number."""
        parent, name = self.namei_parent(path)
        if self.dir_lookup(parent, name) is not None:
            raise FileExists(path)
        # Careful ordering (section 2.3): initialise the inode *before*
        # the directory entry that makes it reachable.
        inode = self.ialloc(FileType.REGULAR)
        inode.nlink = 1
        self.write_inode(inode)
        self.kernel.preemption_point()
        self.dir_add(parent, name, inode.ino)
        return inode.ino

    @_fs_op
    def mkdir(self, path: str) -> int:
        """Create a directory (with "." and "..")."""
        parent, name = self.namei_parent(path)
        if self.dir_lookup(parent, name) is not None:
            raise FileExists(path)
        inode = self.ialloc(FileType.DIRECTORY)
        block = self.bmap(inode, 0, allocate=True)
        self._fresh_meta_page(block, "dir")
        dots = DirEntry(inode.ino, ".").to_bytes() + DirEntry(parent.ino, "..").to_bytes()
        self.write_meta(block, 0, dots, meta_class="dir")
        inode.size = BLOCK_SIZE
        inode.nlink = 2
        self.write_inode(inode)
        self.kernel.preemption_point()
        self.dir_add(parent, name, inode.ino)
        self._op.commit()
        parent.nlink += 1
        self.write_inode(parent)
        return inode.ino

    @_fs_op
    def unlink(self, path: str) -> None:
        """Remove a name; free the file when its last name goes."""
        parent, name = self.namei_parent(path)
        ino = self.dir_lookup(parent, name)
        if ino is None:
            raise FileNotFound(path)
        inode = self.iget(ino)
        if inode.ftype == FileType.DIRECTORY:
            raise IsADirectory(path)
        # Careful ordering: unname first, then free.
        self._op.commit()
        self.dir_remove(parent, name)
        self.kernel.preemption_point()
        inode.nlink -= 1
        if inode.nlink <= 0:
            self._drop_file(inode)
        else:
            self.write_inode(inode)

    @_fs_op
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        parent, name = self.namei_parent(path)
        ino = self.dir_lookup(parent, name)
        if ino is None:
            raise FileNotFound(path)
        inode = self.iget(ino)
        if inode.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        entries = [e for e in self.dir_entries(inode) if e.name not in (".", "..")]
        if entries:
            raise DirectoryNotEmpty(path)
        self._op.commit()
        self.dir_remove(parent, name)
        self.kernel.preemption_point()
        self._drop_file(inode)
        parent.nlink -= 1
        self.write_inode(parent)

    @_fs_op
    def rename(self, old_path: str, new_path: str) -> None:
        """Rename, replacing a non-directory target; fixes ".." and link
        counts for cross-directory directory moves."""
        old_parent, old_name = self.namei_parent(old_path)
        ino = self.dir_lookup(old_parent, old_name)
        if ino is None:
            raise FileNotFound(old_path)
        new_parent, new_name = self.namei_parent(new_path)
        existing = self.dir_lookup(new_parent, new_name)
        if existing is not None:
            if existing == ino:
                return
            target = self.iget(existing)
            if target.ftype == FileType.DIRECTORY:
                raise IsADirectory(new_path)
            self._op.commit()
            self.dir_remove(new_parent, new_name)
            target.nlink -= 1
            if target.nlink <= 0:
                self._drop_file(target)
            else:
                self.write_inode(target)
        # Add the new name before removing the old: a crash in between
        # leaves an extra hard link, which fsck can repair; the reverse
        # order could lose the file entirely.
        self.dir_add(new_parent, new_name, ino)
        self._op.commit()
        self.kernel.preemption_point()
        if new_parent.ino == old_parent.ino:
            # dir_add may have grown the directory; re-read for remove.
            old_parent = self.iget(old_parent.ino)
        self.dir_remove(old_parent, old_name)
        moved = self.iget(ino)
        if moved.ftype == FileType.DIRECTORY and new_parent.ino != old_parent.ino:
            # Fix "..", and the parents' link counts.
            found = self._find_dirent(moved, "..")
            if found is not None:
                self.write_meta(
                    found[0], found[1], DirEntry(new_parent.ino, "..").to_bytes(), meta_class="dir"
                )
            old_parent.nlink -= 1
            self.write_inode(old_parent)
            new_parent.nlink += 1
            self.write_inode(new_parent)

    # -- symlinks ---------------------------------------------------------

    def _read_symlink(self, inode: Inode) -> str:
        block = inode.direct[0]
        if not block:
            raise FileNotFound(f"symlink inode {inode.ino} has no target block")
        raw = self.read_meta(block, 0, inode.size, meta_class="dir")
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise KernelPanic(f"symlink {inode.ino}: garbled target") from exc

    # -- data path ------------------------------------------------------

    def _ubc_page(self, inode: Inode, file_block: int, disk_block: int) -> CachePage:
        ubc = self.kernel.ubc
        key = ("data", self.dev, inode.ino, file_block)

        def loader(page: CachePage) -> None:
            if disk_block:
                data = self.disk.read(disk_block * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
            else:
                data = b"\x00" * BLOCK_SIZE
            ubc.fill(page, data)

        page = ubc.get(
            key,
            loader=loader,
            file_id=FileId(self.dev, inode.ino),
            file_offset=file_block * BLOCK_SIZE,
            disk_block=disk_block or None,
        )
        if disk_block and page.disk_block != disk_block:
            ubc.set_placement(page, disk_block=disk_block)
        return page

    @_fs_op
    def write(self, ino: int, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; returns the byte count written."""
        if offset < 0:
            raise InvalidArgument("negative offset")
        inode = self.iget(ino)
        if inode.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        if offset + len(data) > MAX_FILE_SIZE:
            raise InvalidArgument("write beyond maximum file size")
        ubc = self.kernel.ubc
        op = self._op
        pos = 0
        allocated = False
        try:
            while pos < len(data):
                cursor = offset + pos
                file_block, in_off = divmod(cursor, BLOCK_SIZE)
                take = min(BLOCK_SIZE - in_off, len(data) - pos)
                pre_block = self.bmap(inode, file_block)  # 0: a hole, zero-filled
                disk_block = self.bmap(inode, file_block, allocate=True)
                if disk_block != pre_block:
                    allocated = True
                page = self._ubc_page(inode, file_block, pre_block)
                if page.disk_block != disk_block:
                    ubc.set_placement(page, disk_block=disk_block)
                ubc.write_into(page, in_off, data[pos : pos + take], IO_CONTEXT)
                self.policy.on_data_write(self, ino, page, cursor, take)
                pos += take
                op.keep()
        except FileSystemError:
            # The POSIX short write: give back the failing chunk's blocks
            # first (named, a freed block would resurrect stale bytes on
            # a later extending write), then make the prefix visible.
            if pos:
                op.undo()
                op.commit()
                inode.size = max(inode.size, offset + pos)
                inode.mtime_ns = self.kernel.clock.now_ns
                self.write_inode(inode, defer=not allocated)
            raise
        inode.size = max(inode.size, offset + len(data))
        inode.mtime_ns = self.kernel.clock.now_ns
        # A size/mtime-only update is not a structural change: it reaches
        # disk lazily.  Allocations must follow the policy's ordering.
        self.write_inode(inode, defer=not allocated)
        return len(data)

    def _housekeeping(self):
        """Fault injection calmed: error-path cleanup is kernel
        housekeeping, not a request to deny."""
        chaos = self.kernel.chaos
        return chaos.calm() if chaos is not None else nullcontext()

    def read(self, ino: int, offset: int, length: int) -> bytes:
        """Read file bytes via the UBC (holes read as zeros)."""
        if offset < 0 or length < 0:
            raise InvalidArgument("negative read range")
        inode = self.iget(ino)
        if inode.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        length = max(0, min(length, inode.size - offset))
        out = bytearray()
        pos = 0
        while pos < length:
            cursor = offset + pos
            file_block, in_off = divmod(cursor, BLOCK_SIZE)
            take = min(BLOCK_SIZE - in_off, length - pos)
            disk_block = self.bmap(inode, file_block)
            page = self._ubc_page(inode, file_block, disk_block)
            out += self.kernel.ubc.read(page, in_off, take)
            pos += take
        self.kernel.charge_copy(length)  # copy-out to the user buffer
        return bytes(out)

    @_fs_op
    def truncate(self, ino: int) -> None:
        """Truncate to zero: free all blocks, drop cached pages."""
        inode = self.iget(ino)
        if inode.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        blocks = self._file_blocks(inode)  # the last step that may be denied
        self._op.commit()
        self.kernel.ubc.invalidate_file(FileId(self.dev, ino))
        for block in blocks:
            self.bfree(block)
        inode.direct = [0] * N_DIRECT
        inode.indirect = 0
        inode.size = 0
        inode.mtime_ns = self.kernel.clock.now_ns
        self.write_inode(inode)

    # -- stat / readdir ----------------------------------------------------

    def stat(self, path: str) -> Inode:
        """Resolve ``path`` and return its inode."""
        return self.iget(self.namei(path))

    def readdir(self, path: str) -> list[str]:
        """Sorted names in a directory ("." and ".." omitted)."""
        inode = self.iget(self.namei(path))
        if inode.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        return sorted(
            e.name for e in self.dir_entries(inode) if e.name not in (".", "..")
        )

    def exists(self, path: str) -> bool:
        """True when ``path`` resolves."""
        try:
            self.namei(path)
            return True
        except FileSystemError:
            return False

    def size_of(self, ino: int) -> int:
        """Current size in bytes of an allocated inode."""
        return self.iget(ino).size

    # ------------------------------------------------------------------
    # flushing (called by policies and daemons)
    # ------------------------------------------------------------------

    def flush_file(self, ino: int, *, sync: bool) -> None:
        """Write one file's dirty data pages to disk."""
        ubc = self.kernel.ubc
        for page in [p for p in ubc.file_pages(FileId(self.dev, ino)) if p.dirty]:
            ubc.flush_page(page, sync=sync)

    def flush_data(self, *, sync: bool) -> None:
        """Write all dirty UBC pages to disk."""
        self.kernel.ubc.flush_all(sync=sync)

    def flush_metadata(self, *, sync: bool) -> None:
        """Write all dirty buffer-cache (metadata) pages to disk."""
        self.kernel.buffer_cache.flush_all(sync=sync)

    def flush_meta_page(self, page: CachePage, sync: bool) -> None:
        """Write one metadata page (policy callback target)."""
        self.kernel.buffer_cache.flush_page(page, sync=sync)

    def flush_page_sync(self, page: CachePage) -> None:
        """Synchronously write one data page (write-through policies)."""
        self.kernel.ubc.flush_page(page, sync=True)

    def fsync(self, ino: int) -> None:
        """Durability point for one file — dispatched to the policy."""
        self.policy.on_fsync(self, ino)

    def close_hook(self, ino: int) -> None:
        """Called on fd close — write-through-on-close's moment."""
        self.policy.on_close(self, ino)

    def periodic_flush(self) -> None:
        """The update daemon's entry point."""
        self.policy.periodic(self)

    # ------------------------------------------------------------------
    # warm-reboot restore interface
    # ------------------------------------------------------------------

    def inode_exists(self, ino: int) -> bool:
        """Warm-reboot restore interface: is this a live regular file?"""
        if not 0 < ino < self.sb.num_inodes:
            return False
        try:
            inode = self._iget_raw(ino, strict=False)
        except CorruptStructure:
            return False
        return inode.ftype == FileType.REGULAR

    def inode_size(self, ino: int) -> int:
        """Warm-reboot restore interface: size of an inode."""
        return self._iget_raw(ino, strict=False).size
