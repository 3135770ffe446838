"""fsck: offline consistency check and repair.

Runs against the raw disk between reboot and mount — after the warm
reboot has restored metadata from the registry ("so that the file system
is intact before being checked for consistency by fsck") and, for AdvFS,
after journal replay.

Phases, in the classic order:

1. superblock validation (with fallback to the backup copy in the last
   block);
2. inode scan: clear mangled inodes, clear block pointers that point
   outside the data area, resolve duplicate block claims (first claimant
   wins), clamp impossible sizes;
3. directory walk from the root: drop directory entries that reference
   free or mangled inodes, recompute link counts;
4. orphan inodes (allocated but unreachable) are reconnected into
   ``/lost+found`` (or freed if that fails);
5. link-count repair;
6. block bitmap rebuild from the surviving claims.

Everything operates on raw sectors (``peek``/``poke``) — the machine this
runs on is healthy, but the disk state is whatever the crash left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.ondisk import (
    CorruptStructure,
    DIRENT_SIZE,
    DirEntry,
    INODES_PER_BLOCK,
    INODE_SIZE,
    Inode,
    Superblock,
    free_dirent_offset,
    indirect_pointers,
    scan_dirents,
)
from repro.fs.types import (
    BLOCK_SIZE,
    FileType,
    MAX_FILE_SIZE,
    N_DIRECT,
    ROOT_INO,
    SECTORS_PER_BLOCK,
)

LOST_FOUND_INO = 3


@dataclass
class FsckReport:
    """What fsck found and fixed."""

    unrecoverable: bool = False
    fixes: list[str] = field(default_factory=list)
    orphans_reconnected: int = 0
    orphans_freed: int = 0

    def fix(self, message: str) -> None:
        self.fixes.append(message)

    @property
    def fix_count(self) -> int:
        return len(self.fixes)


class _RawFs:
    """Raw byte-level access to an unmounted file system."""

    def __init__(self, disk) -> None:
        self.disk = disk
        self.sb: Superblock | None = None
        #: The inode-table block read last, ``(block_no, bytes)``: an
        #: inode pass walks slots in order, so one read serves a block's
        #: worth of them.  :meth:`write_block` keeps it current.
        self._table: tuple[int, bytes] = (-1, b"")

    def read_block(self, block_no: int) -> bytes:
        return self.disk.peek(block_no * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)

    def write_block(self, block_no: int, data: bytes) -> None:
        assert len(data) == BLOCK_SIZE
        self.disk.poke(block_no * SECTORS_PER_BLOCK, data)
        if block_no == self._table[0]:
            self._table = (block_no, data)

    def _table_block(self, ino: int) -> tuple[int, bytes, int]:
        """``(block_no, block bytes, byte offset)`` of inode ``ino``'s slot."""
        block_no = self.sb.inode_start + ino // INODES_PER_BLOCK
        if block_no != self._table[0]:
            self._table = (block_no, self.read_block(block_no))
        return block_no, self._table[1], (ino % INODES_PER_BLOCK) * INODE_SIZE

    def read_inode(self, ino: int) -> Inode | None:
        """The inode in slot ``ino``; None if it is mangled.  A never-used
        (all-zero) slot is a valid free inode."""
        _, block, offset = self._table_block(ino)
        raw = block[offset : offset + INODE_SIZE]
        if raw == b"\x00" * INODE_SIZE:
            return Inode(ino=ino)
        try:
            return Inode.from_bytes(ino, raw, strict=True)
        except CorruptStructure:
            return None

    def write_inode(self, inode: Inode) -> None:
        block_no, block, offset = self._table_block(inode.ino)
        data = bytearray(block)
        data[offset : offset + INODE_SIZE] = inode.to_bytes()
        self.write_block(block_no, bytes(data))


def _valid_data_block(sb: Superblock, block_no: int) -> bool:
    return sb.data_start <= block_no < sb.total_blocks


def fsck(disk) -> FsckReport:
    """Check and repair the file system on ``disk``."""
    report = FsckReport()
    raw = _RawFs(disk)

    # -- phase 1: superblock -------------------------------------------------
    sb = None
    try:
        sb = Superblock.from_bytes(raw.read_block(0))
    except CorruptStructure:
        report.fix("superblock: primary copy corrupt")
    if sb is None:
        # Try the backup in the last block.  We do not know total_blocks
        # yet, so derive it from the disk geometry.
        last_block = disk.num_sectors // SECTORS_PER_BLOCK - 1
        try:
            sb = Superblock.from_bytes(raw.read_block(last_block))
            report.fix("superblock: restored from backup copy")
            raw.sb = sb
            raw.write_block(0, sb.to_bytes())
        except CorruptStructure:
            report.unrecoverable = True
            report.fix("superblock: backup copy also corrupt; cannot proceed")
            return report
    raw.sb = sb

    # -- phase 2: inode scan ----------------------------------------------------
    inodes: dict[int, Inode] = {}
    claimed: dict[int, int] = {}  # block -> first claiming ino
    for ino in range(1, sb.num_inodes):
        inode = raw.read_inode(ino)
        if inode is None:
            report.fix(f"inode {ino}: mangled; cleared")
            raw.write_inode(Inode(ino=ino))
            continue
        if not inode.is_allocated:
            continue
        changed = False
        if inode.size > MAX_FILE_SIZE:
            # Reset the size AND drop the block mappings: leaving blocks
            # mapped beyond the (now zero) end-of-file would be exactly
            # the size/block-count mismatch the independent verifier
            # flags on a "repaired" image.
            inode.size = 0
            inode.direct = [0] * N_DIRECT
            inode.indirect = 0
            report.fix(f"inode {ino}: impossible size; reset and blocks freed")
            changed = True
        if inode.indirect and not _valid_data_block(sb, inode.indirect):
            report.fix(f"inode {ino}: bad indirect pointer {inode.indirect}; cleared")
            inode.indirect = 0
            changed = True
        for slot in range(N_DIRECT):
            block = inode.direct[slot]
            if block == 0:
                continue
            if not _valid_data_block(sb, block):
                report.fix(f"inode {ino}: bad block pointer {block}; cleared")
                inode.direct[slot] = 0
                changed = True
            elif block in claimed:
                report.fix(
                    f"inode {ino}: block {block} already claimed by inode "
                    f"{claimed[block]}; cleared"
                )
                inode.direct[slot] = 0
                changed = True
            else:
                claimed[block] = ino
        if inode.indirect:
            if inode.indirect in claimed:
                report.fix(f"inode {ino}: indirect block doubly claimed; cleared")
                inode.indirect = 0
                changed = True
            else:
                claimed[inode.indirect] = ino
                ind = bytearray(raw.read_block(inode.indirect))
                ind_changed = False
                for i, block in enumerate(indirect_pointers(ind)):
                    if block == 0:
                        continue
                    if not _valid_data_block(sb, block) or block in claimed:
                        report.fix(
                            f"inode {ino}: bad/duplicate indirect entry {block}; cleared"
                        )
                        ind[i * 4 : (i + 1) * 4] = b"\x00\x00\x00\x00"
                        ind_changed = True
                    else:
                        claimed[block] = ino
                if ind_changed:
                    raw.write_block(inode.indirect, bytes(ind))
        if changed:
            raw.write_inode(inode)
        inodes[ino] = inode

    # -- phases 3+4: directory walk and orphan reconnection ------------------
    # Real fsck iterates: reconnecting an orphaned directory makes a new
    # subtree reachable, which must itself be walked (and may surface more
    # problems), so walk/reconnect repeats until a pass finds no orphans.
    root = inodes.get(ROOT_INO)
    if root is None or root.ftype != FileType.DIRECTORY:
        # Rebuild the root as mkfs lays it out — ".", ".." and lost+found in
        # one block — so the orphan pass below has a reachable lost+found to
        # hang everything else on.  Whatever sat in the slot gives its
        # blocks back first.
        claimed = {block: ino for block, ino in claimed.items() if ino != ROOT_INO}
        free = [b for b in range(sb.data_start, sb.total_blocks - 1) if b not in claimed]
        if not free:
            report.unrecoverable = True
            report.fix("root directory missing; no free block to recreate it in")
            return report
        report.fix("root directory missing; recreated with lost+found")
        names = ((ROOT_INO, "."), (ROOT_INO, ".."), (LOST_FOUND_INO, "lost+found"))
        entries = b"".join(DirEntry(ino, name).to_bytes() for ino, name in names)
        raw.write_block(free[0], entries.ljust(BLOCK_SIZE, b"\x00"))
        root = Inode(ino=ROOT_INO, ftype=FileType.DIRECTORY, nlink=2, size=BLOCK_SIZE)
        root.direct[0] = free[0]
        claimed[free[0]] = ROOT_INO
        raw.write_inode(root)
        inodes[ROOT_INO] = root

    link_counts: dict[int, int] = {}
    for _pass in range(4):
        link_counts, reachable = _walk_tree(raw, inodes, report)
        orphans = [
            ino for ino in inodes if inodes[ino].is_allocated and ino not in reachable
        ]
        if not orphans:
            break
        for ino in orphans:
            if _reconnect(raw, inodes, ino, report):
                report.orphans_reconnected += 1
            else:
                inode = inodes.pop(ino)
                for block in _claimed_blocks(raw, inode):
                    claimed.pop(block, None)
                raw.write_inode(Inode(ino=ino))
                report.orphans_freed += 1
                report.fix(f"inode {ino}: orphan freed")

    # -- phase 5: link counts ----------------------------------------------------------
    for ino, inode in inodes.items():
        if not inode.is_allocated:
            continue
        counted = link_counts.get(ino, 0)
        if inode.nlink != counted and counted > 0:
            report.fix(f"inode {ino}: link count {inode.nlink} -> {counted}")
            inode.nlink = counted
            raw.write_inode(inode)

    # -- phase 6: bitmap rebuild -----------------------------------------------------------
    bitmap = bytearray(sb.bitmap_blocks * BLOCK_SIZE)
    for block_no in range(sb.data_start):
        bitmap[block_no // 8] |= 1 << (block_no % 8)
    backup_block = sb.total_blocks - 1
    bitmap[backup_block // 8] |= 1 << (backup_block % 8)
    for block_no in claimed:
        bitmap[block_no // 8] |= 1 << (block_no % 8)
    current = b"".join(
        raw.read_block(sb.bitmap_start + i) for i in range(sb.bitmap_blocks)
    )
    if bytes(bitmap) != current:
        report.fix("block bitmap rebuilt")
        for i in range(sb.bitmap_blocks):
            raw.write_block(
                sb.bitmap_start + i, bytes(bitmap[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
            )

    # -- mark clean ------------------------------------------------------------------------
    sb.clean = True
    raw.write_block(0, sb.to_bytes())
    raw.write_block(sb.total_blocks - 1, sb.to_bytes())
    return report


def _dir_block_list(raw: _RawFs, dinode: Inode) -> list[int]:
    blocks = [b for b in dinode.direct if b and _valid_data_block(raw.sb, b)]
    if dinode.indirect and _valid_data_block(raw.sb, dinode.indirect):
        for block in indirect_pointers(raw.read_block(dinode.indirect)):
            if block and _valid_data_block(raw.sb, block):
                blocks.append(block)
    return blocks


def _claimed_blocks(raw: _RawFs, inode: Inode) -> list[int]:
    blocks = [b for b in inode.direct if b]
    if inode.indirect:
        blocks.append(inode.indirect)
        blocks += [b for b in indirect_pointers(raw.read_block(inode.indirect)) if b]
    return blocks


def _walk_tree(raw: _RawFs, inodes: dict[int, Inode], report: FsckReport):
    """One repair pass over the reachable tree; returns (link_counts,
    reachable).  Repairs garbled/dangling entries and missing dot entries
    in place as it goes."""
    link_counts: dict[int, int] = {}
    reachable: set[int] = set()
    queue = [(ROOT_INO, ROOT_INO)]  # (dir, parent)
    while queue:
        dir_ino, parent_ino = queue.pop()
        if dir_ino in reachable:
            continue
        reachable.add(dir_ino)
        dinode = inodes[dir_ino]
        blocks = _dir_block_list(raw, dinode)
        seen_dot = seen_dotdot = False
        for block_no in blocks:
            block = raw.read_block(block_no)
            data = bytearray(block)  # repaired in place as the scan goes
            block_changed = False
            for off, ino_word, entry in scan_dirents(block):
                if entry is None:
                    if ino_word:
                        data[off : off + DIRENT_SIZE] = b"\x00" * DIRENT_SIZE
                        block_changed = True
                        report.fix(f"dir {dir_ino}: garbled entry cleared")
                    continue
                target = inodes.get(entry.ino)
                if target is None or not target.is_allocated:
                    report.fix(
                        f"dir {dir_ino}: entry {entry.name!r} -> free inode "
                        f"{entry.ino}; removed"
                    )
                    data[off : off + DIRENT_SIZE] = b"\x00" * DIRENT_SIZE
                    block_changed = True
                    continue
                if entry.name == ".":
                    seen_dot = True
                    if entry.ino != dir_ino:
                        report.fix(f"dir {dir_ino}: bad '.'; fixed")
                        data[off : off + DIRENT_SIZE] = DirEntry(dir_ino, ".").to_bytes()
                        block_changed = True
                    link_counts[dir_ino] = link_counts.get(dir_ino, 0) + 1
                    continue
                if entry.name == "..":
                    seen_dotdot = True
                    if entry.ino != parent_ino:
                        # Stale parent pointer — e.g. the directory was
                        # reconnected into lost+found, or a cross-directory
                        # rename was interrupted.
                        report.fix(
                            f"dir {dir_ino}: '..' pointed to {entry.ino}; "
                            f"now {parent_ino}"
                        )
                        data[off : off + DIRENT_SIZE] = DirEntry(
                            parent_ino, ".."
                        ).to_bytes()
                        block_changed = True
                    link_counts[parent_ino] = link_counts.get(parent_ino, 0) + 1
                    continue
                link_counts[entry.ino] = link_counts.get(entry.ino, 0) + 1
                if target.ftype == FileType.DIRECTORY:
                    queue.append((entry.ino, dir_ino))
                else:
                    reachable.add(entry.ino)
            if block_changed:
                raw.write_block(block_no, bytes(data))
        # Repair missing "." / ".." (e.g. a directory whose first block's
        # initialisation was lost in the crash but whose inode survived).
        for missing, name, target_ino in (
            (not seen_dot, ".", dir_ino),
            (not seen_dotdot, "..", parent_ino),
        ):
            if not missing:
                continue
            if _insert_dirent(raw, blocks, DirEntry(target_ino, name)):
                report.fix(f"dir {dir_ino}: missing {name!r}; recreated")
                link_counts[target_ino] = link_counts.get(target_ino, 0) + 1
            else:
                report.fix(f"dir {dir_ino}: missing {name!r}; no room to recreate")
    return link_counts, reachable


def _insert_dirent(raw: _RawFs, blocks: list[int], entry: DirEntry) -> bool:
    """Write a directory record into the first free slot; False if full."""
    record = entry.to_bytes()
    for block_no in blocks:
        data = raw.read_block(block_no)
        off = free_dirent_offset(data)
        if off is not None:
            raw.write_block(block_no, data[:off] + record + data[off + DIRENT_SIZE :])
            return True
    return False


def _reconnect(raw: _RawFs, inodes: dict[int, Inode], ino: int, report: FsckReport) -> bool:
    """Link an orphan into /lost+found; returns False if impossible."""
    lost_found = inodes.get(LOST_FOUND_INO)
    if lost_found is None or lost_found.ftype != FileType.DIRECTORY:
        return False
    name = f"#{ino}"
    if _insert_dirent(raw, _dir_block_list(raw, lost_found), DirEntry(ino, name)):
        report.fix(f"inode {ino}: orphan reconnected as lost+found/{name}")
        return True
    return False
