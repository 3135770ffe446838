"""A pure (read-only) file system consistency validator.

``fsck`` repairs; this module only judges.  It exists so tests can state
the crash-consistency invariant directly: *after any crash and the
configured recovery chain (journal replay, fsck, warm reboot), the
on-disk file system contains no inconsistencies.*  Keeping the validator
separate from fsck means a bug in fsck's repair logic cannot silently
vouch for itself.

Checked invariants:

* the superblock parses and matches the backup copy;
* every allocated inode has a sane type, size and block pointers;
* no data block is claimed twice;
* every directory entry points to an allocated inode;
* every directory has correct ``.`` and ``..``;
* link counts equal the number of references found by walking the tree;
* every allocated inode is reachable from the root;
* the bitmap marks exactly the metadata blocks + claimed blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.ondisk import (
    CorruptStructure,
    INODES_PER_BLOCK,
    INODE_SIZE,
    Inode,
    Superblock,
    indirect_pointers,
    scan_dirents,
)
from repro.fs.types import (
    FileType,
    MAX_FILE_SIZE,
    ROOT_INO,
    SECTORS_PER_BLOCK,
)


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)

    def note(self, message: str) -> None:
        self.problems.append(message)

    @property
    def consistent(self) -> bool:
        return not self.problems


def _read_block(disk, block_no: int) -> bytes:
    return disk.peek(block_no * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)


def validate(disk) -> ValidationReport:
    """Validate the (unmounted) file system on ``disk``."""
    report = ValidationReport()

    # -- superblock ------------------------------------------------------
    try:
        sb = Superblock.from_bytes(_read_block(disk, 0))
    except CorruptStructure as exc:
        report.note(f"superblock: {exc}")
        return report
    try:
        backup = Superblock.from_bytes(_read_block(disk, sb.total_blocks - 1))
        if backup.total_blocks != sb.total_blocks:
            report.note("backup superblock disagrees with primary")
    except CorruptStructure:
        report.note("backup superblock unreadable")

    table = (-1, b"")  # the inode-table block read last: one read per block

    def read_inode(ino: int) -> Inode | None:
        nonlocal table
        block = sb.inode_start + ino // INODES_PER_BLOCK
        if block != table[0]:
            table = (block, _read_block(disk, block))
        offset = (ino % INODES_PER_BLOCK) * INODE_SIZE
        raw = table[1][offset : offset + INODE_SIZE]
        if raw == b"\x00" * INODE_SIZE:
            return Inode(ino=ino)
        try:
            return Inode.from_bytes(ino, raw, strict=True)
        except CorruptStructure:
            return None

    def valid_block(block_no: int) -> bool:
        return sb.data_start <= block_no < sb.total_blocks

    # -- inode scan ----------------------------------------------------------
    inodes: dict[int, Inode] = {}
    claimed: dict[int, int] = {}
    for ino in range(1, sb.num_inodes):
        inode = read_inode(ino)
        if inode is None:
            report.note(f"inode {ino}: unreadable")
            continue
        if not inode.is_allocated:
            continue
        inodes[ino] = inode
        if inode.size > MAX_FILE_SIZE:
            report.note(f"inode {ino}: impossible size {inode.size}")
        blocks = [b for b in inode.direct if b]
        if inode.indirect:
            if not valid_block(inode.indirect):
                report.note(f"inode {ino}: bad indirect pointer {inode.indirect}")
            else:
                blocks.append(inode.indirect)
                pointers = indirect_pointers(_read_block(disk, inode.indirect))
                blocks += [b for b in pointers if b]
        for block in blocks:
            if not valid_block(block):
                report.note(f"inode {ino}: bad block pointer {block}")
            elif block in claimed:
                report.note(
                    f"block {block} claimed by both inode {claimed[block]} and {ino}"
                )
            else:
                claimed[block] = ino

    # -- directory walk ----------------------------------------------------------
    if ROOT_INO not in inodes or inodes[ROOT_INO].ftype != FileType.DIRECTORY:
        report.note("root directory missing")
        return report

    link_counts: dict[int, int] = {}
    reachable: set[int] = set()
    stack = [(ROOT_INO, ROOT_INO)]  # (dir, parent)
    visited_dirs: set[int] = set()
    while stack:
        dir_ino, parent_ino = stack.pop()
        if dir_ino in visited_dirs:
            continue
        visited_dirs.add(dir_ino)
        reachable.add(dir_ino)
        dinode = inodes[dir_ino]
        seen_dot = seen_dotdot = False
        names: set[str] = set()
        for block in [b for b in dinode.direct if b and valid_block(b)]:
            for off, ino_word, entry in scan_dirents(_read_block(disk, block)):
                if entry is None:
                    if ino_word:
                        report.note(f"dir {dir_ino}: garbled entry at offset {off}")
                    continue
                if entry.name in names:
                    report.note(f"dir {dir_ino}: duplicate name {entry.name!r}")
                names.add(entry.name)
                target = inodes.get(entry.ino)
                if target is None:
                    report.note(
                        f"dir {dir_ino}: entry {entry.name!r} -> unallocated inode {entry.ino}"
                    )
                    continue
                if entry.name == ".":
                    seen_dot = True
                    if entry.ino != dir_ino:
                        report.note(f"dir {dir_ino}: '.' points to {entry.ino}")
                    link_counts[dir_ino] = link_counts.get(dir_ino, 0) + 1
                elif entry.name == "..":
                    seen_dotdot = True
                    if entry.ino != parent_ino:
                        report.note(
                            f"dir {dir_ino}: '..' points to {entry.ino}, parent is {parent_ino}"
                        )
                    link_counts[entry.ino] = link_counts.get(entry.ino, 0) + 1
                else:
                    link_counts[entry.ino] = link_counts.get(entry.ino, 0) + 1
                    if target.ftype == FileType.DIRECTORY:
                        stack.append((entry.ino, dir_ino))
                    else:
                        reachable.add(entry.ino)
        if not seen_dot:
            report.note(f"dir {dir_ino}: missing '.'")
        if not seen_dotdot:
            report.note(f"dir {dir_ino}: missing '..'")

    # -- reachability and link counts ----------------------------------------------
    for ino, inode in inodes.items():
        if ino not in reachable:
            report.note(f"inode {ino}: allocated but unreachable")
        counted = link_counts.get(ino, 0)
        if counted and inode.nlink != counted:
            report.note(f"inode {ino}: nlink {inode.nlink}, found {counted} references")

    # -- bitmap --------------------------------------------------------------------------
    expected_used = set(range(sb.data_start)) | set(claimed) | {sb.total_blocks - 1}
    bitmap = b"".join(
        _read_block(disk, sb.bitmap_start + i) for i in range(sb.bitmap_blocks)
    )
    for block_no in range(sb.total_blocks):
        marked = bool(bitmap[block_no // 8] & (1 << (block_no % 8)))
        if marked and block_no not in expected_used:
            report.note(f"bitmap: block {block_no} marked used but unclaimed")
        elif not marked and block_no in expected_used:
            report.note(f"bitmap: block {block_no} in use but marked free")
    return report
