"""The per-slot loops the block decoders replaced, kept as test oracles.

Everything below the helpers is the code of the commit before the block
decoders, verbatim: the dissect walker that sliced and unpacked one inode
or directory slot at a time (and one indirect pointer at a time), and
fsck's directory repair pass that parsed ``DirEntry.from_bytes`` per
slot.  ``tests/test_block_decoders.py`` runs them beside the shipped code
and requires equal reports, fix lists and repaired bytes.  Unchanged
helpers (superblock parse, bitmap check, the raw-disk accessor) are the
shipped ones.
"""

from __future__ import annotations

import hashlib
import sys

from repro.fs.dissect import layout
from repro.fs.dissect.cstructs import Record, TruncatedRecord
from repro.fs.dissect.findings import DissectReport, Finding, FindingKind
from repro.fs.dissect.parser import (
    _check_bitmap,
    _decodable,
    _parse_superblock,
    _valid_data_block,
)
from repro.fs.fsck import FsckReport, _RawFs
from repro.fs.ondisk import DIRENT_SIZE, DirEntry, Inode
from repro.fs.types import BLOCK_SIZE, FileType, PTRS_PER_INDIRECT, ROOT_INO


def slot_unpack(cstruct, data) -> Record:
    """``CStruct.unpack`` as it was: the field plan rebuilt per record."""
    if len(data) < cstruct.size:
        raise TruncatedRecord(f"{cstruct.name}: need {cstruct.size} bytes, have {len(data)}")
    flat = cstruct._struct.unpack(bytes(data[: cstruct.size]))
    values: dict = {}
    cursor = 0
    for field in cstruct.fields:
        if field.ctype == "char":
            values[field.name] = flat[cursor]
            cursor += 1
        elif field.is_array:
            values[field.name] = tuple(flat[cursor : cursor + field.count])
            cursor += field.count
        else:
            values[field.name] = flat[cursor]
            cursor += 1
    for pad_name in [n for n in values if n.startswith("pad")]:
        del values[pad_name]
    return Record(values)


def dissect_image_per_slot(data: bytes) -> DissectReport:
    """``dissect_image`` over the per-slot walker below."""
    report = DissectReport(image_sha256=hashlib.sha256(data).hexdigest())
    try:
        _scan(data, report)
    except Exception as exc:
        report.add(
            Finding(
                FindingKind.PARSER_ERROR,
                "image",
                f"internal parser error: {type(exc).__name__}: {exc}",
            )
        )
    return report


# -- dissect: the walker before the block decoders ---------------------------


def _scan(data: bytes, report: DissectReport) -> None:
    report.blocks_total = len(data) // layout.BLOCK_SIZE
    if len(data) < 2 * layout.BLOCK_SIZE or len(data) % layout.BLOCK_SIZE:
        report.add(
            Finding(
                FindingKind.TRUNCATED_IMAGE,
                "image",
                f"{len(data)} bytes is not a whole image "
                f"(expected a multiple of {layout.BLOCK_SIZE}, at least two blocks)",
            )
        )
        if report.blocks_total < 2:
            return

    def read_block(block_no: int) -> bytes:
        return data[block_no * layout.BLOCK_SIZE : (block_no + 1) * layout.BLOCK_SIZE]

    # -- phase 1: superblock (primary, falling back to the backup copy) --
    sb = _parse_superblock(read_block(0), "superblock", report)
    if sb is None:
        sb = _parse_superblock(
            read_block(report.blocks_total - 1), "backup superblock", report
        )
    if sb is None:
        return
    if sb.total_blocks != report.blocks_total:
        report.add(
            Finding(
                FindingKind.BAD_GEOMETRY,
                "superblock",
                f"declares {sb.total_blocks} blocks, image holds {report.blocks_total}",
            )
        )
        return
    report.walk_completed = True

    # -- phase 2: inode region scan --------------------------------------
    num_inodes = sb.inode_blocks * layout.INODES_PER_BLOCK
    inodes: dict = {}
    claims: dict = {}  # block -> (claiming ino, file block index or None)
    for ino in range(1, num_inodes):
        block_no = sb.inode_start + ino // layout.INODES_PER_BLOCK
        offset = (ino % layout.INODES_PER_BLOCK) * layout.INODE_SIZE
        raw = read_block(block_no)[offset : offset + layout.INODE_SIZE]
        report.inodes_scanned += 1
        if raw == b"\x00" * layout.INODE_SIZE:
            continue  # never-used slot
        try:
            record = slot_unpack(layout.INODE, raw)
        except TruncatedRecord:  # cannot happen for a whole slot; be safe
            record = None
        if (
            record is None
            or record.magic != layout.INODE_MAGIC
            or record.ftype not in layout.FTYPE_NAMES
        ):
            report.add(
                Finding(
                    FindingKind.MANGLED_INODE,
                    f"inode {ino}",
                    "slot is neither free nor a valid inode record",
                    block=block_no,
                )
            )
            continue
        if record.ftype == layout.FTYPE_FREE:
            continue
        report.inodes_allocated += 1
        inodes[ino] = record
        _check_inode_blocks(sb, ino, record, claims, read_block, report)

    # -- phases 3+4: directory walk from the root ------------------------
    reachable, references = _walk_directories(sb, inodes, read_block, report)
    for ino in sorted(inodes):
        if ino not in reachable:
            report.add(
                Finding(
                    FindingKind.UNREACHABLE_INODE,
                    f"inode {ino}",
                    f"allocated {layout.FTYPE_NAMES[inodes[ino].ftype]} inode "
                    "unreachable from the root directory",
                )
            )
        found = references.count(ino)
        if found and inodes[ino].nlink != found:
            report.add(
                Finding(
                    FindingKind.LINK_COUNT_MISMATCH,
                    f"inode {ino}",
                    f"nlink {inodes[ino].nlink}, the walk found {found} references",
                )
            )

    # -- phase 5: allocation bitmap cross-check --------------------------
    _check_bitmap(sb, claims, read_block, report)


def _check_inode_blocks(sb, ino, record, claims, read_block, report) -> None:
    """Validate one inode's pointers, claims, and size-vs-blocks."""
    mapped_indices = []

    def claim(block_no: int, file_index: int | None, what: str) -> None:
        if not _valid_data_block(sb, block_no):
            report.add(
                Finding(
                    FindingKind.BAD_POINTER,
                    f"inode {ino}",
                    f"{what} points at block {block_no}, outside the data region",
                    block=block_no,
                )
            )
            return
        if block_no in claims:
            other_ino, _ = claims[block_no]
            report.add(
                Finding(
                    FindingKind.DUPLICATE_CLAIM,
                    f"inode {ino}",
                    f"{what} claims block {block_no}, already claimed by inode {other_ino}",
                    block=block_no,
                )
            )
            return
        claims[block_no] = (ino, file_index)
        if file_index is not None:
            mapped_indices.append(file_index)

    for slot, block_no in enumerate(record.direct):
        if block_no:
            claim(block_no, slot, f"direct[{slot}]")
    if record.indirect:
        before = record.indirect in claims or not _valid_data_block(sb, record.indirect)
        claim(record.indirect, None, "indirect pointer")
        if not before:
            ind = read_block(record.indirect)
            for i in range(layout.PTRS_PER_INDIRECT):
                entry = int.from_bytes(ind[i * 4 : (i + 1) * 4], "little")
                if entry:
                    claim(entry, layout.N_DIRECT + i, f"indirect[{i}]")

    if record.size > layout.MAX_FILE_BLOCKS * layout.BLOCK_SIZE:
        report.add(
            Finding(
                FindingKind.SIZE_MISMATCH,
                f"inode {ino}",
                f"size {record.size} exceeds the maximum representable file",
            )
        )
        return
    needed = -(-record.size // layout.BLOCK_SIZE)  # ceil
    beyond = [i for i in mapped_indices if i >= needed]
    if beyond:
        report.add(
            Finding(
                FindingKind.SIZE_MISMATCH,
                f"inode {ino}",
                f"size {record.size} needs {needed} blocks but file block "
                f"{min(beyond)} is mapped beyond end-of-file",
            )
        )


def _walk_directories(sb, inodes, read_block, report) -> tuple:
    """Bounded, cycle-safe BFS over the directory tree; returns the set
    of inodes reachable from the root and the list of every inode number
    a parsed entry named (one element per entry, dot entries included)."""
    reachable: set = set()
    references: list = []
    visited: set = set()
    root = inodes.get(sb.root_ino)
    if root is None or root.ftype != layout.FTYPE_DIRECTORY:
        report.add(
            Finding(
                FindingKind.DANGLING_DIRENT,
                "root",
                f"root inode {sb.root_ino} is not an allocated directory",
            )
        )
        return reachable, references
    queue = [(sb.root_ino, sb.root_ino)]
    reachable.add(sb.root_ino)
    while queue:
        dir_ino, parent_ino = queue.pop(0)
        if dir_ino in visited:
            report.add(
                Finding(
                    FindingKind.DIRECTORY_CYCLE,
                    f"dir {dir_ino}",
                    "directory reachable along two paths (cycle or illegal hard link)",
                )
            )
            continue
        visited.add(dir_ino)
        report.directories_walked += 1
        record = inodes[dir_ino]
        blocks = [b for b in record.direct if b and _valid_data_block(sb, b)]
        if record.indirect and _valid_data_block(sb, record.indirect):
            ind = read_block(record.indirect)
            for i in range(layout.PTRS_PER_INDIRECT):
                entry = int.from_bytes(ind[i * 4 : (i + 1) * 4], "little")
                if entry and _valid_data_block(sb, entry):
                    blocks.append(entry)
        seen_dot = seen_dotdot = False
        names: list = []
        for block_no in blocks:
            block = read_block(block_no)
            for off in range(0, layout.BLOCK_SIZE, layout.DIRENT_SIZE):
                slot = block[off : off + layout.DIRENT_SIZE]
                entry = slot_unpack(layout.DIRENT, slot)
                if entry.ino == 0:
                    continue  # empty slot (fsck zeroes only the ino word)
                name_raw = entry.name[: entry.name_len]
                if (
                    entry.name_len == 0
                    or entry.name_len > layout.MAX_NAME
                    or b"\x00" in name_raw
                    or not _decodable(name_raw)
                ):
                    report.add(
                        Finding(
                            FindingKind.GARBLED_DIRENT,
                            f"dir {dir_ino} block {block_no}",
                            f"slot at +{off} does not parse as a directory record",
                            block=block_no,
                        )
                    )
                    continue
                name = name_raw.decode()
                if name in names:
                    report.add(
                        Finding(
                            FindingKind.DUPLICATE_NAME,
                            f"dir {dir_ino}",
                            f"two live entries are named {name!r}",
                            block=block_no,
                        )
                    )
                names.append(name)
                references.append(entry.ino)
                if name == ".":
                    seen_dot = True
                    if entry.ino != dir_ino:
                        report.add(
                            Finding(
                                FindingKind.BAD_DOT_ENTRY,
                                f"dir {dir_ino}",
                                f"'.' points at inode {entry.ino}",
                            )
                        )
                    continue
                if name == "..":
                    seen_dotdot = True
                    if entry.ino != parent_ino:
                        report.add(
                            Finding(
                                FindingKind.BAD_DOT_ENTRY,
                                f"dir {dir_ino}",
                                f"'..' points at inode {entry.ino}, parent is {parent_ino}",
                            )
                        )
                    continue
                target = inodes.get(entry.ino)
                if target is None:
                    report.add(
                        Finding(
                            FindingKind.DANGLING_DIRENT,
                            f"dir {dir_ino}",
                            f"entry {name!r} references free or mangled inode {entry.ino}",
                            block=block_no,
                        )
                    )
                    continue
                reachable.add(entry.ino)
                if target.ftype == layout.FTYPE_DIRECTORY:
                    queue.append((entry.ino, dir_ino))
        for missing, label in ((not seen_dot, "'.'"), (not seen_dotdot, "'..'")):
            if missing:
                report.add(
                    Finding(
                        FindingKind.BAD_DOT_ENTRY,
                        f"dir {dir_ino}",
                        f"{label} entry missing",
                    )
                )
    return reachable, references


# -- fsck: the directory pass before the block decoders ----------------------
# (``fsck_per_slot`` swaps these three into the shipped fsck for one run.)


def _fsck_valid_data_block(sb, block_no: int) -> bool:
    return sb.data_start <= block_no < sb.total_blocks


def _dir_block_list(raw: _RawFs, dinode: Inode) -> list[int]:
    blocks = [b for b in dinode.direct if b and _fsck_valid_data_block(raw.sb, b)]
    if dinode.indirect and _fsck_valid_data_block(raw.sb, dinode.indirect):
        ind = raw.read_block(dinode.indirect)
        for i in range(PTRS_PER_INDIRECT):
            block = int.from_bytes(ind[i * 4 : (i + 1) * 4], "little")
            if block and _fsck_valid_data_block(raw.sb, block):
                blocks.append(block)
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
            data = bytearray(raw.read_block(block_no))
            block_changed = False
            for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
                entry = DirEntry.from_bytes(bytes(data[off : off + DIRENT_SIZE]))
                if entry is None:
                    if data[off : off + 4] != b"\x00\x00\x00\x00":
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
    for block_no in blocks:
        data = bytearray(raw.read_block(block_no))
        for off in range(0, BLOCK_SIZE, DIRENT_SIZE):
            if data[off : off + 4] == b"\x00\x00\x00\x00":
                data[off : off + DIRENT_SIZE] = entry.to_bytes()
                raw.write_block(block_no, bytes(data))
                return True
    return False


def fsck_per_slot(disk, monkeypatch) -> FsckReport:
    """The shipped ``fsck`` with its directory pass replaced by the
    per-slot one above."""
    shipped = sys.modules["repro.fs.fsck"]  # ``repro.fs.fsck`` itself is the function
    with monkeypatch.context() as patch:
        patch.setattr(shipped, "_dir_block_list", _dir_block_list)
        patch.setattr(shipped, "_walk_tree", _walk_tree)
        patch.setattr(shipped, "_insert_dirent", _insert_dirent)
        return shipped.fsck(disk)
