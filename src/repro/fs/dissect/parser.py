"""The image walker: superblock -> bitmap -> inodes -> directory tree.

:func:`dissect_image` is the verifier's whole public surface: bytes in,
:class:`~repro.fs.dissect.findings.DissectReport` out.  It never raises
on image content — a corrupt image produces typed findings, an
internally-inconsistent one produces a bounded number of them, and a
parser bug degrades to a :data:`FindingKind.PARSER_ERROR` finding rather
than an exception escaping into the campaign that called it.

The traversal is bounded and cycle-safe: directories are visited at most
once (a revisit is itself a finding), the inode scan is bounded by the
geometry the checksummed superblock declares, and the findings list is
capped (:data:`~repro.fs.dissect.findings.MAX_FINDINGS`).
"""

from __future__ import annotations

import hashlib

from repro.fs.dissect import layout
from repro.fs.dissect.cstructs import TruncatedRecord
from repro.fs.dissect.findings import DissectReport, Finding, FindingKind

_DIRENT_INO = layout.DIRENT.index_of("ino")


def dissect_image(data: bytes) -> DissectReport:
    """Statically analyze one raw disk image; never raises on content."""
    report = DissectReport(image_sha256=hashlib.sha256(data).hexdigest())
    try:
        _scan(data, report)
    except Exception as exc:  # a verifier bug must not kill the campaign
        report.add(
            Finding(
                FindingKind.PARSER_ERROR,
                "image",
                f"internal parser error: {type(exc).__name__}: {exc}",
            )
        )
    return report


# -- scan phases -------------------------------------------------------------


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
    inodes: dict = {}
    claims: dict = {}  # block -> (claiming ino, file block index or None)
    for table_index in range(sb.inode_blocks):
        block_no = sb.inode_start + table_index
        block = read_block(block_no)
        first = table_index * layout.INODES_PER_BLOCK
        for ino in range(max(first, 1), first + layout.INODES_PER_BLOCK):
            offset = (ino - first) * layout.INODE_SIZE
            raw = block[offset : offset + layout.INODE_SIZE]
            report.inodes_scanned += 1
            if raw == b"\x00" * layout.INODE_SIZE:
                continue  # never-used slot
            try:
                record = layout.INODE.unpack(raw)
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
        found = references.get(ino, 0)
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


def _parse_superblock(block: bytes, where: str, report: DissectReport):
    """Parse one superblock copy; findings instead of exceptions.

    Returns the parsed record on success, None when this copy is
    unusable (the caller may try the other copy).
    """
    try:
        sb = layout.SUPERBLOCK.unpack(block)
    except TruncatedRecord:
        report.add(Finding(FindingKind.TRUNCATED_IMAGE, where, "header truncated"))
        return None
    if sb.magic != layout.SUPERBLOCK_MAGIC:
        report.add(
            Finding(FindingKind.BAD_MAGIC, where, f"magic {sb.magic:#010x}", block=0)
        )
        return None
    if sb.version != layout.ONDISK_VERSION:
        report.add(
            Finding(
                FindingKind.BAD_VERSION,
                where,
                f"layout version {sb.version}, verifier understands {layout.ONDISK_VERSION}",
            )
        )
        return None
    if (
        sb.header_size != layout.SUPERBLOCK_HEADER_SIZE
        or layout.superblock_checksum(block) != sb.checksum
    ):
        # Magic and version intact but the sealed header does not verify:
        # the signature of a torn (half-old, half-new) superblock page.
        report.add(
            Finding(
                FindingKind.TORN_PAGE,
                where,
                "header checksum mismatch — torn or half-stale superblock write",
                block=0,
            )
        )
        return None
    problem = _geometry_problem(sb)
    if problem is not None:
        report.add(Finding(FindingKind.BAD_GEOMETRY, where, problem))
        return None
    expected = _expected_summaries(sb)
    if sb.summary_count != len(expected):
        report.add(
            Finding(
                FindingKind.BAD_GEOMETRY,
                where,
                f"summary count {sb.summary_count}, geometry implies {len(expected)}",
            )
        )
        return None
    for index, (kind, start, blocks) in enumerate(expected):
        record = layout.REGION_SUMMARY.unpack(
            block[
                layout.REGION_SUMMARY_OFFSET
                + index * layout.REGION_SUMMARY_SIZE : layout.REGION_SUMMARY_OFFSET
                + (index + 1) * layout.REGION_SUMMARY_SIZE
            ]
        )
        if (
            record.magic != layout.REGION_SUMMARY_MAGIC
            or record.kind != kind
            or record.start != start
            or record.blocks != blocks
        ):
            report.add(
                Finding(
                    FindingKind.BAD_GEOMETRY,
                    where,
                    f"region summary {index} ({layout.REGION_NAMES.get(kind, kind)}) "
                    "disagrees with the geometry words",
                )
            )
            return None
    return sb


def _geometry_problem(sb) -> str | None:
    """The first geometry violation, or None when the regions are sane."""
    if not (0 < sb.data_start <= sb.total_blocks):
        return f"data region starts at {sb.data_start} of {sb.total_blocks} blocks"
    if sb.bitmap_start < 1 or sb.bitmap_blocks < 1:
        return "bitmap region missing"
    if sb.bitmap_blocks * layout.BLOCK_SIZE * 8 < sb.total_blocks:
        return "bitmap too small to cover every block"
    if sb.inode_start < sb.bitmap_start + sb.bitmap_blocks:
        return "inode region overlaps bitmap"
    if sb.inode_blocks < 1:
        return "inode region empty"
    metadata_end = sb.inode_start + sb.inode_blocks
    if sb.journal_blocks:
        if sb.journal_start < metadata_end:
            return "journal region overlaps inodes"
        metadata_end = sb.journal_start + sb.journal_blocks
    if sb.data_start < metadata_end:
        return "data region overlaps metadata"
    if not (0 < sb.root_ino < sb.inode_blocks * layout.INODES_PER_BLOCK):
        return f"root inode {sb.root_ino} out of range"
    return None


def _expected_summaries(sb) -> list:
    """(kind, start, blocks) records this geometry implies."""
    regions = [
        (layout.REGION_SUPER, 0, 1),
        (layout.REGION_BITMAP, sb.bitmap_start, sb.bitmap_blocks),
        (layout.REGION_INODE, sb.inode_start, sb.inode_blocks),
    ]
    if sb.journal_blocks:
        regions.append((layout.REGION_JOURNAL, sb.journal_start, sb.journal_blocks))
    regions.append(
        (layout.REGION_DATA, sb.data_start, sb.total_blocks - 1 - sb.data_start)
    )
    regions.append((layout.REGION_BACKUP, sb.total_blocks - 1, 1))
    return regions


def _valid_data_block(sb, block_no: int) -> bool:
    return sb.data_start <= block_no < sb.total_blocks


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
            for i, entry in enumerate(layout.INDIRECT.unpack(read_block(record.indirect)).ptr):
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
    of inodes reachable from the root and ``{ino: directory entries that
    reference it}`` ("." and ".." included — they are what ``nlink``
    counts on a directory)."""
    reachable: set = set()
    references: dict = {}
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
            for entry in layout.INDIRECT.unpack(read_block(record.indirect)).ptr:
                if entry and _valid_data_block(sb, entry):
                    blocks.append(entry)
        seen_dot = seen_dotdot = False
        names: set = set()
        for block_no in blocks:
            off = -layout.DIRENT_SIZE
            for flat in layout.DIRENT.iter_unpack(read_block(block_no)):
                off += layout.DIRENT_SIZE
                if flat[_DIRENT_INO] == 0:
                    continue  # empty slot (fsck zeroes only the ino word)
                entry = layout.DIRENT.record(flat)
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
                names.add(name)
                references[entry.ino] = references.get(entry.ino, 0) + 1
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


def _decodable(raw: bytes) -> bool:
    try:
        raw.decode()
        return True
    except UnicodeDecodeError:
        return False


def _check_bitmap(sb, claims, read_block, report) -> None:
    """Cross-check the allocation bitmap against the claimed blocks."""
    bitmap = b"".join(
        read_block(sb.bitmap_start + i) for i in range(sb.bitmap_blocks)
    )
    expected = bytearray(sb.bitmap_blocks * layout.BLOCK_SIZE)
    for block_no in range(min(sb.data_start, sb.total_blocks)):
        expected[block_no // 8] |= 1 << (block_no % 8)
    backup = sb.total_blocks - 1
    expected[backup // 8] |= 1 << (backup % 8)
    for block_no in claims:
        expected[block_no // 8] |= 1 << (block_no % 8)
    leaked = lost = 0
    first_leaked = first_lost = None
    for block_no in range(sb.total_blocks):
        have = bitmap[block_no // 8] >> (block_no % 8) & 1
        want = expected[block_no // 8] >> (block_no % 8) & 1
        if have and not want:
            leaked += 1
            first_leaked = block_no if first_leaked is None else first_leaked
        elif want and not have:
            lost += 1
            first_lost = block_no if first_lost is None else first_lost
    if leaked:
        report.add(
            Finding(
                FindingKind.BITMAP_DISAGREEMENT,
                "bitmap",
                f"{leaked} block(s) marked allocated but claimed by no inode "
                f"(first: {first_leaked})",
                block=first_leaked,
            )
        )
    if lost:
        report.add(
            Finding(
                FindingKind.BITMAP_DISAGREEMENT,
                "bitmap",
                f"{lost} claimed block(s) marked free (first: {first_lost})",
                block=first_lost,
            )
        )
