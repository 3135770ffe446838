"""Plant hard and symbolic links in a mounted UFS, as an image carries them.

No system call creates a link: the service protocol, the workloads and the
command line never issue one.  UFS still *reads* them — ``namei`` follows
an on-disk SYMLINK inode, ``unlink`` drops one name of an inode with
``nlink > 1``, and fsck / dissect judge both — because a loaded image, a
repaired file system or a corrupted directory can hand it either.  These
helpers write the same metadata, in the same careful order, that a link
syscall would, so the tests can hold the readers to it.
"""

from __future__ import annotations

from repro.fs.types import BLOCK_SIZE, FileType


def plant_symlink(fs, target: str, link_path: str) -> int:
    """A SYMLINK inode at ``link_path`` whose target string, like a
    directory's contents, lives in one buffer-cache block."""
    encoded = target.encode()
    assert 0 < len(encoded) <= BLOCK_SIZE
    parent, name = fs.namei_parent(link_path)
    assert fs.dir_lookup(parent, name) is None
    inode = fs.ialloc(FileType.SYMLINK)
    block = fs.bmap(inode, 0, allocate=True)
    fs._fresh_meta_page(block, "dir")
    fs.write_meta(block, 0, encoded, meta_class="dir")
    inode.size = len(encoded)
    inode.nlink = 1
    fs.write_inode(inode)
    fs.dir_add(parent, name, inode.ino)
    fs._commit_metadata()
    return inode.ino


def plant_hard_link(fs, existing: str, new_path: str) -> None:
    """A second directory entry for ``existing``'s inode (link count
    first, then the name)."""
    inode = fs.iget(fs.namei(existing))
    assert inode.ftype == FileType.REGULAR
    parent, name = fs.namei_parent(new_path)
    assert fs.dir_lookup(parent, name) is None
    inode.nlink += 1
    fs.write_inode(inode)
    fs.dir_add(parent, name, inode.ino)
    fs._commit_metadata()
