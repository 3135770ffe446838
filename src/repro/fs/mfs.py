"""MFS: the memory file system (Table 2's performance ceiling).

"The Memory File System, which is completely memory-resident and does no
disk I/O, is shown to illustrate optimal performance" [McKusick90].  Files
live in Python structures; the only virtual time consumed is the CPU cost
of the copies (charged at the same rate as the kernel data plane) and the
syscall overhead charged by the VFS.  Nothing survives a crash — data is
"never" permanent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileSystemError,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.fs.types import FileType, MAX_NAME, ROOT_INO


@dataclass
class _MemNode:
    ino: int
    ftype: FileType
    data: bytearray = field(default_factory=bytearray)
    children: dict[str, int] = field(default_factory=dict)
    nlink: int = 1
    mtime_ns: int = 0
    symlink_target: str = ""

    @property
    def size(self) -> int:
        return len(self.data)


class MemoryFileSystem:
    """A purely memory-resident file system with the UFS operation surface."""

    fs_type = "mfs"

    def __init__(self, kernel, dev: int, policy=None) -> None:
        self.kernel = kernel
        self.dev = dev
        self.policy = policy  # accepted for interface parity; unused
        self._nodes: dict[int, _MemNode] = {}
        self._next_ino = ROOT_INO
        self.mounted = False

    def mount(self) -> None:
        root = self._new_node(FileType.DIRECTORY)
        assert root.ino == ROOT_INO
        root.nlink = 2
        self.kernel.register_filesystem(self.dev, self)
        self.mounted = True

    def unmount(self) -> None:
        self.mounted = False

    def _new_node(self, ftype: FileType) -> _MemNode:
        node = _MemNode(ino=self._next_ino, ftype=ftype)
        self._next_ino += 1
        self._nodes[node.ino] = node
        return node

    def _charge_copy(self, nbytes: int) -> None:
        self.kernel.charge_copy(nbytes)

    # -- path resolution -------------------------------------------------

    @staticmethod
    def _split_path(path: str) -> list[str]:
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute: {path!r}")
        parts = [p for p in path.split("/") if p]
        for part in parts:
            if len(part.encode()) > MAX_NAME:
                raise InvalidArgument(f"name too long: {part!r}")
        return parts

    def _node(self, ino: int) -> _MemNode:
        node = self._nodes.get(ino)
        if node is None:
            raise FileNotFound(f"inode {ino}")
        return node

    MAX_SYMLINK_DEPTH = 8

    def namei(self, path: str, *, follow: bool = True) -> int:
        parts = list(self._split_path(path))
        ino = ROOT_INO
        index = 0
        expansions = 0
        while index < len(parts):
            part = parts[index]
            node = self._node(ino)
            if node.ftype != FileType.DIRECTORY:
                raise NotADirectory(path)
            if part not in node.children:
                raise FileNotFound(path)
            child = self._node(node.children[part])
            is_last = index == len(parts) - 1
            if child.ftype == FileType.SYMLINK and (follow or not is_last):
                expansions += 1
                if expansions > self.MAX_SYMLINK_DEPTH:
                    raise InvalidArgument(f"too many symlinks: {path!r}")
                target = child.symlink_target
                remainder = parts[index + 1 :]
                if target.startswith("/"):
                    parts = self._split_path(target) + remainder
                    ino = ROOT_INO
                else:
                    parts = [p for p in target.split("/") if p] + remainder
                index = 0
                continue
            ino = child.ino
            index += 1
        return ino

    def _parent(self, path: str) -> tuple[_MemNode, str]:
        parts = self._split_path(path)
        if not parts:
            raise InvalidArgument("path refers to the root directory")
        ino = ROOT_INO
        for part in parts[:-1]:
            node = self._node(ino)
            if node.ftype != FileType.DIRECTORY:
                raise NotADirectory(path)
            if part not in node.children:
                raise FileNotFound(path)
            ino = node.children[part]
        parent = self._node(ino)
        if parent.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        return parent, parts[-1]

    # -- namespace operations ----------------------------------------------

    def create(self, path: str) -> int:
        parent, name = self._parent(path)
        if name in parent.children:
            raise FileExists(path)
        node = self._new_node(FileType.REGULAR)
        parent.children[name] = node.ino
        return node.ino

    def mkdir(self, path: str) -> int:
        parent, name = self._parent(path)
        if name in parent.children:
            raise FileExists(path)
        node = self._new_node(FileType.DIRECTORY)
        node.nlink = 2
        parent.children[name] = node.ino
        parent.nlink += 1
        return node.ino

    def unlink(self, path: str) -> None:
        parent, name = self._parent(path)
        if name not in parent.children:
            raise FileNotFound(path)
        node = self._node(parent.children[name])
        if node.ftype == FileType.DIRECTORY:
            raise IsADirectory(path)
        del parent.children[name]
        node.nlink -= 1
        if node.nlink <= 0:
            del self._nodes[node.ino]

    def rmdir(self, path: str) -> None:
        parent, name = self._parent(path)
        if name not in parent.children:
            raise FileNotFound(path)
        node = self._node(parent.children[name])
        if node.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        if node.children:
            raise DirectoryNotEmpty(path)
        del parent.children[name]
        del self._nodes[node.ino]
        parent.nlink -= 1

    def symlink(self, target: str, link_path: str) -> int:
        parent, name = self._parent(link_path)
        if name in parent.children:
            raise FileExists(link_path)
        node = self._new_node(FileType.SYMLINK)
        node.symlink_target = target
        parent.children[name] = node.ino
        return node.ino

    def readlink(self, path: str) -> str:
        node = self._node(self.namei(path, follow=False))
        if node.ftype != FileType.SYMLINK:
            raise InvalidArgument(f"not a symlink: {path!r}")
        return node.symlink_target

    def link(self, existing: str, new_path: str) -> None:
        ino = self.namei(existing)
        node = self._node(ino)
        if node.ftype == FileType.DIRECTORY:
            raise IsADirectory(existing)
        parent, name = self._parent(new_path)
        if name in parent.children:
            raise FileExists(new_path)
        node.nlink += 1
        parent.children[name] = ino

    def rename(self, old_path: str, new_path: str) -> None:
        old_parent, old_name = self._parent(old_path)
        if old_name not in old_parent.children:
            raise FileNotFound(old_path)
        new_parent, new_name = self._parent(new_path)
        ino = old_parent.children[old_name]
        existing = new_parent.children.get(new_name)
        if existing is not None and existing != ino:
            target = self._node(existing)
            if target.ftype == FileType.DIRECTORY:
                raise IsADirectory(new_path)
            del new_parent.children[new_name]
            del self._nodes[existing]
        del old_parent.children[old_name]
        new_parent.children[new_name] = ino

    # -- data operations --------------------------------------------------------

    def write(self, ino: int, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidArgument("negative offset")
        node = self._node(ino)
        if node.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        if offset > len(node.data):
            node.data.extend(b"\x00" * (offset - len(node.data)))
        node.data[offset : offset + len(data)] = data
        node.mtime_ns = self.kernel.clock.now_ns
        self._charge_copy(len(data))
        return len(data)

    def read(self, ino: int, offset: int, length: int) -> bytes:
        node = self._node(ino)
        if node.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        chunk = bytes(node.data[max(0, offset) : max(0, offset) + max(0, length)])
        self._charge_copy(len(chunk))
        return chunk

    def truncate(self, ino: int, size: int = 0) -> None:
        node = self._node(ino)
        if node.ftype != FileType.REGULAR:
            raise IsADirectory(f"inode {ino}")
        del node.data[size:]

    # -- inspection ------------------------------------------------------------

    def stat(self, path: str) -> _MemNode:
        return self._node(self.namei(path))

    def readdir(self, path: str) -> list[str]:
        node = self._node(self.namei(path))
        if node.ftype != FileType.DIRECTORY:
            raise NotADirectory(path)
        return sorted(node.children)

    def exists(self, path: str) -> bool:
        try:
            self.namei(path)
            return True
        except FileSystemError:
            return False

    def size_of(self, ino: int) -> int:
        return self._node(ino).size

    # -- no-op durability surface --------------------------------------------------

    def fsync(self, ino: int) -> None:
        pass  # nothing is ever durable

    def sync(self) -> None:
        pass

    def close_hook(self, ino: int) -> None:
        pass

    def periodic_flush(self) -> None:
        pass
