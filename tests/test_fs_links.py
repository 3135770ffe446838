"""UFS reading hard and symbolic links it finds on disk.

Nothing creates a link through a syscall; the links here are planted the
way an image carries them (``tests/ondisk_links.py``) and read back
through the VFS, under a Unix write policy and under Rio.
"""

import pytest

from repro.errors import FileNotFound, InvalidArgument
from repro.fs.dissect import dissect_image, snapshot
from repro.fs.types import FileType
from repro.system import SystemSpec, build_system

from tests.ondisk_links import plant_hard_link, plant_symlink


@pytest.fixture(params=["ufs", "rio"])
def system(request):
    if request.param == "rio":
        return build_system(SystemSpec("rio_prot", fs_blocks=512))
    return build_system(SystemSpec("ufs_delayed", fs_blocks=512))


def make_file(vfs, path: str, data: bytes = b"") -> None:
    fd = vfs.open(path, create=True)
    vfs.write(fd, data)
    vfs.close(fd)


class TestHardLinks:
    def test_link_shares_content(self, system):
        vfs = system.vfs
        make_file(vfs, "/original", b"shared bytes")
        plant_hard_link(system.fs, "/original", "/alias")
        assert vfs.read(vfs.open("/alias"), 32) == b"shared bytes"
        # Writes through one name are visible through the other.
        fd = vfs.open("/alias")
        vfs.pwrite(fd, b"SHARED", 0)
        vfs.close(fd)
        assert vfs.read(vfs.open("/original"), 32) == b"SHARED bytes"

    def test_link_bumps_nlink(self, system):
        make_file(system.vfs, "/a")
        plant_hard_link(system.fs, "/a", "/b")
        a, b = system.vfs.stat("/a"), system.vfs.stat("/b")
        assert a.ino == b.ino and a.nlink == 2

    def test_unlink_one_name_keeps_data(self, system):
        vfs = system.vfs
        make_file(vfs, "/a", b"keep")
        plant_hard_link(system.fs, "/a", "/b")
        vfs.unlink("/a")
        assert not vfs.exists("/a")
        assert vfs.read(vfs.open("/b"), 8) == b"keep"
        assert system.fs.stat("/b").nlink == 1

    def test_unlink_last_name_frees(self, system):
        vfs, fs = system.vfs, system.fs
        make_file(vfs, "/a", b"x" * 9000)
        plant_hard_link(fs, "/a", "/b")
        inode = vfs.stat("/a")
        blocks = [b for b in inode.direct if b]
        assert len(blocks) == 2
        vfs.unlink("/a")
        assert fs.iget(inode.ino).ftype == FileType.REGULAR
        vfs.unlink("/b")
        assert not vfs.exists("/b")
        with pytest.raises(FileNotFound, match="not allocated"):
            fs.iget(inode.ino)
        assert not any(fs.allocator.is_allocated(b) for b in blocks)


class TestSymlinks:
    def test_follow_on_open(self, system):
        make_file(system.vfs, "/real", b"through the link")
        plant_symlink(system.fs, "/real", "/sym")
        assert system.vfs.read(system.vfs.open("/sym"), 32) == b"through the link"

    def test_relative_target(self, system):
        vfs = system.vfs
        vfs.mkdir("/d")
        make_file(vfs, "/d/file", b"relative")
        plant_symlink(system.fs, "file", "/d/rel")
        assert vfs.read(vfs.open("/d/rel"), 16) == b"relative"

    def test_symlink_to_directory_traversal(self, system):
        vfs = system.vfs
        vfs.mkdir("/target")
        make_file(vfs, "/target/inner", b"deep")
        plant_symlink(system.fs, "/target", "/shortcut")
        assert vfs.read(vfs.open("/shortcut/inner"), 8) == b"deep"
        assert vfs.readdir("/shortcut") == ["inner"]

    def test_dangling_symlink(self, system):
        plant_symlink(system.fs, "/nowhere", "/dangling")
        with pytest.raises(FileNotFound):
            system.vfs.open("/dangling")
        assert not system.vfs.exists("/dangling")

    def test_symlink_loop_detected(self, system):
        plant_symlink(system.fs, "/b", "/a")
        plant_symlink(system.fs, "/a", "/b")
        with pytest.raises(InvalidArgument, match="too many symlinks"):
            system.vfs.open("/a")

    def test_unlink_symlink_not_target(self, system):
        vfs = system.vfs
        make_file(vfs, "/real", b"stays")
        plant_symlink(system.fs, "/real", "/sym")
        vfs.unlink("/sym")
        assert not vfs.exists("/sym")
        assert vfs.read(vfs.open("/real"), 8) == b"stays"


class TestLinksAcrossCrash:
    def test_links_survive_rio_warm_reboot(self):
        system = build_system(SystemSpec("rio_prot", fs_blocks=512))
        make_file(system.vfs, "/file", b"linked data")
        plant_hard_link(system.fs, "/file", "/hard")
        plant_symlink(system.fs, "/file", "/soft")
        system.crash("boom")
        system.reboot()
        vfs = system.vfs
        assert vfs.read(vfs.open("/hard"), 16) == b"linked data"
        assert vfs.read(vfs.open("/soft"), 16) == b"linked data"
        assert system.fs.stat("/file").nlink == 2

    def test_fs_with_links_validates(self):
        system = build_system(SystemSpec("ufs_delayed", fs_blocks=512))
        make_file(system.vfs, "/f")
        plant_hard_link(system.fs, "/f", "/g")
        plant_symlink(system.fs, "/f", "/s")
        system.settle()
        report = dissect_image(snapshot(system.disk))
        assert report.clean, report.findings
