"""Tests for hard links and symbolic links (UFS + MFS + VFS)."""

import pytest

from repro.core import RioConfig
from repro.errors import FileExists, FileNotFound, InvalidArgument, IsADirectory
from repro.fs.dissect import dissect_image, snapshot
from repro.system import SystemSpec, build_system


@pytest.fixture(params=["ufs", "mfs"])
def system(request):
    if request.param == "mfs":
        return build_system(SystemSpec(fs_type="mfs"))
    return build_system(SystemSpec(policy="ufs_delayed", fs_blocks=512))


class TestHardLinks:
    def test_link_shares_content(self, system):
        vfs = system.vfs
        fd = vfs.open("/original", create=True)
        vfs.write(fd, b"shared bytes")
        vfs.close(fd)
        vfs.link("/original", "/alias")
        assert vfs.read(vfs.open("/alias"), 32) == b"shared bytes"
        # Writes through one name are visible through the other.
        fd = vfs.open("/alias")
        system.vfs.pwrite(fd, b"SHARED", 0)
        vfs.close(fd)
        assert vfs.read(vfs.open("/original"), 32) == b"SHARED bytes"

    def test_link_bumps_nlink(self, system):
        vfs = system.vfs
        fd = vfs.open("/a", create=True)
        vfs.close(fd)
        vfs.link("/a", "/b")
        assert system.fs.stat("/a").nlink == 2

    def test_unlink_one_name_keeps_data(self, system):
        vfs = system.vfs
        fd = vfs.open("/a", create=True)
        vfs.write(fd, b"keep")
        vfs.close(fd)
        vfs.link("/a", "/b")
        vfs.unlink("/a")
        assert not vfs.exists("/a")
        assert vfs.read(vfs.open("/b"), 8) == b"keep"
        assert system.fs.stat("/b").nlink == 1

    def test_unlink_last_name_frees(self, system):
        vfs = system.vfs
        fd = vfs.open("/a", create=True)
        vfs.close(fd)
        vfs.link("/a", "/b")
        vfs.unlink("/a")
        vfs.unlink("/b")
        assert not vfs.exists("/b")

    def test_link_to_directory_rejected(self, system):
        system.vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            system.vfs.link("/d", "/d2")

    def test_link_target_collision(self, system):
        vfs = system.vfs
        vfs.close(vfs.open("/a", create=True))
        vfs.close(vfs.open("/b", create=True))
        with pytest.raises(FileExists):
            vfs.link("/a", "/b")


class TestSymlinks:
    def test_follow_on_open(self, system):
        vfs = system.vfs
        fd = vfs.open("/real", create=True)
        vfs.write(fd, b"through the link")
        vfs.close(fd)
        vfs.symlink("/real", "/sym")
        assert vfs.read(vfs.open("/sym"), 32) == b"through the link"

    def test_readlink(self, system):
        system.vfs.symlink("/somewhere/else", "/sym")
        assert system.vfs.readlink("/sym") == "/somewhere/else"

    def test_readlink_of_regular_file_fails(self, system):
        system.vfs.close(system.vfs.open("/f", create=True))
        with pytest.raises(InvalidArgument):
            system.vfs.readlink("/f")

    def test_relative_target(self, system):
        vfs = system.vfs
        vfs.mkdir("/d")
        fd = vfs.open("/d/file", create=True)
        vfs.write(fd, b"relative")
        vfs.close(fd)
        vfs.symlink("file", "/d/rel")
        assert vfs.read(vfs.open("/d/rel"), 16) == b"relative"

    def test_symlink_to_directory_traversal(self, system):
        vfs = system.vfs
        vfs.mkdir("/target")
        fd = vfs.open("/target/inner", create=True)
        vfs.write(fd, b"deep")
        vfs.close(fd)
        vfs.symlink("/target", "/shortcut")
        assert vfs.read(vfs.open("/shortcut/inner"), 8) == b"deep"

    def test_dangling_symlink(self, system):
        system.vfs.symlink("/nowhere", "/dangling")
        with pytest.raises(FileNotFound):
            system.vfs.open("/dangling")
        assert system.vfs.readlink("/dangling") == "/nowhere"

    def test_symlink_loop_detected(self, system):
        vfs = system.vfs
        vfs.symlink("/b", "/a")
        vfs.symlink("/a", "/b")
        with pytest.raises(InvalidArgument, match="too many symlinks"):
            vfs.open("/a")

    def test_unlink_symlink_not_target(self, system):
        vfs = system.vfs
        fd = vfs.open("/real", create=True)
        vfs.write(fd, b"stays")
        vfs.close(fd)
        vfs.symlink("/real", "/sym")
        vfs.unlink("/sym")
        assert not vfs.exists("/sym")
        assert vfs.read(vfs.open("/real"), 8) == b"stays"


class TestLinksAcrossCrash:
    def test_links_survive_rio_warm_reboot(self):
        system = build_system(
            SystemSpec(policy="rio", rio=RioConfig.with_protection(), fs_blocks=512)
        )
        vfs = system.vfs
        fd = vfs.open("/file", create=True)
        vfs.write(fd, b"linked data")
        vfs.close(fd)
        vfs.link("/file", "/hard")
        vfs.symlink("/file", "/soft")
        system.crash("boom")
        system.reboot()
        vfs = system.vfs
        assert vfs.read(vfs.open("/hard"), 16) == b"linked data"
        assert vfs.read(vfs.open("/soft"), 16) == b"linked data"
        assert vfs.readlink("/soft") == "/file"

    def test_fs_with_links_validates(self):
        system = build_system(SystemSpec(policy="ufs_delayed", fs_blocks=512))
        vfs = system.vfs
        vfs.close(vfs.open("/f", create=True))
        vfs.link("/f", "/g")
        vfs.symlink("/f", "/s")
        system.fs.unmount()
        report = dissect_image(snapshot(system.disk))
        assert report.clean, report.findings
