"""Tests for footnote 1: the administrative reliability-writes toggle."""

from repro import SystemSpec, build_system


def make_rio():
    return build_system(SystemSpec("rio_prot", fs_blocks=512))


class TestMaintenanceToggle:
    def test_enable_flushes_and_survives_power_loss(self):
        """The extended-power-outage scenario: enable reliability writes,
        power off (cold reboot: memory scrubbed), everything is on disk."""
        system = make_rio()
        fd = system.vfs.open("/precious", create=True)
        system.vfs.write(fd, b"about to lose power")
        system.vfs.close(fd)
        system.enable_reliability_writes()
        system.crash("power outage imminent: operator shut down")
        system.reboot(preserve_memory=False)  # power actually went out
        assert system.vfs.exists("/precious")
        assert (
            system.fs.read(system.fs.namei("/precious"), 0, 32)
            == b"about to lose power"
        )

    def test_without_toggle_power_loss_loses_data(self):
        system = make_rio()
        fd = system.vfs.open("/precious", create=True)
        system.vfs.write(fd, b"about to lose power")
        system.vfs.close(fd)
        system.crash("power outage with no warning")
        system.reboot(preserve_memory=False)
        assert not system.vfs.exists("/precious")

    def test_enabled_mode_keeps_writing_to_disk(self):
        system = make_rio()
        system.enable_reliability_writes()
        fd = system.vfs.open("/during-maintenance", create=True)
        system.vfs.write(fd, b"written in maintenance mode")
        system.vfs.fsync(fd)  # honoured now: the policy is delayed, not rio
        system.vfs.close(fd)
        assert system.disk.stats.writes > 0

    def test_toggle_survives_warm_reboot(self):
        """An OS crash inside the maintenance window must not switch the
        toggle off: the file fsync'd after the warm reboot still has to
        survive the power failure the toggle was enabled for."""
        system = make_rio()
        system.enable_reliability_writes()
        system.crash("OS crash during maintenance")
        system.reboot()
        assert system.fs.policy.name == "ufs_delayed"
        assert not system.kernel.reliability_writes_off
        fd = system.vfs.open("/after-reboot", create=True)
        system.vfs.write(fd, b"fsync'd in maintenance mode")
        system.vfs.fsync(fd)
        system.crash("power outage")
        system.reboot(preserve_memory=False)
        assert system.fs.read(system.fs.namei("/after-reboot"), 0, 32) == (
            b"fsync'd in maintenance mode"
        )

    def test_disable_restores_rio_behaviour(self):
        system = make_rio()
        system.enable_reliability_writes()
        system.disable_reliability_writes()
        writes_before = system.disk.stats.writes
        fd = system.vfs.open("/back-to-normal", create=True)
        system.vfs.write(fd, b"memory is the stable store again")
        system.vfs.fsync(fd)
        system.vfs.close(fd)
        assert system.disk.stats.writes == writes_before
        assert system.kernel.reliability_writes_off
        # And the warm reboot still protects the new data.
        system.crash("normal crash")
        system.reboot()
        assert system.vfs.exists("/back-to-normal")
