"""Tests for the IMA engine: measurement decisions, log, PCR-10."""

import pytest

from repro.common.hexutil import sha256_hex, zero_digest
from repro.kernelsim.ima import (
    DEFAULT_EXCLUDED_FSTYPES,
    ImaEngine,
    ImaHook,
    ImaLogEntry,
    ImaPolicy,
    template_hash,
)
from repro.kernelsim.vfs import FilesystemType, Vfs
from repro.tpm.device import Tpm
from repro.tpm.pcr import IMA_PCR_INDEX, replay_extends


@pytest.fixture()
def vfs() -> Vfs:
    filesystem = Vfs()
    filesystem.mount("/dev/shm", FilesystemType.TMPFS)
    return filesystem


@pytest.fixture()
def engine(tpm: Tpm) -> ImaEngine:
    return ImaEngine(ImaPolicy(), tpm)


def _measure(engine: ImaEngine, vfs: Vfs, path: str, hook=ImaHook.BPRM_CHECK,
             recorded: str | None = None):
    stat = vfs.stat(path)
    return engine.process_event(
        recorded if recorded is not None else path, stat, vfs.read_file(path), hook
    )


class TestMeasurementDecision:
    def test_first_exec_is_measured(self, engine, vfs):
        vfs.write_file("/usr/bin/ls", b"ls", executable=True)
        entry = _measure(engine, vfs, "/usr/bin/ls")
        assert entry is not None
        assert entry.path == "/usr/bin/ls"
        assert entry.filedata_hash == "sha256:" + sha256_hex(b"ls")

    def test_second_exec_not_measured(self, engine, vfs):
        vfs.write_file("/usr/bin/ls", b"ls", executable=True)
        _measure(engine, vfs, "/usr/bin/ls")
        assert _measure(engine, vfs, "/usr/bin/ls") is None

    def test_content_change_remeasured(self, engine, vfs):
        vfs.write_file("/usr/bin/ls", b"v1", executable=True)
        _measure(engine, vfs, "/usr/bin/ls")
        vfs.write_file("/usr/bin/ls", b"v2", executable=True)
        entry = _measure(engine, vfs, "/usr/bin/ls")
        assert entry is not None
        assert entry.filedata_hash == "sha256:" + sha256_hex(b"v2")

    def test_excluded_fstype_not_measured(self, engine, vfs):
        vfs.write_file("/dev/shm/payload", b"x", executable=True)
        assert _measure(engine, vfs, "/dev/shm/payload") is None

    def test_rename_same_fs_not_remeasured(self, engine, vfs):
        """The paper's P4 at the engine level."""
        vfs.write_file("/tmp/payload", b"x", executable=True)
        assert _measure(engine, vfs, "/tmp/payload") is not None
        vfs.rename("/tmp/payload", "/usr/bin/payload")
        assert _measure(engine, vfs, "/usr/bin/payload") is None

    def test_rename_with_reevaluation_flag(self, tpm, vfs):
        """The proposed M3 fix flips the P4 behaviour."""
        engine = ImaEngine(ImaPolicy(re_evaluate_on_path_change=True), tpm)
        vfs.write_file("/tmp/payload", b"x", executable=True)
        _measure(engine, vfs, "/tmp/payload")
        vfs.rename("/tmp/payload", "/usr/bin/payload")
        entry = _measure(engine, vfs, "/usr/bin/payload")
        assert entry is not None
        assert entry.path == "/usr/bin/payload"

    def test_cross_fs_move_is_remeasured(self, engine, vfs):
        vfs.write_file("/dev/shm/payload", b"x", executable=True)
        vfs.rename("/dev/shm/payload", "/usr/bin/payload")
        assert _measure(engine, vfs, "/usr/bin/payload") is not None

    def test_hook_filtering(self, tpm, vfs):
        engine = ImaEngine(ImaPolicy(measure_hooks=(ImaHook.BPRM_CHECK,)), tpm)
        vfs.write_file("/lib/mod.ko", b"ko", executable=True)
        assert _measure(engine, vfs, "/lib/mod.ko", hook=ImaHook.MODULE_CHECK) is None

    def test_module_check_measured_by_default(self, engine, vfs):
        vfs.write_file("/lib/mod.ko", b"ko", executable=True)
        assert _measure(engine, vfs, "/lib/mod.ko", hook=ImaHook.MODULE_CHECK) is not None

    def test_recorded_path_can_differ_from_real(self, engine, vfs):
        """Chroot truncation: what IMA records is the confined view."""
        vfs.write_file("/snap/core20/1/usr/bin/tool", b"x", executable=True)
        entry = _measure(
            engine, vfs, "/snap/core20/1/usr/bin/tool", recorded="/usr/bin/tool"
        )
        assert entry is not None
        assert entry.path == "/usr/bin/tool"

    def test_devtmpfs_excluded_via_tmpfs_magic(self, tpm):
        policy = ImaPolicy(excluded_fstypes=(FilesystemType.TMPFS,))
        assert policy.excludes_fstype(FilesystemType.DEVTMPFS)

    def test_default_exclusions_match_keylime_docs(self):
        policy = ImaPolicy()
        for fstype in DEFAULT_EXCLUDED_FSTYPES:
            assert policy.excludes_fstype(fstype)
        assert not policy.excludes_fstype(FilesystemType.EXT4)


class TestLogAndPcr:
    def test_entries_extend_pcr10(self, engine, vfs, tpm):
        vfs.write_file("/usr/bin/a", b"a", executable=True)
        vfs.write_file("/usr/bin/b", b"b", executable=True)
        _measure(engine, vfs, "/usr/bin/a")
        _measure(engine, vfs, "/usr/bin/b")
        hashes = [entry.template_hash for entry in engine.log]
        assert replay_extends("sha256", hashes) == tpm.read_pcr(IMA_PCR_INDEX)

    def test_boot_aggregate_first(self, engine, vfs, tpm):
        entry = engine.record_boot_aggregate()
        assert entry.path == "boot_aggregate"
        assert engine.log[0].path == "boot_aggregate"

    def test_boot_aggregate_depends_on_boot_pcrs(self, manufacturer):
        tpm_a = manufacturer.manufacture()
        tpm_b = manufacturer.manufacture()
        tpm_b.extend(0, sha256_hex(b"different firmware"))
        a = ImaEngine(ImaPolicy(), tpm_a).record_boot_aggregate()
        b = ImaEngine(ImaPolicy(), tpm_b).record_boot_aggregate()
        assert a.filedata_hash != b.filedata_hash

    def test_log_lines_roundtrip(self, engine, vfs):
        vfs.write_file("/usr/bin/a", b"a", executable=True)
        _measure(engine, vfs, "/usr/bin/a")
        line = engine.log_lines()[0]
        parsed = ImaLogEntry.from_line(line)
        assert parsed == engine.log[0]

    def test_log_line_format(self, engine, vfs):
        vfs.write_file("/usr/bin/a", b"a", executable=True)
        entry = _measure(engine, vfs, "/usr/bin/a")
        parts = entry.to_line().split(" ")
        assert parts[0] == str(IMA_PCR_INDEX)
        assert parts[2] == "ima-ng"
        assert parts[3].startswith("sha256:")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            ImaLogEntry.from_line("10 deadbeef ima-ng")

    def test_template_hash_covers_path(self):
        digest = "sha256:" + sha256_hex(b"x")
        assert template_hash(digest, "/a") != template_hash(digest, "/b")

    def test_template_hash_covers_digest(self):
        a = "sha256:" + sha256_hex(b"x")
        b = "sha256:" + sha256_hex(b"y")
        assert template_hash(a, "/p") != template_hash(b, "/p")

    def test_measured_paths(self, engine, vfs):
        vfs.write_file("/usr/bin/a", b"a", executable=True)
        _measure(engine, vfs, "/usr/bin/a")
        assert engine.measured_paths() == {"/usr/bin/a"}

    def test_log_is_copy(self, engine, vfs):
        vfs.write_file("/usr/bin/a", b"a", executable=True)
        _measure(engine, vfs, "/usr/bin/a")
        log = engine.log
        log.clear()
        assert len(engine.log) == 1

    def test_stored_lines_are_the_serialised_log(self, machine):
        """The lines stored when entries are appended are exactly the
        serialised log -- after boot, measurements, a violation and a
        reboot -- the agent announces the log's length, and a caller
        mutating the returned list cannot change the engine's."""
        from repro.keylime.agent import KeylimeAgent

        agent = KeylimeAgent("ima-lines", machine)

        def check() -> None:
            ima = machine.require_booted()
            assert ima.log_lines() == [entry.to_line() for entry in ima.log]
            assert agent.capabilities().log_length == len(ima.log)

        check()
        machine.install_file("/usr/bin/a", b"a", executable=True)
        machine.install_file("/usr/bin/b", b"b", executable=True)
        machine.exec_file("/usr/bin/a")
        machine.exec_file("/usr/bin/b")
        check()
        assert machine.open_for_write("/usr/bin/a", b"a2")
        check()
        machine.reboot()
        check()
        machine.exec_file("/usr/bin/a")
        check()
        assert len(machine.require_booted().log) == 2
        lines = machine.require_booted().log_lines()
        lines.append("10 " + "0" * 64 + " ima-ng sha256:00 /forged")
        lines[0] = "tampered"
        check()
