"""Tests for the virtual filesystem."""

import pytest

from repro.kernelsim.vfs import FilesystemType, Vfs, VfsError


@pytest.fixture()
def vfs() -> Vfs:
    filesystem = Vfs()
    filesystem.mount("/tmp2", FilesystemType.TMPFS)
    filesystem.mount("/proc", FilesystemType.PROC)
    return filesystem


class TestBasicOperations:
    def test_write_and_read(self, vfs: Vfs):
        vfs.write_file("/etc/hostname", b"prover")
        assert vfs.read_file("/etc/hostname") == b"prover"

    def test_exists(self, vfs: Vfs):
        assert not vfs.exists("/a")
        vfs.write_file("/a", b"x")
        assert vfs.exists("/a")

    def test_read_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.read_file("/nope")

    def test_unlink(self, vfs: Vfs):
        vfs.write_file("/a", b"x")
        vfs.unlink("/a")
        assert not vfs.exists("/a")

    def test_unlink_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.unlink("/nope")

    def test_relative_paths_rejected(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.write_file("etc/passwd", b"x")

    def test_paths_normalised(self, vfs: Vfs):
        vfs.write_file("/usr//bin/../bin/ls", b"ls")
        assert vfs.exists("/usr/bin/ls")

    def test_append(self, vfs: Vfs):
        vfs.write_file("/log", b"a")
        vfs.append_file("/log", b"b")
        assert vfs.read_file("/log") == b"ab"

    def test_append_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.append_file("/nope", b"x")

    def test_chmod(self, vfs: Vfs):
        vfs.write_file("/a", b"x")
        assert not vfs.stat("/a").executable
        vfs.chmod("/a", True)
        assert vfs.stat("/a").executable

    def test_chmod_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.chmod("/nope", True)


class TestInodeSemantics:
    def test_overwrite_keeps_inode_bumps_iversion(self, vfs: Vfs):
        first = vfs.write_file("/a", b"v1")
        second = vfs.write_file("/a", b"v2")
        assert second.ino == first.ino
        assert second.iversion == first.iversion + 1

    def test_new_file_gets_new_inode(self, vfs: Vfs):
        a = vfs.write_file("/a", b"x")
        b = vfs.write_file("/b", b"x")
        assert a.ino != b.ino

    def test_recreate_after_unlink_gets_new_inode(self, vfs: Vfs):
        a = vfs.write_file("/a", b"x")
        vfs.unlink("/a")
        a2 = vfs.write_file("/a", b"x")
        assert a2.ino != a.ino

    def test_append_bumps_iversion(self, vfs: Vfs):
        first = vfs.write_file("/a", b"x")
        after = vfs.append_file("/a", b"y")
        assert after.iversion == first.iversion + 1

    def test_chmod_does_not_bump_iversion(self, vfs: Vfs):
        first = vfs.write_file("/a", b"x")
        after = vfs.chmod("/a", True)
        assert after.iversion == first.iversion


class TestRename:
    def test_same_fs_keeps_inode(self, vfs: Vfs):
        src = vfs.write_file("/tmp_stage/payload", b"x", executable=True)
        dst = vfs.rename("/tmp_stage/payload", "/usr/bin/payload")
        assert dst.ino == src.ino
        assert dst.fs_id == src.fs_id
        assert not vfs.exists("/tmp_stage/payload")
        assert vfs.read_file("/usr/bin/payload") == b"x"

    def test_cross_fs_new_inode(self, vfs: Vfs):
        src = vfs.write_file("/tmp2/payload", b"x", executable=True)
        dst = vfs.rename("/tmp2/payload", "/usr/bin/payload")
        assert (dst.fs_id, dst.ino) != (src.fs_id, src.ino)
        assert vfs.read_file("/usr/bin/payload") == b"x"

    def test_rename_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.rename("/nope", "/a")

    def test_rename_preserves_exec_bit(self, vfs: Vfs):
        vfs.write_file("/a", b"x", executable=True)
        assert vfs.rename("/a", "/b").executable


class TestMounts:
    def test_longest_prefix_wins(self, vfs: Vfs):
        root_stat = vfs.write_file("/etc/x", b"x")
        tmp_stat = vfs.write_file("/tmp2/x", b"x")
        assert root_stat.fstype is FilesystemType.EXT4
        assert tmp_stat.fstype is FilesystemType.TMPFS

    def test_duplicate_mount_rejected(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.mount("/tmp2", FilesystemType.RAMFS)

    def test_nested_mounts(self):
        vfs = Vfs()
        vfs.mount("/sys", FilesystemType.SYSFS)
        vfs.mount("/sys/kernel/debug", FilesystemType.DEBUGFS)
        assert vfs.write_file("/sys/x", b"").fstype is FilesystemType.SYSFS
        assert (
            vfs.write_file("/sys/kernel/debug/x", b"").fstype
            is FilesystemType.DEBUGFS
        )

    def test_fs_magic_values(self):
        assert FilesystemType.EXT4.magic == 0xEF53
        assert FilesystemType.TMPFS.magic == 0x01021994
        # devtmpfs reports TMPFS_MAGIC -- a real Linux quirk the
        # mitigated IMA policy must account for.
        assert FilesystemType.DEVTMPFS.magic == FilesystemType.TMPFS.magic

    def test_clear(self, vfs: Vfs):
        vfs.write_file("/tmp2/a", b"x")
        _, tmpfs = [(p, f) for p, f in vfs.mounts() if p == "/tmp2"][0]
        tmpfs.clear()
        assert not vfs.exists("/tmp2/a")


class TestWalk:
    def test_walk_prefix(self, vfs: Vfs):
        vfs.write_file("/usr/bin/ls", b"x", executable=True)
        vfs.write_file("/usr/bin/cat", b"x", executable=True)
        vfs.write_file("/etc/passwd", b"x")
        paths = vfs.files_under("/usr")
        assert paths == ["/usr/bin/cat", "/usr/bin/ls"]

    def test_walk_root_sees_all_mounts(self, vfs: Vfs):
        vfs.write_file("/a", b"x")
        vfs.write_file("/tmp2/b", b"x")
        assert set(vfs.files_under("/")) >= {"/a", "/tmp2/b"}

    def test_walk_is_sorted_deterministic(self, vfs: Vfs):
        for name in ("c", "a", "b"):
            vfs.write_file(f"/usr/{name}", b"x")
        assert vfs.files_under("/usr") == ["/usr/a", "/usr/b", "/usr/c"]

    def test_walk_exact_prefix_boundary(self, vfs: Vfs):
        vfs.write_file("/usr/bin/ls", b"x")
        vfs.write_file("/usr2/bin/ls", b"x")
        assert vfs.files_under("/usr") == ["/usr/bin/ls"]

    def test_walk_order_is_mount_point_then_relative_path(self, vfs: Vfs):
        for path in ("/zz", "/tmp2/b", "/tmp2/a", "/proc/x", "/a"):
            vfs.write_file(path, b"x")
        walked = [stat.path for stat in vfs.walk("/")]
        # "/" < "/proc" < "/tmp2": each mount's files together, which
        # absolute-path order would interleave.
        assert walked == ["/a", "/zz", "/proc/x", "/tmp2/a", "/tmp2/b"]
        assert walked != sorted(walked)

    def test_walk_skips_files_hidden_by_a_later_mount(self):
        vfs = Vfs()
        vfs.write_file("/mnt/x", b"under the mount")
        vfs.write_file("/mnt/kept", b"under the mount")
        vfs.mount("/mnt", FilesystemType.TMPFS)
        vfs.write_file("/mnt/kept", b"on the mount")
        assert [(stat.path, stat.fstype) for stat in vfs.walk("/")] == [
            ("/mnt/kept", FilesystemType.TMPFS)
        ]
        assert vfs.files_under("/mnt/x") == []


class TestStat:
    def test_stat_fields(self, vfs: Vfs):
        vfs.write_file("/usr/bin/tool", b"binary", executable=True)
        stat = vfs.stat("/usr/bin/tool")
        assert stat.path == "/usr/bin/tool"
        assert stat.size == 6
        assert stat.executable
        assert stat.file_key == (stat.fs_id, stat.ino)

    def test_stat_missing_raises(self, vfs: Vfs):
        with pytest.raises(VfsError):
            vfs.stat("/nope")
