"""Stateful property test: the VFS against a reference model.

Hypothesis drives a random sequence of filesystem operations against
both the real VFS and a plain-dict model; any divergence in content,
existence, or inode-identity bookkeeping fails the run.  This is the
test that guards the inode semantics P4 rests on.

It also pins ``Vfs.walk`` to :func:`reference_walk`, a plain full scan
with one ``resolve()`` per entry: every ``FileStat`` field, in yield
order, for prefixes that sit on mount boundaries and next to sibling
names that sort at the edges of the bisected range.  ``Vfs.executables``
must list exactly the reference's executable paths, in the same order.

``Filesystem.entries`` merges the names created and unlinked since its
last listing into the sorted list it kept; every listing must equal a
full sort, and a listing handed out earlier must not change under later
creates and unlinks.
"""

from __future__ import annotations

import posixpath
from typing import Iterator

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.kernelsim.vfs import FileStat, Filesystem, FilesystemType, Vfs

_SQUASHFS_POINT = "/usr/sq"
_NAMES = st.sampled_from(
    [f"/usr/bin/f{i}" for i in range(6)]
    + [f"/tmp/f{i}" for i in range(4)]
    + [f"/shm/f{i}" for i in range(3)]
    + [_SQUASHFS_POINT] + [f"{_SQUASHFS_POINT}/f{i}" for i in range(3)]
    + ["/usr/bin-x/f0", "/usr0/f0"]
)
_CONTENT = st.binary(min_size=0, max_size=16)
_WALK_PREFIXES = (
    "/", "/usr", "/usr/bin", "/usr/sq", "/usr/sq/f0", "/usr0", "/tmp", "/shm",
)


def reference_walk(vfs: Vfs, prefix: str) -> Iterator[FileStat]:
    """The full-scan walk: every entry of every mount, one resolve() each.

    Mounts in point order; each filesystem's entries fully sorted; an
    entry is skipped when its path resolves to another (longer) mount,
    and kept when it equals *prefix* or lies below it.
    """
    prefix = posixpath.normpath(prefix)
    below = prefix if prefix.endswith("/") else prefix + "/"
    for point, filesystem in sorted(vfs.mounts(), key=lambda mount: mount[0]):
        for rel, inode in sorted(filesystem._entries.items()):
            if point == "/":
                absolute = "/" + rel
            else:
                absolute = point + ("/" + rel if rel else "")
            if vfs.resolve(absolute)[0] is not filesystem:
                continue  # shadowed by a longer mount
            if absolute == prefix or absolute.startswith(below):
                yield FileStat(
                    path=posixpath.normpath(absolute),
                    fs_id=filesystem.fs_id,
                    fstype=filesystem.fstype,
                    ino=inode.ino,
                    size=inode.size,
                    executable=inode.executable,
                    iversion=inode.iversion,
                )


class VfsModel(RuleBasedStateMachine):
    """Random walks over write/append/rename/unlink/chmod."""

    paths = Bundle("paths")

    def __init__(self) -> None:
        super().__init__()
        self.vfs = Vfs()
        self.vfs.mount("/shm", FilesystemType.TMPFS)
        # Written on the root filesystem before the squashfs covers
        # them: still stored there, but hidden from every path lookup,
        # so no walk may yield them.  The model never sees them.
        self.vfs.write_file(_SQUASHFS_POINT, b"hidden", executable=True)
        self.vfs.write_file(_SQUASHFS_POINT + "/f0", b"hidden", executable=True)
        self.vfs.mount(_SQUASHFS_POINT, FilesystemType.SQUASHFS)
        self.model: dict[str, bytes] = {}
        self.exec_bits: dict[str, bool] = {}
        # Unconsumed listings from the previous step, with the names
        # they held then: later steps must not change them.
        self.listings: list[tuple[object, list[str]]] = []

    @rule(target=paths, path=_NAMES, content=_CONTENT, executable=st.booleans())
    def write(self, path: str, content: bytes, executable: bool) -> str:
        before = self.vfs.stat(path) if path in self.model else None
        stat = self.vfs.write_file(path, content, executable=executable)
        self.model[path] = content
        self.exec_bits[path] = executable
        if before is not None:
            assert stat.ino == before.ino, "overwrite must keep the inode"
            assert stat.iversion == before.iversion + 1
        return path

    @rule(path=paths, content=_CONTENT)
    def append(self, path: str, content: bytes) -> None:
        if path not in self.model:
            return
        before = self.vfs.stat(path)
        self.vfs.append_file(path, content)
        self.model[path] = self.model[path] + content
        assert self.vfs.stat(path).iversion == before.iversion + 1

    @rule(path=paths)
    def unlink(self, path: str) -> None:
        if path not in self.model:
            return
        self.vfs.unlink(path)
        del self.model[path]
        del self.exec_bits[path]

    @rule(path=paths, content=_CONTENT)
    def unlink_and_recreate(self, path: str, content: bytes) -> None:
        if path not in self.model:
            return
        before = self.vfs.stat(path)
        self.vfs.unlink(path)
        stat = self.vfs.write_file(path, content, executable=True)
        assert stat.ino != before.ino, "re-created file gets a fresh inode"
        self.model[path] = content
        self.exec_bits[path] = True

    @rule(path=_NAMES)
    def create_and_unlink(self, path: str) -> None:
        """A name that comes and goes between two listings."""
        if path in self.model:
            return
        self.vfs.write_file(path, b"transient", executable=True)
        self.vfs.unlink(path)

    @rule(target=paths, src=paths, dst=_NAMES)
    def rename(self, src: str, dst: str) -> str:
        if src not in self.model or src == dst:
            return src
        src_stat = self.vfs.stat(src)
        dst_stat = self.vfs.rename(src, dst)
        same_fs = src_stat.fs_id == dst_stat.fs_id
        if same_fs:
            assert dst_stat.ino == src_stat.ino, "same-fs rename keeps inode (P4)"
        else:
            assert (dst_stat.fs_id, dst_stat.ino) != (src_stat.fs_id, src_stat.ino)
        self.model[dst] = self.model.pop(src)
        self.exec_bits[dst] = self.exec_bits.pop(src)
        return dst

    @rule(path=paths, executable=st.booleans())
    def chmod(self, path: str, executable: bool) -> None:
        if path not in self.model:
            return
        before = self.vfs.stat(path)
        self.vfs.chmod(path, executable)
        self.exec_bits[path] = executable
        assert self.vfs.stat(path).iversion == before.iversion

    @invariant()
    def walk_matches_reference(self) -> None:
        for prefix in _WALK_PREFIXES:
            reference = list(reference_walk(self.vfs, prefix))
            assert list(self.vfs.walk(prefix)) == reference, prefix
            assert self.vfs.executables(prefix) == [
                stat.path for stat in reference if stat.executable
            ], prefix

    @invariant()
    def entries_are_sorted_snapshots(self) -> None:
        for pairs, names in self.listings:
            assert [name for name, _ in pairs] == names
        self.listings = []
        for _, filesystem in self.vfs.mounts():
            names = sorted(filesystem._entries)
            assert [name for name, _ in filesystem.entries()] == names
            self.listings.append((filesystem.entries(), names))

    @invariant()
    def contents_match_model(self) -> None:
        for path, content in self.model.items():
            assert self.vfs.read_file(path) == content
            assert self.vfs.stat(path).executable == self.exec_bits[path]

    @invariant()
    def no_phantom_files(self) -> None:
        for path in self.model:
            assert self.vfs.exists(path)

    @invariant()
    def live_inodes_unique_per_filesystem(self) -> None:
        seen: set[tuple[str, int]] = set()
        for path in self.model:
            stat = self.vfs.stat(path)
            key = (stat.fs_id, stat.ino)
            assert key not in seen, f"inode {key} aliased by {path}"
            seen.add(key)


def test_entries_merge_created_and_unlinked_names():
    """List, create, unlink, unlink and re-create, then list again."""
    filesystem = Filesystem("root", FilesystemType.EXT4)
    for name in ("usr/bin/b", "usr/bin/d", "usr/bin/f", "usr2/x"):
        filesystem.create(name, b"old", executable=True)
    before = filesystem.entries()
    filesystem.create("usr/bin/c", b"new", executable=True)
    filesystem.create("usr/bin/a", b"new", executable=True)
    filesystem.unlink("usr/bin/d")
    filesystem.unlink("usr/bin/f")
    filesystem.create("usr/bin/f", b"new", executable=False)
    filesystem.create("usr/bin/e", b"new", executable=True)
    filesystem.unlink("usr/bin/e")  # created and gone between listings
    after = list(filesystem.entries("usr"))
    assert [name for name, _ in after] == [
        "usr/bin/a", "usr/bin/b", "usr/bin/c", "usr/bin/f",
    ]
    assert after[-1][1].content == b"new"
    assert [name for name, _ in before] == [
        "usr/bin/b", "usr/bin/d", "usr/bin/f", "usr2/x",
    ]
    assert [name for name, _ in filesystem.entries()] == sorted(filesystem._entries)


TestVfsStateful = VfsModel.TestCase
TestVfsStateful.settings = settings(max_examples=40, stateful_step_count=30, deadline=None)
