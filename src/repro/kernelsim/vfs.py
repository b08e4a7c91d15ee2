"""A virtual filesystem with mounts, inodes and version counters.

The VFS models the handful of Linux semantics the paper's findings
depend on:

* **Filesystem types and magic numbers.**  IMA's ``dont_measure
  fsmagic=...`` rules exclude whole filesystems (tmpfs, procfs, ...);
  the paper's P3 is attackers executing from those filesystems.  Every
  mounted filesystem here carries its type and magic number so the IMA
  policy can make the same decision the kernel does.
* **Inode identity across rename.**  ``rename()`` within one filesystem
  moves the directory entry but keeps the inode -- which is why IMA (a
  per-inode cache) does not re-measure a moved file, the paper's P4.
  Moving *across* filesystems is a copy + unlink and creates a fresh
  inode, which IMA measures anew.
* **Inode version (``iversion``).**  IMA re-measures a file whose
  content changed; the kernel tracks this with the inode version
  counter, bumped on every write.  We do the same.
* **Mode bits.**  The policy generator and IMA both care about the
  executable bit.

Paths are absolute, ``/``-separated strings.  Parent directories are
created implicitly on write (the workloads never rely on mkdir failure
semantics).
"""

from __future__ import annotations

import posixpath
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from repro.common.errors import ReproError


class VfsError(ReproError):
    """A filesystem operation failed (missing path, bad argument...)."""


class FilesystemType(Enum):
    """Filesystem types with their Linux magic numbers.

    The magic values match ``include/uapi/linux/magic.h``; IMA policies
    reference them in ``dont_measure fsmagic=...`` rules.
    """

    EXT4 = ("ext4", 0xEF53)
    TMPFS = ("tmpfs", 0x01021994)
    PROC = ("proc", 0x9FA0)
    SYSFS = ("sysfs", 0x62656572)
    DEBUGFS = ("debugfs", 0x64626720)
    RAMFS = ("ramfs", 0x858458F6)
    SECURITYFS = ("securityfs", 0x73636673)
    OVERLAYFS = ("overlayfs", 0x794C7630)
    SQUASHFS = ("squashfs", 0x73717368)
    DEVTMPFS = ("devtmpfs", 0x01021994)  # devtmpfs reports TMPFS_MAGIC

    def __init__(self, fsname: str, magic: int) -> None:
        self.fsname = fsname
        self.magic = magic


@dataclass
class Inode:
    """A file's identity and content.

    Attributes:
        ino: inode number, unique within its filesystem.
        content: file bytes (synthetic payloads in the simulation).
        executable: whether any execute bit is set.
        iversion: bumped on every content write; IMA keys its
            measurement cache on (filesystem, ino, iversion).
        nlink: hard link count.
        ima_signature: the ``security.ima`` xattr
            (:class:`repro.kernelsim.appraisal.ImaSignature`) or
            ``None``.  It travels with the inode -- renames keep it, a
            cross-filesystem copy loses it, and an in-place content
            write silently invalidates it (the signature no longer
            verifies), all matching xattr semantics.
    """

    ino: int
    content: bytes = b""
    executable: bool = False
    iversion: int = 1
    nlink: int = 1
    ima_signature: object | None = None

    @property
    def size(self) -> int:
        """Content size in bytes."""
        return len(self.content)


class Filesystem:
    """One mounted filesystem instance: an inode table plus name entries.

    Entries are keyed by path *relative to the mount point*; the
    :class:`Vfs` resolves absolute paths to (filesystem, relative path)
    pairs via longest-prefix mount matching.
    """

    def __init__(self, fs_id: str, fstype: FilesystemType) -> None:
        self.fs_id = fs_id
        self.fstype = fstype
        self._entries: dict[str, Inode] = {}
        # The entry names as last sorted (``None`` until the first
        # entries() call sorts them all), and the names created and
        # unlinked since: the names are ``_names`` minus ``_unlinked``
        # plus ``_created``, which the next entries() call merges into
        # a new sorted list.  Content writes touch none of it.
        self._names: list[str] | None = None
        self._created: set[str] = set()
        self._unlinked: set[str] = set()
        self._next_ino = 2  # inode 1 is the root directory, by convention

    def __contains__(self, relpath: str) -> bool:
        return relpath in self._entries

    def lookup(self, relpath: str) -> Inode | None:
        """The inode at *relpath*, or ``None``."""
        return self._entries.get(relpath)

    def _set(self, relpath: str, inode: Inode) -> None:
        if relpath not in self._entries and self._names is not None:
            self._created.add(relpath)
        self._entries[relpath] = inode

    def create(self, relpath: str, content: bytes, executable: bool) -> Inode:
        """Create a fresh inode at *relpath* (replacing any existing entry)."""
        inode = Inode(ino=self._next_ino, content=content, executable=executable)
        self._next_ino += 1
        self._set(relpath, inode)
        return inode

    def link(self, relpath: str, inode: Inode) -> None:
        """Add a directory entry for an existing inode (rename/hardlink)."""
        self._set(relpath, inode)
        inode.nlink += 1

    def unlink(self, relpath: str) -> Inode:
        """Remove the entry at *relpath*; returns the orphaned inode."""
        try:
            inode = self._entries.pop(relpath)
        except KeyError:
            raise VfsError(f"unlink: no such file: {relpath!r} on {self.fs_id}") from None
        if self._names is not None:
            self._created.discard(relpath)
            self._unlinked.add(relpath)
        inode.nlink -= 1
        return inode

    def entries(self, under: str = "") -> Iterator[tuple[str, Inode]]:
        """(relative path, inode) pairs at or below *under*, sorted by path.

        *under* is a relative path matched per component: ``"usr"``
        yields ``usr`` itself and ``usr/...``, never ``usr2``.  The
        empty string yields every entry.  The pairs are a snapshot taken
        when this is called, so unlinking while iterating is safe.
        """
        names = self._names
        if names is None:
            names = self._names = sorted(self._entries)
        elif self._created or self._unlinked:
            unlinked = self._unlinked
            if unlinked:
                names = [name for name in names if name not in unlinked]
            # A new list, so the old one stays a snapshot; it holds two
            # sorted runs, which list.sort() merges in one pass.
            names = self._names = names + sorted(self._created)
            names.sort()
            self._created.clear()
            unlinked.clear()
        entries = self._entries
        if under:
            # Names below ``under/`` sort between it and ``under0``: "0"
            # follows "/" in code-point order.
            lo = bisect_left(names, under + "/")
            hi = bisect_left(names, under + "0", lo)
            names = ([under] if under in entries else []) + names[lo:hi]
        # The sorted list is replaced, never mutated, so it is already a
        # snapshot.  zip() pairs lazily: a walk leaves no per-entry
        # tuples for the garbage collector to trace.
        return zip(names, [entries[name] for name in names])

    def clear(self) -> None:
        """Drop every entry (volatile filesystems lose content on reboot)."""
        self._entries.clear()
        self._names = None
        self._created.clear()
        self._unlinked.clear()


def _normalize(path: str) -> str:
    """Normalise an absolute path; reject relative paths."""
    if not path.startswith("/"):
        raise VfsError(f"path must be absolute: {path!r}")
    normalized = posixpath.normpath(path)
    return normalized


def _base(point: str) -> str:
    """*point* with one trailing slash: what every path below it starts with."""
    return point if point.endswith("/") else point + "/"


def _within(path: str, top: str) -> bool:
    """True when *path* is *top* or below it, matched per component."""
    return path == top or path.startswith(_base(top))


def _relative(path: str, top: str) -> str:
    """*path* relative to *top*, for a *path* strictly below it."""
    return path[len(_base(top)):]


@dataclass(frozen=True)
class FileStat:
    """Result of :meth:`Vfs.stat`: identity plus metadata."""

    path: str
    fs_id: str
    fstype: FilesystemType
    ino: int
    size: int
    executable: bool
    iversion: int

    @property
    def file_key(self) -> tuple[str, int]:
        """(filesystem id, inode number) -- the identity IMA caches on."""
        return (self.fs_id, self.ino)


@dataclass
class _Mount:
    point: str
    filesystem: Filesystem


class Vfs:
    """The mount table and path operations.

    A fresh VFS has a single ext4 root.  Callers mount additional
    filesystems (tmpfs on ``/tmp``, proc on ``/proc``, squashfs for
    SNAPs...) to shape the machine the experiments need.
    """

    def __init__(self) -> None:
        self._mounts: list[_Mount] = []
        self._fs_counter = 0
        self.mount("/", FilesystemType.EXT4)

    # -- mount management -------------------------------------------------

    def mount(self, point: str, fstype: FilesystemType, fs_id: str | None = None) -> Filesystem:
        """Mount a new filesystem instance at *point*."""
        point = _normalize(point)
        if any(mount.point == point for mount in self._mounts):
            raise VfsError(f"mount point already in use: {point!r}")
        self._fs_counter += 1
        fs_id = fs_id or f"{fstype.fsname}-{self._fs_counter}"
        filesystem = Filesystem(fs_id=fs_id, fstype=fstype)
        self._mounts.append(_Mount(point=point, filesystem=filesystem))
        # Longest mount point first makes prefix resolution trivial.
        self._mounts.sort(key=lambda mount: len(mount.point), reverse=True)
        return filesystem

    def mounts(self) -> list[tuple[str, Filesystem]]:
        """All (mount point, filesystem) pairs, longest prefix first."""
        return [(mount.point, mount.filesystem) for mount in self._mounts]

    def resolve(self, path: str) -> tuple[Filesystem, str]:
        """Resolve an absolute path to (filesystem, relative path)."""
        path = _normalize(path)
        for mount in self._mounts:
            point = mount.point
            if point == "/":
                return mount.filesystem, path.lstrip("/")
            if path == point or path.startswith(point + "/"):
                rel = path[len(point):].lstrip("/")
                return mount.filesystem, rel
        raise VfsError(f"no filesystem resolves {path!r}")  # pragma: no cover

    # -- file operations ----------------------------------------------------

    def exists(self, path: str) -> bool:
        """True when a file exists at *path*."""
        filesystem, rel = self.resolve(path)
        return rel in filesystem

    def write_file(self, path: str, content: bytes, executable: bool = False) -> FileStat:
        """Create or overwrite the file at *path*.

        Overwriting keeps the inode and bumps ``iversion`` (the write
        path in Linux), so IMA will re-measure it on next execution.
        Creating allocates a fresh inode.
        """
        filesystem, rel = self.resolve(path)
        existing = filesystem.lookup(rel)
        if existing is not None:
            existing.content = content
            existing.executable = executable
            existing.iversion += 1
            inode = existing
        else:
            inode = filesystem.create(rel, content, executable)
        return self._stat(path, filesystem, inode)

    def append_file(self, path: str, content: bytes) -> FileStat:
        """Append to an existing file (bumps ``iversion``)."""
        filesystem, rel = self.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            raise VfsError(f"append: no such file: {path!r}")
        inode.content += content
        inode.iversion += 1
        return self._stat(path, filesystem, inode)

    def read_file(self, path: str) -> bytes:
        """Content of the file at *path*."""
        filesystem, rel = self.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            raise VfsError(f"read: no such file: {path!r}")
        return inode.content

    def chmod(self, path: str, executable: bool) -> FileStat:
        """Set or clear the execute bit (metadata-only; no iversion bump)."""
        filesystem, rel = self.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            raise VfsError(f"chmod: no such file: {path!r}")
        inode.executable = executable
        return self._stat(path, filesystem, inode)

    def unlink(self, path: str) -> None:
        """Remove the file at *path*."""
        filesystem, rel = self.resolve(path)
        filesystem.unlink(rel)

    def rename(self, src: str, dst: str) -> FileStat:
        """Move a file, with Linux's same-vs-cross filesystem split.

        Within one filesystem the inode is preserved (so IMA will *not*
        re-measure it -- P4).  Across filesystems the move degrades to
        copy + unlink, allocating a fresh inode at the destination.
        """
        src_fs, src_rel = self.resolve(src)
        dst_fs, dst_rel = self.resolve(dst)
        inode = src_fs.lookup(src_rel)
        if inode is None:
            raise VfsError(f"rename: no such file: {src!r}")
        if src_fs is dst_fs:
            src_fs.unlink(src_rel)
            src_fs.link(dst_rel, inode)
            moved = inode
        else:
            moved = dst_fs.create(dst_rel, inode.content, inode.executable)
            src_fs.unlink(src_rel)
        return self._stat(dst, dst_fs, moved)

    def stat(self, path: str) -> FileStat:
        """Metadata for the file at *path*."""
        filesystem, rel = self.resolve(path)
        inode = filesystem.lookup(rel)
        if inode is None:
            raise VfsError(f"stat: no such file: {path!r}")
        return self._stat(path, filesystem, inode)

    def _stat(self, path: str, filesystem: Filesystem, inode: Inode) -> FileStat:
        return FileStat(
            path=_normalize(path),
            fs_id=filesystem.fs_id,
            fstype=filesystem.fstype,
            ino=inode.ino,
            size=inode.size,
            executable=inode.executable,
            iversion=inode.iversion,
        )

    # -- traversal ----------------------------------------------------------

    def walk(self, prefix: str = "/") -> Iterator[FileStat]:
        """Every file at or below *prefix*.

        Used where a :class:`FileStat` is needed (the reboot ``/tmp``
        sweep, tests); callers that only need the executables' paths use
        :meth:`executables`, which visits the same files in the same
        order.  The contract both share:

        * *prefix* is matched per path component, so ``/usr`` does not
          match ``/usr2``.
        * Entries come in mount-point order, then relative-path order
          within each mount -- not absolute-path order.
        * An entry under a longer mount (written before that mount
          covered it) is skipped: only the file a path resolves to is
          walked.
        * Each mount's entries are a snapshot taken when the walk
          reaches that mount.

        Only the prefix's range is visited: mounts that cannot overlap
        it are skipped, and each filesystem bisects its sorted names.
        """
        for point, filesystem, pairs in self._scan(prefix):
            base = _base(point)
            fs_id, fstype = filesystem.fs_id, filesystem.fstype
            for rel, inode in pairs:
                # Mount points and stored names both come from normalised
                # paths, so the joined path needs no second _normalize().
                yield FileStat(
                    base + rel if rel else point, fs_id, fstype, inode.ino,
                    inode.size, inode.executable, inode.iversion,
                )

    def executables(self, prefix: str = "/") -> list[str]:
        """Paths of the executables :meth:`walk` would yield, in its order.

        The static policy builder (the paper's "bash script that
        recursively hashes every executable under /"), ``evmctl``-style
        signing and the benign workload's daily sample only need the
        paths, so no :class:`FileStat` is built per entry.  Same
        contract as :meth:`walk`; the list is taken when this is called.
        """
        paths: list[str] = []
        for point, _filesystem, pairs in self._scan(prefix):
            base = _base(point)
            paths += [base + rel if rel else point for rel, inode in pairs if inode.executable]
        return paths

    def _scan(self, prefix: str) -> Iterator[tuple[str, Filesystem, Iterable[tuple[str, Inode]]]]:
        """The range scan behind :meth:`walk` and :meth:`executables`.

        For each mount that can overlap *prefix*, in mount-point order:
        its point, its filesystem and the (relative path, inode) pairs
        at or below the prefix that no mount nested in it hides.
        """
        prefix = _normalize(prefix)
        mounts = sorted(self._mounts, key=lambda m: m.point)
        for mount in mounts:
            point = mount.point
            if _within(point, prefix):
                under = ""
            elif _within(prefix, point):
                under = _relative(prefix, point)
            else:
                continue  # cannot overlap the prefix
            # Longer mounts nested in this one that overlap the walked
            # range hide this filesystem's entries at and below them.
            nested = [
                _relative(other.point, point)
                for other in mounts
                if other is not mount
                and _within(other.point, point)
                and (_within(other.point, prefix) or _within(prefix, other.point))
            ]
            pairs: Iterable[tuple[str, Inode]] = mount.filesystem.entries(under)
            if nested:
                hidden = set(nested)
                hidden_below = tuple(rel + "/" for rel in nested)
                pairs = (
                    (rel, inode) for rel, inode in pairs
                    if not (rel in hidden or rel.startswith(hidden_below))
                )
            yield point, mount.filesystem, pairs

    def files_under(self, prefix: str = "/") -> list[str]:
        """Sorted absolute paths under *prefix* (test helper)."""
        return sorted(stat.path for stat in self.walk(prefix))
