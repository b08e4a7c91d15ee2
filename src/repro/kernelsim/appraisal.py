"""IMA appraisal: signature *enforcement*, not just measurement.

The paper studies IMA's measurement mode -- record what ran, let a
remote verifier judge.  Real IMA also has an **appraisal** mode: each
file carries a signature over its content hash in the ``security.ima``
extended attribute, and the kernel *refuses to execute* files whose
signature does not verify against a trusted key.  Appraisal is the
in-kernel, fail-closed counterpart of the fail-open detection pipeline
the paper dissects; several of the paper's P1-P5 evasions are moot
under enforcement (nothing unsigned runs at all), at the price of the
operational rigidity the paper's FP study illustrates -- every updated
binary must arrive *signed* or the machine breaks itself.

Pieces:

* :class:`ImaSignature` -- the ``security.ima`` xattr payload: a
  signature over the file's SHA-256 by some signer.
* :func:`sign_content` / :func:`appraise_content` -- produce and check
  signatures.
* :class:`AppraisalPolicy` -- trusted keys + enforcement switch +
  excluded filesystems (appraisal honours fsmagic rules like
  measurement does).
* :func:`sign_file` / :func:`sign_all_executables` -- the ``evmctl
  ima_sign`` equivalents for provisioning a machine.

The :class:`~repro.kernelsim.kernel.Machine` consults the appraisal
policy on every exec/module-load when enforcement is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import StateError
from repro.common.hexutil import sha256_hex
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.kernelsim.vfs import FilesystemType, Vfs


class AppraisalDenied(StateError):
    """The kernel refused access: missing or invalid IMA signature."""


@dataclass(frozen=True)
class ImaSignature:
    """Contents of the ``security.ima`` xattr."""

    signer: str  # human-readable key id
    signature: bytes = field(repr=False)


def _signed_payload(content: bytes) -> bytes:
    """What the signature covers: the file's content hash."""
    return b"ima-sig-v2|sha256|" + sha256_hex(content).encode("ascii")


def sign_content(content: bytes, keypair: RsaKeyPair, signer: str) -> ImaSignature:
    """Produce the ``security.ima`` signature for *content*."""
    return ImaSignature(signer=signer, signature=keypair.sign(_signed_payload(content)))


def appraise_content(
    content: bytes, signature: ImaSignature | None, trusted_keys: list[RsaPublicKey]
) -> bool:
    """True when *signature* verifies over *content* with a trusted key."""
    if signature is None:
        return False
    payload = _signed_payload(content)
    return any(key.verify(payload, signature.signature) for key in trusted_keys)


@dataclass
class AppraisalPolicy:
    """The kernel's appraisal configuration.

    ``enforce`` off means appraisal is not consulted at all (the
    paper's setup).  With ``enforce`` on, executions and module loads
    on non-excluded filesystems require a valid signature.
    """

    enforce: bool = False
    trusted_keys: list[RsaPublicKey] = field(default_factory=list)
    excluded_fstypes: tuple[FilesystemType, ...] = ()

    def trust_key(self, key: RsaPublicKey) -> None:
        """Add a verification key to the kernel keyring."""
        self.trusted_keys.append(key)

    def excludes_fstype(self, fstype: FilesystemType) -> bool:
        """True when appraisal skips *fstype* (fsmagic semantics)."""
        return any(fstype.magic == excluded.magic for excluded in self.excluded_fstypes)

    def check(
        self, path: str, fstype: FilesystemType, content: bytes,
        signature: ImaSignature | None,
    ) -> None:
        """Raise :class:`AppraisalDenied` when execution must be blocked."""
        if not self.enforce or self.excludes_fstype(fstype):
            return
        if not appraise_content(content, signature, self.trusted_keys):
            reason = "no security.ima signature" if signature is None else (
                f"signature by {signature.signer!r} does not verify"
            )
            raise AppraisalDenied(f"appraisal denied exec of {path}: {reason}")


def sign_file(vfs: Vfs, path: str, keypair: RsaKeyPair, signer: str) -> ImaSignature:
    """``evmctl ima_sign`` for one file: set its security.ima xattr."""
    filesystem, rel = vfs.resolve(path)
    inode = filesystem.lookup(rel)
    if inode is None:
        raise StateError(f"cannot sign missing file: {path}")
    signature = sign_content(inode.content, keypair, signer)
    inode.ima_signature = signature
    return signature


def sign_all_executables(
    vfs: Vfs, keypair: RsaKeyPair, signer: str, prefix: str = "/"
) -> int:
    """Sign every executable under *prefix*; returns the count."""
    paths = vfs.executables(prefix)
    for path in paths:
        sign_file(vfs, path, keypair, signer)
    return len(paths)


def get_signature(vfs: Vfs, path: str) -> ImaSignature | None:
    """Read a file's security.ima xattr (None when unsigned)."""
    filesystem, rel = vfs.resolve(path)
    inode = filesystem.lookup(rel)
    if inode is None:
        raise StateError(f"no such file: {path}")
    return getattr(inode, "ima_signature", None)
