"""Platform Configuration Register banks.

A PCR can only be *extended*: ``PCR := H(PCR || value)``.  This is the
property the whole attestation design rests on -- the verifier replays
the IMA measurement list through the same extend rule and compares the
result with the quoted PCR value, which makes the log tamper-evident
even though the log itself travels over an untrusted channel.
"""

from __future__ import annotations

from repro.common.errors import StateError
from repro.common.hexutil import digest_size, extend_bytes, extend_digest, zero_digest

NUM_PCRS = 24

# Linux IMA extends its measurements into PCR 10 by convention.
IMA_PCR_INDEX = 10

# PCRs 0-7 are extended during measured boot by firmware/bootloader.
BOOT_PCRS = tuple(range(8))

# PCRs 17-22 reset with locality / DRTM, which we do not model; they are
# listed so that policy code can name them.
DYNAMIC_PCRS = tuple(range(17, 23))


class PcrBank:
    """One bank of 24 PCRs for a single hash algorithm."""

    def __init__(self, algorithm: str = "sha256") -> None:
        digest_size(algorithm)  # validates the algorithm name
        self.algorithm = algorithm
        self._values: list[str] = [zero_digest(algorithm)] * NUM_PCRS

    def _check_index(self, index: int) -> None:
        if not 0 <= index < NUM_PCRS:
            raise StateError(f"PCR index out of range: {index}")

    def read(self, index: int) -> str:
        """Current hex value of PCR *index*."""
        self._check_index(index)
        return self._values[index]

    def read_selection(self, indices: list[int]) -> dict[int, str]:
        """Read several PCRs at once (quote helper)."""
        return {index: self.read(index) for index in sorted(set(indices))}

    def extend(self, index: int, value_hex: str) -> str:
        """Extend PCR *index* with *value_hex*; returns the new value."""
        self._check_index(index)
        self._values[index] = extend_digest(self.algorithm, self._values[index], value_hex)
        return self._values[index]

    def reset(self) -> None:
        """Reset every PCR to the algorithm's zero digest (power cycle)."""
        self._values = [zero_digest(self.algorithm)] * NUM_PCRS

    def snapshot(self) -> dict[int, str]:
        """All 24 values, for debugging and golden tests."""
        return {index: value for index, value in enumerate(self._values)}


def replay_extends(algorithm: str, values_hex: list[str]) -> str:
    """Replay a sequence of extends from the zero digest.

    Given the template hashes of an IMA log, compute what PCR 10
    *should* contain.  The verifier's own replay is the pipeline stage
    (:class:`repro.keylime.pipeline.LogReplayStage`), which picks up at
    the last verified entry; this whole-log form is the reference the
    tests hold the TPM's bank to.  Both extend with
    :func:`~repro.common.hexutil.extend_bytes`.
    """
    current = bytes(digest_size(algorithm))
    for value in values_hex:
        current = extend_bytes(algorithm, current, bytes.fromhex(value))
    return current.hex()
