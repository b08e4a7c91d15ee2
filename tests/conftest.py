"""Shared fixtures.

The ``small_testbed`` fixture builds a reduced-scale rig (fewer filler
packages, fewer files per package) so integration-flavoured tests stay
fast; experiments that need paper-scale statistics build their own.

RSA key generation is the suite's largest single cost, even with the
library's sieved prime search, and the same keys are generated again by
every test that builds the same rig.  The session-wide ``keygen_memo``
fixture answers repeats from a memo (see :func:`memoized_keygen`); the
library itself always generates.  ``tests/test_rsa.py`` calls the
uncached function: it checks the sieved search against the unsieved
scan and regenerates the benchmark rigs' keys against the fingerprints
pinned in ``golden/keygen_fingerprints.json``.
"""

from __future__ import annotations

import importlib
from typing import Callable

import pytest

from repro.common.clock import Scheduler
from repro.common.rng import SeededRng
from repro.crypto import rsa
from repro.distro.workload import ReleaseStreamConfig
from repro.experiments.testbed import Testbed, TestbedConfig, build_testbed
from repro.kernelsim.kernel import Machine
from repro.tpm.device import Tpm, TpmManufacturer

#: The modules that bind ``generate_keypair`` at import time: every
#: key the library generates goes through one of these names.  Tests
#: that import ``generate_keypair`` from ``repro.crypto.rsa`` keep the
#: uncached function, so key determinism is still proven without it.
KEYGEN_SITES = (
    "repro.tpm.device",
    "repro.crypto.certs",
    "repro.distro.release_signing",
    "repro.dynpolicy.signedhashes",
)


def memoized_keygen(generate: Callable[..., rsa.RsaKeyPair]) -> Callable[..., rsa.RsaKeyPair]:
    """*generate*, answered from a memo keyed on ``(material, bits, e)``.

    ``generate_keypair`` only forks its rng and never draws from the
    caller's stream, so the key is a pure function of the fork material;
    ``RsaKeyPair`` is frozen, so handing out the cached key is handing
    out the same key.
    """
    keys: dict[tuple[bytes, int, int], rsa.RsaKeyPair] = {}

    def keygen(rng: SeededRng, bits: int = 1024, e: int = 65537) -> rsa.RsaKeyPair:
        memo_key = (rng._material, bits, e)
        keypair = keys.get(memo_key)
        if keypair is None:
            keypair = keys[memo_key] = generate(rng, bits, e)
        return keypair

    return keygen


@pytest.fixture(scope="session", autouse=True)
def keygen_memo():
    keygen = memoized_keygen(rsa.generate_keypair)
    with pytest.MonkeyPatch.context() as patch:
        for site in KEYGEN_SITES:
            patch.setattr(importlib.import_module(site), "generate_keypair", keygen)
        yield keygen


@pytest.fixture()
def rng() -> SeededRng:
    return SeededRng("tests")


@pytest.fixture()
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture(scope="session")
def manufacturer() -> TpmManufacturer:
    # Key generation is the slowest fixture step; share one manufacturer
    # (and thus one CA keypair) across the whole session.
    return TpmManufacturer("Infineon", SeededRng("tests/tpm"))


@pytest.fixture()
def tpm(manufacturer: TpmManufacturer) -> Tpm:
    return manufacturer.manufacture()


@pytest.fixture()
def machine(tpm: Tpm) -> Machine:
    box = Machine("test-box", tpm)
    box.boot()
    return box


def small_config(seed: int | str = "small") -> TestbedConfig:
    """A reduced-scale testbed configuration for fast tests."""
    return TestbedConfig(
        seed=seed,
        n_filler_packages=15,
        mean_exec_files=5.0,
        stream=ReleaseStreamConfig(
            mean_packages_per_day=4.0,
            sd_packages_per_day=4.0,
            mean_exec_files_per_package=6.0,
            kernel_release_every_days=0,
        ),
    )


@pytest.fixture()
def small_testbed() -> Testbed:
    return build_testbed(small_config())
