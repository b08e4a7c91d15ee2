"""The end-to-end benchmark's layer boundaries name real attributes.

``benchmarks/e2e/layertrace.py`` times each layer by swapping a class or
module attribute for a wrapper, and ``Patches.swap`` reads the original
from the owner's own ``__dict__``; ``workloads.RoundTimer`` swaps
``KeylimeVerifier.poll`` and ``push_round`` the same way.  A boundary
that is renamed, moved or inherited instead of defined would otherwise
show up only in a multi-minute ``run.py --trace``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.keylime.verifier import KeylimeVerifier

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def e2e():
    sys.path.insert(0, str(E2E))
    try:
        import layertrace
        import workloads
    finally:
        sys.path.remove(str(E2E))
    return layertrace, workloads


def test_every_patched_boundary_is_an_own_attribute(e2e):
    layertrace, _ = e2e
    entries = [entry[:2] for entry in layertrace.PATCHES]
    entries += list(layertrace.EVIDENCE_DECODERS)
    missing = []
    for module_name, attribute in entries:
        owner, name = layertrace._resolve(module_name, attribute)
        if name not in owner.__dict__:
            missing.append(f"{module_name}:{attribute}")
    assert missing == []


def test_round_timer_wraps_both_round_entry_points(e2e):
    _, workloads = e2e
    originals = {name: KeylimeVerifier.__dict__[name] for name in ("poll", "push_round")}
    with workloads.RoundTimer():
        for name, original in originals.items():
            assert KeylimeVerifier.__dict__[name] is not original
    for name, original in originals.items():
        assert KeylimeVerifier.__dict__[name] is original
