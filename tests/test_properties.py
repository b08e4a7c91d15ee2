"""Property-based tests on core invariants (hypothesis)."""

import hashlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.hexutil import extend_digest, sha256_hex, zero_digest
from repro.common.rng import SeededRng
from repro.common.units import mean, percentile, stddev, summarize
from repro.kernelsim.ima import ImaLogEntry, template_hash
from repro.keylime.policy import RuntimePolicy
from repro.tpm.pcr import PcrBank, replay_extends

digests = st.binary(min_size=0, max_size=64).map(sha256_hex)
paths = st.from_regex(r"/[a-z]{1,8}(/[a-z0-9._-]{1,12}){0,4}", fullmatch=True)
#: A small universe (paths of different lengths) so operations collide:
#: repeated adds, multi-digest paths, dedupes that hit and miss.
_few_paths = st.sampled_from(["/a", "/bin/bb", "/usr/lib/x/ccc.so", "/sbin/dddd"])
_few_digests = st.integers(0, 4).map(lambda i: sha256_hex(bytes([i])))


class TestPcrProperties:
    @given(st.lists(digests, max_size=20))
    def test_replay_equals_bank(self, values):
        """Replaying a log always reproduces the bank's PCR value."""
        bank = PcrBank("sha256")
        for value in values:
            bank.extend(10, value)
        assert replay_extends("sha256", values) == bank.read(10)

    @given(st.lists(digests, min_size=1, max_size=10), digests)
    def test_extend_is_never_identity(self, values, extra):
        """Extending always changes the PCR (no fixed points in practice)."""
        current = replay_extends("sha256", values)
        assert extend_digest("sha256", current, extra) != current

    @given(st.lists(digests, min_size=2, max_size=8))
    def test_prefix_replay_differs(self, values):
        """A truncated log cannot replay to the full log's value."""
        assert replay_extends("sha256", values[:-1]) != replay_extends(
            "sha256", values
        )

    @given(st.lists(digests, min_size=2, max_size=6))
    def test_permutation_sensitivity(self, values):
        """Reordering the log changes the replay unless order-identical."""
        swapped = [values[1], values[0]] + values[2:]
        if swapped != values:
            assert replay_extends("sha256", swapped) != replay_extends(
                "sha256", values
            )


class TestTemplateHashProperties:
    @given(digests, paths, paths)
    def test_path_binding(self, digest, a, b):
        filedata = "sha256:" + digest
        if a != b:
            assert template_hash(filedata, a) != template_hash(filedata, b)

    @given(digests, digests, paths)
    def test_digest_binding(self, d1, d2, path):
        if d1 != d2:
            assert template_hash("sha256:" + d1, path) != template_hash(
                "sha256:" + d2, path
            )

    @given(digests, paths)
    def test_log_line_roundtrip(self, digest, path):
        filedata = "sha256:" + digest
        entry = ImaLogEntry(
            pcr=10, template_hash=template_hash(filedata, path),
            template="ima-ng", filedata_hash=filedata, path=path,
        )
        assert ImaLogEntry.from_line(entry.to_line()) == entry


class TestPolicyProperties:
    @given(st.dictionaries(paths, digests, max_size=20))
    def test_merge_is_idempotent(self, measurements):
        policy = RuntimePolicy()
        first = policy.merge_measurements(measurements)
        second = policy.merge_measurements(measurements)
        assert first == len(set(measurements))
        assert second == 0

    @given(st.dictionaries(paths, digests, min_size=1, max_size=20))
    def test_merged_entries_evaluate_accept(self, measurements):
        policy = RuntimePolicy()
        policy.merge_measurements(measurements)
        for path, digest in measurements.items():
            filedata = "sha256:" + digest
            entry = ImaLogEntry(
                pcr=10, template_hash=template_hash(filedata, path),
                template="ima-ng", filedata_hash=filedata, path=path,
            )
            verdict, failure = policy.evaluate_entry(entry)
            assert failure is None

    @given(st.dictionaries(paths, digests, max_size=15))
    def test_json_roundtrip(self, measurements):
        policy = RuntimePolicy()
        policy.merge_measurements(measurements)
        restored = RuntimePolicy.from_json(policy.to_json())
        assert restored.digests == policy.digests

    @given(st.dictionaries(paths, digests, max_size=15))
    def test_line_count_matches_digest_count(self, measurements):
        policy = RuntimePolicy()
        policy.merge_measurements(measurements)
        assert policy.line_count() == sum(
            len(values) for values in policy.digests.values()
        )

    @given(st.lists(st.one_of(
        st.tuples(st.just("add"), _few_paths, _few_digests),
        st.tuples(st.just("merge"), st.dictionaries(_few_paths, _few_digests, max_size=4)),
        st.tuples(st.just("dedupe"), st.dictionaries(_few_paths, _few_digests, max_size=4)),
        st.tuples(st.just("copy")),
        st.tuples(st.just("json")),
    ), max_size=30))
    def test_running_totals_match_a_recount(self, operations):
        """line_count()/size_bytes() are running totals; after any
        sequence of mutations and round trips they equal a recount."""
        policy = RuntimePolicy()
        for name, *args in operations:
            if name == "add":
                policy.add_digest(*args)
            elif name == "merge":
                policy.merge_measurements(*args)
            elif name == "dedupe":
                policy.dedupe_for_paths(*args)
            elif name == "copy":
                policy = policy.copy()
            else:
                policy = RuntimePolicy.from_json(policy.to_json())
            recount = policy.digests
            assert policy.line_count() == sum(len(v) for v in recount.values())
            assert policy.size_bytes() == sum(
                len(v) * (64 + 2 + len(path) + 1) for path, v in recount.items()
            )

    @given(st.dictionaries(paths, digests, min_size=1, max_size=10))
    def test_dedupe_never_grows(self, measurements):
        policy = RuntimePolicy()
        policy.merge_measurements(measurements)
        before = policy.line_count()
        policy.dedupe_for_paths(measurements)
        assert policy.line_count() <= before


class TestRngProperties:
    @given(st.integers(), st.text(min_size=1, max_size=20))
    def test_fork_determinism(self, seed, name):
        a = SeededRng(seed).fork(name)
        b = SeededRng(seed).fork(name)
        assert a.token(16) == b.token(16)

    @given(st.integers(min_value=0, max_value=2**32), st.floats(min_value=0.1, max_value=50))
    @settings(suppress_health_check=[HealthCheck.filter_too_much])
    def test_poisson_nonnegative(self, seed, lam):
        assert SeededRng(seed).poisson(lam) >= 0

    @given(st.integers(), st.integers(min_value=-100, max_value=100),
           st.integers(min_value=0, max_value=200))
    def test_randint_in_bounds(self, seed, low, width):
        value = SeededRng(seed).randint(low, low + width)
        assert low <= value <= low + width


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_stddev_nonnegative(self, values):
        assert stddev(values) >= 0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_bounds(self, values, q):
        result = percentile(values, q)
        assert min(values) - 1e-6 <= result <= max(values) + 1e-6

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=30))
    def test_summarize_consistency(self, values):
        summary = summarize(values)
        assert summary["min"] <= summary["median"] <= summary["max"]
        assert summary["n"] == len(values)


class TestSignatureProperties:
    # Key generation is slow; use one module-level key.
    _keypair = None

    @classmethod
    def _key(cls):
        from repro.crypto.rsa import generate_keypair

        if cls._keypair is None:
            cls._keypair = generate_keypair(SeededRng("prop-rsa"), bits=512)
        return cls._keypair

    @given(st.binary(max_size=256))
    @settings(max_examples=25, deadline=None)
    def test_sign_verify_roundtrip(self, message):
        key = self._key()
        assert key.public.verify(message, key.sign(message))

    @given(st.binary(max_size=128), st.binary(max_size=128))
    @settings(max_examples=25, deadline=None)
    def test_cross_message_rejection(self, m1, m2):
        key = self._key()
        if hashlib.sha256(m1).digest() != hashlib.sha256(m2).digest():
            assert not key.public.verify(m2, key.sign(m1))


class TestTransportProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=8, unique=True),
        st.text(alphabet="0123456789abcdef", min_size=8, max_size=40),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=100),
        st.binary(min_size=1, max_size=64),
    )
    def test_quote_dict_roundtrip(self, selection, nonce, clock, resets, signature):
        from repro.keylime.transport import quote_from_dict, quote_to_dict
        from repro.tpm.quote import Quote

        selection = tuple(sorted(selection))
        values = {index: sha256_hex(bytes([index])) for index in selection}
        quote = Quote(
            bank_algorithm="sha256",
            pcr_selection=selection,
            pcr_values=values,
            pcr_digest=sha256_hex(b"digest"),
            nonce=nonce,
            clock=clock,
            reset_count=resets,
            restart_count=0,
            ak_fingerprint=sha256_hex(b"ak"),
            signature=signature,
        )
        assert quote_from_dict(quote_to_dict(quote)) == quote

    @given(st.dictionaries(paths, digests, max_size=8), st.integers(0, 5))
    def test_evidence_json_roundtrip(self, measurements, offset):
        import json

        from repro.keylime.agent import AttestationEvidence
        from repro.keylime.transport import evidence_from_json, evidence_to_json
        from repro.kernelsim.ima import ImaLogEntry, template_hash
        from repro.tpm.quote import Quote

        lines = []
        for path, digest in measurements.items():
            filedata = "sha256:" + digest
            entry = ImaLogEntry(
                pcr=10, template_hash=template_hash(filedata, path),
                template="ima-ng", filedata_hash=filedata, path=path,
            )
            lines.append(entry.to_line())
        quote = Quote(
            bank_algorithm="sha256", pcr_selection=(10,),
            pcr_values={10: sha256_hex(b"v")}, pcr_digest=sha256_hex(b"d"),
            nonce="n", clock=0, reset_count=0, restart_count=0,
            ak_fingerprint=sha256_hex(b"ak"), signature=b"sig",
        )
        evidence = AttestationEvidence(
            quote=quote, ima_log_lines=tuple(lines),
            offset=offset, total_entries=offset + len(lines),
        )
        blob = evidence_to_json(evidence)
        json.loads(blob)  # well-formed JSON
        assert evidence_from_json(blob) == evidence


class TestAuditProperties:
    @given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0, max_value=1e6)),
                    min_size=1, max_size=25))
    def test_chain_always_verifies_when_untampered(self, outcomes):
        from repro.keylime.audit import AuditLog

        log = AuditLog()
        for ok, time in outcomes:
            log.append(time, "agent", ok=ok)
        log.verify_chain()
        summary = log.tamper_evident_summary()
        assert summary["records"] == len(outcomes)
        assert summary["failures"] == sum(1 for ok, _time in outcomes if not ok)
