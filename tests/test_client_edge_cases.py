"""Client-side edge cases: malformed responses, credits, boundaries."""

import struct

import pytest

from repro.core import PrecursorClient, PrecursorServer, ServerConfig, make_pair
from repro.core.protocol import ControlData, OpCode
from repro.errors import ProtocolError


class TestResponseValidation:
    def test_stale_oid_response_rejected(self, pair):
        """A response echoing the wrong oid must not be accepted."""
        server, client = pair
        client.put(b"k", b"v")
        # Submit a get but do not consume the reply; then desync by
        # submitting another and reading the first reply against it.
        for _ in range(2):
            control = ControlData(
                opcode=OpCode.GET, oid=client._oid + 1, key=b"k"
            )
            (request,) = client._seal([control])
            client._submit(request)
            client._oid += 1
            server.process_pending()
        # Collect against the SECOND get: the first reply is read first.
        with pytest.raises(ProtocolError, match="oid"):
            client._collect([control])

    def test_operations_counter(self, pair):
        _, client = pair
        client.put(b"k", b"v")
        client.get(b"k")
        client.delete(b"k")
        assert client.operations == 3

    def test_oid_strictly_increasing_across_op_kinds(self, pair):
        server, client = pair
        client.put(b"a", b"1")
        client.get(b"a")
        client.put(b"b", b"2")
        client.delete(b"b")
        assert client._oid == 4
        assert server._replay.expected_oid(client.client_id) == 5


class TestCreditSanitisation:
    def test_forged_huge_credit_is_clamped(self, pair):
        """An attacker with the credit-region rkey writes an absurd credit;
        the client must not let its producer overrun unprocessed slots."""
        _, client = pair
        client.put(b"k", b"v")
        client._credit_region.write_local(0, struct.pack(">Q", 2**40))
        client.put(b"k2", b"v2")  # must not raise or corrupt
        assert client.get(b"k2") == b"v2"

    def test_zero_credit_is_harmless(self, pair):
        _, client = pair
        client._credit_region.write_local(0, struct.pack(">Q", 0))
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"


class TestInlineThresholdBoundary:
    def _pair(self):
        return make_pair(
            seed=8, config=ServerConfig(inline_small_values=True)
        )

    def test_exactly_at_threshold_is_inline(self):
        server, client = self._pair()
        # payload = ciphertext + 16-byte MAC; threshold is 56 bytes.
        value = b"x" * (56 - 16)
        client.put(b"edge", value)
        assert server.stats.inline_stores == 1
        assert client.get(b"edge") == value

    def test_one_past_threshold_is_external(self):
        server, client = self._pair()
        value = b"x" * (56 - 16 + 1)
        client.put(b"edge", value)
        assert server.stats.inline_stores == 0
        assert client.get(b"edge") == value

    def test_update_across_the_threshold(self):
        """A key can migrate inline -> external -> inline on updates."""
        server, client = self._pair()
        client.put(b"k", b"small")
        assert server.stats.inline_stores == 1
        client.put(b"k", b"L" * 500)  # now external
        assert client.get(b"k") == b"L" * 500
        assert server.enclave.allocator.bytes_for("inline_values") == 0
        client.put(b"k", b"tiny")  # back inline
        assert client.get(b"k") == b"tiny"
        assert server.enclave.allocator.bytes_for("inline_values") > 0


class TestClientConstruction:
    def test_auto_assigned_ids_are_unique(self):
        server = PrecursorServer()
        a = PrecursorClient(server)
        b = PrecursorClient(server)
        assert a.client_id != b.client_id

    def test_sessions_differ_between_clients(self, pair):
        server, client = pair
        other = PrecursorClient(server, client_id=4242)
        assert other.session.key != client.session.key

    def test_make_pair_propagates_config(self):
        config = ServerConfig(ring_slots=8, ring_slot_size=4096)
        server, client = make_pair(config=config, seed=1)
        assert server.config.ring_slots == 8
        assert client._layout.slot_count == 8

    def test_seeded_pairs_are_reproducible(self):
        _, c1 = make_pair(seed=500)
        _, c2 = make_pair(seed=500)
        assert c1.session.key == c2.session.key
