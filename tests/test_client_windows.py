"""Pipelined ``get_many``/``put_many`` windows on a raw client.

Each window's crypto runs as one call per phase (payload encrypt/MAC,
control sealing, reply opening, payload verify/decrypt).  These tests pin
the wire bytes to the per-key path's, and check that a window which
fails part-way leaves no stale replies behind: with the default
``max_retries=0`` the next operation on the same client must read its
own reply, not the leftovers of the aborted window.
"""

import hashlib

import pytest

from repro.core import PrecursorClient, PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator
from repro.errors import IntegrityError, KeyNotFoundError, PrecursorError
from repro.rdma.fabric import Fabric

BATCHES = [0, 16]


def _pair(ecall_batch, tenant_isolation=False):
    server = PrecursorServer(
        fabric=Fabric(),
        config=ServerConfig(
            ecall_batch=ecall_batch, tenant_isolation=tenant_isolation
        ),
        keygen=KeyGenerator(seed=11),
    )
    client = PrecursorClient(server, client_id=7, keygen=KeyGenerator(seed=12))
    return server, client


def _items(count=8, size=256):
    return [
        (b"k%d" % i, bytes((i * 31 + j) % 256 for j in range(size)))
        for i in range(count)
    ]


@pytest.mark.parametrize("ecall_batch", BATCHES)
class TestFailedWindowLeavesNoStaleReplies:
    def test_missing_key(self, ecall_batch):
        _server, client = _pair(ecall_batch)
        items = _items()
        client.put_many(items)
        with pytest.raises(KeyNotFoundError):
            client.get_many([b"k0", b"missing", b"k2", b"k3"])
        assert client.get(b"k5") == items[5][1]
        assert client.get_many([b"k6", b"k7"]) == [items[6][1], items[7][1]]

    def test_integrity_failure(self, ecall_batch):
        server, client = _pair(ecall_batch)
        items = _items()
        client.put_many(items)
        server.payload_store.corrupt(server._table.get(b"k1").ptr)
        with pytest.raises(IntegrityError, match="k1"):
            client.get_many([b"k0", b"k1", b"k2", b"k3"])
        assert client.integrity_failures == 1
        assert client.get(b"k5") == items[5][1]

    def test_failed_batched_put(self, ecall_batch):
        server, alice = _pair(ecall_batch, tenant_isolation=True)
        alice.put(b"owned", b"alice's")
        bob = PrecursorClient(server, client_id=8, keygen=KeyGenerator(seed=13))
        with pytest.raises(PrecursorError, match="ERROR"):
            bob.put_many([(b"b0", b"1"), (b"owned", b"hijack"), (b"b2", b"3")])
        assert bob.get(b"b2") == b"3"
        assert alice.get(b"owned") == b"alice's"


@pytest.mark.parametrize("ecall_batch", BATCHES)
class TestWindowIntegrityAccounting:
    def test_tampered_payload_fails_that_key_alone(self, ecall_batch):
        server, client = _pair(ecall_batch)
        items = _items()
        client.put_many(items)
        server.payload_store.corrupt(server._table.get(b"k2").ptr)
        with pytest.raises(IntegrityError, match="k2"):
            client.get_many([k for k, _v in items])
        assert client.integrity_failures == 1
        # Every other key of that window still verifies.
        others = [k for k, _v in items if k != b"k2"]
        assert client.get_many(others) == [v for k, v in items if k != b"k2"]

    def test_every_failure_counts_and_the_first_is_raised(self, ecall_batch):
        server, client = _pair(ecall_batch)
        items = _items()
        client.put_many(items)
        for key in (b"k6", b"k3"):
            server.payload_store.corrupt(server._table.get(key).ptr)
        with pytest.raises(IntegrityError, match="k3"):
            client.get_many([k for k, _v in items])
        assert client.integrity_failures == 2


# Digests of every RDMA work request's bytes (both directions) for a
# seeded put_many/get_many session, recorded on the per-key window
# implementation this kernel replaced: the batched crypto must not move
# a single byte of any frame, IV, ciphertext or MAC.
WIRE_DIGESTS = {
    0: "d3fb902f5f3bf5ad2815b722c6a9e423c5f6894ff26250fdf651c8a2c0e966fe",
    16: "41c4414ded2acd1769c00df8a287ea677a6e10e029c5b9aab814c65a4c7e9982",
}


@pytest.mark.parametrize("ecall_batch", BATCHES)
def test_window_wire_bytes_are_pinned(ecall_batch):
    server, client = _pair(ecall_batch)
    digest = hashlib.sha256()
    post_send = server.fabric.post_send

    def capture(qp, wr):
        data = wr.data or b""
        digest.update(len(data).to_bytes(4, "big") + data)
        return post_send(qp, wr)

    server.fabric.post_send = capture
    sizes = [0, 1, 15, 16, 17, 64, 100, 1024]
    items = [
        (b"key-%d" % i, bytes((i * 7 + j) % 256 for j in range(sizes[i % 8])))
        for i in range(40)
    ]
    client.put_many(items)
    assert client.get_many([k for k, _v in items]) == [v for _k, v in items]
    client.put(b"single", b"x" * 300)
    assert client.get(b"single") == b"x" * 300
    assert digest.hexdigest() == WIRE_DIGESTS[ecall_batch]
