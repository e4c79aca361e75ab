"""Tests of the benchmark itself: attribution, determinism, the shadow check.

Run from the repository root::

    python -m pytest perfbench -q
"""

import pytest

from repro.crypto.engine import use_engine
from run import Shadow, layer_metrics, traced_ledger
from workloads import WORKLOADS, Op

DELAY_NS = 1_000_000

#: Short traced runs: enough calls to touch every layer of the workload.
SHORT_CALLS = {
    "small-serial": 120,
    "large-pipelined": 10,
    "cluster-hot-replicated": 400,
}

#: Per-layer metrics that count work rather than time it.
COUNT_METRICS = (
    "crypto.transport.calls_per_op",
    "crypto.transport.bytes_per_op",
    "crypto.payload.calls_per_op",
    "crypto.payload.bytes_per_op",
    "rdma.wrs_per_op",
    "rdma.bytes_per_op",
    "ring.empty_polls_per_op",
    "server.pumps_per_op",
    "server.frames_per_pump",
    "batch.frames_per_crossing",
    "sgx.ecalls_per_op",
    "sgx.ocalls_per_op",
    "sgx.epc_faults",
    "htable.max_probe_distance",
    "payload_store.arena_grows",
    "router.stale_retries",
    "replica.records_per_put",
    "replica.bytes_per_put",
    "freshness.tracked_keys",
    "cache.hit_ratio",
    "cache.expirations_per_lookup",
    "offload.served_ratio",
    "offload.fallbacks_per_get",
    "obs.metric_lookups_per_op",
    "client.retries",
)


@pytest.fixture(autouse=True)
def fast_engine():
    with use_engine("fast"):
        yield


def _traced(name, seed, delays=()):
    return traced_ledger(WORKLOADS[name], seed, SHORT_CALLS[name], delays)


def test_injected_delay_is_charged_to_its_layer_only():
    base = _traced("small-serial", 5)
    delayed = _traced(
        "small-serial", 5, delays=[("rdma", "post_send", DELAY_NS)]
    )
    for books in (base, delayed):
        ledger = books["ledger"]
        assert books["shadow"].failed == 0
        assert min(ledger.self_ns.values()) >= 0
        # Layer self times plus "other" tile the measured op time.
        assert sum(ledger.self_ns.values()) == ledger.total_ns
        assert ledger.ops == SHORT_CALLS["small-serial"]

    base_ledger, delayed_ledger = base["ledger"], delayed["ledger"]
    assert delayed_ledger.calls == base_ledger.calls
    injected = delayed_ledger.calls["rdma"] * DELAY_NS
    grew = {
        layer: delayed_ledger.self_ns[layer] - base_ledger.self_ns.get(layer, 0)
        for layer in delayed_ledger.self_ns
    }
    assert abs(grew.pop("rdma") - injected) < 0.1 * injected
    for layer, extra in grew.items():
        assert extra < 0.05 * injected, (layer, extra, injected)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_for_the_same_seed(name):
    first, second = _traced(name, 9), _traced(name, 9)
    for books in (first, second):
        assert books["shadow"].failed == 0
    assert first["ledger"].calls == second["ledger"].calls
    assert first["ledger"].bytes == second["ledger"].bytes
    assert first["ledger"].tallies == second["ledger"].tallies
    assert first["delta"] == second["delta"]
    a, b = layer_metrics(first, None), layer_metrics(second, None)
    for metric in COUNT_METRICS:
        assert a[metric] == b[metric], metric


def test_shadow_counts_a_wrong_read_as_failed():
    shadow = Shadow({b"k1": b"old", b"k2": b"x"})
    shadow.settle(Op("put", 0, [b"k1"], [b"new"]), None, None)
    shadow.settle(Op("get", 0, [b"k1", b"k2"], None), [b"old", b"x"], None)
    assert (shadow.attempted, shadow.failed, shadow.wrong) == (3, 1, 1)


def test_shadow_accepts_either_value_after_a_failed_put():
    shadow = Shadow({b"k1": b"old"})
    shadow.settle(Op("put", 0, [b"k1"], [b"new"]), None, RuntimeError("lost"))
    shadow.settle(Op("get", 0, [b"k1"], None), [b"new"], None)
    assert (shadow.failed, shadow.wrong) == (1, 0)
    shadow.settle(Op("get", 0, [b"k1"], None), [b"old"], None)
    assert shadow.wrong == 1
