"""The benchmark's three workloads and the deployments they drive.

A workload is a deployment (what is built, attested and preloaded) plus
an operation stream generated from the run's seed.  The store only ever
sees the generated operations, through its public client APIs:

- ``small-serial``: one ``PrecursorServer`` on the serial request path
  with one ``PrecursorClient``; single-key get/put 50/50, 16 B keys,
  64 B values, uniform over 4096 preloaded records.
- ``large-pipelined``: one server with ``ecall_batch=16`` and four client
  sessions driven round-robin; each call is a 16-key ``get_many`` or
  ``put_many`` (80/20) of 1 KiB values, uniform over 1024 records.
- ``cluster-hot-replicated``: a ``ShardedCluster`` of 2 shards x 1 backup
  (``ack_mode="sync"``) behind one ``ShardedClient`` with the near-cache
  (256 entries) and backup read offload; zipfian (theta 0.99) get/put
  90/10 over 2048 records of 256 B.  Cache leases tick on a logical
  clock advanced 1 ms per operation, so hit ratios depend on the seed,
  not on host speed.

Every workload is a closed loop of one client thread: the next call is
issued when the previous one returned.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Op", "Workload", "WORKLOADS", "key_of"]

KEY_BYTES = 16
#: Shard placement is part of the deployment, not of the inputs: a fixed
#: ring keeps per-shard table sizes (and trusted bytes) the same for
#: every seed.
RING_SEED = 0
#: Logical cache-clock step per operation (the chaos harness's choice).
CLOCK_STEP_NS = 1_000_000


def key_of(index: int) -> bytes:
    """The 16-byte key of record ``index``."""
    return b"k%015d" % index


class Op(NamedTuple):
    """One client call: ``kind`` is ``get`` or ``put``."""

    kind: str
    session: int
    keys: List[bytes]
    values: Optional[List[bytes]]


class _Zipf:
    """Zipfian ranks over ``n`` items, mapped to keys by a seeded shuffle."""

    def __init__(self, n: int, theta: float, seed: int):
        total = 0.0
        self._cumulative = []
        for rank in range(1, n + 1):
            total += 1.0 / rank ** theta
            self._cumulative.append(total)
        self._total = total
        self._index_of_rank = list(range(n))
        random.Random(f"{seed}:zipf").shuffle(self._index_of_rank)

    def draw(self, rng: random.Random) -> int:
        rank = bisect.bisect_left(self._cumulative, rng.random() * self._total)
        return self._index_of_rank[min(rank, len(self._index_of_rank) - 1)]


class Deployment:
    """What a workload built: the store behind its client handles."""

    #: Every server of the deployment, backups included.
    members: List

    def execute(self, op: Op) -> Optional[List[bytes]]:
        """Run one call; returns the values read (``None`` for puts)."""
        raise NotImplementedError

    def tick(self) -> None:
        """Advance any logical clock by one operation (untimed)."""

    def retries(self) -> int:
        """Client operation retries across every session."""
        raise NotImplementedError

    def tracked_keys(self) -> int:
        """Keys with a client-side freshness claim (0 without a tracker)."""
        return 0

    def counters(self) -> Dict[str, int]:
        """Cumulative layer counters, for per-layer deltas."""
        out: Dict[str, int] = dict.fromkeys(
            (
                "ecalls", "ocalls", "epc_faults", "batched_ecalls",
                "batched_messages", "arena_grows", "retries",
                "cache_hits", "cache_lookups", "cache_expirations",
                "offload_served", "offload_fallbacks", "stale_retries",
                "replica_log_bytes",
            ),
            0,
        )
        for server in self.members:
            transitions = server.enclave.transitions
            out["ecalls"] += transitions.ecalls
            out["ocalls"] += transitions.ocalls
            out["epc_faults"] += transitions.epc_faults
            out["batched_ecalls"] += transitions.batched_ecalls
            out["batched_messages"] += transitions.batched_messages
            out["arena_grows"] += server.payload_store.grow_count
        out["retries"] = self.retries()
        return out

    def space(self) -> Tuple[int, int, int]:
        """``(trusted bytes, live payload bytes, reserved-by-writes bytes)``.

        The last is ``live + dead``: what the bump allocator has handed
        out, which only compaction gives back.
        """
        trusted = live = written = 0
        for server in self.members:
            trusted += server.trusted_working_set_bytes()
            store = server.payload_store
            live += store.live_bytes
            written += store.live_bytes + store.dead_bytes
        return trusted, live, written


class ServerDeployment(Deployment):
    """One ``PrecursorServer`` and its directly attached client sessions."""

    def __init__(self, ecall_batch: int, sessions: int, batched: bool):
        from repro.core import PrecursorClient, PrecursorServer, ServerConfig

        self.server = PrecursorServer(
            config=ServerConfig(ecall_batch=ecall_batch)
        )
        self.clients = [PrecursorClient(self.server) for _ in range(sessions)]
        self.members = [self.server]
        self._batched = batched

    def preload(self, items) -> None:
        self.clients[0].put_many(items)

    def execute(self, op: Op) -> Optional[List[bytes]]:
        client = self.clients[op.session]
        if self._batched:
            if op.kind == "get":
                return client.get_many(op.keys)
            client.put_many(list(zip(op.keys, op.values)))
            return None
        if op.kind == "get":
            return [client.get(op.keys[0])]
        client.put(op.keys[0], op.values[0])
        return None

    def retries(self) -> int:
        return sum(client.retries for client in self.clients)


class ClusterDeployment(Deployment):
    """A replicated ``ShardedCluster`` behind one caching ``ShardedClient``."""

    def __init__(self, shards: int, replicas: int, cache_entries: int):
        from repro.obs import ManualClock
        from repro.shard.cluster import ShardedCluster
        from repro.shard.router import ShardedClient

        self.cluster = ShardedCluster(
            shards=shards, replicas=replicas, ack_mode="sync", seed=RING_SEED
        )
        self.clock = ManualClock()
        self.router = ShardedClient(
            self.cluster,
            near_cache=True,
            cache_entries=cache_entries,
            cache_clock=self.clock,
            read_offload=True,
        )
        self.groups = [self.cluster.group(name) for name in self.cluster.shards]
        self.members = [m for group in self.groups for m in group.members()]

    def preload(self, items) -> None:
        self.router.put_many(items)

    def tick(self) -> None:
        self.clock.advance(CLOCK_STEP_NS)

    def execute(self, op: Op) -> Optional[List[bytes]]:
        if op.kind == "get":
            return [self.router.get(op.keys[0])]
        self.router.put(op.keys[0], op.values[0])
        return None

    def retries(self) -> int:
        return self.router.retries

    def counters(self) -> Dict[str, int]:
        out = super().counters()
        router = self.router
        cache = router.cache
        out["cache_hits"] = cache.hits
        out["cache_lookups"] = cache.hits + cache.misses
        out["cache_expirations"] = cache.expirations
        out["offload_served"] = router.offload_reads
        out["offload_fallbacks"] = router.offload_fallbacks
        out["stale_retries"] = router.stale_retries
        out["replica_log_bytes"] = sum(g.log_bytes for g in self.groups)
        return out

    def tracked_keys(self) -> int:
        return self.router.freshness.tracked


class Workload:
    """A named deployment recipe plus its seeded operation stream."""

    def __init__(
        self,
        name: str,
        records: int,
        value_bytes: int,
        keys_per_call: int,
        get_share: float,
        sessions: int = 1,
        ecall_batch: int = 0,
        zipf_theta: Optional[float] = None,
        cluster: Optional[dict] = None,
        warmup_calls: int = 200,
        space_put_keys: int = 1000,
        trace_calls_per_s: float = 100.0,
    ):
        self.name = name
        self.records = records
        self.value_bytes = value_bytes
        self.keys_per_call = keys_per_call
        self.get_share = get_share
        self.sessions = sessions
        self.ecall_batch = ecall_batch
        self.zipf_theta = zipf_theta
        self.cluster = cluster
        #: Untimed calls run before measuring (caches and lazy set-up).
        self.warmup_calls = warmup_calls
        #: Put keys after warm-up at which the space metrics are read:
        #: each put leaves exactly one dead payload behind, so they
        #: depend neither on host speed nor much on the seed.
        self.space_put_keys = space_put_keys
        #: Traced calls per second of ``--seconds`` (a fixed count for a
        #: given run length, so per-layer counts repeat exactly).
        self.trace_calls_per_s = trace_calls_per_s

    def config(self) -> dict:
        """The workload's parameters, for the run manifest."""
        return {
            "records": self.records,
            "key_bytes": KEY_BYTES,
            "value_bytes": self.value_bytes,
            "keys_per_call": self.keys_per_call,
            "get_share": self.get_share,
            "sessions": self.sessions,
            "ecall_batch": self.ecall_batch,
            "key_distribution": (
                f"zipfian(theta={self.zipf_theta})"
                if self.zipf_theta is not None
                else "uniform"
            ),
            "cluster": self.cluster,
            "warmup_calls": self.warmup_calls,
            "space_put_keys": self.space_put_keys,
            "loop": "closed, one thread",
        }

    def trace_calls(self, seconds: float) -> int:
        """Calls in the traced run for a run length of ``seconds``."""
        return max(1, round(self.trace_calls_per_s * seconds))

    def preload_items(self, seed: int) -> List[Tuple[bytes, bytes]]:
        rng = random.Random(f"{seed}:preload")
        return [
            (key_of(index), rng.randbytes(self.value_bytes))
            for index in range(self.records)
        ]

    def build(self, seed: int) -> Tuple[Deployment, Dict[bytes, bytes]]:
        """Build, attest and preload; returns the deployment and its data."""
        if self.cluster is not None:
            deployment = ClusterDeployment(**self.cluster)
        else:
            deployment = ServerDeployment(
                self.ecall_batch, self.sessions, batched=self.keys_per_call > 1
            )
        items = self.preload_items(seed)
        deployment.preload(items)
        return deployment, dict(items)

    def ops(self, seed: int) -> Iterator[Op]:
        """The endless, seed-determined operation stream."""
        rng = random.Random(seed)
        zipf = (
            _Zipf(self.records, self.zipf_theta, seed)
            if self.zipf_theta is not None
            else None
        )
        population = range(self.records)
        for call in itertools.count():
            kind = "get" if rng.random() < self.get_share else "put"
            if zipf is not None:
                indexes = [zipf.draw(rng) for _ in range(self.keys_per_call)]
            else:
                indexes = rng.sample(population, self.keys_per_call)
            values = (
                [rng.randbytes(self.value_bytes) for _ in indexes]
                if kind == "put"
                else None
            )
            yield Op(
                kind, call % self.sessions, [key_of(i) for i in indexes], values
            )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small-serial",
            records=4096,
            value_bytes=64,
            keys_per_call=1,
            get_share=0.5,
            warmup_calls=300,
            space_put_keys=1000,
            trace_calls_per_s=250,
        ),
        Workload(
            "large-pipelined",
            records=1024,
            value_bytes=1024,
            keys_per_call=16,
            get_share=0.8,
            sessions=4,
            ecall_batch=16,
            warmup_calls=16,
            space_put_keys=480,
            trace_calls_per_s=12,
        ),
        Workload(
            "cluster-hot-replicated",
            records=2048,
            value_bytes=256,
            keys_per_call=1,
            get_share=0.9,
            zipf_theta=0.99,
            cluster={"shards": 2, "replicas": 1, "cache_entries": 256},
            warmup_calls=500,
            space_put_keys=300,
            trace_calls_per_s=400,
        ),
    )
}
