"""Per-layer span ledger for the traced benchmark run.

The ledger wraps each layer's public entry points (class attributes, or
one instance attribute for the replication hook) with a timing span.
Spans nest through a stack of child-time accumulators, so a layer's
*self* time is its span's duration minus the spans it caused::

    self_ns[layer] += duration - time spent in child spans

Every benchmark operation is itself a root span (:meth:`Ledger.op`); the
root's self time is booked as ``other``.  Because each span adds its full
duration to its parent's child accumulator, the books balance exactly::

    sum(self_ns.values()) == total_ns

Besides time, a wrapper can count calls under a name of its own, add a
byte count derived from its arguments or result, and count "empty"
results (a ring poll that found nothing).  ``delay_ns`` busy-waits inside
a span: the attribution test uses it to inject a known cost.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Ledger", "Target", "hook_target", "layer_targets"]

_now = time.perf_counter_ns


class Target:
    """One entry point to wrap: ``owner.name`` charged to ``layer``."""

    __slots__ = ("owner", "name", "layer", "count_as", "size", "tally", "track")

    def __init__(
        self,
        owner,
        name: str,
        layer: str,
        count_as: Optional[str] = None,
        size: Optional[Callable] = None,
        tally: Optional[Callable] = None,
        track: bool = False,
    ):
        self.owner = owner
        self.name = name
        self.layer = layer
        #: Call-counter name (defaults to the layer).
        self.count_as = count_as or layer
        #: ``size(args, result) -> int`` bytes moved by the call.
        self.size = size
        #: ``tally(args, result) -> (counter, amount) | None``.
        self.tally = tally
        #: Remember each distinct ``self`` the entry point ran on.
        self.track = track


class Ledger:
    """Self time, calls, bytes and tallies per layer; see module docstring."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.tallies: Dict[str, int] = defaultdict(int)
        #: Distinct ``self`` objects of tracked targets, per layer.
        self.seen: Dict[str, Dict[int, object]] = defaultdict(dict)
        self.total_ns = 0
        self.ops = 0
        self.active = False
        self._stack: List[int] = [0]
        self._patches: List[Tuple[object, str, object]] = []
        self._delays: Dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def op(self, fn, *args):
        """Run one benchmark operation as a root span; returns its result."""
        stack = self._stack
        stack.append(0)
        start = _now()
        try:
            return fn(*args)
        finally:
            elapsed = _now() - start
            self.self_ns["other"] += elapsed - stack.pop()
            self.total_ns += elapsed
            self.ops += 1

    def _wrap(self, target: Target, original):
        ledger = self
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        layer = target.layer
        count_as = target.count_as
        size = target.size
        tally = target.tally
        seen = self.seen[layer] if target.track else None
        delay = self._delays.get(f"{layer}:{target.name}", 0)

        def span(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            stack.append(0)
            start = _now()
            try:
                if delay:
                    until = start + delay
                    while _now() < until:
                        pass
                result = original(*args, **kwargs)
            finally:
                elapsed = _now() - start
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[count_as] += 1
            if size is not None:
                ledger.bytes[count_as] += size(args, result)
            if tally is not None:
                counted = tally(args, result)
                if counted is not None:
                    ledger.tallies[counted[0]] += counted[1]
            if seen is not None:
                seen[id(args[0])] = args[0]
            return result

        span.__wrapped__ = original
        return span

    # -- installation --------------------------------------------------------

    def inject_delay(self, layer: str, name: str, delay_ns: int) -> None:
        """Busy-wait ``delay_ns`` inside every ``layer``/``name`` span.

        Must be called before :meth:`install`.
        """
        self._delays[f"{layer}:{name}"] = delay_ns

    def install(self, targets) -> None:
        """Wrap every target in place; :meth:`uninstall` restores them."""
        for target in targets:
            original = getattr(target.owner, target.name)
            if isinstance(target.owner, type):
                # Keep the plain function so the wrapper binds like it.
                original = target.owner.__dict__[target.name]
            self._patches.append((target.owner, target.name, original))
            setattr(target.owner, target.name, self._wrap(target, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# -- the layer map ------------------------------------------------------------


def _sealed_len(_args, result) -> int:
    return len(result.sealed)


def _opened_len(args, _result) -> int:
    return len(args[2].sealed)


def _sealed_many_len(_args, result) -> int:
    return sum(len(message.sealed) for message in result)


def _opened_many_len(args, _result) -> int:
    return sum(len(message.sealed) for message, _aad in args[2])


def _value_len(args, _result) -> int:
    return len(args[2])


def _ciphertext_len(args, _result) -> int:
    return len(args[2].ciphertext)


def _wr_len(args, _result) -> int:
    return len(args[2].data or b"")


def _record_len(args, _result) -> int:
    return len(args[1]) + len(args[2])


def _empty_poll(_args, result):
    return ("ring.empty_polls", 1) if result is None else None


def _frames(_args, result):
    return ("server.frames", result)


def layer_targets() -> List[Target]:
    """Class-level entry points of every layer, named as in the repo."""
    from repro.cache.nearcache import NearCache
    from repro.core.client import PrecursorClient
    from repro.core.payload_store import PayloadStore
    from repro.core.ring_buffer import RingConsumer, RingProducer
    from repro.core.server import PrecursorServer
    from repro.crypto.provider import CryptoProvider
    from repro.htable.robinhood import RobinHoodTable
    from repro.obs.context import ObsContext
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.span import Trace, Tracer
    from repro.rdma.fabric import Fabric
    from repro.replica.freshness import FreshnessTracker
    from repro.shard.router import ShardedClient

    targets = [
        Target(CryptoProvider, "transport_seal", "crypto.transport",
               size=_sealed_len),
        Target(CryptoProvider, "transport_open", "crypto.transport",
               size=_opened_len),
        Target(CryptoProvider, "transport_seal_many", "crypto.transport",
               size=_sealed_many_len),
        Target(CryptoProvider, "transport_open_many", "crypto.transport",
               size=_opened_many_len),
        Target(CryptoProvider, "payload_encrypt", "crypto.payload",
               size=_value_len),
        Target(CryptoProvider, "payload_decrypt", "crypto.payload",
               size=_ciphertext_len),
        Target(Fabric, "post_send", "rdma", size=_wr_len),
        Target(RingProducer, "produce", "ring"),
        Target(RingProducer, "produce_many", "ring"),
        Target(RingConsumer, "poll", "ring"),
        Target(RingConsumer, "poll_one", "ring", tally=_empty_poll),
        Target(PrecursorServer, "process_pending", "server", tally=_frames),
        Target(RobinHoodTable, "get", "htable"),
        Target(RobinHoodTable, "put", "htable", track=True),
        Target(RobinHoodTable, "delete", "htable"),
        Target(PayloadStore, "store", "payload_store"),
        Target(PayloadStore, "load", "payload_store"),
        Target(PayloadStore, "release", "payload_store"),
        Target(ShardedClient, "get", "router"),
        Target(ShardedClient, "put", "router"),
        Target(PrecursorServer, "export_entry", "replica"),
        Target(PrecursorServer, "import_entry", "replica",
               count_as="replica.records", size=_record_len),
        Target(NearCache, "lookup", "cache"),
        Target(NearCache, "fill", "cache"),
        Target(Tracer, "start", "obs"),
        Target(Tracer, "stage", "obs"),
        Target(Trace, "close_stage", "obs"),
        Target(Trace, "finish", "obs"),
        Target(ObsContext, "hop", "obs"),
        Target(MetricsRegistry, "counter", "obs", count_as="obs.lookups"),
        Target(MetricsRegistry, "gauge", "obs", count_as="obs.lookups"),
        Target(MetricsRegistry, "histogram", "obs", count_as="obs.lookups"),
        Target(PrecursorClient, "get", "client"),
        Target(PrecursorClient, "put", "client"),
        Target(PrecursorClient, "get_many", "client"),
        Target(PrecursorClient, "put_many", "client"),
    ]
    for name in (
        "note_write", "note_delete", "forget", "expects_value",
        "expects_absence", "claim", "matches", "check_read", "check_absent",
    ):
        targets.append(Target(FreshnessTracker, name, "freshness"))
    return targets


def hook_target(server) -> Target:
    """The replication hook a replica group installed on ``server``."""
    return Target(server, "replication_hook", "replica",
                  count_as="replica.hook")
