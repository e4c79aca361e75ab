"""Discrete-event simulation of the paper's testbed.

Models the closed-loop YCSB setup of §5.2: ``clients`` client processes
(spread over the six client machines) issue requests against a server with
``server_threads`` polling threads.  Per-operation costs come from
:mod:`repro.bench.costs`; network timing from the RNIC/TCP models; EPC
paging and RNIC QP-cache misses are charged stochastically at their
steady-state probabilities.

One operation's life:

1. the client "thinks" (YCSB loop overhead), draws an op from the mix,
   runs its client-side cryptography, and posts the request;
2. the wire delay (RDMA write or TCP message) delivers it to the queue of
   the server thread that polls this client's ring;
3. the thread picks it up, spends the *critical-path* cycles (transport
   decryption, lookup/insert, reply seal), posts the reply, then finishes
   the deferred remainder of its per-op budget before the next dequeue;
4. the reply's wire delay later, the client verifies/decrypts and records
   the end-to-end latency.

Throughput is measured in a steady-state window (after warm-up); the
server-NIC line-rate cap is applied to the result (the simulator does not
model per-packet link arbitration, so the cap is analytic).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.bench.calibration import Calibration
from repro.bench.costs import SystemCosts
from repro.core.protocol import OpCode
from repro.errors import ConfigurationError
from repro.obs import ObsContext
from repro.rdma.nic import NicMeter
from repro.sim import LatencyRecorder, Simulator, Store, ThroughputMeter
from repro.ycsb.workload import WorkloadSpec

__all__ = ["SimulationConfig", "SimulationResult", "simulate"]


@dataclass(frozen=True)
class SimulationConfig:
    """One simulated experiment."""

    system: str  # "precursor" | "precursor-se" | "shieldstore"
    workload: WorkloadSpec
    clients: int = 50
    duration_ms: float = 60.0
    warmup_ms: float = 10.0
    seed: int = 1
    #: Keys resident in the store (drives EPC paging for Precursor).
    loaded_keys: int = 600_000
    calibration: Calibration = field(default_factory=Calibration)
    #: Record latencies into a bounded log-linear histogram instead of an
    #: unbounded sample list (million-op runs; see repro.sim.stats).
    bounded_latency: bool = False
    #: Server machines behind a consistent-hash shard map
    #: (:mod:`repro.shard`).  Each shard brings its own polling threads,
    #: NIC line rate and enclave, and holds ``loaded_keys / shards`` of
    #: the resident keys -- which is what shrinks the per-enclave EPC
    #: working set.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.duration_ms <= self.warmup_ms:
            raise ConfigurationError("duration must exceed warmup")
        if self.shards < 1:
            raise ConfigurationError("need at least one shard")


@dataclass
class SimulationResult:
    """Outcome of one simulated experiment."""

    config: SimulationConfig
    kops: float
    latency: LatencyRecorder
    operations: int
    epc_fault_fraction: float

    @property
    def throughput_kops(self) -> float:
        """Steady-state throughput in Kops/s (line-rate cap applied)."""
        return self.kops


def _epc_fault_probability(config: SimulationConfig) -> float:
    """Steady-state EPC fault probability for Precursor's enclave table."""
    if config.system == "shieldstore":
        # ShieldStore's enclave state is statically sized; the paper notes
        # it "is not affected by the EPC paging in this case" (§5.3).
        return 0.0
    cal = config.calibration
    # Consistent hashing spreads the resident keys (near-)uniformly, so
    # each shard's enclave only keeps its own slice of the table hot.
    per_shard_keys = config.loaded_keys / config.shards
    working_set = per_shard_keys * cal.epc_hot_bytes_per_entry
    return cal.epc.fault_probability(int(working_set))


def simulate(
    config: SimulationConfig, obs: ObsContext = None
) -> SimulationResult:
    """Run one experiment and return throughput + latency.

    Pass an :class:`~repro.obs.ObsContext` to export the run's engine
    counters (simulated clock, events), per-NIC transfer totals, operation
    counts and a latency histogram into its metrics registry.
    """
    cal = config.calibration
    costs = SystemCosts(config.system, cal, config.workload.read_fraction)
    rng = random.Random(config.seed)
    sim = Simulator()
    meter = ThroughputMeter()
    latency = LatencyRecorder(bounded=config.bounded_latency)

    client_nic, server_nic = cal.client_nic, cal.server_nic
    obs_ops = obs_latency = obs_faults = None
    if obs is not None:
        registry = obs.registry
        sim.bind_obs(registry)
        client_meter, server_meter = NicMeter(), NicMeter()
        client_meter.bind_obs(registry, {"nic": "client"})
        server_meter.bind_obs(registry, {"nic": "server"})
        client_nic = replace(client_nic, meter=client_meter)
        server_nic = replace(server_nic, meter=server_meter)
        obs_ops = registry.counter(
            "sim_operations_total", "operations completed", {"system": config.system}
        )
        obs_latency = registry.histogram(
            "sim_latency_ns", "end-to-end operation latency", {"system": config.system}
        )
        obs_faults = registry.counter(
            "sim_epc_faults_total", "EPC faults charged", {"system": config.system}
        )

    # ShieldStore's request processing is effectively serialised by its
    # Merkle root (see Calibration.shieldstore_parallelism).
    threads = (
        cal.shieldstore_parallelism
        if config.system == "shieldstore"
        else cal.server_threads
    )
    # One queue per (shard, polling thread): each shard is a full server
    # machine contributing its own ``threads`` polling threads.
    shards = config.shards
    queues = [Store(sim) for _ in range(shards * threads)]
    warmup_ns = int(config.warmup_ms * 1e6)
    duration_ns = int(config.duration_ms * 1e6)

    is_tcp = config.system == "shieldstore"
    fault_prob = _epc_fault_probability(config)
    fault_ns = cal.transitions.epc_fault_cycles / cal.server_ghz
    qp_miss_prob = (
        0.0 if is_tcp else cal.qp_cache.miss_probability(config.clients)
    )
    qp_miss_ns = cal.qp_cache.miss_penalty_ns

    # Extra polling work past the calibration baseline (Fig. 6 effect).
    extra_scan_cycles = 0.0
    per_thread = config.clients / threads
    baseline_per_thread = cal.baseline_clients / threads
    if per_thread > baseline_per_thread and not is_tcp:
        extra_scan_cycles = (
            (per_thread - baseline_per_thread)
            * cal.poll_scan_cycles_per_client
        )

    value_size = config.workload.value_size
    read_fraction = config.workload.read_fraction
    get_cost = costs.op_cost(OpCode.GET, value_size)
    put_cost = costs.op_cost(OpCode.PUT, value_size)

    epc_faults = 0
    total_ops = 0

    def wire_ns(nbytes: int, to_server: bool) -> int:
        if is_tcp:
            base = cal.tcp.one_way_ns(nbytes)
            if rng.random() < cal.tcp_tail_probability:
                base += int(rng.expovariate(1.0 / cal.tcp_tail_mean_ns))
            return base
        nic = client_nic if to_server else server_nic
        return nic.transfer_ns(nbytes, inline=nbytes <= nic.max_inline)

    def client_proc(client_index: int):
        nonlocal epc_faults, total_ops
        thread_index = client_index % threads
        think_base = cal.client_think_ns
        jitter = cal.think_jitter
        while True:
            think = think_base * (1 + jitter * (2 * rng.random() - 1))
            yield sim.timeout(int(think))
            is_read = rng.random() < read_fraction
            cost = get_cost if is_read else put_cost
            # Key-hash routing: YCSB key choosers spread keys (near-)
            # uniformly over the ring, so the owning shard is uniform
            # per operation.  The client keeps one session per shard,
            # polled by the same thread slot on every shard.
            shard_index = rng.randrange(shards) if shards > 1 else 0
            queue = queues[shard_index * threads + thread_index]
            start = sim.now
            # Client-side crypto + request assembly.
            yield sim.timeout(
                int(cal.client_cycles_to_ns(cost.client_cycles))
            )
            reply = sim.event()
            delay = wire_ns(cost.request_bytes, to_server=True)
            item = (cost, reply)
            sim.schedule(delay, lambda q=queue, it=item: q.put(it))
            yield reply
            # Client verifies/decrypts on receive (cost already included in
            # client_cycles for symmetry; charge a fixed small receive path).
            yield sim.timeout(300)
            total_ops += 1
            if obs_ops is not None:
                obs_ops.inc()
            if sim.now >= warmup_ns:
                meter.record_completion()
                latency.record(sim.now - start)
                if obs_latency is not None:
                    obs_latency.record(sim.now - start)

    def server_thread(thread_index: int):
        nonlocal epc_faults
        queue = queues[thread_index]
        while True:
            cost, reply = yield queue.get()
            crit_cycles = cost.server_crit_cycles + extra_scan_cycles
            extra_ns = 0.0
            if qp_miss_prob and rng.random() < qp_miss_prob:
                # RNIC QP-state cache miss while posting this client's
                # reply: the server-side DMA engine stalls on a PCIe
                # context fetch (the Fig. 6 contention effect).
                extra_ns += qp_miss_ns
            if fault_prob and rng.random() < fault_prob:
                faults = 1
                if rng.random() < cal.epc_second_fault_probability:
                    faults += 1
                epc_faults += faults
                if obs_faults is not None:
                    obs_faults.inc(faults)
                extra_ns += faults * fault_ns
            if rng.random() < cal.tail_probability:
                extra_ns += rng.expovariate(1.0 / cal.tail_mean_ns)
            crit_ns = cal.server_cycles_to_ns(crit_cycles) + extra_ns
            yield sim.timeout(int(crit_ns))
            delay = wire_ns(cost.response_bytes, to_server=False)
            sim.schedule(delay, reply.succeed)
            post_cycles = cost.server_total_cycles - cost.server_crit_cycles
            if post_cycles > 0:
                yield sim.timeout(
                    int(cal.server_cycles_to_ns(post_cycles))
                )

    for index in range(config.clients):
        sim.spawn(client_proc(index))
    for index in range(shards * threads):
        sim.spawn(server_thread(index))

    sim.schedule(warmup_ns, lambda: meter.open_window(sim.now))
    sim.run(until=duration_ns)
    meter.close_window(duration_ns)

    kops = meter.kops()
    # Analytic server-NIC line-rate cap (see module docstring); sharding
    # multiplies it, since every shard brings its own NIC.
    bytes_per_op = costs.mean_server_bytes(value_size)
    cap = cal.link_capacity_kops(bytes_per_op) * shards
    kops = min(kops, cap)

    return SimulationResult(
        config=config,
        kops=kops,
        latency=latency,
        operations=total_ops,
        epc_fault_fraction=(epc_faults / total_ops) if total_ops else 0.0,
    )
