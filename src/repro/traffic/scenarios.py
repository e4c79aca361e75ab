"""The named, versioned scenario registry.

A scenario is a *complete* open-loop experiment -- arrival shape,
tenant mix, default offered rate and operation count -- reproducible
from a single seed: the arrival schedule, every tenant's key draws, the
service-time jitter and any armed fault schedule all derive their RNG
streams from it, so ``run_scenario(name, seed=S)`` twice yields
byte-identical report JSON (the determinism tests pin exactly this).

Versions matter because committed artifacts
(``BENCH_traffic.json``) reference scenarios by name: changing a
scenario's shape without bumping its ``version`` would silently
invalidate old numbers.  Bump the version whenever arrivals, mix or
defaults change.

The registry ships five scenarios:

========================  ==================================================
``steady``                Poisson at a constant rate -- the knee finder's
                          probe workload.
``diurnal``               sinusoidal day-curve (compressed to ~400 ms of
                          simulated time).
``flash-crowd``           5x ramp/hold/decay spike over a modest baseline.
``hot-key-storm``         surge window that re-skews key choice onto a few
                          hot keys (zipfian theta 0.995), concentrating
                          load on their owning shards.
``multi-tenant-contention``  three tenants -- a rate-limited bulk cohort, an
                          interactive cohort and a small zipfian analytics
                          cohort -- demonstrating token-bucket throttling
                          under contention.
========================  ==================================================

Each run wires the full stack: real attested routers over a
:class:`~repro.shard.cluster.ShardedCluster`, live
:class:`~repro.obs.telemetry.TelemetryPipeline` ticks with an attached
:class:`~repro.obs.slo.SloEngine` (windowed breaches land in the
report), and optionally a :class:`~repro.faults.engine.FaultEngine` so
chaos composes with open-loop load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.faults.engine import FaultEngine
from repro.faults.schedule import FaultSchedule
from repro.obs import ManualClock, ObsContext, SloEngine, TelemetryPipeline
from repro.traffic.arrivals import (
    NS_PER_MS,
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    HotKeyStormArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from repro.traffic.engine import OpenLoopEngine
from repro.traffic.report import TRAFFIC_SLO_SPEC, TrafficReport
from repro.traffic.sessions import SessionModel, TenantSpec

__all__ = ["Scenario", "SCENARIOS", "list_scenarios", "run_scenario"]


@dataclass(frozen=True)
class Scenario:
    """One registry entry; ``arrivals``/``mix`` are seeded factories."""

    name: str
    version: int
    description: str
    arrivals: Callable[[float, int], ArrivalProcess]
    mix: Callable[[], List[TenantSpec]]
    default_rate_ops_s: float
    default_ops: int


def _fleet_mix(**overrides) -> List[TenantSpec]:
    """The single-cohort default: a million-session uniform fleet."""
    # 32 pooled connections keep per-connection utilization low enough
    # that below the knee an arrival almost never waits on its own
    # connection -- corrected and uncorrected tails then agree, which is
    # the honesty half of the coordinated-omission contract (loadknee
    # gates it at <= 1.10x at half the knee).
    spec = dict(
        name="fleet",
        sessions=1_000_000,
        keyspace=48,
        value_size=64,
        read_fraction=0.5,
        connections=32,
    )
    spec.update(overrides)
    return [TenantSpec(**spec)]


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    SCENARIOS[scenario.name] = scenario
    return scenario


_register(
    Scenario(
        name="steady",
        version=1,
        description="constant-rate Poisson arrivals (knee-finder probe)",
        arrivals=lambda rate, seed: PoissonArrivals(rate, seed),
        mix=_fleet_mix,
        default_rate_ops_s=1200.0,
        default_ops=400,
    )
)

_register(
    Scenario(
        name="bursty",
        version=1,
        description="MMPP on/off bursts (3x on, 0.25x off)",
        arrivals=lambda rate, seed: OnOffArrivals(rate, seed),
        mix=_fleet_mix,
        default_rate_ops_s=900.0,
        default_ops=400,
    )
)

_register(
    Scenario(
        name="diurnal",
        version=1,
        description="sinusoidal day-curve, amplitude 0.6, 400ms period",
        arrivals=lambda rate, seed: DiurnalArrivals(
            rate, seed, amplitude=0.6, period_ms=400.0
        ),
        mix=_fleet_mix,
        default_rate_ops_s=1000.0,
        default_ops=400,
    )
)

_register(
    Scenario(
        name="flash-crowd",
        version=1,
        description="5x ramp/hold/decay spike at 120ms over the baseline",
        arrivals=lambda rate, seed: FlashCrowdArrivals(
            rate,
            seed,
            spike_at_ms=120.0,
            spike_factor=5.0,
            ramp_ms=20.0,
            hold_ms=60.0,
            decay_ms=80.0,
        ),
        mix=_fleet_mix,
        default_rate_ops_s=700.0,
        default_ops=400,
    )
)

_register(
    Scenario(
        name="hot-key-storm",
        version=1,
        description=(
            "2x surge at 100ms re-skewing keys onto 4 hot records "
            "(zipfian theta 0.995)"
        ),
        arrivals=lambda rate, seed: HotKeyStormArrivals(
            rate,
            seed,
            storm_at_ms=100.0,
            storm_ms=150.0,
            surge_factor=2.0,
            storm_theta=0.995,
            storm_keys=4,
        ),
        mix=lambda: _fleet_mix(distribution="zipfian", theta=0.9),
        default_rate_ops_s=900.0,
        default_ops=400,
    )
)

_register(
    Scenario(
        name="multi-tenant-contention",
        version=1,
        description=(
            "rate-limited bulk cohort vs interactive + analytics cohorts"
        ),
        arrivals=lambda rate, seed: PoissonArrivals(rate, seed),
        mix=lambda: [
            TenantSpec(
                name="bulk",
                weight=2.0,
                sessions=2_000_000,
                keyspace=48,
                value_size=96,
                read_fraction=0.2,
                rate_limit_ops_s=400.0,
                burst=20.0,
                connections=8,
            ),
            TenantSpec(
                name="interactive",
                weight=1.0,
                sessions=500_000,
                keyspace=32,
                value_size=48,
                read_fraction=0.8,
                connections=12,
            ),
            TenantSpec(
                name="analytics",
                weight=0.5,
                sessions=50_000,
                keyspace=64,
                value_size=64,
                read_fraction=0.95,
                distribution="zipfian",
                theta=0.99,
                connections=4,
            ),
        ],
        default_rate_ops_s=1500.0,
        default_ops=500,
    )
)


def list_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def run_scenario(
    name: str,
    seed: int = 0,
    shards: int = 2,
    replicas: int = 0,
    ack_mode: str = "sync",
    rate: Optional[float] = None,
    ops: Optional[int] = None,
    schedule: str = "",
    slo: Optional[str] = None,
    tick_every_ms: float = 5.0,
    window_ticks: int = 3,
    ecall_batch: int = 0,
    near_cache: bool = False,
    read_offload: bool = False,
    cache_entries: int = 256,
    cache_lease_ms: float = 25.0,
    autoscale: bool = False,
    autoscale_policy: Optional[str] = None,
    autoscale_max_shards: int = 4,
) -> TrafficReport:
    """Run one registered scenario end to end; returns its report.

    ``rate``/``ops`` override the scenario defaults (the knee finder
    probes ``steady`` this way); ``schedule`` arms a
    :class:`~repro.faults.engine.FaultEngine` with ``kind:rate`` syntax
    *after* the preload, so warm-up writes are fault-free and the fault
    log fingerprints deterministically.  ``ecall_batch`` sets every shard
    server's batch window (``docs/BATCHING.md``); 0 (one frame per
    drain cycle) and K=1 must produce a byte-identical report.  ``near_cache``/``read_offload`` enable the
    client-verified near-cache and the freshness-token backup reads
    (``docs/CACHING.md``) on every pooled connection; both default off
    and the default report stays byte-identical to before they existed.
    ``autoscale`` puts the elastic controller
    (``docs/AUTOSCALING.md``) in the loop: every telemetry window feeds
    :class:`~repro.autoscale.AutoScaler`, which may join/leave shards
    (``shards`` then only sets the *starting* topology, bounded above
    by ``autoscale_max_shards``) and grow/shrink replica groups under
    ``autoscale_policy`` (defaults to
    :data:`~repro.autoscale.DEFAULT_POLICY_SPEC`); the full decision
    log lands in the report and a flight recorder is attached so the
    topology history is reconstructable offline.  Raises
    :class:`~repro.errors.ConfigurationError` for unknown names or bad
    parameters.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown scenario {name!r} (have {list_scenarios()})"
        )
    if not 1 <= shards <= 64:
        raise ConfigurationError(f"shards must be in [1, 64], got {shards}")
    if tick_every_ms <= 0:
        raise ConfigurationError(
            f"tick_every_ms must be positive, got {tick_every_ms}"
        )
    rate = rate if rate is not None else scenario.default_rate_ops_s
    ops = ops if ops is not None else scenario.default_ops
    if ops < 1:
        raise ConfigurationError(f"ops must be >= 1, got {ops}")
    slo_spec = slo if slo else TRAFFIC_SLO_SPEC

    from repro.core.server import ServerConfig
    from repro.shard.cluster import ShardedCluster

    clock = ManualClock()
    obs = ObsContext.create(clock=clock)
    if autoscale:
        # Attach the recorder *before* the cluster exists so the epoch-1
        # install and every autoscaler decision land in the event ring:
        # the offline-reconstruction contract for elastic runs.
        from repro.obs import FlightRecorder

        obs.attach_flight(FlightRecorder())
    cluster = ShardedCluster(
        shards=shards,
        seed=seed,
        obs=obs,
        replicas=replicas,
        ack_mode=ack_mode,
        config=ServerConfig(ecall_batch=ecall_batch),
    )
    if cache_lease_ms <= 0:
        raise ConfigurationError(
            f"cache_lease_ms must be positive, got {cache_lease_ms}"
        )
    mix = scenario.mix()
    model = SessionModel(
        cluster,
        mix,
        seed=seed,
        near_cache=near_cache,
        read_offload=read_offload,
        cache_entries=cache_entries,
        cache_lease_ns=int(cache_lease_ms * NS_PER_MS),
    )
    model.preload()  # before hooks/faults: warm-up is free and clean

    # The engine feeds the pipeline corrected latencies itself, so the
    # pipeline is deliberately NOT attached to the obs context -- the
    # router's own wall-clock observation path stays dormant.
    slo_engine = SloEngine.from_spec(slo_spec)
    pipeline = TelemetryPipeline(
        clock=clock, window_ticks=window_ticks, registry=obs.registry
    )
    pipeline.attach_cluster(cluster)
    pipeline.attach_slo(slo_engine)

    faults: Optional[FaultEngine] = None
    if schedule:
        faults = FaultEngine(FaultSchedule.parse(schedule), seed, obs=obs)
        faults.install(
            fabrics=[cluster.server(n).fabric for n in cluster.shards],
            clients=model.all_sessions(),
        )

    process = scenario.arrivals(rate, seed)
    engine = OpenLoopEngine(
        model,
        process,
        clock,
        seed=seed,
        pipeline=pipeline,
        tick_every_ns=int(tick_every_ms * NS_PER_MS),
    )

    controller = None
    if autoscale:
        from repro.autoscale import AutoScaler, StabilityGuard

        guard = StabilityGuard(
            min_shards=1,
            max_shards=autoscale_max_shards,
            min_replicas=replicas,
            max_replicas=replicas + 1,
        )
        controller = AutoScaler(
            cluster,
            policy=autoscale_policy,
            guard=guard,
            obs=obs,
            # Members spawned mid-run must get the service-cost hook
            # too, or their frames would execute for free.
            on_topology_change=engine.install_service_model,
        )
        pipeline.attach_controller(controller)

    result = engine.run(ops)

    if faults is not None:
        faults.uninstall()

    report = TrafficReport(
        scenario=scenario.name,
        version=scenario.version,
        seed=seed,
        shards=shards,
        replicas=replicas,
        rate_ops_s=rate,
        ops=ops,
        arrival_kind=process.kind,
        schedule=schedule,
        slo_spec=slo_spec,
        total_sessions=model.total_sessions,
        tenants_spec=[spec.to_dict() for spec in mix],
        offered=result.offered,
        admitted=result.admitted,
        throttled=result.throttled,
        executed=result.executed,
        errors=result.errors,
        duration_ns=result.duration_ns,
        ticks=result.ticks,
        throughput_ops_s=result.throughput_ops_s,
        corrected=result.corrected,
        uncorrected=result.uncorrected,
        per_shard=result.per_shard,
        shard_errors=result.shard_errors,
        tenant_stats=model.tenant_stats(),
        windowed_breaches=[b.to_dict() for b in slo_engine.breaches],
    )
    if faults is not None:
        report.fault_log = list(faults.log)
        report.fault_fingerprint = faults.fingerprint()
    report.near_cache = near_cache
    report.read_offload = read_offload
    report.nearcache = model.nearcache_stats()
    # Which members actually handled GET frames: the primary-shed
    # measurement (benchmarks compare these across configurations).
    report.primary_gets = sum(
        cluster.server(name).stats.gets for name in cluster.shards
    )
    report.backup_gets = sum(
        backup.stats.gets
        for name in cluster.shards
        for backup in cluster.group(name).backups
    )
    report.autoscale = autoscale
    if controller is not None:
        report.autoscale_decisions = [
            d.to_dict() for d in controller.decisions
        ]
        report.autoscale_log = controller.log_lines()
        report.autoscale_summary = controller.summary(result.duration_ns)
    return report
