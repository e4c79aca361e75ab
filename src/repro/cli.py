"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro.cli list                 # every command, one line each
    python -m repro.cli fig4
    python -m repro.cli fig5 --quick
    python -m repro.cli all --quick --out bench_reports/

Every command is one entry of :data:`COMMANDS`: its name, its ``list``
line and its runner.  The argparse choices, ``list`` and dispatch all
come from that table, and every command runs one way -- it prints its
report, ``--out DIR`` also writes the report into ``DIR``, and the exit
code is 0 on success, 1 when a gate or contract failed and 2 on an
invalid configuration.

*Artifacts* -- the figures and tables, the modelled curves and the gated
benchmarks -- return a result object with ``report()``, and ``all`` runs
every one of them in sequence.  A gated benchmark also saves its
measurements as ``BENCH_<stem>.json`` (cryptobench: crypto, batchbench:
batching, replicate: replication, loadknee: traffic, nearcachebench:
nearcache, autoscalebench: autoscale):

* a full run refreshes the committed file at the repository root;
* ``--quick`` writes ``bench_reports/BENCH_<stem>_quick.json`` instead;
* ``--out DIR`` puts either file into ``DIR``.

So ``all --quick`` checks every gate without touching the committed
numbers, and ``all`` regenerates all of them.  ``--json`` prints a gated
benchmark's measurements instead of its report; ``all`` ignores it, so
its output stays one stream of text reports.

More examples (each subsystem's page under ``docs/`` has the details)::

    python -m repro.cli trace --op put --json        # OBSERVABILITY.md
    python -m repro.cli metrics                      # Prometheus text
    python -m repro.cli shard --shards 4 --workload a --json   # SHARDING.md
    python -m repro.cli cryptobench --json           # PERFORMANCE.md
    python -m repro.cli batchbench --quick           # BATCHING.md
    python -m repro.cli chaos --seed 7 --schedule drop:0.1,enclave_crash:0.01
    python -m repro.cli replica --ack-mode async --json   # REPLICATION.md
    python -m repro.cli health --slo 'latency:p99<500us'
    python -m repro.cli flightrec --load bench_reports/flightrec.json \\
        --trace c1-42                            # offline trace replay
    python -m repro.cli traffic --scenario flash-crowd --shards 2  # TRAFFIC.md
    python -m repro.cli nearcache --cache --offload  # CACHING.md
    python -m repro.cli autoscale --max-shards 6 --json   # AUTOSCALING.md
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.bench.report import bench_path, to_json, write_json, write_text
from repro.errors import ConfigurationError, ObservabilityError

__all__ = ["COMMANDS", "Command", "build_parser", "main"]


def _save(out_dir, filename: str, text: str, end: str = "\n") -> None:
    """Write ``text`` to ``out_dir/filename`` when ``--out`` was given."""
    if out_dir is not None:
        write_text(out_dir / filename, text + end)


def _emit(name: str, report, as_json: bool, out_dir, text: str = None) -> str:
    """Render ``report`` and save it as ``out_dir/<name>.{json,txt}``.

    The JSON form is the report's ``to_dict()``; the text form is
    ``text`` when given, else ``report.report()``.
    """
    if as_json:
        text = to_json(report)
    elif text is None:
        text = report.report()
    _save(out_dir, f"{name}.{'json' if as_json else 'txt'}", text)
    return text


def _run_one(
    command: "Command",
    quick: bool = False,
    out_dir: pathlib.Path = None,
    csv: bool = False,
    as_json: bool = False,
) -> Tuple[str, int]:
    """Run one artifact; returns ``(text, exit_code)``.

    A gated artifact saves its measurements at :func:`bench_path` and
    surfaces its verdict through ``exit_code``; everything else exits 0.
    """
    module, _, function = command.artifact.rpartition(".")
    result = getattr(importlib.import_module(module), function)(quick=quick)
    text = None
    if command.gate is not None:
        path = bench_path(command.gate, quick, out_dir)
        write_json(result, path)
        text = result.report() + f"\n[measurements saved to {path}]"
    as_json = as_json and command.gate is not None
    text = _emit(command.name, result, as_json, out_dir, text)
    if csv and out_dir is not None:
        from repro.bench.export import has_csv, to_csv

        if has_csv(result):
            _save(out_dir, f"{command.name}.csv", to_csv(result), end="")
    # The trailing blank line keeps the reports apart under 'all'.
    return text + "\n", getattr(result, "exit_code", 0)


def _obs_workload(op: str, value_size: int, ops: int):
    """Run a small in-process workload; return the client."""
    from repro.core.client import PrecursorClient
    from repro.core.server import PrecursorServer
    from repro.rdma.fabric import Fabric

    server = PrecursorServer(fabric=Fabric())
    client = PrecursorClient(server)
    value = bytes(value_size)
    for i in range(ops):
        key = b"key-%04d" % i
        client.put(key, value)
        if op == "get":
            client.get(key)
        elif op == "delete":
            client.delete(key)
    return client


def run_trace(
    op: str = "get",
    value_size: int = 128,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """One traced operation against an in-process server; render it."""
    from repro.obs.exporters import stage_latency_table, traces_to_json_lines

    client = _obs_workload(op, value_size, ops=1)
    traces = [t for t in client.obs.tracer.finished if t.op == op]
    if as_json:
        text = traces_to_json_lines(traces)
    else:
        text = stage_latency_table(
            traces, title=f"Per-stage latency: {op}({value_size} B value)"
        )
    _save(out_dir, f"trace.{'jsonl' if as_json else 'txt'}", text)
    return text, 0


def run_metrics(
    op: str = "get",
    value_size: int = 128,
    ops: int = 32,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Short in-process workload; dump the metrics registry."""
    from repro.obs.exporters import prometheus_text

    client = _obs_workload(op, value_size, ops=ops)
    text = prometheus_text(client.obs.registry)
    _save(out_dir, "metrics.prom", text, end="")
    return text.rstrip("\n"), 0


def run_scorecard_cmd(
    quick: bool = False, out_dir: pathlib.Path = None
) -> Tuple[str, int]:
    """Every paper claim with its verdict; exit 1 if any claim fails."""
    from repro.bench.scorecard import run_scorecard

    result = run_scorecard(quick=quick)
    text = result.report()
    _save(out_dir, "scorecard.txt", text)
    return text, 0 if result.passed == result.total else 1


def run_shard(
    shards: int = 2,
    workload: str = "b",
    ops: int = 1000,
    seed: int = 11,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Functional sharded run: real crypto, routing and live migration.

    Stands up ``shards`` servers behind a consistent-hash map, drives a
    YCSB mix through a :class:`~repro.shard.router.ShardedClient`, then
    joins one more shard live and re-reads a sample of keys through the
    (now stale) router to exercise the epoch-retry protocol.
    """
    from dataclasses import replace as dc_replace

    from repro.shard import ShardedCluster, ShardedClient
    from repro.ycsb.driver import WorkloadDriver
    from repro.ycsb.generator import make_key
    from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C

    specs = {"a": WORKLOAD_A, "b": WORKLOAD_B, "c": WORKLOAD_C}
    if workload not in specs:
        raise ConfigurationError(
            f"unknown workload {workload!r} (expected one of: a, b, c)"
        )
    if not 1 <= shards <= 64:
        raise ConfigurationError(
            f"--shards must be in [1, 64], got {shards}"
        )

    # Pure-Python crypto runs at a few hundred ops/s; keep the resident
    # set proportional to the request count so the command stays snappy.
    records = max(64, min(512, ops // 4))
    spec = dc_replace(specs[workload], record_count=records)

    cluster = ShardedCluster(shards=shards, seed=seed)
    client = ShardedClient(cluster, trace_ops=False)
    driver = WorkloadDriver(client, spec, seed=seed)
    driver.load()
    run = driver.run(ops)

    before_epoch = cluster.epoch
    report = cluster.add_shard()
    sample = [make_key(i, spec.key_size) for i in range(min(32, records))]
    for key in sample:
        client.get(key)

    payload = {
        "shards": shards,
        "workload": workload,
        "operations": run.operations,
        "reads": run.reads,
        "updates": run.updates,
        "misses": run.misses,
        "ops_per_second": round(run.ops_per_second, 1),
        "p50_us": round(run.latency.percentile(50) / 1000.0, 1),
        "p99_us": round(run.latency.percentile(99) / 1000.0, 1),
        "key_counts": cluster.key_counts(),
        "epoch_before_join": before_epoch,
        "epoch_after_join": cluster.epoch,
        "migrated_entries": report.total_moved,
        "migrated_payload_bytes": report.payload_bytes,
        "stale_retries": client.stale_retries,
        "integrity_failures": client.integrity_failures,
    }
    counts = ", ".join(
        f"{name}={count}" for name, count in payload["key_counts"].items()
    )
    lines = [
        f"Sharded functional run: YCSB {workload.upper()}, "
        f"{shards} shard(s), {ops} ops, {records} records",
        "-" * 64,
        f"throughput      {payload['ops_per_second']:>10} ops/s "
        "(pure-Python crypto; see 'scaleout' for modelled numbers)",
        f"latency p50     {payload['p50_us']:>10} us",
        f"latency p99     {payload['p99_us']:>10} us",
        f"reads/updates   {run.reads}/{run.updates} "
        f"({run.misses} misses)",
        "-" * 64,
        f"live join       shard-{shards} joined: "
        f"{report.total_moved} entries migrated sealed "
        f"({report.payload_bytes} payload bytes), "
        f"epoch {before_epoch} -> {cluster.epoch}",
        f"stale retries   {payload['stale_retries']} "
        f"(router re-routed after the epoch bump)",
        f"integrity       {payload['integrity_failures']} MAC failures",
        f"key placement   {counts}",
    ]
    return _emit("shard", payload, as_json, out_dir, "\n".join(lines)), 0


def run_chaos_cmd(
    seed: int = 11,
    schedule: str = "drop:0.05,duplicate:0.05,delay:0.05,qp_error:0.02",
    ops: int = 200,
    shards: int = None,
    replicas: int = 0,
    ack_mode: str = "sync",
    as_json: bool = False,
    out_dir: pathlib.Path = None,
    out_name: str = "chaos",
    autoscale: bool = False,
    policy: str = None,
) -> Tuple[str, int]:
    """Seeded chaos run; returns ``(text, exit_code)``.

    Exit code 0 means every fault was recovered and the final store state
    matched the shadow model; 1 means an integrity violation survived
    (lost acked write, silent corruption, resurrection).  Under a
    ``sync``/``semi-sync`` replicated cluster any acked loss at a
    promotion is itself a contract violation, so client-detected losses
    and group-reported lost records also flip the exit code.  With
    ``autoscale`` the elastic controller runs live during the schedule
    under ``policy`` (``docs/AUTOSCALING.md``) and any flapping also
    forces exit 1.
    """
    from repro.faults import run_chaos

    report = run_chaos(
        seed=seed,
        schedule=schedule,
        ops=ops,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        autoscale=autoscale,
        autoscale_policy=policy,
    )
    contract_broken = (
        replicas > 0
        and ack_mode in ("sync", "semi-sync")
        and (report.losses_detected > 0 or report.lost_records > 0)
    )
    counts = ", ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.fault_counts.items())
    ) or "none"
    outcome_line = ", ".join(
        f"{name}={count}"
        for name, count in sorted(report.outcomes.items())
    )
    if report.shards and replicas:
        mode = (
            f"{report.shards} shards x {replicas + 1} replicas, "
            f"{ack_mode}"
        )
    elif report.shards:
        mode = f"{report.shards} shards"
    else:
        mode = "single server"
    if contract_broken:
        verdict = (
            f"VIOLATIONS: {ack_mode} group lost acked writes "
            f"(lost_records={report.lost_records}, "
            f"detected={report.losses_detected})"
        )
    elif report.ok:
        verdict = "OK: store matches shadow model"
    else:
        verdict = f"VIOLATIONS: {report.violations}"
    lines = [
        f"Chaos run: seed={report.seed} schedule='{report.schedule}' "
        f"({report.ops} ops, {mode})",
        "-" * 68,
        f"faults injected   {sum(report.fault_counts.values())} "
        f"({counts})",
        f"outcomes          {outcome_line}",
        f"recoveries        retries={report.retries} "
        f"reconnects={report.reconnects} "
        f"failovers={report.failovers} "
        f"crash_restarts={report.crash_restarts} "
        f"promotions={report.promotions}",
        f"tamper detected   {report.tamper_detected}",
        f"losses            acked records lost={report.lost_records}, "
        f"client-detected={report.losses_detected}",
        f"fault fingerprint {report.fault_fingerprint[:16]}...",
        f"state digest      {report.state_digest[:16]}...",
    ]
    if report.autoscale:
        lines.append(
            f"autoscale         decisions={report.autoscale_decisions} "
            f"applied={report.autoscale_applied} "
            f"flapping={report.autoscale_flapping}"
        )
    lines.append(f"verdict           {verdict}")
    text = _emit(out_name, report, as_json, out_dir, "\n".join(lines))
    if report.flight_dump is not None and out_dir is not None:
        write_json(report.flight_dump, out_dir / f"{out_name}_flight.json")
    code = report.exit_code
    if contract_broken and code == 0:
        code = 1
    if report.autoscale and report.autoscale_flapping and code == 0:
        code = 1
    return text, code


def run_replica_cmd(
    seed: int = 11,
    schedule: str = "shard_death:0.05,replica_lag:0.08",
    ops: int = 200,
    shards: int = 3,
    replicas: int = 1,
    ack_mode: str = "sync",
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Replicated failover chaos run; returns ``(text, exit_code)``.

    A thin front-end over the chaos harness with replication-shaped
    defaults: a 3-shard cluster where every shard is a primary-backup
    group, under a schedule that kills primaries and widens replication
    lag.  Exit code 0 means the selected ack mode's contract held
    (sync/semi-sync: zero acked loss; async: every loss detected by the
    client, none silent); 1 means it did not; 2 means the configuration
    was invalid.
    """
    from repro.replica import ACK_MODES

    if replicas < 1:
        raise ConfigurationError(
            f"'replica' needs --replicas >= 1, got {replicas}"
        )
    if ack_mode not in ACK_MODES:
        raise ConfigurationError(
            f"unknown ack mode {ack_mode!r}; known: {', '.join(ACK_MODES)}"
        )
    return run_chaos_cmd(
        seed=seed,
        schedule=schedule,
        ops=ops,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        as_json=as_json,
        out_dir=out_dir,
        out_name="replica",
    )


def run_health_cmd(
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ack_mode: str = "sync",
    ops: int = 240,
    tick_every: int = 40,
    window: int = 3,
    hot_shard: str = None,
    schedule: str = "",
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Deterministic cluster health run; returns ``(text, exit_code)``.

    Drives a seeded sharded workload with modelled service latency,
    publishes windowed per-shard telemetry on a fixed cadence, and
    evaluates the declarative SLO rules against every snapshot.  Exit
    code 0 means every objective held over the whole run; 1 means at
    least one rule breached (the report names the offending shard with
    its windowed percentile evidence).
    """
    from repro.faults import run_health

    report = run_health(
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        ops=ops,
        tick_every=tick_every,
        window_ticks=window,
        hot_shard=hot_shard,
        schedule=schedule,
        slo=slo,
    )
    return _emit("health", report, as_json, out_dir), report.exit_code


def run_flightrec_cmd(
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ops: int = 240,
    tick_every: int = 40,
    window: int = 3,
    hot_shard: str = "auto",
    schedule: str = "drop:0.08",
    slo: str = None,
    load: pathlib.Path = None,
    trace_id: str = None,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Flight-recorder demo / offline reader; returns ``(text, exit_code)``.

    Without ``--load``, runs the breach scenario (hot shard plus a wire
    fault schedule), freezes the flight recorder on the first SLO
    breach, and prints -- and with ``--out`` writes -- the JSON dump.
    Exit code 0 means a valid dump was produced; 1 means the scenario
    unexpectedly stayed clean.

    With ``--load PATH``, reads a previously written dump instead:
    validates it, prints its summary, and with ``--trace ID``
    reconstructs that request's causal hop timeline from the frozen
    contexts.  Exit code 0 on a valid dump, 2 on unreadable/invalid
    input or an unknown trace id.
    """
    from repro.faults import run_health
    from repro.obs import FlightRecorder

    if load is not None:
        try:
            dump = FlightRecorder.load(str(load))
            FlightRecorder.validate(dump)
            if trace_id is not None:
                return FlightRecorder.render_trace(dump, trace_id), 0
        except ObservabilityError as exc:  # bad input, not a tracing bug
            raise ConfigurationError(str(exc)) from exc
        trigger = dump["trigger"]
        traces = [c.get("trace_id") for c in dump["contexts"]]
        lines = [
            f"flight dump {load}",
            f"  trigger   {trigger['reason']} (t={trigger.get('t_ns')}ns)",
            f"  contexts  {len(dump['contexts'])} "
            f"(--trace ID to replay one)",
            f"  faults    {len(dump['faults'])}",
            f"  events    {len(dump['events'])}",
            f"  trace ids {', '.join(t for t in traces[-8:] if t)}",
        ]
        return "\n".join(lines), 0

    report = run_health(
        seed=seed,
        shards=shards,
        replicas=replicas,
        ops=ops,
        tick_every=tick_every,
        window_ticks=window,
        hot_shard=hot_shard,
        schedule=schedule,
        slo=slo,
    )
    if report.dump is None:
        return (
            "flightrec: scenario stayed within SLO; no dump produced "
            "(lower the objective with --slo or raise --ops)",
            1,
        )
    FlightRecorder.validate(report.dump)
    text = to_json(report.dump)
    if out_dir is not None:
        write_json(report.dump, out_dir / "flightrec.json")
        text += f"\n[flight dump saved to {out_dir / 'flightrec.json'}]"
    return text, 0


def run_traffic_cmd(
    scenario: str = "steady",
    seed: int = 11,
    shards: int = 2,
    replicas: int = 0,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    schedule: str = "",
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Open-loop scenario run; returns ``(text, exit_code)``.

    Runs one named scenario from the registry
    (:mod:`repro.traffic.scenarios`) and prints corrected vs.
    uncorrected latency side by side.  Exit code 0 means the run-level
    SLO held and the correction invariant (corrected p99 >= uncorrected
    p99) was intact; 1 means a breach or a broken invariant; 2 means
    the configuration was invalid (unknown scenario, bad SLO spec, bad
    fault schedule).
    """
    from repro.traffic import run_scenario

    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        schedule=schedule,
        slo=slo,
    )
    return _emit("traffic", report, as_json, out_dir), report.exit_code


def run_nearcache_cmd(
    scenario: str = "hot-key-storm",
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    cache: bool = False,
    offload: bool = False,
    cache_entries: int = 256,
    lease_ms: float = 25.0,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Open-loop scenario with the near-cache; returns ``(text, exit_code)``.

    A front-end over :func:`~repro.traffic.scenarios.run_scenario` that
    turns on the client-verified near-cache (``--cache``) and/or the
    freshness-token backup-read offload (``--offload``) on every pooled
    connection; the report grows a near-cache section (hits, misses,
    revalidations, offloaded reads, primary/backup GET split).  Exit
    code 0 means the run-level SLO held with the correction invariant
    intact; 1 means a breach; 2 means the configuration was invalid --
    including asking for neither feature (use 'traffic' for that) or
    for ``--offload`` without any backups to offload onto.
    """
    from repro.traffic import run_scenario

    if not cache and not offload:
        raise ConfigurationError(
            "'nearcache' needs --cache and/or --offload "
            "(plain runs: use the 'traffic' command)"
        )
    if offload and replicas < 1:
        raise ConfigurationError(
            f"--offload needs --replicas >= 1 to have backups to read "
            f"from, got {replicas}"
        )
    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        near_cache=cache,
        read_offload=offload,
        cache_entries=cache_entries,
        cache_lease_ms=lease_ms,
    )
    return _emit("nearcache", report, as_json, out_dir), report.exit_code


def run_autoscale_cmd(
    scenario: str = "flash-crowd",
    seed: int = 11,
    shards: int = 1,
    replicas: int = 1,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    policy: str = None,
    max_shards: int = 4,
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> Tuple[str, int]:
    """Open-loop scenario with the autoscaler; returns ``(text, exit_code)``.

    A front-end over :func:`~repro.traffic.scenarios.run_scenario` that
    attaches the SLO-driven elastic control plane
    (:mod:`repro.autoscale`, ``docs/AUTOSCALING.md``) to the telemetry
    pipeline: the cluster starts at ``--shards`` and the controller
    splits/joins shards and grows/shrinks replica groups up to
    ``--max-shards`` under the declarative ``--policy``.  The report
    grows an autoscale section (every decision -- applied *and*
    refused -- plus the canonical decision log and its fingerprint).
    Exit code 0 means the run-level SLO held *and* the controller never
    flapped; 1 means an SLO breach, a broken correction invariant or
    observed flapping; 2 means the configuration was invalid (unknown
    scenario, malformed policy spec, bad bounds).
    """
    from repro.traffic import run_scenario

    if max_shards < shards:
        raise ConfigurationError(
            f"--max-shards ({max_shards}) must be >= --shards ({shards})"
        )
    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        slo=slo,
        autoscale=True,
        autoscale_policy=policy,
        autoscale_max_shards=max_shards,
    )
    text = _emit("autoscale", report, as_json, out_dir)
    code = report.exit_code
    summary = report.autoscale_summary or {}
    if summary.get("flapping", 0) and code == 0:
        code = 1
    return text, code


def _list() -> Tuple[str, int]:
    """One aligned line per command."""
    width = max(len(command.name) for command in COMMANDS)
    return "\n".join(
        f"{command.name:<{width}}  {command.description}"
        for command in COMMANDS
    ), 0


def _all(
    quick: bool = False,
    out_dir: pathlib.Path = None,
    csv: bool = False,
) -> Tuple[str, int]:
    """Every artifact in table order; the worst exit code wins.

    The output mixes many reports, so ``--json`` is ignored here (each
    gate's JSON is still saved at its :func:`bench_path`).
    """
    texts, worst = [], 0
    for command in COMMANDS:
        if command.artifact is not None:
            text, code = _run_one(command, quick, out_dir, csv)
            texts.append(text)
            worst = max(worst, code)
    return "\n".join(texts), worst


@dataclass(frozen=True)
class Command:
    """One CLI command; the only place its name is registered.

    ``run`` is a function returning ``(text, exit_code)`` whose keyword
    parameters are bound from the parsed options of the same name; an
    option left unset keeps the parameter's default, so each command's
    defaults live in its signature.  An
    *artifact* names instead the dotted path of a ``run_*(quick=...)``
    function whose result has ``report()``; ``all`` runs every artifact.
    An artifact with a ``gate`` stem saves ``BENCH_<gate>.json`` and
    exits with its result's ``exit_code``.
    """

    name: str
    description: str
    run: Optional[Callable[..., Tuple[str, int]]] = None
    artifact: Optional[str] = None
    gate: Optional[str] = None

    def execute(self, args: argparse.Namespace) -> Tuple[str, int]:
        """Run with the options in ``args``; returns ``(text, exit_code)``."""
        run = self.run or functools.partial(_run_one, self)
        kwargs = {}
        for param in inspect.signature(run).parameters:
            value = getattr(args, _OPTION_FOR.get(param, param), None)
            if value is not None:
                kwargs[param] = value
        return run(**kwargs)


#: Runner parameters whose command-line option has another name.
_OPTION_FOR = {"as_json": "json", "out_dir": "out", "trace_id": "trace"}

_EXPERIMENTS = "repro.bench.experiments."

COMMANDS: Tuple[Command, ...] = (
    Command(
        "autoscalebench",
        "elastic-vs-static knee grid, flash-crowd SLO recovery, shard-ms "
        "dividend + zero-flapping gates",
        artifact="repro.bench.autoscale.run_autoscalebench",
        gate="autoscale",
    ),
    Command(
        "faulttail",
        "get() tail latency vs transport fault rate (retry cost)",
        artifact="repro.bench.faulttail.run_faulttail",
    ),
    Command(
        "fig1",
        "crypto decrypt+encrypt throughput vs 40 Gbit RDMA line rate",
        artifact=_EXPERIMENTS + "run_fig1",
    ),
    Command(
        "fig4",
        "throughput vs read ratio (YCSB mixes, 32 B, 50 clients)",
        artifact=_EXPERIMENTS + "run_fig4",
    ),
    Command(
        "fig5",
        "throughput vs value size, read-only + update-mostly",
        artifact=_EXPERIMENTS + "run_fig5",
    ),
    Command(
        "fig6",
        "read-only throughput vs client count (10-100)",
        artifact=_EXPERIMENTS + "run_fig6",
    ),
    Command(
        "fig7",
        "get() latency CDFs incl. the EPC-paging run",
        artifact=_EXPERIMENTS + "run_fig7",
    ),
    Command(
        "fig8",
        "get() latency breakdown: networking vs server processing",
        artifact=_EXPERIMENTS + "run_fig8",
    ),
    Command(
        "loadknee",
        "SLO-bounded throughput knee + corrected-vs-uncorrected tails per "
        "shard topology",
        artifact="repro.bench.loadknee.run_loadknee",
        gate="traffic",
    ),
    Command(
        "nearcachebench",
        "near-cache + backup-read-offload knee shift, primary-GET shed and "
        "state-equivalence gates",
        artifact="repro.bench.nearcache.run_nearcachebench",
        gate="nearcache",
    ),
    Command(
        "replicate",
        "failover latency + acked-write loss vs replication ack mode",
        artifact="repro.bench.replicate.run_replication",
        gate="replication",
    ),
    Command(
        "scaleout",
        "throughput/latency + EPC working set vs shard count (1-8)",
        artifact="repro.bench.scaleout.run_scaleout",
    ),
    Command(
        "table1",
        "EPC working set at 0/1/100k inserted keys",
        artifact=_EXPERIMENTS + "run_table1",
    ),
    Command(
        "scorecard",
        "pass/fail verdict on every paper claim",
        run=run_scorecard_cmd,
    ),
    Command(
        "trace",
        "per-stage span breakdown of one live operation",
        run=run_trace,
    ),
    Command(
        "metrics",
        "Prometheus-style dump of the metrics registry",
        run=run_metrics,
    ),
    Command(
        "shard",
        "functional sharded run: routing, live join, epoch retry",
        run=run_shard,
    ),
    Command(
        "chaos",
        "seeded fault-injection run with shadow-model verification",
        run=run_chaos_cmd,
    ),
    Command(
        "cryptobench",
        "wall-clock reference-vs-fast crypto engine benchmark",
        artifact="repro.bench.cryptobench.run_cryptobench",
        gate="crypto",
    ),
    Command(
        "batchbench",
        "serial-vs-batched request pipeline benchmark (K-frame drain)",
        artifact="repro.bench.batching.run_batchbench",
        gate="batching",
    ),
    Command(
        "replica",
        "replicated failover chaos run (promotion + client loss detection)",
        run=run_replica_cmd,
    ),
    Command(
        "health",
        "windowed SLO report over a deterministic cluster run",
        run=run_health_cmd,
    ),
    Command(
        "flightrec",
        "breach-triggered flight-recorder dump (or --load to replay one)",
        run=run_flightrec_cmd,
    ),
    Command(
        "traffic",
        "open-loop scenario run with coordinated-omission-corrected tails",
        run=run_traffic_cmd,
    ),
    Command(
        "nearcache",
        "open-loop scenario with the client-verified near-cache / "
        "backup-read offload",
        run=run_nearcache_cmd,
    ),
    Command(
        "autoscale",
        "open-loop scenario with the SLO-driven elastic control plane live",
        run=run_autoscale_cmd,
    ),
    Command(
        "all",
        "every artifact and gated benchmark above, in order",
        run=_all,
    ),
    Command("list", "this list", run=_list),
)

_BY_NAME = {command.name: command for command in COMMANDS}

#: Numeric options and their smallest accepted value, checked centrally.
_MINIMUMS = (("ops", 1), ("window", 1), ("tick_every", 1), ("value_size", 0))


def _check_options(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric options before any command runs."""
    for dest, low in _MINIMUMS:
        value = getattr(args, dest)
        if value is not None and value < low:
            raise ConfigurationError(
                f"--{dest.replace('_', '-')} must be >= {low}, got {value}"
            )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description=(
            "Regenerate the evaluation artifacts of 'Precursor' "
            "(Middleware '21)."
        ),
        epilog="commands:\n" + _list()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "artifact",
        choices=list(_BY_NAME),
        metavar="COMMAND",
        help="the command to run (all of them are listed below)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened simulations (smoke-test quality)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="also write each report to DIR/<command>.<suffix>",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="with --out: additionally write DIR/<artifact>.csv "
        "(plot-ready data) for every artifact with a CSV form",
    )
    obs = parser.add_argument_group("observability (trace/metrics only)")
    obs.add_argument(
        "--op",
        choices=["get", "put", "delete"],
        default="get",
        help="operation to trace (default: get)",
    )
    obs.add_argument(
        "--value-size",
        type=int,
        default=128,
        metavar="BYTES",
        help="payload size for the traced operation (default: 128)",
    )
    obs.add_argument(
        "--ops",
        type=int,
        default=None,
        metavar="N",
        help="workload size, at least 1 (default: each command's own, "
        "e.g. 32 for 'metrics' and 1000 for 'shard')",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="emit JSON instead of the text report (commands with a JSON "
        "form and every gated benchmark; ignored by 'all')",
    )
    shard = parser.add_argument_group("sharding ('shard'/'chaos')")
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count for the functional cluster ('shard' default: 2; "
        "'chaos' default: single unsharded server)",
    )
    shard.add_argument(
        "--workload",
        choices=["a", "b", "c"],
        default="b",
        help="YCSB mix to drive through the router (default: b)",
    )
    shard.add_argument(
        "--seed",
        type=int,
        default=11,
        metavar="S",
        help="deterministic seed for ring placement + workload "
        "(default: 11)",
    )
    chaos = parser.add_argument_group("fault injection ('chaos'/'replica')")
    chaos.add_argument(
        "--schedule",
        default=None,
        metavar="SPEC",
        help="comma-separated 'kind:rate' fault schedule (kinds: drop, "
        "duplicate, delay, corrupt_payload, corrupt_control, qp_error, "
        "enclave_crash, shard_death, replica_lag, "
        "promote_during_migration); defaults: transport mix for 'chaos', "
        "'shard_death:0.05,replica_lag:0.08' for 'replica'",
    )
    chaos.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="backups per shard ('replica' default: 1; 'chaos' default: "
        "0, unreplicated)",
    )
    chaos.add_argument(
        "--ack-mode",
        choices=["sync", "semi-sync", "async"],
        default="sync",
        help="replication acknowledgement contract (default: sync)",
    )
    health = parser.add_argument_group("telemetry ('health'/'flightrec')")
    health.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="comma-separated SLO rules, e.g. "
        "'latency:p99<1ms:min=8,errors:budget=2%%:burn<5,"
        "staleness:lag<32' (default: the built-in spec)",
    )
    health.add_argument(
        "--hot-shard",
        default=None,
        metavar="NAME",
        help="inject a modelled latency fault into NAME's replica group "
        "('auto' picks the first shard; 'health' default: none, "
        "'flightrec' default: auto)",
    )
    health.add_argument(
        "--tick-every",
        type=int,
        default=40,
        metavar="N",
        help="publish a telemetry snapshot every N >= 1 operations "
        "(default: 40)",
    )
    health.add_argument(
        "--window",
        type=int,
        default=3,
        metavar="T",
        help="sliding-window width in ticks (>= 1) for the per-shard "
        "aggregates (default: 3)",
    )
    health.add_argument(
        "--load",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="with 'flightrec': read an existing dump instead of "
        "running the breach scenario",
    )
    health.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="with 'flightrec --load': reconstruct this trace's causal "
        "hop timeline from the dump",
    )
    traffic = parser.add_argument_group(
        "open-loop traffic ('traffic'/'nearcache')"
    )
    traffic.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="registered scenario name (steady, bursty, diurnal, "
        "flash-crowd, hot-key-storm, multi-tenant-contention; "
        "'traffic' default: steady, 'nearcache' default: hot-key-storm)",
    )
    traffic.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="OPS_S",
        help="offered arrival rate override in ops/s of simulated time "
        "(default: the scenario's own rate)",
    )
    cache = parser.add_argument_group("near-cache ('nearcache' only)")
    cache.add_argument(
        "--cache",
        action="store_true",
        help="enable the client-verified near-cache on every pooled "
        "connection",
    )
    cache.add_argument(
        "--offload",
        action="store_true",
        help="enable freshness-token GET offload to replica backups "
        "(needs --replicas >= 1)",
    )
    cache.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        metavar="N",
        help="per-connection near-cache capacity (default: 256)",
    )
    cache.add_argument(
        "--lease-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="near-cache lease length in simulated milliseconds "
        "(default: 25)",
    )
    scaler = parser.add_argument_group("autoscaler ('autoscale'/'chaos')")
    scaler.add_argument(
        "--autoscale",
        action="store_true",
        help="'chaos' only: run the elastic controller live during the "
        "fault schedule (requires --shards; exit 1 on any flapping)",
    )
    scaler.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="comma-separated policy rules, e.g. "
        "'scale-out:p99>2ms:for=2,scale-in:util<25%%:for=8' "
        "(default: the built-in policy)",
    )
    scaler.add_argument(
        "--max-shards",
        type=int,
        default=4,
        metavar="N",
        help="upper bound the stability guard enforces on shard count "
        "(default: 4)",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        text, code = _BY_NAME[args.artifact].execute(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
