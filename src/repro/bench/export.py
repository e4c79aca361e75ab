"""CSV export of experiment results, for regenerating the paper's plots.

Each exporter returns CSV text with one row per x-axis point and one
column per series -- directly loadable by pandas/gnuplot/matplotlib.
The CLI writes them next to the text reports with ``--csv``.
"""

from __future__ import annotations

import io
from typing import List, Sequence

from repro.bench.experiments import (
    Fig1Result,
    Fig4Result,
    Fig5Result,
    Fig6Result,
    Fig7Result,
    Fig8Result,
    Table1Result,
)
from repro.bench.faulttail import FaultTailResult
from repro.bench.replicate import ReplicationResult
from repro.bench.scaleout import ScaleoutResult

__all__ = ["has_csv", "to_csv"]


def _rows(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = io.StringIO()
    out.write(",".join(str(h) for h in header) + "\n")
    for row in rows:
        out.write(
            ",".join("" if v is None else f"{v}" for v in row) + "\n"
        )
    return out.getvalue()


def _fig1(result: Fig1Result) -> str:
    return _rows(
        ["buffer_bytes", "threads12_mbps", "threads6_mbps", "line_rate_mbps"],
        [
            (s, round(t12, 1), round(t6, 1), round(result.line_rate_mbps, 1))
            for s, t12, t6 in zip(
                result.sizes, result.threads12_mbps, result.threads6_mbps
            )
        ],
    )


def _fig4(result: Fig4Result) -> str:
    systems = ("precursor", "precursor-se", "shieldstore")
    return _rows(
        ["read_fraction"] + [f"{s}_kops" for s in systems],
        [
            (ratio,)
            + tuple(round(result.simulated[s][i], 1) for s in systems)
            for i, ratio in enumerate(result.read_ratios)
        ],
    )


def _fig5(result: Fig5Result) -> str:
    systems = ("precursor", "precursor-se", "shieldstore")
    header = ["value_bytes"]
    for mix in ("read_only", "update_mostly"):
        header += [f"{mix}_{s}_kops" for s in systems]
    rows = []
    for i, size in enumerate(result.sizes):
        row: List = [size]
        for mix in (result.read_only, result.update_mostly):
            row += [round(mix[s][i], 1) for s in systems]
        rows.append(row)
    return _rows(header, rows)


def _fig6(result: Fig6Result) -> str:
    systems = ("precursor", "precursor-se", "shieldstore")
    return _rows(
        ["clients"] + [f"{s}_kops" for s in systems],
        [
            (count,)
            + tuple(round(result.simulated[s][i], 1) for s in systems)
            for i, count in enumerate(result.client_counts)
        ],
    )


def _fig7(result: Fig7Result) -> str:
    # Long format: one row per CDF point per curve per size.
    rows = []
    for size, by_label in result.curves.items():
        for label, curve in by_label.items():
            for point in curve.cdf:
                rows.append(
                    (size, label, round(point.latency_ns / 1000, 2),
                     round(point.fraction, 4))
                )
    return _rows(["value_bytes", "system", "latency_us", "cdf"], rows)


def _fig8(result: Fig8Result) -> str:
    return _rows(
        [
            "value_bytes",
            "precursor_server_us",
            "precursor_network_us",
            "shieldstore_server_us",
            "shieldstore_network_us",
        ],
        [
            (
                size,
                round(result.precursor_server_us[i], 2),
                round(result.precursor_network_us[i], 2),
                round(result.shieldstore_server_us[i], 2),
                round(result.shieldstore_network_us[i], 2),
            )
            for i, size in enumerate(result.sizes)
        ],
    )


def _table1(result: Table1Result) -> str:
    return _rows(
        [
            "keys",
            "precursor_pages",
            "precursor_mib",
            "shieldstore_pages",
            "shieldstore_mib",
        ],
        [
            (
                keys,
                result.pages["precursor"][i],
                round(result.mib["precursor"][i], 2),
                result.pages["shieldstore"][i],
                round(result.mib["shieldstore"][i], 2),
            )
            for i, keys in enumerate(result.checkpoints)
        ],
    )


def _scaleout(result: ScaleoutResult) -> str:
    header = ["shards", "clients"]
    for letter in ("A", "B", "C"):
        header += [
            f"ycsb_{letter.lower()}_kops",
            f"ycsb_{letter.lower()}_p50_us",
            f"ycsb_{letter.lower()}_p99_us",
        ]
    header += ["trusted_mib_per_shard", "epc_fault_fraction"]
    rows = []
    for i, shards in enumerate(result.shard_counts):
        row: List = [shards, result.clients[i]]
        for letter in ("A", "B", "C"):
            row += [
                round(result.kops[letter][i], 1),
                round(result.p50_us[letter][i], 1),
                round(result.p99_us[letter][i], 1),
            ]
        row += [
            result.trusted_mib_per_shard[i],
            result.fault_fraction[i],
        ]
        rows.append(row)
    return _rows(header, rows)


def _faulttail(result: FaultTailResult) -> str:
    return _rows(
        ["fault_rate", "p50_us", "p99_us", "p999_us", "retries_per_kop"],
        [
            [
                rate,
                round(result.p50_us[i], 2),
                round(result.p99_us[i], 2),
                round(result.p999_us[i], 2),
                round(result.retries_per_kop[i], 2),
            ]
            for i, rate in enumerate(result.fault_rates)
        ],
    )


def _replicate(result: ReplicationResult) -> str:
    return _rows(
        [
            "ack_mode",
            "replicas",
            "ack_overhead_us",
            "put_p50_us",
            "put_p99_us",
            "failover_p50_us",
            "failover_p99_us",
            "lost_acked_per_failover",
        ],
        [
            [
                mode,
                replicas,
                result.ack_overhead_us[(mode, replicas)],
                result.put_p50_us[(mode, replicas)],
                result.put_p99_us[(mode, replicas)],
                result.failover_p50_us[(mode, replicas)],
                result.failover_p99_us[(mode, replicas)],
                result.lost_per_failover[(mode, replicas)],
            ]
            for mode, replicas in result.configs
        ],
    )


_EXPORTERS = {
    Fig1Result: _fig1,
    Fig4Result: _fig4,
    Fig5Result: _fig5,
    Fig6Result: _fig6,
    Fig7Result: _fig7,
    Fig8Result: _fig8,
    Table1Result: _table1,
    ScaleoutResult: _scaleout,
    FaultTailResult: _faulttail,
    ReplicationResult: _replicate,
}


def has_csv(result) -> bool:
    """True when :func:`to_csv` has an exporter for ``result``."""
    return type(result) in _EXPORTERS


def to_csv(result) -> str:
    """CSV text for any experiment result object."""
    exporter = _EXPORTERS.get(type(result))
    if exporter is None:
        raise TypeError(f"no CSV exporter for {type(result).__name__}")
    return exporter(result)
