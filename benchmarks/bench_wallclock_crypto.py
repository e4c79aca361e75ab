"""Wall-clock crypto engine benchmark: reference vs fast kernels.

Unlike the figure benchmarks (which replay the paper's *modelled*
AES-NI-class numbers), this suite measures the repo's real pure-Python
primitives under both crypto engines and asserts the optimised kernels
actually deliver: cross-engine parity must hold, and the fast engine
must beat the floors the CI gates job enforces.

Set ``REPRO_BENCH_QUICK=1`` for the shortened CI variant.

``bench_single_op_crypto`` times the single-message calls of the
``small-serial`` path and writes ``bench_reports/single_op_crypto.txt``.
Point ``REPRO_BASELINE_SRC`` at the ``src/`` directory of another
checkout (say, the parent commit) to time it side by side::

    REPRO_BASELINE_SRC=../parent/src python -m pytest \\
        benchmarks/bench_wallclock_crypto.py -k single_op --benchmark-only

Run as a script, this file prints one JSON measurement of the
``repro`` package on ``PYTHONPATH``.
"""

import json
import os
import pathlib
import platform
import random
import subprocess
import sys
import time

from conftest import quick_mode

from repro.bench.cryptobench import lane_speedups, run_cryptobench
from repro.bench.report import bench_path, write_json
from repro.crypto.engine import get_engine
from repro.crypto.provider import CryptoProvider


def bench_cryptobench_engines(benchmark, report_sink):
    quick = quick_mode()
    result = benchmark.pedantic(
        run_cryptobench, kwargs={"quick": quick, "floor": 5.0},
        rounds=1, iterations=1,
    )
    report_sink("cryptobench", result.report())
    write_json(result, bench_path("crypto", quick))
    assert not result.parity_failures, result.parity_failures
    assert not result.floor_failures, result.floor_failures


def bench_lane_kernel_widths(benchmark, report_sink):
    """Per-width speedup of the multi-lane AES kernel over the table loop.

    The crossover recorded in ``fastcrypto._LANE_CROSSOVER`` and the
    table in docs/PERFORMANCE.md come from this run.
    """
    result = benchmark.pedantic(
        lane_speedups, kwargs={"repeats": 3 if quick_mode() else 7},
        rounds=1, iterations=1,
    )
    lines = ["lanes  lane kernel / table loop"]
    lines += [f"{lanes:5d}  {x:5.2f}x" for lanes, x in result["aes"].items()]
    lines.append(f"aes_cmac_many, 16 x 1 KiB:       {result['cmac_window']:.2f}x")
    lines.append(f"salsa20_encrypt_many, 16 x 1 KiB: {result['salsa20_window']:.2f}x")
    report_sink("aes_lane_widths", "\n".join(lines))
    assert result["aes"][16] > 1.0
    assert result["cmac_window"] > 1.0


def _payload_once(engine, data):
    ct = engine.salsa20_encrypt(b"k" * 32, b"n" * 8, data)
    engine.aes_cmac(b"m" * 32, ct)


def bench_fast_payload_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    eng = get_engine("fast")
    _payload_once(eng, data)  # build tables outside the timed region
    benchmark(_payload_once, eng, data)


def bench_reference_payload_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    benchmark(_payload_once, get_engine("reference"), data)


def bench_fast_gcm_seal_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    gcm = get_engine("fast").gcm(b"k" * 16)
    gcm.seal(b"\x00" * 12, data)
    benchmark(gcm.seal, b"\x00" * 12, data)


#: The single-message calls :func:`single_op_us` times: (call, bytes).
SINGLE_OPS = (
    ("seal", 51), ("seal", 100), ("open", 51), ("open", 100),
    ("salsa20", 64),
    ("payload_encrypt", 64), ("payload_encrypt", 256),
    ("payload_decrypt", 64), ("payload_decrypt", 256),
)


def single_op_us(repeats: int = 7, calls: int = 200) -> dict:
    """Microseconds per single-message fast-engine call, min of repeats.

    GCM runs under one cached session key with a fresh IV per call, as
    the transport path does.  Salsa20 and the payload calls take a new
    one-time key on every call, repeats included, so no per-key cache
    can hit; the payloads to decrypt are made by the reference engine.
    """
    rng = random.Random(14)
    fast = get_engine("fast")
    provider = CryptoProvider(engine="fast")
    reference = CryptoProvider(engine="reference")
    gcm = fast.gcm(rng.randbytes(16))
    total = calls * (repeats + 1)
    out = {}
    for call, size in SINGLE_OPS:
        data = rng.randbytes(size)
        fresh = [rng.randbytes(12 if call in ("seal", "open") else 32) for _ in range(total)]
        if call == "seal":
            fn, args = gcm.seal, [(iv, data, b"") for iv in fresh]
        elif call == "open":
            fn, args = gcm.open, [(iv, gcm.seal(iv, data, b""), b"") for iv in fresh]
        elif call == "salsa20":
            fn, args = fast.salsa20_encrypt, [(key, b"\x00" * 8, data) for key in fresh]
        elif call == "payload_encrypt":
            fn, args = provider.payload_encrypt, [(key, data) for key in fresh]
        else:
            fn = provider.payload_decrypt
            args = [(key, reference.payload_encrypt(key, data)) for key in fresh]
        # The first batch builds the process-wide tables, untimed; every
        # timed call then sees an IV or key no earlier call used.
        for a in args[:calls]:
            fn(*a)
        best = float("inf")
        for start in range(calls, total, calls):
            batch = args[start : start + calls]
            t0 = time.perf_counter()
            for a in batch:
                fn(*a)
            best = min(best, (time.perf_counter() - t0) / calls)
        out[f"{call} {size} B"] = best * 1e6
    return out


def _single_op_in(src: str, repeats: int) -> dict:
    """:func:`single_op_us` in a fresh interpreter importing ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, __file__, str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def bench_single_op_crypto(benchmark, report_sink):
    """Per-call cost of the single-message crypto calls, in microseconds.

    Each tree is timed in its own interpreter, alternating for several
    rounds so both sample the same clock windows; a cell is the minimum
    over rounds.  With ``REPRO_BASELINE_SRC`` set, a baseline column
    and the change ratio sit next to this tree's numbers.
    """
    import repro

    trees = {"change": str(pathlib.Path(repro.__file__).resolve().parents[1])}
    baseline = os.environ.get("REPRO_BASELINE_SRC")
    if baseline:
        trees = {"parent": baseline, **trees}
    quick = quick_mode()
    rounds, repeats = (1, 3) if quick else (7, 7)

    def measure():
        best: dict = {}
        for _ in range(rounds):
            for name, src in trees.items():
                for op, us in _single_op_in(src, repeats).items():
                    cell = best.setdefault(op, {})
                    cell[name] = min(cell.get(name, us), us)
        return best

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    names = list(trees)
    head = f"{'call':<24}" + "".join(f"{n + ' us':>12}" for n in names)
    lines = [head + ("  change/parent" if baseline else "")]
    for op, cell in result.items():
        row = f"{op:<24}" + "".join(f"{cell[n]:12.1f}" for n in names)
        if baseline:
            row += f"  {cell['change'] / cell['parent']:13.2f}"
        lines.append(row)
    lines.append(
        f"min over {rounds} alternating rounds x {repeats} repeats of "
        f"200 calls; Python {platform.python_version()} on "
        f"{platform.machine()}, {os.cpu_count()} CPUs"
    )
    report_sink("single_op_crypto", "\n".join(lines))


if __name__ == "__main__":
    print(json.dumps(single_op_us(int(sys.argv[1]) if len(sys.argv) > 1 else 7)))
