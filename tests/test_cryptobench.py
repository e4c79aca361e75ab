"""Cryptobench harness: result plumbing, floors, CLI wiring.

The real benchmark takes minutes, so these tests drive the harness with
tiny workloads or stubbed measurement stages; the quick run is exercised
by ``make gates`` (``python -m repro.cli all --quick``) instead.
"""

import json

import pytest

from repro.bench import cryptobench
from repro.bench.cryptobench import (
    CryptoBenchResult,
    _bench_primitives,
    _min_time,
    run_cryptobench,
)
from repro.bench.report import write_json


class TestMinTime:
    def test_returns_positive_seconds(self):
        t = _min_time(lambda: sum(range(100)), repeats=3, inner=2)
        assert 0 < t < 1.0

    def test_takes_minimum(self):
        calls = []

        def fn():
            calls.append(1)

        _min_time(fn, repeats=4, inner=2)
        # 3 rounds x (1 warmup + 4 repeats x 2 inner)
        assert len(calls) == 27


class TestPrimitiveStage:
    def test_measures_both_engines_at_each_size(self):
        out = _bench_primitives(sizes=(64,), repeats=1, inner=1)
        for eng in ("reference", "fast"):
            for prim in ("salsa20", "cmac", "gcm_seal", "gcm_open"):
                assert out[eng][prim][64] > 0


def _synthetic(floor=5.0, payload_ratio=8.0):
    """A CryptoBenchResult with hand-set numbers (no timing)."""
    r = CryptoBenchResult(quick=True, floor=floor)
    base = {"salsa20": {4096: 1.0}, "cmac": {4096: 1.0},
            "gcm_seal": {4096: 1.0}, "gcm_open": {4096: 1.0}}
    fast = {p: {4096: payload_ratio} for p in base}
    r.primitives = {"reference": base, "fast": fast}
    r.e2e = {
        "reference": {"put_ops_per_s": 10.0, "chaos_ok": 1.0},
        "fast": {"put_ops_per_s": 50.0, "chaos_ok": 1.0},
    }
    r.speedups = {"payload_4096B_salsa20+cmac": payload_ratio}
    return r


class TestResultObject:
    def test_ok_and_exit_code(self):
        r = _synthetic()
        assert r.ok and r.exit_code == 0
        r.floor_failures.append("too slow")
        assert not r.ok and r.exit_code == 1
        r2 = _synthetic()
        r2.parity_failures.append("diverged")
        assert r2.exit_code == 1

    def test_to_dict_roundtrips_through_json(self):
        d = json.loads(json.dumps(_synthetic().to_dict()))
        assert d["ok"] is True
        assert d["benchmark"] == "cryptobench"
        assert d["primitives_mb_per_s"]["fast"]["salsa20"]["4096"] == 8.0

    def test_report_mentions_verdict_and_engines(self):
        text = _synthetic().report()
        assert "reference" in text and "fast" in text
        assert "verdict: OK" in text
        bad = _synthetic()
        bad.floor_failures.append("payload too slow")
        assert "FAIL" in bad.report()

    def test_write_json(self, tmp_path):
        path = tmp_path / "sub" / "BENCH_crypto.json"
        write_json(_synthetic(), path)
        assert json.loads(path.read_text())["quick"] is True


class TestRunWiring:
    def test_floor_failure_detected(self, monkeypatch):
        monkeypatch.setattr(
            cryptobench, "parity_check", lambda: [])
        monkeypatch.setattr(
            cryptobench, "_bench_primitives",
            lambda sizes, repeats, inner: {
                "reference": {"salsa20": {4096: 1.0}, "cmac": {4096: 1.0},
                              "gcm_seal": {4096: 1.0},
                              "gcm_open": {4096: 1.0}},
                "fast": {"salsa20": {4096: 2.0}, "cmac": {4096: 2.0},
                         "gcm_seal": {4096: 2.0}, "gcm_open": {4096: 2.0}},
            })
        monkeypatch.setattr(
            cryptobench, "_bench_e2e",
            lambda eng, ops, value_size, chaos_ops, ycsb_ops: {
                "put_ops_per_s": 1.0, "get_ops_per_s": 1.0,
                "ycsb_a_ops_per_s": 1.0, "chaos_wall_s": 1.0,
                "ycsb_a_wall_s": 1.0, "chaos_ok": 1.0,
            })
        r = run_cryptobench(quick=True, floor=5.0)
        assert r.floor_failures and r.exit_code == 1
        # A 2x engine passes a 2x floor.
        assert run_cryptobench(quick=True, floor=2.0).exit_code == 0

    def test_parity_failure_short_circuits(self, monkeypatch):
        monkeypatch.setattr(
            cryptobench, "parity_check", lambda: ["salsa20 differs"])
        r = run_cryptobench(quick=True)
        assert r.exit_code == 1
        assert r.primitives == {} and r.e2e == {}


class TestCliWiring:
    def test_cmd_writes_json_and_propagates_exit(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.bench.cryptobench as cb
        from repro.cli import main

        def synthetic(quick, floor=5.0):
            r = _synthetic(floor=floor)
            r.quick = quick
            return r

        monkeypatch.setattr(cb, "run_cryptobench", synthetic)
        assert main(["cryptobench", "--quick", "--out", str(tmp_path)]) == 0
        assert "verdict: OK" in capsys.readouterr().out
        saved = tmp_path / "BENCH_crypto_quick.json"
        assert json.loads(saved.read_text())["ok"] is True
        assert "verdict: OK" in (tmp_path / "cryptobench.txt").read_text()

        assert main(["cryptobench", "--json", "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert (tmp_path / "BENCH_crypto.json").exists()

        def too_slow(quick, floor=5.0):
            r = synthetic(quick, floor)
            r.floor_failures.append("payload too slow")
            return r

        monkeypatch.setattr(cb, "run_cryptobench", too_slow)
        assert main(["cryptobench", "--quick", "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert json.loads(saved.read_text())["ok"] is False
