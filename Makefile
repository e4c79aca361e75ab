# Precursor reproduction -- common workflows.

PYTHON ?= python3
# Every target runs the package from the checkout, no install needed.
export PYTHONPATH := src

.PHONY: install test bench bench-quick scorecard gates shard-smoke chaos-smoke replica-smoke health-smoke traffic-smoke examples lint clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

scorecard:
	$(PYTHON) -m repro.cli scorecard

# Every artifact and BENCH_*.json gate, reduced (see `python -m repro.cli
# list`): crypto parity + 5x floor, batching identity + 1.05x floor,
# replication, traffic knee, near-cache and autoscaler gates.  Writes
# bench_reports/BENCH_*_quick.json; exits 1 if any gate fails.
gates:
	$(PYTHON) -m repro.cli all --quick

# Functional sharded cluster: routing, live join + migration, epoch retry.
shard-smoke:
	$(PYTHON) -m repro.cli shard --shards 2 --workload b --ops 2000

# Deterministic chaos runs under three fixed seeds (docs/FAULTS.md).
# Each exits non-zero iff an injected fault caused an integrity violation
# instead of being recovered.
chaos-smoke:
	$(PYTHON) -m repro.cli chaos --seed 7 --ops 150
	$(PYTHON) -m repro.cli chaos --seed 23 --ops 150 \
		--schedule "drop:0.08,duplicate:0.05,delay:0.05,corrupt_payload:0.02,enclave_crash:0.01"
	$(PYTHON) -m repro.cli chaos --seed 42 --ops 100 --shards 3 --replicas 1 \
		--schedule "drop:0.05,shard_death:0.03,corrupt_payload:0.01"

# Replicated failover chaos under three fixed seeds: sync groups must
# lose nothing across promotions (exit 1 on any acked loss), then a
# 2-replica scaleout smoke proves migration x replication coexistence
# (docs/REPLICATION.md).
replica-smoke:
	$(PYTHON) -m repro.cli replica --seed 7 --ops 150
	$(PYTHON) -m repro.cli replica --seed 23 --ops 150 --replicas 2 \
		--schedule "shard_death:0.05,replica_lag:0.08,promote_during_migration:0.02"
	$(PYTHON) -m repro.cli replica --seed 42 --ops 150 --ack-mode semi-sync
	$(PYTHON) -m repro.cli shard --shards 2 --ops 400 --workload b

# Telemetry pipeline smoke (docs/OBSERVABILITY.md): a clean sharded +
# replicated run must produce an OK windowed SLO report (exit 1 on any
# breach), then the breach scenario must freeze a parseable
# flight-recorder dump and replay it offline.
health-smoke:
	$(PYTHON) -m repro.cli health --shards 2 --replicas 1 --ops 240
	$(PYTHON) -m repro.cli flightrec --out bench_reports > /dev/null
	$(PYTHON) -m repro.cli flightrec --load bench_reports/flightrec.json

# Open-loop traffic smoke (docs/TRAFFIC.md): a short flash-crowd
# scenario on 2 shards must hold a loose SLO with the correction
# invariant intact (corrected p99 >= uncorrected p99; exit 1 if either
# fails).
traffic-smoke:
	$(PYTHON) -m repro.cli traffic --scenario flash-crowd \
		--shards 2 --seed 11 --ops 240 \
		--slo "latency:p99<60ms:min=8,errors:budget=2%:burn<5"

examples:
	for script in examples/*.py; do echo "== $$script =="; $(PYTHON) $$script || exit 1; done

# Prefer ruff, fall back to pyflakes, fall back to a stdlib syntax pass.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		echo "lint: ruff"; $(PYTHON) -m ruff check src tests examples; \
	elif $(PYTHON) -m pyflakes --version >/dev/null 2>&1; then \
		echo "lint: pyflakes"; $(PYTHON) -m pyflakes src/repro tests examples; \
	else \
		echo "lint: compileall (ruff/pyflakes not installed)"; \
		$(PYTHON) -m compileall -q src tests examples; \
	fi

clean:
	rm -rf .pytest_cache .hypothesis bench_reports src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
