# Convenience targets for the Triad reproduction.

.PHONY: install test lint bench bench-kernel bench-membership bench-faults perfbench reproduce figures sweeps hunt-smoke service-smoke membership-smoke faults-smoke clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

bench-verbose:
	pytest benchmarks/ --benchmark-only -s

# Kernel throughput: run the kernel benchmarks, including the committed
# process_events_per_s floor (see docs/kernel.md).
bench-kernel:
	pytest benchmarks/test_bench_kernel.py

# Membership engine at cluster scale (200-node enforce-mode mesh).
bench-membership:
	pytest benchmarks/test_bench_membership.py

# Fault plane at cluster scale (10-node crash wave through a TA outage
# and a partition).
bench-faults:
	pytest benchmarks/test_bench_faults.py

# The repository benchmark (BENCHMARK.json): all three pinned workloads
# with the traced per-layer split; see perfbench/README.md.
perfbench:
	python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 1

reproduce:
	python examples/reproduce_paper.py

sweeps:
	python -m repro sweep attack-delay --jobs 4 --export out/sweeps
	python -m repro sweep jitter --jobs 4 --export out/sweeps
	python -m repro sweep cluster-size --jobs 4 --export out/sweeps
	python -m repro sweep aex-rate --jobs 4 --export out/sweeps

# Tiny pinned-seed hunt, twice: MANIFEST.json must be byte-identical.
hunt-smoke:
	python -m repro hunt --seed 7 --budget 24 --jobs 2 --corpus-dir out/hunt-smoke-a
	python -m repro hunt --seed 7 --budget 24 --jobs 2 --corpus-dir out/hunt-smoke-b
	cmp out/hunt-smoke-a/MANIFEST.json out/hunt-smoke-b/MANIFEST.json
	@echo "hunt-smoke: corpus manifests are byte-identical"

# Pinned-seed service runs (1M sessions benign, 100k under the F−
# propagation cascade), each at --jobs 1 and --jobs 2: the ServiceReport
# JSON must be byte-identical for the same seed regardless of worker count.
service-smoke:
	python -m repro service --sessions 1000000 --duration-s 30 --quorum 3 \
		--seed 11 --no-cache --json out/service-smoke/benign-j1.json
	python -m repro service --sessions 1000000 --duration-s 30 --quorum 3 \
		--seed 11 --no-cache --jobs 2 --json out/service-smoke/benign-j2.json
	cmp out/service-smoke/benign-j1.json out/service-smoke/benign-j2.json
	python -m repro service --sessions 100000 --duration-s 30 --quorum 3 \
		--seed 11 --attack fminus-propagation --no-cache \
		--json out/service-smoke/propagation-j1.json
	python -m repro service --sessions 100000 --duration-s 30 --quorum 3 \
		--seed 11 --attack fminus-propagation --no-cache --jobs 2 \
		--json out/service-smoke/propagation-j2.json
	cmp out/service-smoke/propagation-j1.json out/service-smoke/propagation-j2.json
	@echo "service-smoke: reports are byte-identical across --jobs 1/2"

# Membership control plane, pinned seeds: churn runs byte-identical
# across --jobs 1/2, the F− containment race passes the strict oracle in
# enforce mode, and a benign observation run flips no verdicts.
membership-smoke:
	python -m repro membership --attack churn --nodes 5 --duration-s 20 \
		--no-cache --json out/membership-smoke/churn-j1.json
	python -m repro membership --attack churn --nodes 5 --duration-s 20 \
		--no-cache --jobs 2 --json out/membership-smoke/churn-j2.json
	cmp out/membership-smoke/churn-j1.json out/membership-smoke/churn-j2.json
	python -m repro membership --attack churn --nodes 1000 --duration-s 3 \
		--no-cache --json out/membership-smoke/churn1000-j1.json
	python -m repro membership --attack churn --nodes 1000 --duration-s 3 \
		--no-cache --jobs 2 --json out/membership-smoke/churn1000-j2.json
	cmp out/membership-smoke/churn1000-j1.json out/membership-smoke/churn1000-j2.json
	echo "c92821e183fccda44ead3d6a713e71baf2c123e25daf697e0674e5ddfbb3286b  out/membership-smoke/churn1000-j1.json" \
		| sha256sum --check --strict -
	python benchmarks/membership_curve.py --point --nodes 600 --duration-s 5 \
		> out/membership-smoke/mesh600.json
	python -c 'import json, sys; row = json.load(open(sys.argv[1])); print(row); sys.exit(row["peak_rss_mb"] > 250)' \
		out/membership-smoke/mesh600.json
	python -m repro membership --oracle strict --no-cache \
		--json out/membership-smoke/propagation.json
	python -m repro membership --attack benign --duration-s 15 --no-cache \
		--oracle strict
	python -m repro batch examples/specs --membership enforce --oracle strict \
		--no-cache > out/membership-smoke/batch-j1.txt
	python -m repro batch examples/specs --membership enforce --oracle strict \
		--no-cache --jobs 2 > out/membership-smoke/batch-j2.txt
	sed '/^batch summary$$/,$$d' out/membership-smoke/batch-j1.txt > out/membership-smoke/sections-j1.txt
	sed '/^batch summary$$/,$$d' out/membership-smoke/batch-j2.txt > out/membership-smoke/sections-j2.txt
	cmp out/membership-smoke/sections-j1.txt out/membership-smoke/sections-j2.txt
	python -m repro run fig6 --membership enforce --oracle strict \
		> out/membership-smoke/fig6-enforce.txt
	grep -q "membership: mode=enforce" out/membership-smoke/fig6-enforce.txt
	@echo "membership-smoke: churn deterministic, containment strict-clean, both attach routes guarded"

# Fault plane, pinned seeds: the crash-restart headline and the TA flap
# pass the strict oracle (recovery invariant armed), and the mixed
# crash + outage + partition report is byte-identical across --jobs 1/2.
faults-smoke:
	python -m repro faults --scenario crash-restart --no-cache --oracle strict
	python -m repro faults --scenario ta-flap --no-cache --oracle strict
	python -m repro faults --scenario crash-outage-partition --no-cache \
		--json out/faults-smoke/mixed-j1.json
	python -m repro faults --scenario crash-outage-partition --no-cache \
		--jobs 2 --json out/faults-smoke/mixed-j2.json
	cmp out/faults-smoke/mixed-j1.json out/faults-smoke/mixed-j2.json
	@echo "faults-smoke: recovery strict-clean, reports byte-identical across --jobs 1/2"

figures:
	python -m repro run fig2 --export out/fig2
	python -m repro run fig3 --export out/fig3
	python -m repro run fig4 --export out/fig4
	python -m repro run fig5 --export out/fig5
	python -m repro run fig6 --export out/fig6

clean:
	rm -rf out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
