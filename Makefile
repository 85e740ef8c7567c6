# Developer entry points.  The container bakes in python + numpy/scipy/
# pytest/pytest-benchmark/hypothesis; nothing here installs anything.

PYTHON ?= python
TIMEOUT ?= 120

.PHONY: tier1 import-budget surface doc-budget search-golden examples trace-budget stack-budget hook-budget obs-dev smoke bench bench-quick bench-fleet bench-service verify-fuzz fleet-smoke serve-smoke test-service check

# The ROADMAP tier-1 verify, with a per-test wall-clock limit so a
# wedged test fails fast instead of hanging CI (tools/pytest_timeout_lite).
# Service tests (marker 'service': real HTTP servers, SIGKILL drills)
# run separately via test-service to keep this loop fast.  The log ends
# with the ten slowest tests.
tier1:
	PYTHONPATH=src:. $(PYTHON) -m pytest -x -q -m "not service" --durations=10 \
		-p tools.pytest_timeout_lite --lite-timeout $(TIMEOUT)

# The import contract (DESIGN section 17): importing any package of
# repro loads no module of it but package inits, and no scipy; tuning a
# trace and replaying one load no scipy module at all; a fleet campaign
# ends holding scipy.special and nothing heavier; tuning, a campaign and
# repro serve's start-up load none of the simulator they do not run.
# Prints seconds / modules / repro modules / RSS per row (fresh
# interpreter each); exit 1 on a forbidden module only -- the seconds
# are bench/run.py's to judge.
import-budget:
	$(PYTHON) tools/import_budget.py

# The surface contract (tools/surface.py): every public class or
# function, every method and every defaulted parameter under src/repro
# is reached (a parameter: passed) from an entry point -- the CLI,
# bench/, the figure modules in benchmarks/, tools/, examples/ or a
# README python block -- by a name-based walk in which an __init__
# re-export is not a use.  Prints three tables of what nothing reaches,
# what only tests/ reach (the golden oracles among it) and what only
# examples/ reach; exit 1 unless each table's first two are exactly its
# allow-list in the tool, one reason per entry.
surface:
	$(PYTHON) tools/surface.py

# The doc budget (tools/doc_budget.py): exit 1 when a DESIGN citation in
# src/, tests/, tools/, this Makefile, README.md or the verify skill has
# no heading in DESIGN.md, when a DESIGN.md heading names a PR, or when
# DESIGN.md grows past the tool's LINE_BUDGET.
doc-budget:
	$(PYTHON) tools/doc_budget.py

# The golden catalog search (tools/search_golden.py): every catalog
# trace at 600 s, seeds 3, 7 and 11, searched for the 2 ms and 0.5 ms
# goals; exit 1 when the sha256 of any outcome's best, rung reports and
# effort differs from tests/fixtures/search_golden.json (~3 s; tier-1
# checks seed 7).
search-golden:
	$(PYTHON) tools/search_golden.py

# The five examples are entry points of the surface walk (they alone
# keep RaidArray and raid/geometry.py alive), so they have to run: exit
# status only, ~11 s in all.
examples:
	set -e; for example in examples/*.py; do \
		PYTHONPATH=src $(PYTHON) $$example > /dev/null; \
	done

# Working memory of trace synthesis (DESIGN section 19): every catalog
# entry at the CLI's default 4 h, MSRsrc11 at 6 h and one day, a fresh
# interpreter each; prints kept / drawn, seconds, RSS and whether the
# trace reached its duration; exit 1 when a call grows the process by
# more than 3x the trace's bytes + 32 MB.  Then a >= 1 GiB stored corpus,
# written by one fresh interpreter and streamed through the idle-interval
# scan by another: exit 1 when the scan grows its process by more than
# 16 chunks or a quarter of the corpus.  Seconds are never judged.
trace-budget:
	$(PYTHON) tools/trace_budget.py

# What a finished full-stack run leaves behind (DESIGN sections 6.1 and
# 18): twelve serial runs in one fresh interpreter of the Fig. 7
# cfq-staggered-128 replay, of a scrubber-alone throughput measurement,
# of a fault-injected detect run with remediation and of the Waiting
# (100 ms) replay of the dense TPCdisk66 stretch, no gc.collect()
# anywhere; prints max RSS and tracked objects after every call; exit 1
# when call 12 stands more than 2 MB or 1000 tracked objects above
# call 2, or when the Python-level calls or kernel events per request
# (one more call under sys.setprofile) of the replay or the Waiting row
# exceed that row's limit in the tool's CALLS_PER_REQUEST or
# EVENTS_PER_REQUEST.  Seconds are never judged.
stack-budget:
	$(PYTHON) tools/stack_budget.py

# What an attached observer costs (tools/hook_budget.py): a 3000-group,
# 16-shard serial fleet campaign bare and under a CampaignMonitor at a
# 0.25 s status interval, ten interleaved pairs; the monitor appends its
# events.jsonl and writes nothing else (status, summary and span trace
# are folds of the log, paid for by their readers).  Exit 1 when the
# median monitored / bare wall-time ratio exceeds 1.05 or a monitored
# result differs from the bare one in any bit.
hook-budget:
	$(PYTHON) tools/hook_budget.py

# The observability tests under python -X dev, where a file, pipe or
# socket left open is a ResourceWarning: exit 1 on any, raised in a
# test or in a finalizer pytest reports.
obs-dev:
	PYTHONPATH=src:. $(PYTHON) -X dev -m pytest -q -p no:cacheprovider \
		tests/test_obs_*.py -W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning \
		-p tools.pytest_timeout_lite --lite-timeout $(TIMEOUT)

# First the fleet shard kernel, whose generators are seeded in one
# batch, against its reference loop seeded by numpy itself (20 configs,
# about a second).  Then an end-to-end smoke of the fault-injection
# lifecycle on a tiny fault
# plan: the detect CLI across all three policies, the same sweep over a
# replayed trace in process and on two forked workers (a Trace parameter
# through the one process pool; the two outputs must be byte-identical),
# then `repro trace` (the Waiting scrubber over injected faults and a
# foreground reader) run twice: the Chrome trace must parse, and it and
# the request and error logs must be byte-identical; last the detection
# experiment benchmark (ATA cache-bug A/B + serial/parallel identity),
# Table III's "Waiting vs CFQ" shape check, which runs the threshold
# bisection on four 4 h catalog traces, and the two benchmarks that
# reach the block-device dispatcher's waits: Fig. 3's user-level vs
# kernel scrubber (soft barriers, both delay modes) and the CFQ
# idle-gate ablation (the timed re-check).
smoke:
	PYTHONPATH=src $(PYTHON) -m repro verify --axes fleet-kernel --configs 20 --seed 1
	PYTHONPATH=src $(PYTHON) -m repro detect --horizon 1.5 --cylinders 30
	set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	for workers in 0 2; do \
		PYTHONPATH=src $(PYTHON) -m repro detect --synthetic MSRsrc11 \
			--duration 60 --horizon 1.5 --cylinders 30 \
			--workers $$workers > "$$out/workers-$$workers.txt"; \
	done; \
	cmp "$$out/workers-0.txt" "$$out/workers-2.txt"
	set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	for run in 1 2; do \
		PYTHONPATH=src $(PYTHON) -m repro trace --cylinders 30 --inject \
			--foreground --horizon 1.0 --algorithm waiting \
			-o "$$out/T$$run.json" --jsonl "$$out/P$$run" > /dev/null; \
		$(PYTHON) -c "import json, sys; json.load(open(sys.argv[1]))" "$$out/T$$run.json"; \
	done; \
	cmp "$$out/T1.json" "$$out/T2.json"; \
	cmp "$$out/P1.requests.jsonl" "$$out/P2.requests.jsonl"; \
	cmp "$$out/P1.errors.jsonl" "$$out/P2.errors.jsonl"
	PYTHONPATH=src:. $(PYTHON) -m pytest -q benchmarks/test_fig_detection.py \
		benchmarks/test_tab3_optimizer.py benchmarks/test_fig03_user_vs_kernel.py \
		benchmarks/test_abl_idle_gate.py \
		-p tools.pytest_timeout_lite --lite-timeout $(TIMEOUT) \
		-p no:cacheprovider --override-ini testpaths=benchmarks

# Correctness-harness fuzz: 200 seeded configurations through the
# runtime invariant checker and every differential-oracle axis, plus
# the planted-bug self-test.  Fixed seed, so a CI failure reproduces
# locally with the printed snippet alone.
verify-fuzz:
	PYTHONPATH=src $(PYTHON) -m repro verify --self-test --seed 0 --configs 200

# Fleet-campaign fault-tolerance smoke: baseline + journal audit,
# SIGKILL the driver mid-campaign and resume bit-identically, SIGKILL
# a shard worker (retried, identical), and wedge a worker (deadline,
# graceful degradation with explicit completeness).  Deterministic.
fleet-smoke:
	PYTHONPATH=src $(PYTHON) tools/fleet_smoke.py

# Orchestration-service contract + concurrency + streaming tests
# (everything carrying the 'service' pytest marker).
test-service:
	PYTHONPATH=src:. $(PYTHON) -m pytest -q -m service \
		-p tools.pytest_timeout_lite --lite-timeout $(TIMEOUT)

# Orchestration-service smoke: contract against a real 'repro serve'
# subprocess, duplicate-submit dedup, SIGKILL-and-restart resume
# (bit-identical metrics), cooperative cancel, and byte-identical
# NDJSON event streaming.  Deterministic.
serve-smoke:
	PYTHONPATH=src $(PYTHON) tools/serve_smoke.py

# The stack benchmark (BENCHMARK.json, bench/README.md), every
# workload at seconds-long input sizes: output checks only, the
# numbers mean nothing.  Both event kernels run in the replay workloads.
bench-quick:
	$(PYTHON) bench/run.py --all --quick

# Fleet-campaign throughput, resume and journal cost: the benchmark's
# fleet_campaign workload with its per-layer (traced) metrics.
bench-fleet:
	$(PYTHON) bench/run.py --workload fleet_campaign --trace 1

# Service submit->done latency and where it goes (queue wait, slot run,
# client polls): the benchmark's service_mix workload with its
# per-layer (traced) metrics.
bench-service:
	$(PYTHON) bench/run.py --workload service_mix --trace 1

# Full experiment benchmarks (slow; regenerates the paper's figures).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest -q benchmarks --override-ini testpaths=benchmarks

check: tier1 import-budget surface doc-budget search-golden examples trace-budget stack-budget hook-budget obs-dev smoke
