# Convenience targets wrapping the tier-1 verify and the paper artefacts.
# Mirrored by .github/workflows/ci.yml.

FIG_BINS = table1 table2_3 fig01_window_specint fig02_window_specfp \
           fig03_issue_histogram fig09_comparison fig10_scheduler_sweep \
           fig11_cache_sweep_specint fig12_cache_sweep_specfp \
           fig13_llib_occupancy_specint fig14_llib_occupancy_specfp \
           fig_riscv_ipc

## Scratch directory for the trace-smoke artefacts.
TRACE_SMOKE_DIR = target/trace-smoke

## Scratch directory for the cache-check store and outputs.
CACHE_CHECK_DIR = target/cache-check

## Scratch directory for the chaos-check stores and outputs.
CHAOS_CHECK_DIR = target/chaos-check

## Build directory for the benchmark in perfbench/ (a workspace of its own).
BENCH_BUILD_DIR = target/perfbench-build

.PHONY: build test doc verify lint loc bench bench-build bench-figures golden bless riscv perf perf-smoke trace-smoke cache-check chaos-check fuzz fuzz-smoke sample-check clean

build:
	cargo build --release

test:
	cargo test -q

## Tier-1 verify plus the perfbench build: exactly what the CI verify job
## runs (the ROADMAP's tier-1 is the first line).
verify:
	cargo build --release && cargo test -q
	$(MAKE) bench-build

## API docs with warnings denied, exactly as the CI docs job builds them
## (a dangling intra-doc link fails here, not only in CI).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

## Static checks, exactly as the CI lint job runs them.
lint:
	cargo clippy --all-targets -- -D warnings
	cargo fmt --check

## Source size per crate: non-blank, non-comment lines of each crate's
## src/ (the facade's src/ included), counted in each file up to its first
## `#[cfg(test)]` so unit tests are left out, and the total. A report for
## comparing sizes before and after a change, not a gate.
loc:
	@total=0; for dir in crates/*/src src; do \
		n=$$(find $$dir -name '*.rs' | sort | xargs awk \
			'FNR == 1 { tests = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 } \
			!tests && !/^[[:space:]]*(\/\/|$$)/ { n++ } END { print n + 0 }'); \
		printf '%-18s %6d\n' $$dir $$n; total=$$((total + n)); \
	done; printf '%-18s %6d\n' total $$total

## Golden-stats regression checks: compare fresh runs against the pinned
## snapshots in tests/golden/ (incl. the RISC-V kernel sweep and the four
## golden matrices run sampled, sampled.golden), single- and multi-threaded
## (see EXPERIMENTS.md).
## perf_invariance, skip_equivalence and capacity_reuse hard-pin their own
## 1- and 8-thread runners (they ignore DKIP_THREADS), so one invocation
## covers both thread counts; skip_equivalence additionally runs every suite
## with the event-driven clock on and off (DKIP_NO_SKIP) and requires
## bit-identical statistics; capacity_reuse holds every result the runner
## reuses from a smaller window or L2 (the Figure 1, 2, 11 and 12 job lists)
## equal to the job's own simulation.
golden:
	DKIP_THREADS=1 cargo test -q -p dkip --test golden_stats --test determinism --test riscv_frontend --test perf_invariance --test skip_equivalence --test capacity_reuse
	DKIP_THREADS=8 cargo test -q -p dkip --test golden_stats --test determinism --test riscv_frontend

## Regenerate the golden snapshots (sampled.golden included) after an
## *intended* behavioural change, then review `git diff tests/golden/`.
bless:
	DKIP_BLESS=1 cargo test -q -p dkip --test golden_stats

## Run every RV64IM kernel to completion on all three core families and
## print the per-kernel IPC table.
riscv: build
	./target/release/fig_riscv_ipc

## Simulator-throughput benches (criterion shim). Set CRITERION_JSON=path
## (or pass `-- --save-baseline NAME`) to persist the measurements as JSON.
bench:
	cargo bench -p dkip-bench

## Build the end-to-end benchmark in perfbench/ exactly as perfbench/run.py
## does. perfbench calls the simulator crates' public API, so an API change
## that breaks it fails here instead of in a benchmark run. Mirrored by the
## CI verify job.
bench-build:
	CARGO_TARGET_DIR=$(BENCH_BUILD_DIR) cargo build --release --offline --manifest-path perfbench/Cargo.toml

## Simulator-throughput harness: times every core family on Spec and RISC-V
## workloads and writes target/BENCH_sim_throughput.json (MIPS + cycles/sec
## per family/workload). Only an explicit out= rewrites the committed
## report: `./target/release/perf out=BENCH_sim_throughput.json`.
## See EXPERIMENTS.md "Measuring simulator throughput".
perf: build
	./target/release/perf

## Reduced-budget throughput check against the committed baseline
## (ci/perf_baseline.json): fails on a >30% per-family regression, if the
## D-KIP family drops below the absolute MIPS floor, or if the disabled-probe
## host-calibrated figure regresses >2% (the telemetry_overhead= gate).
## Mirrored by the CI perf-smoke job.
perf-smoke: build
	./target/release/perf budget=40000 samples=5 check=ci/perf_baseline.json tolerance=0.30 floor=0.25 telemetry_overhead=ci/perf_baseline.json

## Telemetry smoke: one kernel per core family with both backends attached
## (interval metrics + O3PipeView pipeline trace), validated for format and
## counts by trace_check (7-line block schema, retire count, metrics column
## schema, monotone cycle/committed counters), plus a repeat D-KIP run that
## must be byte-identical. Trace stamps are clamped into order as they are
## written, so stage order is checked in process by tests/timing_oracle.rs
## (fuzz-smoke), not from the file. Mirrored by the CI trace-smoke job.
trace-smoke: build
	rm -rf $(TRACE_SMOKE_DIR) && mkdir -p $(TRACE_SMOKE_DIR)
	for fam in baseline kilo dkip; do \
		./target/release/fig_timeseries $$fam riscv:matmul/8 \
			metrics=$(TRACE_SMOKE_DIR)/$$fam.csv:500 \
			trace=$(TRACE_SMOKE_DIR)/$$fam.trace:20000 || exit 1; \
		./target/release/trace_check $(TRACE_SMOKE_DIR)/$$fam.trace \
			metrics=$(TRACE_SMOKE_DIR)/$$fam.csv || exit 1; \
	done
	./target/release/fig_timeseries dkip riscv:matmul/8 \
		metrics=$(TRACE_SMOKE_DIR)/dkip-again.csv:500 \
		trace=$(TRACE_SMOKE_DIR)/dkip-again.trace:20000
	cmp $(TRACE_SMOKE_DIR)/dkip.csv $(TRACE_SMOKE_DIR)/dkip-again.csv
	cmp $(TRACE_SMOKE_DIR)/dkip.trace $(TRACE_SMOKE_DIR)/dkip-again.trace
	@echo "trace-smoke: telemetry validates and is repeat-run byte-identical"

## Result-store acceptance gates, mirrored by the CI cache-check job:
##  1. full golden matrix ("all") cold then warm against one cache=DIR —
##     the warm run must recompute zero jobs (expect=warm exits 1
##     otherwise) and emit byte-identical output (cmp);
##  2. same contract for two figure binaries: fig09, and fig01, whose
##     window sweep reuses results across window sizes (a reused result
##     must be written back and served byte-identically like a computed
##     one);
##  3. a salt perturbation (DKIP_CACHE_SALT) and a budget perturbation must
##     both miss the populated store (expect=cold);
##  4. dkip-sim serve must answer a repeated sweep query from the cache
##     (hits>0, misses=0 on the repeat) with byte-identical bodies.
cache-check: build
	rm -rf $(CACHE_CHECK_DIR) && mkdir -p $(CACHE_CHECK_DIR)
	./target/release/dkip-sim sweep all cache=$(CACHE_CHECK_DIR)/store expect=cold \
		> $(CACHE_CHECK_DIR)/sweep-cold.txt
	./target/release/dkip-sim sweep all cache=$(CACHE_CHECK_DIR)/store expect=warm \
		> $(CACHE_CHECK_DIR)/sweep-warm.txt
	cmp $(CACHE_CHECK_DIR)/sweep-cold.txt $(CACHE_CHECK_DIR)/sweep-warm.txt
	./target/release/fig09_comparison 2000 cache=$(CACHE_CHECK_DIR)/store expect=cold \
		> $(CACHE_CHECK_DIR)/fig09-cold.txt
	./target/release/fig09_comparison 2000 cache=$(CACHE_CHECK_DIR)/store expect=warm \
		> $(CACHE_CHECK_DIR)/fig09-warm.txt
	cmp $(CACHE_CHECK_DIR)/fig09-cold.txt $(CACHE_CHECK_DIR)/fig09-warm.txt
	./target/release/fig01_window_specint 2000 cache=$(CACHE_CHECK_DIR)/store expect=cold \
		> $(CACHE_CHECK_DIR)/fig01-cold.txt
	./target/release/fig01_window_specint 2000 cache=$(CACHE_CHECK_DIR)/store expect=warm \
		> $(CACHE_CHECK_DIR)/fig01-warm.txt
	cmp $(CACHE_CHECK_DIR)/fig01-cold.txt $(CACHE_CHECK_DIR)/fig01-warm.txt
	DKIP_CACHE_SALT=cache-check-perturbation ./target/release/dkip-sim sweep kilo \
		cache=$(CACHE_CHECK_DIR)/store expect=cold > /dev/null
	./target/release/dkip-sim sweep kilo budget=3999 \
		cache=$(CACHE_CHECK_DIR)/store expect=cold > /dev/null
	./target/release/dkip-sim serve socket=$(CACHE_CHECK_DIR)/serve.sock \
		cache=$(CACHE_CHECK_DIR)/store & \
	SERVE_PID=$$!; \
	for i in $$(seq 1 50); do [ -S $(CACHE_CHECK_DIR)/serve.sock ] && break; sleep 0.1; done; \
	./target/release/dkip-sim query socket=$(CACHE_CHECK_DIR)/serve.sock suite all \
		> $(CACHE_CHECK_DIR)/query1.txt 2> $(CACHE_CHECK_DIR)/query1.status; \
	./target/release/dkip-sim query socket=$(CACHE_CHECK_DIR)/serve.sock suite all \
		> $(CACHE_CHECK_DIR)/query2.txt 2> $(CACHE_CHECK_DIR)/query2.status; \
	kill $$SERVE_PID; \
	grep -q " misses=0" $(CACHE_CHECK_DIR)/query2.status || \
		{ echo "serve recomputed jobs on a repeated query:"; cat $(CACHE_CHECK_DIR)/query2.status; exit 1; }
	cmp $(CACHE_CHECK_DIR)/query1.txt $(CACHE_CHECK_DIR)/query2.txt
	cmp $(CACHE_CHECK_DIR)/query1.txt $(CACHE_CHECK_DIR)/sweep-cold.txt
	@echo "cache-check: warm runs recompute nothing and are byte-identical; reused results are cached; perturbations miss; serve answers from cache"

## Chaos campaigns, mirrored by the CI chaos-check job. Fault points are
## armed per process via DKIP_FAULTS=<point>:<rate>:<seed> (see
## crates/sim/src/chaos.rs), so each CLI invocation below is one sealed
## campaign. The gates:
##  1. the chaos/service/store integration suites in release mode;
##  2. injected job panics: the sweep survives, records the failures,
##     exits 1 with a summary — and a disarmed re-run over the same store
##     heals to a fully green, fully warm, byte-identical sweep;
##  3. the same panic campaign with retries=1 absorbs the firstK faults
##     in-process and exits green, byte-identical;
##  4. a store whose every write fails degrades to uncached (exit 0,
##     byte-identical stdout, nothing cached — expect=cold proves it);
##  5. a store whose every read fails recomputes everything byte-identically;
##  6. armed store/metrics faults must not perturb paths that never consult
##     them: golden snapshots and the fuzz-corpus replay stay green.
chaos-check: build
	rm -rf $(CHAOS_CHECK_DIR) && mkdir -p $(CHAOS_CHECK_DIR)
	cargo test -q --release -p dkip --test chaos --test service_socket --test store
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/ref expect=cold \
		> $(CHAOS_CHECK_DIR)/ref.txt
	DKIP_FAULTS=job.panic:first2:7 ./target/release/dkip-sim sweep kilo retries=0 \
		cache=$(CHAOS_CHECK_DIR)/heal > $(CHAOS_CHECK_DIR)/campaign.txt \
		2> $(CHAOS_CHECK_DIR)/campaign.status; \
	test $$? -eq 1 || { echo "chaos-check: the panic campaign must exit 1"; exit 1; }
	grep -q "# sweep failure:" $(CHAOS_CHECK_DIR)/campaign.status || \
		{ echo "chaos-check: no failure summary:"; cat $(CHAOS_CHECK_DIR)/campaign.status; exit 1; }
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/heal \
		> $(CHAOS_CHECK_DIR)/healed.txt
	cmp $(CHAOS_CHECK_DIR)/healed.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/heal expect=warm \
		> $(CHAOS_CHECK_DIR)/warm.txt
	cmp $(CHAOS_CHECK_DIR)/warm.txt $(CHAOS_CHECK_DIR)/ref.txt
	DKIP_FAULTS=job.panic:first2:7 ./target/release/dkip-sim sweep kilo retries=1 \
		> $(CHAOS_CHECK_DIR)/retried.txt
	cmp $(CHAOS_CHECK_DIR)/retried.txt $(CHAOS_CHECK_DIR)/ref.txt
	DKIP_FAULTS=store.write:1:11 ./target/release/dkip-sim sweep kilo \
		cache=$(CHAOS_CHECK_DIR)/dead-store > $(CHAOS_CHECK_DIR)/degraded.txt
	cmp $(CHAOS_CHECK_DIR)/degraded.txt $(CHAOS_CHECK_DIR)/ref.txt
	./target/release/dkip-sim sweep kilo cache=$(CHAOS_CHECK_DIR)/dead-store expect=cold \
		> /dev/null
	DKIP_FAULTS=store.read:1:13 ./target/release/dkip-sim sweep kilo \
		cache=$(CHAOS_CHECK_DIR)/ref > $(CHAOS_CHECK_DIR)/readfault.txt
	cmp $(CHAOS_CHECK_DIR)/readfault.txt $(CHAOS_CHECK_DIR)/ref.txt
	DKIP_FAULTS=store.write:1:3,metrics.write:1:5 DKIP_FUZZ_CASES=50 \
		cargo test -q --release -p dkip --test golden_stats --test corpus_replay
	@echo "chaos-check: faults isolate, degrade caching not correctness, and heal green"

## Sampled-simulation gates: checkpoint round-trips must be bit-identical,
## the sampled IPC estimator must stay inside its error bands (3%
## suite-mean, 10% per-job) against exact simulation on all four golden
## matrices, and the sampled results must match tests/golden/sampled.golden
## bit for bit. The core crates' unit tests ride along: dkip-model (the
## EventQueue against the min-heap model, which every drain relies on),
## dkip-ooo (the shared front end, the shared issue engine's wakeup and
## select protocol, and the event-clock checks), dkip-mem (the flat cache
## against its reference model) and dkip-core (the D-KIP's wakeup tables,
## the issue engine's and the one Memory Processor wakeup table of the
## low-locality side, stay bounded by what is in flight, which keeps
## sampled runs cheap). So do the
## functional-warming checks: the dkip-bpred, dkip-riscv and dkip-trace
## unit tests (one-pass perceptron training equals predict+update;
## warm_forward reports what the skipped ops carry) and the dkip-sim test
## that warming from the source matches the per-op reference loop on every
## golden sampled job.
## Release mode: the accuracy suite simulates ~100k-1M instructions per
## job twice. Mirrored by the CI sample-check job.
sample-check:
	cargo test -q --release -p dkip --test checkpoint_roundtrip --test sampled_accuracy
	cargo test -q --release -p dkip --test golden_stats golden_sampled_suites
	cargo test -q --release -p dkip-model -p dkip-ooo -p dkip-mem -p dkip-core
	cargo test -q --release -p dkip-bpred -p dkip-riscv -p dkip-trace
	cargo test -q --release -p dkip-sim --lib warming_from_the_source

## Differential-fuzz smoke: 200 random RV64IM programs through the emulator
## oracle and all three core families, plus the checked-in corpus replay,
## and the timing oracle (per-µop stage order, producers before consumers)
## over 200 programs, the corpus and the golden suites.
## Mirrored by the CI fuzz-smoke job. Deterministic: the proptest shim seeds
## from the property name, so every run draws the same 200 programs.
fuzz-smoke:
	DKIP_FUZZ_CASES=200 cargo test -q -p dkip --test fuzz_differential --test corpus_replay --test timing_oracle

## Full fuzz campaign: 1000 programs in release mode (the acceptance bar;
## see EXPERIMENTS.md "Differential fuzzing" for triage and minimization).
fuzz:
	DKIP_FUZZ_CASES=1000 cargo test -q --release -p dkip --test fuzz_differential --test corpus_replay --test timing_oracle

## Regenerate every table/figure of the paper on stdout.
bench-figures: build
	@for b in $(FIG_BINS); do \
		echo "==== $$b ===="; \
		./target/release/$$b || exit 1; \
		echo; \
	done

clean:
	cargo clean
