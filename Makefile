# Local entry points that match what CI runs (.github/workflows/ci.yml).
#
# The root manifest is both the workspace and the `genomeatscale` facade
# package, so a bare `cargo test` at the repo root silently runs only the
# facade's integration suites. Always go through `make test` (or pass
# --workspace yourself) so local coverage matches CI.

.PHONY: build test lint fmt bench-smoke query-smoke serve-smoke obs-smoke chaos-smoke chaos-matrix dist-matrix index-lifecycle plan-smoke ledger-smoke all

all: lint build test

build:
	cargo build --workspace --release --locked

# The second command type-checks the perf ledger (bench/ledger: its own
# package, built --locked against its own lock file) against this tree,
# so renaming something it imports, or adding a dependency edge its lock
# file lacks, fails here and not in the benchmark run. gas-sparse is
# tested a second time optimised: its kernels reach hardware popcount
# through `target_feature` + `inline(always)`, which a debug build does
# not exercise.
test:
	cargo test --workspace --locked -q
	cargo test -p gas-sparse --release --locked -q
	cargo check --offline --locked --manifest-path bench/ledger/Cargo.toml

lint:
	cargo fmt --check
	cargo clippy --workspace --all-targets --locked -- -D warnings

fmt:
	cargo fmt

# The CI bench-smoke step: comm_volume on a tiny input, JSON reports
# under results/.
bench-smoke:
	GAS_COMM_VOLUME_TINY=1 cargo run --release --locked -p gas-bench --bin comm_volume

# The CI query-smoke step: the sketch-index serving benchmark on a tiny
# synthetic workload, once per signer (signing time, qps, recall@10,
# per-rank signature bytes under sharding, sharded equivalence, the
# segment-count sweep pinning constant collectives per batch, and
# incremental 10%-add throughput vs a full rebuild), then the trend gate
# against the committed baseline (>2× qps/wire-byte regressions and any
# collectives-budget growth fail).
query-smoke:
	GAS_QUERY_TINY=1 cargo run --release --locked -p gas-bench --bin query_throughput
	cargo run --release --locked -p gas-bench --bin bench_trend

# The CI serve-smoke step: the IndexService serving frontend end to end
# (pipelined concurrent commits, background compaction under live
# readers, paged-query cursor tiling, typed overload shedding, and
# sharded bit-equality at p ∈ {1, 4}), then the serving trend gate
# against the committed baseline (queue high-water within the admission
# bound, collectives budget frozen, dist equality, shedding exercised).
serve-smoke:
	GAS_SERVE_TINY=1 cargo run --release --locked --example serve_index
	cargo run --release --locked -p gas-bench --bin bench_trend -- --serve

# The CI obs-smoke step: the serving frontend with tracing forced on
# (GAS_TRACE=1 plus the example's with_tracing), dumping the Prometheus
# metrics export, the span trace and the folded-stacks flamegraph input
# under results/, then the tracing-overhead gate (disabled-tracing qps
# within 5% of the committed baseline, enabled within 2× of disabled —
# needs the query-smoke step's results/obs_overhead.json).
obs-smoke:
	GAS_SERVE_TINY=1 GAS_TRACE=1 cargo run --release --locked --example serve_index
	GAS_QUERY_TINY=1 cargo run --release --locked -p gas-bench --bin query_throughput
	cargo run --release --locked -p gas-bench --bin bench_trend -- --obs

# The CI chaos-smoke step: the seeded fault-injection drill across all
# three layers (storage crash/recover/heal, service retry + typed
# exhaustion + degraded queries, distributed failover with exact lost
# accounting), the crash-recovery torture proptest, then the
# injection-overhead gate (injection-disabled qps within 5% of the
# committed baseline — needs the fresh results/chaos_overhead.json from
# query_throughput).
chaos-smoke:
	GAS_CHAOS_SEED=$(CHAOS_SEED) GAS_CHAOS_SCENARIO=all \
		cargo run --release --locked -p gas-bench --bin chaos_drill
	cargo test --locked -q --test chaos_recovery
	GAS_QUERY_TINY=1 cargo run --release --locked -p gas-bench --bin query_throughput
	cargo run --release --locked -p gas-bench --bin bench_trend -- --chaos

# One cell of the CI chaos-matrix job, e.g.:
#   make chaos-matrix CHAOS_SEED=2 CHAOS_SCENARIO=service
CHAOS_SEED ?= 1
CHAOS_SCENARIO ?= all
chaos-matrix:
	GAS_CHAOS_SEED=$(CHAOS_SEED) GAS_CHAOS_SCENARIO=$(CHAOS_SCENARIO) \
		cargo run --release --locked -p gas-bench --bin chaos_drill

# The segmented index lifecycle suites: writer/reader/compactor unit
# tests, the `incremental add + compact ≡ full rebuild` and crash-safe
# commit proptests, the container round-trip/corruption/refusal suite,
# and the segmented sharded-serving grid equality.
index-lifecycle:
	cargo test -p gas-index --locked -q
	cargo test --locked -q --test index_lifecycle --test index_persistence --test query_serving

# The CI plan-smoke step: the placement sweep on the tiny skewed fixture
# (the mixed placement planned from segment_stats() probe heat must move
# at most as many wire bytes as all-shard AND all-replicate while
# answering bit-identically to the single-rank engine), then the plan
# trend gate against the committed baseline.
plan-smoke:
	GAS_PLAN_TINY=1 cargo run --release --locked -p gas-bench --bin placement_sweep
	cargo run --release --locked -p gas-bench --bin bench_trend -- --plan

# The CI ledger-smoke step: the perf ledger (bench/ledger, its own
# package and lock file) on its tiny fixtures — all four workloads
# untraced and traced, every metric of BENCHMARK.json present, every
# oracle green (timings are marked non-comparable) — then its own tests.
ledger-smoke:
	cargo run --release --offline --locked --quiet --manifest-path bench/ledger/Cargo.toml -- --smoke
	cargo test --offline --manifest-path bench/ledger/Cargo.toml

# One cell of the CI dist-matrix job, e.g.:
#   make dist-matrix RANKS=8 REPLICATION=2 SEGMENTS=7
RANKS ?= 4,6,8,12
REPLICATION ?= 1,2
SEGMENTS ?= 1,7
dist-matrix:
	GAS_DIST_RANKS=$(RANKS) GAS_DIST_REPLICATION=$(REPLICATION) GAS_DIST_SEGMENTS=$(SEGMENTS) \
		cargo test --locked -q --test distributed_equivalence --test filter_properties \
		--test query_serving --test index_lifecycle
