# Local entry points that match what CI runs (.github/workflows/ci.yml).
#
# The root manifest is both the workspace and the `genomeatscale` facade
# package, so a bare `cargo test` at the repo root silently runs only the
# facade's integration suites. Always go through `make test` (or pass
# --workspace yourself) so local coverage matches CI.

.PHONY: build test lint fmt chaos-matrix dist-matrix index-lifecycle ledger-smoke all

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

# One cell of the CI chaos-matrix job, e.g.:
#   make chaos-matrix CHAOS_SEED=2 CHAOS_SCENARIO=service
CHAOS_SEED ?= 1
CHAOS_SCENARIO ?= all
chaos-matrix:
	GAS_CHAOS_SEED=$(CHAOS_SEED) GAS_CHAOS_SCENARIO=$(CHAOS_SCENARIO) \
		cargo run --release --locked -p gas-bench --bin chaos_drill

# The segmented index lifecycle suites: writer/reader/compactor unit
# tests, the `incremental add + compact ≡ full rebuild` and crash-safe
# commit proptests, the container round-trip/corruption/refusal and
# byte-identity suite, the crash-recovery torture over random fault
# schedules, the segmented sharded-serving grid equality, and the
# observability suite that pins the service's compaction and vacuum
# counters and file gauges.
index-lifecycle:
	cargo test -p gas-index --locked -q
	cargo test --locked -q --test index_lifecycle --test index_persistence \
		--test chaos_recovery --test query_serving --test observability

# The last step of CI's build-and-test job: the perf ledger
# (bench/ledger, its own package and lock file) on its tiny fixtures —
# all four workloads untraced and traced, every metric of BENCHMARK.json
# present, every oracle green (timings are marked non-comparable) — then
# its own tests. The ledger is where this repository's timings live.
ledger-smoke:
	cargo run --release --offline --locked --quiet --manifest-path bench/ledger/Cargo.toml -- --smoke
	cargo test --offline --manifest-path bench/ledger/Cargo.toml

# One cell of the CI dist-matrix job, e.g.:
#   make dist-matrix RANKS=8 REPLICATION=2 SEGMENTS=7
# 16 segments is the perf ledger's `serve_read` reader.
RANKS ?= 4,6,8,12
REPLICATION ?= 1,2
SEGMENTS ?= 1,7,16
dist-matrix:
	GAS_DIST_RANKS=$(RANKS) GAS_DIST_REPLICATION=$(REPLICATION) GAS_DIST_SEGMENTS=$(SEGMENTS) \
		cargo test --locked -q --test distributed_equivalence --test filter_properties \
		--test query_serving --test index_lifecycle
