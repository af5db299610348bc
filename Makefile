# Local entry points that match what CI runs (.github/workflows/ci.yml).
#
# The root manifest is both the workspace and the `genomeatscale` facade
# package, so a bare `cargo test` at the repo root silently runs only the
# facade's integration suites. Always go through `make test` (or pass
# --workspace yourself) so local coverage matches CI.

.PHONY: build test lint fmt smoke chaos-matrix dist-matrix index-lifecycle ledger-smoke ab-pairs all

all: lint build test

build:
	cargo build --workspace --release --locked

# The second command type-checks the perf ledger (bench/ledger: its own
# package, built --locked against its own lock file) against this tree,
# so renaming something it imports, or adding a dependency edge its lock
# file lacks, fails here and not in the benchmark run. gas-sparse is
# tested a second time optimised: its kernels reach hardware popcount
# through `target_feature` + `inline(always)`, which a debug build does
# not exercise; so is the mid-fill oracle test, which drives those
# kernels through every SUMMA grid shape.
test:
	cargo test --workspace --locked -q
	cargo test -p gas-sparse --release --locked -q
	cargo test --release --locked -q --test distributed_equivalence mid_fill_batches_equal_the_pairwise_oracle_on_every_grid
	cargo check --offline --locked --manifest-path bench/ledger/Cargo.toml

# The rustdoc gate fails on a doc link to a deleted or private item.
lint:
	cargo fmt --check
	cargo clippy --workspace --all-targets --locked -- -D warnings
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked

fmt:
	cargo fmt

# The CI smoke job: the five examples that assert their own answers
# (facade end to end, the rank sweep, the index lifecycle on a file,
# persist/reload/shard, and the serving frontend).
smoke:
	cargo run --release --locked --example quickstart
	cargo run --release --locked --example distributed_scaling
	cargo run --release --locked --example incremental_index
	cargo run --release --locked --example query_index
	cargo run --release --locked --example serve_index

# One cell of the CI chaos-matrix job, e.g.:
#   make chaos-matrix CHAOS_SEED=2 CHAOS_SCENARIO=service
# CHAOS_SCENARIO (storage, service or dist) filters the drill's tests by
# name; left empty it runs all three. Each writes
# results/chaos_drill_<scenario>.json before asserting.
CHAOS_SEED ?= 1
CHAOS_SCENARIO ?=
chaos-matrix:
	GAS_CHAOS_SEED=$(CHAOS_SEED) \
		cargo test --release --locked --test chaos_drill -- $(CHAOS_SCENARIO)

# The segmented index lifecycle suites: writer/reader/compactor unit
# tests, the `incremental add + compact ≡ full rebuild` and crash-safe
# commit proptests, the container round-trip/corruption/refusal and
# byte-identity suite, the crash-recovery torture over random fault
# schedules, the seeded chaos drill, the segmented sharded-serving grid
# equality, and the observability suite that pins the service's
# compaction and vacuum counters and file gauges.
index-lifecycle:
	cargo test -p gas-index --locked -q
	cargo test --locked -q --test index_lifecycle --test index_persistence \
		--test chaos_recovery --test chaos_drill --test query_serving --test observability

# The last step of CI's build-and-test job: the perf ledger
# (bench/ledger, its own package and lock file) on its tiny fixtures —
# all four workloads untraced and traced, every metric of BENCHMARK.json
# present, every oracle green (timings are marked non-comparable) — then
# its own tests. The ledger is where this repository's timings live. Its
# traced rows time phase-by-phase replays, not the drivers: both drivers
# pack straight from the sample slices, while the replays still run
# `apply_filter` + `from_columns` (distributed; held to the driver's wire
# bytes) and `prepare_batch` → `to_csr` → `ata_dense_parallel` (dense).
ledger-smoke:
	cargo run --release --offline --locked --quiet --manifest-path bench/ledger/Cargo.toml -- --smoke
	cargo test --offline --manifest-path bench/ledger/Cargo.toml

# One cell of the CI dist-matrix job, e.g.:
#   make dist-matrix RANKS=8 REPLICATION=2 SEGMENTS=7
# 16 segments is the perf ledger's `serve_read` reader. At every RANKS ×
# REPLICATION grid, distributed_equivalence holds every rank's paper-path
# counters to the exact schedule tests/schedule restates, and
# query_serving checks each rank's placement-install and exchange bytes
# and collectives against its simulator cost tracker.
RANKS ?= 2,4,6,8,9,12
REPLICATION ?= 1,2
SEGMENTS ?= 1,7,16
dist-matrix:
	GAS_DIST_RANKS=$(RANKS) GAS_DIST_REPLICATION=$(REPLICATION) GAS_DIST_SEGMENTS=$(SEGMENTS) \
		cargo test --locked -q --test distributed_equivalence --test filter_properties \
		--test query_serving --test index_lifecycle

# Alternating A/B pairs of one perf-ledger workload: PARENT against this
# checkout's tracked files, both extracted with `git archive` and built
# under results/ab/ (git-ignored; nothing under bench/ledger/ is touched,
# no worktree to remove). Prints every run, wins per metric, medians and
# quartiles. See bench/ab_pairs.sh, e.g.:
#   make ab-pairs PARENT=HEAD~1 WORKLOAD=serve_read SEED=2 PAIRS=10 SECONDS=25
PARENT ?= HEAD
WORKLOAD ?= serve_read
SEED ?= 1
PAIRS ?= 10
SECONDS ?= 25
ab-pairs:
	sh bench/ab_pairs.sh "$(PARENT)" "$(WORKLOAD)" "$(SEED)" "$(PAIRS)" "$(SECONDS)"
