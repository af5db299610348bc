#!/bin/sh
# Alternating A/B pairs of one perf-ledger workload: a parent revision
# against this checkout.
#
#   bench/ab_pairs.sh PARENT WORKLOAD SEED PAIRS SECONDS
#   make ab-pairs PARENT=<rev> WORKLOAD=serve_read SEED=1 PAIRS=10 SECONDS=25
#
# Both sides are built from git worktrees under results/ab/ (git-ignored),
# each with its own target directory, so nothing under bench/ledger/ is
# built, written or changed. The parent side is PARENT; the change side
# is this checkout's tracked files as they stand, staged or not
# (`git stash create`, or HEAD when nothing differs). Untracked files are
# not part of the change side: `git add` them first.
#
# Each pair runs both sides once, untraced, with the parent first in odd
# pairs and the change first in even ones. The script prints every run's
# setup_s / op_ms / peak_heap_mb, then per metric the pairs the change
# won (lower is better), both medians with their quartiles (Python's
# `statistics.quantiles(n=4)`), the change's median over the parent's,
# and whether the median gap exceeds the parent's quartile spread.
set -eu

if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT WORKLOAD SEED PAIRS SECONDS" >&2
    exit 2
fi
parent_rev=$1 workload=$2 seed=$3 pairs=$4 seconds=$5

root=$(git rev-parse --show-toplevel)
ab="$root/results/ab"
mkdir -p "$ab"

# Check out `rev` as a detached worktree at results/ab/<name>-<tree id>
# (named by content, so a re-run over unchanged files reuses it) and
# build its ledger there; print the binary's path.
build_side() {
    tree="$ab/$2-$(git -C "$root" rev-parse --short=12 "$1^{tree}")"
    if [ ! -d "$tree" ]; then
        git -C "$root" worktree add --detach --quiet "$tree" "$1"
    fi
    cargo build --release --offline --locked --quiet \
        --manifest-path "$tree/bench/ledger/Cargo.toml" --target-dir "$ab/target-$2" >&2
    echo "$ab/target-$2/release/bench-ledger"
}

change_rev=$(git -C "$root" stash create)
change_rev=${change_rev:-HEAD}
parent_bin=$(build_side "$parent_rev" parent)
change_bin=$(build_side "$change_rev" change)
echo "parent $(git -C "$root" rev-parse --short=12 "$parent_rev") vs change $(git -C "$root" rev-parse --short=12 "$change_rev"): $workload, seed $seed, $pairs pairs of $seconds s"

# One untraced run; its report is the last line of stdout.
run() {
    "$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}

# `value(line, name)`: metric `name` of one report line.
metric_of='
function value(line, name,    v) {
    if (!match(line, "\"" name "\": *[{]\"value\": *")) return "nan"
    v = substr(line, RSTART + RLENGTH)
    sub(/[,}].*/, "", v)
    return v + 0
}
'

log="$ab/pairs-$workload-$seed.txt"
: >"$log"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
        echo "$i $side $(run "$bin")" >>"$log"
        tail -n 1 "$log" | awk "$metric_of"'{
            printf "pair %2d %-6s", $1, $2
            n = split("setup_s op_ms peak_heap_mb", names, " ")
            for (k = 1; k <= n; k++) printf "  %s %s", names[k], value($0, names[k])
            printf "%s\n", match($0, /"correct": *true/) ? "" : "  (INCORRECT RUN)"
        }'
    done
    i=$((i + 1))
done

awk "$metric_of"'
# Quartile q (1..3) of the sorted xs[1..n], Python statistics.quantiles
# (n=4, method="exclusive").
function quartile(xs, n, q,    m, j, delta) {
    if (n < 2) return xs[1]
    m = n + 1
    j = int(q * m / 4)
    if (j < 1) j = 1
    if (j > n - 1) j = n - 1
    delta = q * m - j * 4
    return (xs[j] * (4 - delta) + xs[j + 1] * delta) / 4
}
function sorted(src, n, dst,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
{
    for (k = 1; k <= 3; k++) vals[$2, k, $1] = value($0, metric[k])
    if ($1 > pairs) pairs = $1
}
BEGIN { metric[1] = "setup_s"; metric[2] = "op_ms"; metric[3] = "peak_heap_mb" }
END {
    print ""
    for (k = 1; k <= 3; k++) {
        wins = 0
        for (p = 1; p <= pairs; p++) {
            a[p] = vals["parent", k, p]; b[p] = vals["change", k, p]
            if (b[p] < a[p]) wins++
        }
        sorted(a, pairs, sa); sorted(b, pairs, sb)
        pa1 = quartile(sa, pairs, 1); pa2 = quartile(sa, pairs, 2); pa3 = quartile(sa, pairs, 3)
        pb1 = quartile(sb, pairs, 1); pb2 = quartile(sb, pairs, 2); pb3 = quartile(sb, pairs, 3)
        printf "%-13s change won %2d of %2d | parent %.4g (%.4g-%.4g) | change %.4g (%.4g-%.4g) | change/parent %.3f | gap %s the parent quartile spread\n", \
            metric[k], wins, pairs, pa2, pa1, pa3, pb2, pb1, pb3, (pa2 ? pb2 / pa2 : 0), \
            ((pa2 - pb2 > pa3 - pa1) ? "exceeds" : "within")
    }
}' "$log"
