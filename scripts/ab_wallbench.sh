#!/usr/bin/env bash
# A/B the wall-clock benchmark: the checkout you stand in against a base
# revision (default HEAD~1), with the judge's own command.
#
#   scripts/ab_wallbench.sh [--pairs N] [--workload W]... [--base REV]
#                           [--seed S] [--dir D]
#
# Exports the base revision into D/parent and the checkout into D/change
# (its tracked files as they stand, edits included, plus the untracked
# files git does not ignore), so both sides build and run at paths of
# the same length and neither rewrites the checkout's
# benchmark/Cargo.lock. Builds `benchmark/` once per side into its own
# CARGO_TARGET_DIR, then runs N pairs of the
# BENCHMARK.json command per workload (run length from BENCHMARK.json,
# pair i on both sides under seed S+i, the side that goes first
# alternating, because the box drifts between two speeds for seconds at a
# time). Prints every run made, then one table: per workload and
# end-to-end metric the medians, the quartiles, how many pairs the change
# won, and whether its median is worse than the parent's by more than the
# metric's bound. Exit status 1 if any is, or if any run failed an
# operation or its own checks.
#
# Both sides are exported with `git archive`, not `git worktree`, so the
# repository's metadata is left alone (the checkout's edits become a
# dangling commit via `git stash create`, which leaves the stash list and
# the tree alone); D (default $TMPDIR/ab_wallbench) can be deleted at
# will. This drives the judge, it is not part of it.
set -euo pipefail

pairs=10
base=HEAD~1
seed=1
dir=${TMPDIR:-/tmp}/ab_wallbench
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --base) base=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --dir) dir=$2; shift 2 ;;
        -h | --help) sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

root=$(git rev-parse --show-toplevel)
spec=$root/BENCHMARK.json
mapfile -t command < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")
fi

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -f "$dir/runs.jsonl"
rev=$(git -C "$root" rev-parse "$base^{commit}")
# Re-exporting would touch every file and make cargo rebuild the parent.
if [ "$(cat "$dir/parent.rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$dir/parent"
    mkdir -p "$dir/parent"
    git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
    echo "$rev" >"$dir/parent.rev"
fi

# The checkout as a commit: its tracked edits, or HEAD when it has none.
change=$(git -C "$root" stash create)
change=${change:-$(git -C "$root" rev-parse HEAD)}
rm -rf "$dir/change"
mkdir -p "$dir/change"
git -C "$root" archive "$change" | tar -x -C "$dir/change"
git -C "$root" ls-files -z --others --exclude-standard | tar -c -C "$root" --null -T - | tar -x -C "$dir/change"

declare -A tree=([parent]=$dir/parent [change]=$dir/change)
for side in parent change; do
    echo "building $side ($([ $side = parent ] && echo "${rev:0:7}" || echo "working tree")) ..." >&2
    CARGO_TARGET_DIR=$dir/target-$side cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done

# One run: the BENCHMARK.json command from the side's own tree; the result
# is the last stdout line, tagged with what produced it.
run() {
    local side=$1 workload=$2 run_seed=$3 pair=$4 line
    line=$(cd "${tree[$side]}" && CARGO_TARGET_DIR=$dir/target-$side "${command[@]}" \
        --workload "$workload" --seed "$run_seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    jq -c --arg side "$side" --arg workload "$workload" --argjson seed "$run_seed" --argjson pair "$pair" \
        '{side: $side, workload: $workload, seed: $seed, pair: $pair} + .' <<<"$line" | tee -a "$dir/runs.jsonl" |
        jq -r '"\(.workload) pair \(.pair) seed \(.seed) \(.side): work_per_s \(.metrics.work_per_s.value | floor) correct \(.correct) failed \(.failed)"'
}

for workload in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            run "$side" "$workload" $((seed + pair)) "$pair"
        done
    done
done

python3 - "$spec" "$dir/runs.jsonl" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


bad = [r for r in runs if not r["correct"] or r["failed"]]
worse = 0
print()
print(f"{'workload':<15}{'metric':<22}{'parent median [q1..q3]':<40}{'change median [q1..q3]':<40}"
      f"{'change/parent':>14}{'won':>7}{'bound':>7}  verdict")
for workload in dict.fromkeys(r["workload"] for r in runs):
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        value = lambda r: r["metrics"][name]["value"]
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = value(r)
        pairs = [p for p in by_pair.values() if len(p) == 2]
        parent, change = [p["parent"] for p in pairs], [p["change"] for p in pairs]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ratio = cm / pm
        loss = (1 - ratio) if higher else (ratio - 1)
        verdict = "ok"
        if loss > metric["bound"]:
            verdict, worse = "WORSE", worse + 1
        elif loss > 0 and abs(p3 - p1) / pm > metric["bound"]:
            verdict = "unresolved"
        won = f"{won}/{len(pairs)}" + (f" ={ties}" if ties else "")
        print(f"{workload:<15}{name:<22}{f'{pm:.6g} [{p1:.6g}..{p3:.6g}]':<40}"
              f"{f'{cm:.6g} [{c1:.6g}..{c3:.6g}]':<40}{ratio:>14.4f}{won:>7}{metric['bound']:>7}  {verdict}")
print()
print(f"{len(runs)} runs, {len(bad)} with a failed operation or check; "
      f"{worse} metric(s) worse than the parent beyond the bound")
sys.exit(1 if bad or worse else 0)
EOF
