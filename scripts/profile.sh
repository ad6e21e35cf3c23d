#!/usr/bin/env bash
# Where the wall-clock benchmark's CPU goes, by function: a SIGPROF
# sample of one run of one workload.
#
#   scripts/profile.sh WORKLOAD [SECONDS] [SEED]     (defaults: 12 s, seed 1)
#
# Exports the checkout (tracked edits included, plus the untracked files
# git does not ignore) with `git archive` into D/src, D being
# $PROFILE_DIR or target/frame-pointers, so benchmark/Cargo.lock is never
# rewritten. Builds the benchmark there with `-C force-frame-pointers=yes`
# into D's own target directory, compiles scripts/sigprof.c into a
# preloadable sampler and runs the workload (`--trace 0`, as the A/B
# script does) under LD_PRELOAD, one sample per SIGPROF_US (default 1000)
# microseconds of CPU. Prints two tables of the TOP (default 25)
# functions, resolved with nm: self (the sampled function) and inclusive
# (anywhere on the stack, once per sample), and with FOCUS set to a
# function's name as printed, a third: who called it, per sample that
# holds it. Frames outside the benchmark binary are named by their
# library. The whole run is sampled, set-up and the machine-speed
# calibration included; the kernel may round SIGPROF_US up to its tick.
# Needs cc, nm and awk; gates nothing.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload=$1
seconds=${2:-12}
seed=${3:-1}
top=${TOP:-25}
focus=${FOCUS:-}

root=$(git rev-parse --show-toplevel)
dir=${PROFILE_DIR:-$root/target/frame-pointers}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd -P)

change=$(git -C "$root" stash create)
change=${change:-$(git -C "$root" rev-parse HEAD)}
rm -rf "$dir/src"
mkdir -p "$dir/src"
git -C "$root" archive "$change" | tar -x -C "$dir/src"
git -C "$root" ls-files -z --others --exclude-standard | tar -c -C "$root" --null -T - | tar -x -C "$dir/src"

cc -O2 -shared -fPIC -o "$dir/sigprof.so" "$root/scripts/sigprof.c"
echo "building the benchmark with frame pointers ..." >&2
CARGO_TARGET_DIR=$dir/target RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --quiet --manifest-path "$dir/src/benchmark/Cargo.toml"
bin=$dir/target/release/wallbench

(cd "$dir/src" && LD_PRELOAD=$dir/sigprof.so SIGPROF_OUT=$dir/samples.txt \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)

# nm's symbols (address order), then the samples; frames above the
# innermost are return addresses, so each is looked up one byte earlier.
# A position-independent binary (ELF type 3) has its symbols relative to
# where its first page is mapped.
pie=$(od -An -tu2 -j16 -N2 "$bin" | tr -d ' ')
nm -n -C --defined-only "$bin" | awk -v bin="$bin" -v pie="$((pie == 3))" -v top="$top" -v focus="$focus" '
function hex(s,    n, i) {
    n = 0
    for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return n
}
function name_of(a,    lo, hi, mid, m) {
    for (m = 1; m <= nmaps; m++) {
        if (a >= mstart[m] && a < mend[m]) break
    }
    if (m > nmaps) return "[unknown]"
    if (mpath[m] != bin) return "[" mlib[m] "]"
    if (pie) a -= base
    lo = 1; hi = nsyms
    if (hi == 0 || a < addr[1]) return "[unknown]"
    while (lo < hi) {
        mid = int((lo + hi + 1) / 2)
        if (addr[mid] <= a) lo = mid; else hi = mid - 1
    }
    return sym[lo]
}
FNR == NR {
    if ($2 !~ /^[tTwW]$/) next
    name = $0
    sub(/^[0-9a-f]+ [^ ]+ /, "", name)
    sub(/::h[0-9a-f]+$/, "", name)
    addr[++nsyms] = hex($1); sym[nsyms] = name
    next
}
$1 == "map" && $7 == bin && $4 ~ /^0+$/ && base == "" {
    split($2, range, "-")
    base = hex(range[1])
}
$1 == "map" && $3 ~ /x/ {
    split($2, range, "-")
    mstart[++nmaps] = hex(range[1]); mend[nmaps] = hex(range[2])
    mpath[nmaps] = $7; mlib[nmaps] = $7; sub(/.*\//, "", mlib[nmaps])
    next
}
$1 == "s" {
    samples++
    delete seen
    caller = ""
    for (f = 2; f <= NF; f++) {
        name = name_of(hex($f) - (f > 2))
        if (f == 2) self[name]++
        if (!(name in seen)) { seen[name] = 1; incl[name]++ }
        if (caller == "held" && name != focus) caller = name
        if (caller == "" && name == focus) caller = "held"
    }
    if (caller == "held") caller = "[outermost]"
    if (caller != "") callers[caller]++
}
END {
    printf "%d samples\n", samples
    table("self", self)
    table("inclusive", incl)
    if (focus != "") table("callers of " focus, callers)
}
function table(title, count,    name, n, i, j, keys, t) {
    printf "\n%s\n", title
    n = 0
    for (name in count) keys[++n] = name
    for (i = 2; i <= n; i++) {
        t = keys[i]
        for (j = i - 1; j >= 1 && count[keys[j]] < count[t]; j--) keys[j + 1] = keys[j]
        keys[j + 1] = t
    }
    for (i = 1; i <= n && i <= top; i++)
        printf "%6.1f%% %7d  %s\n", 100 * count[keys[i]] / samples, count[keys[i]], substr(keys[i], 1, 160)
}' - "$dir/samples.txt"
