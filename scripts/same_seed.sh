#!/usr/bin/env bash
# Same-seed determinism smoke for one harness experiment:
#
#   scripts/same_seed.sh <exp> [required-pattern...]      e.g.  e14 '"encodes_per_broadcast": 1.000000'
#
# Runs `harness --filter <exp>` twice and requires the two
# BENCH_<EXP>.json to be byte-identical, every pattern (fixed string) to
# occur in that file, and no oracle VIOLATION in the harness output.
# Leaves harness-<exp>.txt (first run's stdout) and BENCH_<EXP>.json
# behind for the caller to upload. Extra cargo flags (e.g. --offline) go
# in CARGO_FLAGS.
set -euo pipefail

exp="${1:?usage: scripts/same_seed.sh <exp> [required-pattern...]}"
shift
cd "$(dirname "$0")/.."
json="BENCH_$(tr '[:lower:]' '[:upper:]' <<<"$exp").json"
first="$(mktemp)"
trap 'rm -f "$first"' EXIT

harness() {
    # shellcheck disable=SC2086
    cargo run --release ${CARGO_FLAGS:-} -p discover-bench --bin harness -- --filter "$exp"
}

harness | tee "harness-$exp.txt"
cp "$json" "$first"
harness >/dev/null
diff "$first" "$json"
for pattern in "$@"; do
    grep -qF -- "$pattern" "$json" || { echo "$json: missing $pattern" >&2; exit 1; }
done
if grep -q VIOLATION "harness-$exp.txt"; then
    echo "harness-$exp.txt: oracle VIOLATION" >&2
    exit 1
fi
echo "$exp: same-seed reruns byte-identical ($json)"
