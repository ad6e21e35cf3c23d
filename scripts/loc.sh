#!/usr/bin/env bash
# Non-test lines under crates/*/src: for every .rs file the lines above
# its first `#[cfg(test)]` (the whole file when it has none), and none
# at all for a file that is itself a test module — its parent declares
# it under `#[cfg(test)] mod x;` — per file, per crate and in total.
# This is the figure the simplicity PRs are judged by; run it at two
# commits and subtract.
#
#   scripts/loc.sh [--files] [ROOT]
#
# Prints one `crate lines` row per crate and a `total` row, then the
# total under the rule before test modules were recognised (each counted
# like any other file) as `total-old-rule`, then the vendored stand-ins'
# non-test lines under vendor/*/src as `vendor`; `--files` adds one
# `path lines` row per file above its crate. ROOT defaults to the repository
# this script lives in, so a `git archive` export of another commit can
# be measured with `scripts/loc.sh /path/to/export`.
set -euo pipefail

files=0
if [[ "${1:-}" == "--files" ]]; then
    files=1
    shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# True if the parent of module file $1 declares it under `#[cfg(test)]`:
# `src/x.rs` is declared by `src/lib.rs` or `src/main.rs`, `d/x.rs` and
# `d/x/mod.rs` by `d.rs` or `d/mod.rs`.
test_module() {
    local f=$1 dir name parent
    dir=$(dirname "$f")
    name=$(basename "$f" .rs)
    if [[ $name == mod ]]; then
        name=$(basename "$dir")
        dir=$(dirname "$dir")
    fi
    for parent in "$dir.rs" "$dir/mod.rs" "$dir/lib.rs" "$dir/main.rs"; do
        [[ -f $parent && $parent != "$f" ]] || continue
        # The `mod x;` must be the item the attribute applies to: only
        # attributes, comments and blank lines may stand between them.
        awk -v name="$name" '
            /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1 }
            armed && $0 ~ "(^|[[:space:]]|\\])mod[[:space:]]+" name "[[:space:]]*;" { found = 1; exit }
            armed && !/^[[:space:]]*(#\[|\/\/|$)/ { armed = 0 }
            END { exit !found }' "$parent" && return 0
    done
    return 1
}

# Lines of file $1 above its first `#[cfg(test)]`, or all of them.
code_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$1"
}

total=0
old_total=0
for crate in crates/*/; do
    [[ -d "${crate}src" ]] || continue
    sum=0
    while IFS= read -r f; do
        n=$(code_lines "$f")
        old_total=$((old_total + n))
        if test_module "$f"; then
            n=0
        fi
        if (( files )); then
            printf '  %-52s %6d\n' "$f" "$n"
        fi
        sum=$((sum + n))
    done < <(find "${crate}src" -name '*.rs' | sort)
    printf '%-54s %6d\n' "$(basename "$crate")" "$sum"
    total=$((total + sum))
done
printf '%-54s %6d\n' total "$total"
printf '%-54s %6d\n' total-old-rule "$old_total"
vendor=0
while IFS= read -r f; do
    vendor=$((vendor + $(code_lines "$f")))
done < <(find vendor/*/src -name '*.rs' | sort)
printf '%-54s %6d\n' vendor "$vendor"
