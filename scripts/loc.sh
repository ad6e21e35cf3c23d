#!/usr/bin/env bash
# Non-test lines under crates/*/src: for every .rs file the lines above
# its first `#[cfg(test)]` (the whole file when it has none), per file,
# per crate and in total. This is the figure the simplicity PRs are
# judged by; run it at two commits and subtract.
#
#   scripts/loc.sh [--files] [ROOT]
#
# Prints one `crate lines` row per crate and a `total` row; `--files`
# adds one `path lines` row per file above its crate. ROOT defaults to
# the repository this script lives in, so a `git archive` export of
# another commit can be measured with `scripts/loc.sh /path/to/export`.
set -euo pipefail

files=0
if [[ "${1:-}" == "--files" ]]; then
    files=1
    shift
fi
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for crate in crates/*/; do
    [[ -d "${crate}src" ]] || continue
    sum=0
    while IFS= read -r f; do
        # Line number of the first `#[cfg(test)]`, or the file's length + 1.
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { print NR - 1; found = 1; exit } END { if (!found) print NR }' "$f")
        if (( files )); then
            printf '  %-52s %6d\n' "$f" "$n"
        fi
        sum=$((sum + n))
    done < <(find "${crate}src" -name '*.rs' | sort)
    printf '%-54s %6d\n' "$(basename "$crate")" "$sum"
    total=$((total + sum))
done
printf '%-54s %6d\n' total "$total"
