#!/usr/bin/env bash
# Public functions nothing calls, metric names nothing uses and public
# fields nothing reads, counting only uses outside the test code of
# crates/*/src (the lines `scripts/loc.sh` does not count: a file's lines
# from its first `#[cfg(test)]` on, and all of a test module's file).
# Integration tests, examples, src/ and benchmark/ count as users. Listed
# are every `pub fn` / `pub(crate) fn` in that non-test code, and every
# constant of the `metric_names!` list (`NAME: CounterDef = "key";`),
# whose name appears, as a whole word, on no counted line but its own
# definition; and every `pub` field of a module-level struct in it that no
# counted line reads as `.field` (a field only written, or read only by
# destructuring). A struct declared inside a macro, such as the wire
# messages of `dbp!`, is not module-level: the macro reads its fields.
#
#   scripts/dead_pub.sh
#
# Prints one `path:line name` row per candidate, and nothing when every
# such function, metric name and field is used. Two items that share a
# name mention each other, so a collision can hide a dead one but never
# flags a live one. Only tracked files are read: `git add` new ones first.
set -euo pipefail
cd "$(dirname "$0")/.."

# The counted lines of every tracked .rs file: `$index` as `path:line:text`,
# `$text` as the text alone (so a path never reads as a mention).
limits=$(mktemp)
index=$(mktemp)
text=$(mktemp)
trap 'rm -f "$limits" "$index" "$text"' EXIT
scripts/loc.sh --files | awk '$1 ~ /[.]rs$/ { print $1, $2 }' >"$limits"
git ls-files -z -- '*.rs' | xargs -0 awk -v limits="$limits" '
    BEGIN { while ((getline row < limits) > 0) { split(row, f, " "); n[f[1]] = f[2] } }
    FNR == 1 { limit = (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME in n) ? n[FILENAME] : -1 }
    limit < 0 || FNR <= limit { print FILENAME ":" FNR ":" $0 }' >"$index"
cut -d: -f3- "$index" >"$text"

# Reads `path:line:text` rows, takes the name out of `text` with the
# sed expression $1, and prints the rows whose name has no other line.
unmentioned() {
    while IFS=: read -r path line code; do
        name=$(sed -E "$1" <<<"$code")
        if (($(grep -c -w -e "$name" "$text") <= 1)); then
            echo "$path:$line $name"
        fi
    done
}

grep -E '^crates/[^:]*/src/[^:]*:[0-9]+:[[:space:]]*pub(\(crate\))? +(const +|unsafe +)*fn +[A-Za-z_][A-Za-z0-9_]*' "$index" |
    unmentioned 's/.*fn +([A-Za-z_][A-Za-z0-9_]*).*/\1/'
grep -E '^crates/[^:]*/src/[^:]*:[0-9]+:[[:space:]]*[A-Z][A-Z0-9_]*: (CounterDef|GaugeDef|TimerDef) = "' "$index" |
    unmentioned 's/^[[:space:]]*([A-Z][A-Z0-9_]*):.*/\1/'

# Reads `path:line:field` rows and prints the rows whose field no line
# reads as `.field`.
unread() {
    while IFS=: read -r path line name; do
        if ! grep -q -E "\.$name([^A-Za-z0-9_]|$)" "$text"; then
            echo "$path:$line $name"
        fi
    done
}

grep -E '^crates/[^:]*/src/' "$index" | awk -F: '
    { path = $1; line = $2; code = substr($0, length(path) + length(line) + 3) }
    path != last { fields = 0; last = path }
    code ~ /^(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+.*\{$/ { fields = 1; next }
    code ~ /^}/ { fields = 0 }
    fields && code ~ /^    pub +[a-z_][a-z0-9_]*:/ {
        name = code
        sub(/^ +pub +/, "", name)
        sub(/:.*/, "", name)
        print path ":" line ":" name
    }' | unread
