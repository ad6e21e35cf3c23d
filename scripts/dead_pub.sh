#!/usr/bin/env bash
# Public functions nothing calls, metric names nothing uses and public
# fields nothing reads: every `pub fn` / `pub(crate) fn` under
# crates/*/src, and every constant of the `metric_names!` list
# (`NAME: CounterDef = "key";`), whose name appears, as a whole word, on
# no line of any tracked .rs file but its own definition (tests,
# examples and benchmark/ count as users); and every `pub` field of a
# module-level struct under crates/*/src outside test code (the lines
# `scripts/loc.sh` counts) that no tracked .rs line reads as `.field` (a
# field only written, or read only by destructuring). A struct declared
# inside a macro, such as the wire messages of `dbp!`, is not
# module-level: the macro reads its fields.
#
#   scripts/dead_pub.sh
#
# Prints one `path:line name` row per candidate, and nothing when every
# such function, metric name and field is referenced. Two items that
# share a name mention each other, so a collision can hide a dead one
# but never flags a live one. Only tracked files are read: `git add` new
# ones first.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reads `path:line:text` rows, takes the name out of `text` with the
# sed expression $1, and prints the rows whose name has no other line.
unmentioned() {
    while IFS=: read -r path line text; do
        name=$(sed -E "$1" <<<"$text")
        lines=$(git grep -c -w -e "$name" -- '*.rs' | awk -F: '{ n += $NF } END { print n + 0 }')
        if ((lines <= 1)); then
            echo "$path:$line $name"
        fi
    done
}

git grep -n -E '^[[:space:]]*pub(\(crate\))? +(const +|unsafe +)*fn +[A-Za-z_][A-Za-z0-9_]*' -- 'crates/*/src/*.rs' |
    unmentioned 's/.*fn +([A-Za-z_][A-Za-z0-9_]*).*/\1/'
git grep -n -E '^[[:space:]]*[A-Z][A-Z0-9_]*: (CounterDef|GaugeDef|TimerDef) = "' -- 'crates/*/src/*.rs' |
    unmentioned 's/^[[:space:]]*([A-Z][A-Z0-9_]*):.*/\1/'

# Reads `path:line:field` rows and prints the rows whose field no line
# reads as `.field`.
unread() {
    while IFS=: read -r path line name; do
        if ! git grep -q -E "\.$name([^A-Za-z0-9_]|$)" -- '*.rs'; then
            echo "$path:$line $name"
        fi
    done
}

scripts/loc.sh --files | awk 'NF == 2 && $1 ~ /\.rs$/ && $2 > 0 { print $1, $2 }' |
    while read -r path lines; do
        git ls-files --error-unmatch -- "$path" >/dev/null 2>&1 || continue
        awk -v lines="$lines" 'FNR > lines { exit }
            /^(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+.*\{$/ { fields = 1; next }
            /^}/ { fields = 0 }
            fields && /^    pub +[a-z_][a-z0-9_]*:/ {
                name = $0
                sub(/^ +pub +/, "", name)
                sub(/:.*/, "", name)
                print FILENAME ":" FNR ":" name
            }' "$path"
    done | unread
