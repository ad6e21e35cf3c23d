#!/usr/bin/env bash
# Public functions nothing calls and metric names nothing uses: every
# `pub fn` / `pub(crate) fn` under crates/*/src, and every constant of
# the `metric_names!` list (`NAME: CounterDef = "key";`), whose name
# appears, as a whole word, on no line of any tracked .rs file but its
# own definition (tests, examples and benchmark/ count as users).
#
#   scripts/dead_pub.sh
#
# Prints one `path:line name` row per candidate, and nothing when every
# such function and metric name is referenced. Two items that share a
# name mention each other, so a collision can hide a dead one but never
# flags a live one. Only tracked files are read: `git add` new ones
# first.
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
