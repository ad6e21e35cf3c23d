#!/usr/bin/env bash
# Public functions nothing calls: every `pub fn` / `pub(crate) fn` under
# crates/*/src whose name appears, as a whole word, on no line of any
# tracked .rs file but its own definition (tests, examples and
# benchmark/ count as callers).
#
#   scripts/dead_pub.sh
#
# Prints one `path:line name` row per candidate, and nothing when every
# such function is referenced. Two functions that share a name mention
# each other, so a collision can hide a dead function but never flags a
# live one. Only tracked files are read: `git add` new ones first.
set -euo pipefail
cd "$(dirname "$0")/.."

git grep -n -E '^[[:space:]]*pub(\(crate\))? +(const +|unsafe +)*fn +[A-Za-z_][A-Za-z0-9_]*' -- 'crates/*/src/*.rs' |
    while IFS=: read -r path line text; do
        name=$(sed -E 's/.*fn +([A-Za-z_][A-Za-z0-9_]*).*/\1/' <<<"$text")
        lines=$(git grep -c -w -e "$name" -- '*.rs' | awk -F: '{ n += $NF } END { print n + 0 }')
        if ((lines <= 1)); then
            echo "$path:$line $name"
        fi
    done
