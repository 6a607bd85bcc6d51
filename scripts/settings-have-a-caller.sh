#!/usr/bin/env bash
# CI lint "Settings have a caller": every `pub` field of a `pub struct
# *Config` under crates/*/src must be assigned somewhere in non-test code
# outside its struct's own `Default` impl, or carry `// setting: <why>` on
# its declaration line. A value no caller varies is a named constant of the
# module that reads it, not a setting.
#
#   scripts/settings-have-a-caller.sh [repo-root]
#
# An assignment is `field:` in a struct literal, or `.field =` (also `*=`,
# `+=`, `-=`, `/=`). Non-test code is everything before a file's first
# `#[cfg(test)]` in crates/*/src, src/ and benchmark/src. Fields are matched
# by name, so a field shares a caller with any other of its name: the lint
# is exact for names that are unique in the workspace.
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
code=$(mktemp)
rest=$(mktemp)
trap 'rm -f "$code" "$rest"' EXIT
# `path:line:text` of every non-test line.
git ls-files -- 'crates/*/src/*.rs' 'src/*.rs' 'benchmark/src/*.rs' |
    xargs awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 }
               !test { print FILENAME ":" FNR ":" $0 }' >"$code"
# `struct field path:line` of every pub field of a pub *Config struct that
# has no `// setting:` note.
fields=$(awk -F: '
    $1 ~ /^crates\/[^\/]+\/src\// {
        text = substr($0, length($1) + length($2) + 3)
        if (match(text, /^pub struct [A-Za-z0-9_]*Config[ <{]/)) {
            name = text; sub(/^pub struct /, "", name); sub(/[ <{].*/, "", name)
            inside = 1; next
        }
        if (inside && text ~ /^}/) { inside = 0; next }
        if (inside && text ~ /^    pub [a-z_0-9]+:/ && text !~ /\/\/ setting:/) {
            field = text; sub(/^    pub /, "", field); sub(/:.*/, "", field)
            print name, field, $1 ":" $2
        }
    }' "$code")
bad=0
while read -r name field at; do
    [ -n "$name" ] || continue
    # Drop the struct's own Default impl and every field declaration, then
    # look for an assignment.
    awk -F: -v head="impl Default for $name {" '
        { text = substr($0, length($1) + length($2) + 3) }
        text == head { skip = 1 }
        !skip { print }
        skip && text == "}" { skip = 0 }' "$code" |
        grep -vE ":[[:space:]]*pub(\([a-z]+\))? $field:" >"$rest" || true
    if grep -qE "([^A-Za-z0-9_]$field: |\.$field *[-+*/]?=([^=]|$))" "$rest"; then
        continue
    fi
    echo "$at: $name::$field is set by nothing but its Default impl"
    bad=1
done <<<"$fields"
if [ "$bad" -ne 0 ]; then
    echo "Make each a named constant of the module that reads it, or mark its"
    echo "declaration line with '// setting: <why it stays a field>'."
    exit 1
fi
