#!/bin/sh
# Code lines per Rust file under <dir>: lines that are neither blank nor
# `//`-only, up to the file's first `#[cfg(test)]` that opens a `mod`.
# Any other `#[cfg(test)]` item (a one-line `use`, a braced `fn` or `impl`)
# is skipped and counting goes on after it. Prints one "<count> <file>" row
# per file and a "<sum> total" row last; with a ceiling, fails when the
# total exceeds it.
set -eu
dir=${1:?usage: code_lines.sh <dir> [ceiling]}
ceiling=${2:-}
find "$dir" -name '*.rs' | sort | while read -r f; do
    n=$(awk '
        # skip: 1 after a `#[cfg(test)]` until its item ends; depth counts
        # the item body braces still open.
        skip && depth == 0 && /^[[:space:]]*#\[/ { next }
        skip && depth == 0 && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { exit }
        skip {
            depth += gsub(/\{/, "{") - gsub(/\}/, "}")
            if (depth == 0 && /[};][[:space:]]*$/) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; next }
        !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }' "$f")
    echo "$n $f"
done | awk -v ceiling="$ceiling" '
    { print; sum += $1 }
    END {
        print sum + 0, "total"
        if (ceiling != "" && sum > ceiling) {
            print "code lines over the ceiling of", ceiling > "/dev/stderr"
            exit 1
        }
    }'
