#!/bin/sh
# Code lines per Rust file under <dir>: lines before the file's first
# `#[cfg(test)]` that are neither blank nor `//`-only. Prints one
# "<count> <file>" row per file and a "<sum> total" row last; with a
# ceiling, fails when the total exceeds it.
set -eu
dir=${1:?usage: code_lines.sh <dir> [ceiling]}
ceiling=${2:-}
find "$dir" -name '*.rs' | sort | while read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
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
