#!/bin/sh
# Context switches per thread-name prefix of process <pid> over <secs>
# seconds, from /proc/<pid>/task/*/status: voluntary (blocked) and
# involuntary (preempted) deltas, their total and its share. A thread's
# prefix is its name with a trailing "-<n>" dropped, so "hermes-lane-0" and
# "hermes-lane-1" add up under "hermes-lane"; unnamed threads carry the
# process's name. A thread born during the interval counts from zero, one
# that exits before the second reading is missed.
set -eu
usage="usage: thread_switches.sh <pid> <secs>"
pid=${1:?$usage}
secs=${2:?$usage}
snapshot() {
    for task in /proc/"$pid"/task/*; do
        name=$(tr ' ' _ < "$task/comm" 2>/dev/null) || continue
        awk -v tag="$1" -v tid="${task##*/}" -v name="$name" '
            /^voluntary_ctxt_switches/ { v = $2 }
            /^nonvoluntary_ctxt_switches/ { n = $2 }
            END { if (v != "") print tag, tid, name, v, n }' "$task/status" 2>/dev/null || true
    done
}
before=$(snapshot B)
sleep "$secs"
after=$(snapshot A)
printf '%s\n%s\n' "$before" "$after" | awk '
    $1 == "B" { v0[$2] = $4; n0[$2] = $5; next }
    $1 == "A" {
        prefix = $3
        sub(/-[0-9]+$/, "", prefix)
        threads[prefix]++
        vol[prefix] += $4 - v0[$2]
        inv[prefix] += $5 - n0[$2]
        total += $4 - v0[$2] + $5 - n0[$2]
    }
    END {
        printf "%-20s %7s %12s %12s %12s %6s\n", "prefix", "threads", "voluntary", "involuntary", "total", "share"
        for (p in threads) {
            sum = vol[p] + inv[p]
            printf "%-20s %7d %12d %12d %12d %5.1f%%\n", p, threads[p], vol[p], inv[p], sum, total ? 100 * sum / total : 0
        }
        printf "%-20s %7s %12s %12s %12d\n", "all", "", "", "", total
    }'
