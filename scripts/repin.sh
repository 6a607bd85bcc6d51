#!/usr/bin/env bash
# The one re-pin command. After an intentional model change, rewrite every
# bit-exact pin from a fresh run and report what moved:
#
#   scripts/repin.sh
#
# It runs the workspace's tests, and simbench's pinned driver reps, under
# BLESS=1: every golden file under tests/golden/ (bench::perfgate's
# check_golden) and every baseline under bench_results/ (check_baseline)
# is rewritten instead of compared, and each prints one `moved-pins` line.
# The report ends the output: per file, the lines or leaves that moved out
# of its total, the lines whose text alone changed (every decimal and hex
# word kept), those added and removed (golden lines are paired by their
# [cell] and leading words, not by position; a JSON array whose length
# changed is aligned by its longest common subsequence of identical
# elements), the first that differs, and the max and median relative
# change of the decimal numbers that moved. Review `git diff` before
# committing. A test that fails for any other reason fails the command.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
log=$(mktemp)
trap 'rm -f "$log"' EXIT
status=0
run() {
    echo "+ BLESS=1 $*" >&2
    BLESS=1 "$@" >>"$log" 2>&1 || status=1
}
run cargo test --workspace --no-fail-fast -- --nocapture
run cargo test --test simbench_pins -- --ignored --nocapture
if [ "$status" -ne 0 ]; then
    # Compile errors, then each test binary's failures section.
    grep -A8 '^error' "$log" >&2 || true
    awk '/^failures:$/, /^test result:/' "$log" >&2
    echo "repin: a test failed (above); the pins below were still rewritten" >&2
fi
pins=$(grep -o 'moved-pins .*' "$log" | sed "s#$PWD/##" | sort -u)
echo "== moved pins"
sed 's/^moved-pins //' <<<"$pins"
awk 'function count(what,    at) {
         at = match(head, "[0-9]+ " what)
         return at ? substr(head, RSTART, RLENGTH) + 0 : 0
     }
     NF { split($3, n, "/"); moved += n[1]; files++
          head = $0; sub(/;.*/, "", head)
          text += count("text only"); added += count("added"); removed += count("removed") }
     END { printf "%d moved pins, %d text only, %d added, %d removed in %d files\n",
                  moved, text, added, removed, files }' <<<"$pins"
exit "$status"
