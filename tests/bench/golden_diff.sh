#!/bin/sh
# Golden-stdout check for one experiment harness: run it and diff its
# stdout against the recorded table. Fails on any difference or on a
# non-zero exit (a failed sweep cell). The caller sets the budget
# (VPIR_BENCH_INSTS=5000 for the committed goldens).
#
# Usage: golden_diff.sh <bench-binary> <golden-file>
set -u

BIN=${1:?usage: golden_diff.sh <bench-binary> <golden-file>}
GOLDEN=${2:?usage: golden_diff.sh <bench-binary> <golden-file>}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

if ! "$BIN" > "$OUT"; then
    echo "golden_diff: $BIN exited non-zero" >&2
    exit 1
fi
diff -u "$GOLDEN" "$OUT"
