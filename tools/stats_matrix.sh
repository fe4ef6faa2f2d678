#!/bin/sh
# Write the 84-cell `vpirsim --stats` matrix, one file per cell:
# 7 programs x base/ir/ir-late/vp/lvp-nme-nsb/hybrid x warm-up 0/150K,
# 60K committed instructions each.
#
#   tools/stats_matrix.sh <build> <outdir>
#
# The environment is passed through to every cell, so the same matrix
# can be taken with the checker or the audits armed:
#
#   VPIR_AUDIT=1 tools/stats_matrix.sh build /tmp/audit
#
# Two builds of the simulator are then compared with `diff -r`; a change
# that keeps simulated behaviour byte-identical diffs empty. A cell that
# exits non-zero keeps its output, gains an `exit <status>` line, and
# makes the script exit 1 after the whole matrix is written.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 <build> <outdir>" >&2
    exit 2
fi
sim="$1/tools/vpirsim"
out="$2"
if [ ! -x "$sim" ]; then
    echo "$0: no vpirsim in $1/tools" >&2
    exit 2
fi
mkdir -p "$out"

status=0
for prog in go m88ksim ijpeg perl vortex gcc compress; do
    for cfg in base ir ir-late vp lvp-nme-nsb hybrid; do
        case $cfg in
          lvp-nme-nsb) flags="--config lvp --reexec nme --branch nsb" ;;
          *) flags="--config $cfg" ;;
        esac
        for warm in 0 150000; do
            f="$out/$prog.$cfg.w$warm.txt"
            # shellcheck disable=SC2086 # $flags is a word list
            "$sim" $flags --warmup "$warm" --max-insts 60000 --stats \
                "$prog" >"$f" 2>/dev/null
            rc=$?
            if [ $rc -ne 0 ]; then
                echo "exit $rc" >>"$f"
                echo "$0: $prog $cfg warm-up $warm failed" >&2
                status=1
            fi
        done
    done
done
exit $status
