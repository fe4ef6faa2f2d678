#!/bin/sh
# Performance smoke test (opt-in: ctest -C bench, test "perf_smoke").
#
# Four checks:
#
#  1. Warm-start win: BM_CellSetup with VPIR_WARM_CACHE=1 must be
#     measurably cheaper than with the cache off — the cached cell
#     skips assembly and replaces the functional warmup with a COW
#     clone, so anything short of a large win means the warm path
#     regressed.
#
#  2. Simulator throughput: simMIPS of BM_PipelineSimulation/0 must
#     not regress by more than 20% against a recorded baseline. The
#     baseline file is recorded on first run (and after deleting it),
#     so the check is always relative to the same host.
#
#  3. Event-driven scheduler win: the fig3 sweep with the simulated
#     caches disabled (VPIR_CACHE_DISABLE=1, long miss latency) is
#     stall-dominated — most cycles are idle, and the event-driven
#     core skips them while the brute-force scheduler walks the
#     window every cycle. Aggregate simMIPS of the default scheduler
#     must be >= 1.5x VPIR_SCHED_BRUTE=1 on that sweep, and the
#     per-stage profiler counters must appear in the bench_timing
#     JSON. No result cache is used: every cell simulates.
#
#  4. Audit cost: simMIPS of BM_PipelineSimulation/1 (VP) with
#     VPIR_AUDIT=1 must stay >= 0.47x the same run without it. Five
#     alternating unaudited/audited pairs; the median of the per-pair
#     ratios is checked, so host-speed drift between pairs cancels.
#     The floor sits between the ~0.58x of the one-pass audit and the
#     ~0.39x of an audit that walks the window once per invariant
#     family (both on a shared 4-vCPU Xeon VM).
#
# Usage: perf_smoke.sh <build-dir> [baseline-file]
set -u

BUILD_DIR=${1:?usage: perf_smoke.sh <build-dir> [baseline-file]}
BASELINE=${2:-$BUILD_DIR/perf_smoke_baseline.txt}
BENCH=$BUILD_DIR/bench/bench_micro

if [ ! -x "$BENCH" ]; then
    echo "perf_smoke: $BENCH not found or not executable" >&2
    exit 1
fi

# google-benchmark console output: "BM_Name  123 ns  124 ns  5000 ..."
# Field 2 is cpu-independent real time; field 3 its unit.
bench_time_ns() {
    # $1: benchmark filter regex, $2: VPIR_WARM_CACHE value
    VPIR_WARM_CACHE=$2 "$BENCH" \
        --benchmark_filter="$1" --benchmark_min_time=0.2 2>/dev/null |
        awk '$1 ~ /^BM_/ {
            t = $2; u = $3
            if (u == "us") t *= 1000
            else if (u == "ms") t *= 1000000
            else if (u == "s") t *= 1000000000
            print t; exit
        }'
}

fail=0

# ---- 1. warm vs cold cell setup ------------------------------------
cold_ns=$(bench_time_ns '^BM_CellSetup$' 0)
warm_ns=$(bench_time_ns '^BM_CellSetup$' 1)
if [ -z "$cold_ns" ] || [ -z "$warm_ns" ]; then
    echo "perf_smoke: could not parse BM_CellSetup times" >&2
    exit 1
fi
echo "perf_smoke: cell setup cold ${cold_ns}ns, warm ${warm_ns}ns"
# Require warm < 70% of cold. The warm path removes assembly and the
# functional warmup but keeps the (fixed) core-construction cost, so
# the observed ratio is well under 0.7 and shrinks further as warmup
# grows; 0.7 only trips when the warm path has stopped working.
if ! awk -v w="$warm_ns" -v c="$cold_ns" 'BEGIN{exit !(w < 0.7 * c)}'; then
    echo "perf_smoke: FAIL: warm-start setup (${warm_ns}ns) is not" \
         "measurably cheaper than cold (${cold_ns}ns)" >&2
    fail=1
fi

# ---- 2. simulator throughput vs recorded baseline ------------------
# simMIPS counter of one benchmark run; $1: filter regex, $2: env
# assignment for the run.
sim_mips() {
    env "$2" "$BENCH" --benchmark_filter="$1" \
        --benchmark_min_time=0.5 2>/dev/null |
        awk '$1 ~ /^BM_/ { if (match($0, /simMIPS=[0-9.]+[kM]?/)) {
            v = substr($0, RSTART + 8, RLENGTH - 8)
            mult = 1
            if (v ~ /k$/) { mult = 1000; sub(/k$/, "", v) }
            else if (v ~ /M$/) { mult = 1000000; sub(/M$/, "", v) }
            print v * mult; exit
        } }'
}

mips=$(sim_mips '^BM_PipelineSimulation/0$' VPIR_WARM_CACHE=1)
if [ -z "$mips" ]; then
    echo "perf_smoke: could not parse simMIPS" >&2
    exit 1
fi
if [ ! -f "$BASELINE" ]; then
    echo "$mips" > "$BASELINE"
    echo "perf_smoke: recorded simMIPS baseline $mips -> $BASELINE"
else
    base=$(cat "$BASELINE")
    echo "perf_smoke: simMIPS $mips (baseline $base)"
    if ! awk -v m="$mips" -v b="$base" 'BEGIN{exit !(m >= 0.8 * b)}'; then
        echo "perf_smoke: FAIL: simMIPS $mips regressed >20% below" \
             "baseline $base (delete $BASELINE to re-record)" >&2
        fail=1
    fi
fi

# ---- 3. event-driven scheduler vs brute-force on uncached fig3 -----
FIG3=$BUILD_DIR/bench/bench_fig3
if [ ! -x "$FIG3" ]; then
    echo "perf_smoke: $FIG3 not found or not executable" >&2
    exit 1
fi

# Aggregate MIPS of one fig3 sweep run; $1 = extra env assignment (or
# empty), $2 = bench_timing output path. VPIR_RESULT_CACHE is cleared
# so every cell actually simulates.
fig3_mips() {
    env -u VPIR_RESULT_CACHE $1 \
        VPIR_CACHE_DISABLE=1 VPIR_MISS_LATENCY=50 \
        VPIR_ROB_ENTRIES=256 VPIR_LSQ_ENTRIES=256 \
        VPIR_BENCH_INSTS=100000 VPIR_JOBS=1 VPIR_PROFILE=1 \
        VPIR_TIMING_JSON="$2" "$FIG3" >/dev/null 2>&1
    awk 'match($0, /"mips": [0-9.]+/) {
        print substr($0, RSTART + 8, RLENGTH - 8); exit
    }' "$2"
}

# Interleaved repetitions absorb scheduler noise on small shared
# hosts: the check passes as soon as one pair clears the bar.
sched_ok=0
rep=1
while [ $rep -le 3 ]; do
    fast_mips=$(fig3_mips VPIR_SCHED_BRUTE=0 \
        "$BUILD_DIR/bench_timing.perf_smoke_fast.json")
    brute_mips=$(fig3_mips VPIR_SCHED_BRUTE=1 \
        "$BUILD_DIR/bench_timing.perf_smoke_brute.json")
    if [ -z "$fast_mips" ] || [ -z "$brute_mips" ]; then
        echo "perf_smoke: could not parse fig3 aggregate MIPS" >&2
        exit 1
    fi
    echo "perf_smoke: uncached fig3 rep $rep:" \
         "event-driven ${fast_mips} MIPS, brute ${brute_mips} MIPS"
    if awk -v f="$fast_mips" -v b="$brute_mips" \
        'BEGIN{exit !(f >= 1.5 * b)}'; then
        sched_ok=1
        break
    fi
    rep=$((rep + 1))
done
if [ $sched_ok -ne 1 ]; then
    echo "perf_smoke: FAIL: event-driven scheduler (${fast_mips}" \
         "MIPS) is not >= 1.5x brute-force (${brute_mips} MIPS) on" \
         "the cache-disabled fig3 sweep" >&2
    fail=1
fi

# The per-stage profiler must land its counters in the timing JSON.
for key in issue_ns idle_skipped_cycles cycles_run; do
    if ! grep -q "\"$key\":" \
        "$BUILD_DIR/bench_timing.perf_smoke_fast.json"; then
        echo "perf_smoke: FAIL: profiler counter '$key' missing from" \
             "bench_timing JSON" >&2
        fail=1
    fi
done

# ---- 4. audit cost on the VP pipeline benchmark -------------------
ratios=""
rep=1
while [ $rep -le 5 ]; do
    plain=$(sim_mips '^BM_PipelineSimulation/1$' VPIR_AUDIT=0)
    audited=$(sim_mips '^BM_PipelineSimulation/1$' VPIR_AUDIT=1)
    if [ -z "$plain" ] || [ -z "$audited" ]; then
        echo "perf_smoke: could not parse audited/unaudited simMIPS" >&2
        exit 1
    fi
    r=$(awk -v a="$audited" -v p="$plain" 'BEGIN{printf "%.3f", a / p}')
    echo "perf_smoke: audit pair $rep: unaudited ${plain}, audited" \
         "${audited} simMIPS (ratio $r)"
    ratios="$ratios $r"
    rep=$((rep + 1))
done
audit_ratio=$(echo $ratios | tr ' ' '\n' | sort -n | sed -n 3p)
echo "perf_smoke: audit cost: median audited/unaudited ratio $audit_ratio"
if ! awk -v r="$audit_ratio" 'BEGIN{exit !(r >= 0.47)}'; then
    echo "perf_smoke: FAIL: VPIR_AUDIT=1 runs at ${audit_ratio}x the" \
         "unaudited simMIPS, below the 0.47x floor" >&2
    fail=1
fi

exit $fail
