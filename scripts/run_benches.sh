#!/bin/sh
# Runs every bench binary, writing bench_logs/<name>.log, skipping binaries
# whose log already ends with the DONE marker. Re-run until all complete.
#
# Benchmarks only mean anything from an optimized build, so this script
# refuses to run against a tree configured with any CMAKE_BUILD_TYPE other
# than Release (and configures one itself if the tree doesn't exist yet).
#
# --json: instead of the full sweep, runs the micro-benchmarks that track
# the perf work (micro_nn, micro_train, micro_parallel, micro_serving,
# micro_quant, micro_storage) plus the serve_bench closed-loop load
# generator, and distills the key metrics into the next free
# bench_logs/BENCH_<n>.json (one past the highest n present; earlier
# snapshots are kept as history). Ends with two
# greppable gate lines: STORAGE_BENCH_OK with the storage-engine headline
# numbers (index-vs-seq speedup, hit rate, paging rate) and WAL_BENCH_OK
# with the durability numbers (insert overhead of the default group-commit
# setting vs wal-off, gated at <= 25%, plus recovery replay rates).
set -u

BUILD_DIR="${BUILD_DIR:-build}"

# Fail loudly on a non-Release tree instead of silently producing numbers
# from an unoptimized binary.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "configuring $BUILD_DIR (Release)..."
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null || {
    echo "ERROR: cmake configure failed" >&2
    exit 1
  }
fi
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
  echo "ERROR: $BUILD_DIR is configured as '${build_type:-<unset>}', not Release." >&2
  echo "Benchmark numbers from non-Release builds are meaningless." >&2
  echo "Reconfigure with: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
echo "building $BUILD_DIR (Release)..."
cmake --build "$BUILD_DIR" -j >/dev/null || {
  echo "ERROR: build failed" >&2
  exit 1
}

if [ "${1:-}" = "--json" ]; then
  mkdir -p bench_logs
  last=$(ls bench_logs | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' |
    sort -n | tail -1)
  out="bench_logs/BENCH_$((${last:-0} + 1)).json"
  for b in micro_nn micro_train micro_parallel micro_serving micro_quant \
      micro_storage; do
    bin="$BUILD_DIR/bench/$b"
    if [ ! -x "$bin" ]; then
      echo "missing $bin (build first)" >&2
      exit 1
    fi
    echo "running $b (json)..."
    "$bin" --benchmark_out="bench_logs/$b.json" \
      --benchmark_out_format=json >/dev/null 2>&1 || exit 1
  done
  # Closed-loop load through the full serving front end: three arrival
  # rates (0 = unpaced max) x {fp32, int8} at --max-batch 16, plus a
  # per-query (max_batch = 1) baseline at the highest-concurrency point per
  # tier.
  echo "running serve_bench (json)..."
  "$BUILD_DIR/tools/serve_bench" --duration-s 1.5 --warmup-s 1.0 \
    --max-batch 16 --json bench_logs/serve_bench.json >/dev/null 2>&1 \
    || exit 1
  python3 scripts/summarize_benches.py \
    bench_logs/micro_nn.json bench_logs/micro_train.json \
    bench_logs/micro_parallel.json bench_logs/micro_serving.json \
    bench_logs/micro_quant.json bench_logs/micro_storage.json \
    bench_logs/serve_bench.json \
    > "$out" || exit 1
  rm -f bench_logs/micro_nn.json bench_logs/micro_train.json \
    bench_logs/micro_parallel.json bench_logs/micro_serving.json \
    bench_logs/micro_quant.json bench_logs/micro_storage.json \
    bench_logs/serve_bench.json
  echo "wrote $out"
  python3 - "$out" <<'EOF' || exit 1
import json
import sys
d = json.load(open(sys.argv[1]))["derived"]
speedup = d.get("index_vs_seq_speedup_1pct", 0.0)
ok = speedup >= 10.0
print(
    f"STORAGE_BENCH_{'OK' if ok else 'FAIL'}"
    f" index_vs_seq_1pct={speedup}x"
    f" index_vs_seq_0p1pct={d.get('index_vs_seq_speedup_0p1pct', 0.0)}x"
    f" scan_pool_ratio={d.get('scan_gt_pool_ratio', 0.0)}"
    f" scan_hit_rate={d.get('scan_gt_pool_hit_rate', 0.0)}"
    f" scan_pages_per_s={d.get('scan_gt_pool_pages_per_s', 0.0)}"
    f" labeling_mem_vs_disk={d.get('labeling_mem_vs_disk', 0.0)}x"
)
overhead = d.get("wal_insert_overhead_pct")
wal_ok = overhead is not None and overhead <= 25.0
print(
    f"WAL_BENCH_{'OK' if wal_ok else 'FAIL'}"
    f" wal_insert_overhead_pct={overhead}"
    f" wal_off_rows_per_s={d.get('wal_off_insert_rows_per_s', 0.0)}"
    f" wal_fsync64_rows_per_s={d.get('wal_insert_fsync64_rows_per_s', 0.0)}"
    f" wal_fsync1_rows_per_s={d.get('wal_insert_fsync1_rows_per_s', 0.0)}"
    f" recovery_rows_per_s={d.get('wal_recovery_20000_rows_per_s', 0.0)}"
)
raise SystemExit(0 if ok and wal_ok else 1)
EOF
  exit 0
fi

mkdir -p bench_logs
for b in "$BUILD_DIR"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  log="bench_logs/$name.log"
  if [ -f "$log" ] && tail -1 "$log" | grep -q "^__DONE__"; then
    continue
  fi
  echo "running $name..."
  "$b" > "$log" 2>&1
  rc=$?
  echo "__DONE__ rc=$rc" >> "$log"
done
echo "ALL_BENCHES_COMPLETE"
