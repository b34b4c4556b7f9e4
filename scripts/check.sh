#!/usr/bin/env bash
# Full check: regular build + all tests, the plan-IR suite (EXPLAIN
# goldens for the full catalog plus the pass on/off divergence gate), the
# query-service smoke run (every catalog query byte-identical through the
# service, cold / hot / 32 concurrent sessions), the materialization-store
# gates (cold publish then a cross-process warm restart that must answer
# >= 29/31 catalog queries from the store with zero MapReduce jobs; a
# mutate-heavy bench appending to BENCH_store.json that must show >= 10x
# incremental-maintenance advantage; and, under ASan, a corruption
# injection that bit-flips and truncates artifacts and requires typed
# quarantine plus clean recompute), the 200-seed differential fuzz corpus
# plus its service mode, a 100-seed OPTIONAL/UNION-biased corpus
# (--grammar=opt-union, repeated under ASan), a guard that regenerating
# the golden fixtures reproduces the committed files byte-for-byte, a
# perf smoke that replays Fig. 8(a) and Fig. 8(b) at 8 threads and diffs
# their deterministic per-query aggregates against committed goldens, an
# AddressSanitizer run of the fuzz smoke (unsharded and at 4 shards), the
# EXPLAIN and result goldens (every catalog query on all four engines, so
# every plan node's exec closure runs under ASan), the OPTIONAL/UNION
# semantics matrix, the plan-IR suite (the per-node cycle gate, NTGA
# execs that follow the plan, not the options), and the pass-toggle and
# property suites (the greedy α-join order and sequential Agg-Joins
# through all four engines, over chain state several execs share), an
# UndefinedBehaviorSanitizer run of the record
# plane's suites and a 50-seed fuzz corpus, and a ThreadSanitizer build
# running the concurrency-sensitive suites (the parallel MapReduce
# runtime — including the ValueSpan reduce-mode matrix in mapreduce_test
# — the operator identity matrix in kernels_test over threads x combine x
# shards, the engines on top of it, the per-task placement booking in
# shard_test — across shards {1,2,4,8} x threads {1,8} — and the
# 32-session service stress).
# The term store (rdf_test: arena-backed dictionary, TermView lifetime
# across growth and moves, 8 writer threads interning overlapping terms
# while readers call Get/Lookup/AsNumber) runs under all three sanitizers:
# ASan, UBSan and TSan. The relational operators' row reader hands out
# views into group payloads, so factorize_test and relational_ops_test run
# under ASan and UBSan. Result tables are one flat cell array shared by
# their copies until one writes, and callers read rows as spans into it:
# binding_test and reference_evaluator_test run under ASan and UBSan, and
# binding_test (8 threads copying one shared table and writing their own
# copies) under TSan. The shuffle is a sort-merge whose reduce reads views
# into the map tasks' sorted runs, which must outlive every key range:
# mapreduce_test (the merge's edge-case matrix) and shard_test run under
# ASan as well as UBSan and TSan. One aggregation fold serves every
# engine's GROUP BY and TG Agg-Join and reads those views too:
# engines_test runs under ASan and UBSan, and kernels_test (every
# operator over threads x combine x shards) under ASan as well. A Dfs
# file at rest is its records packed with varint lengths, read back
# through one decoder's raw pointer and varint arithmetic: mapreduce_test
# (every varint width, every range seek) and dataset_test (the VP and
# triplegroup layouts, written packed and read back) run under ASan and
# UBSan.
# The sharded data plane (hash-by-subject placement) adds its own gates:
# a sharded pass over the fuzz corpus (every engine at 4 shards,
# cross-checked against the unsharded baseline), a sharded serve smoke
# run three times that must report one shard_output_bytes split
# (placement never depends on thread timing), and a perf smoke running
# bench_shard (BENCH_shard.json must show byte-identical results at every
# shard count and >= 3x speedup at 8 shards on fig8a).
# The factorized-intermediates path adds: a 100-seed multi-valued-star
# corpus (--grammar=multival, repeated with --no-factorize to pin the
# flat fallback), and a perf smoke running bench_factorize twice (plain
# and TSan builds; the binary exits nonzero on any flat/factorized result
# mismatch) whose BENCH_factorize.json must show, on every mg-pubmed row,
# factorization_factor > 1, factorized materialized bytes strictly below
# flat, factorized shuffle never above flat — and strictly below wherever
# the factor reaches 2x, i.e. where the d-representation survives into
# the shuffle instead of being flattened by partial decompression.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "== regular build + ctest =="
cmake -B build -S . > /dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== plan IR: EXPLAIN goldens + pass on/off divergence gate =="
ctest --test-dir build -L plan --output-on-failure -j "$JOBS"

echo "== query service smoke (catalog equivalence, cold/hot/32 sessions) =="
./build/examples/rapida_serve --smoke

echo "== query service smoke, sharded data plane (4 shards, 3 runs) =="
# Per-shard output bytes follow from the data alone, never from which
# task a thread finished first: three runs must report one split.
SPLITS="$SCRATCH/serve-splits.txt"
for RUN in 1 2 3; do
  ./build/examples/rapida_serve --smoke --shards=4 > "$SCRATCH/serve-shard.txt"
  tail -1 "$SCRATCH/serve-shard.txt"
  grep -o '"shard_output_bytes":\[[0-9,]*\]' "$SCRATCH/serve-shard.txt" \
      >> "$SPLITS"
done
if [ "$(sort -u "$SPLITS" | wc -l)" -ne 1 ]; then
  echo "sharded serve smoke FAILED: the shard_output_bytes split differs" \
       "across 3 runs:" >&2
  sort "$SPLITS" | uniq -c >&2
  exit 1
fi

echo "== materialization store: cold publish -> cross-process warm restart =="
STORE_DIR="$SCRATCH/store"
# Cold run: publishes every catalog result as an artifact, then proves an
# in-process warm restart and the IVM mutate check byte-identical.
./build/examples/rapida_serve --smoke --store "$STORE_DIR"
# Second process over the same directory: >= 29/31 catalog queries must be
# answered from the store (byte-identical, zero MapReduce jobs).
./build/examples/rapida_serve --smoke --store "$STORE_DIR" --expect-warm

echo "== store bench: incremental maintenance vs full recompute =="
./build/examples/rapida_serve --bench-store --out BENCH_store.json
tail -1 BENCH_store.json | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
s, p = r["speedup"], r["artifacts_patched"]
assert s >= 10, "IVM speedup %sx < 10x" % s
assert p > 0, "no artifacts were patched"
print("store bench OK: %sx, %s patched" % (s, p))
'

echo "== differential fuzz corpus (200 seeds, 4 engines x 2 thread cfgs) =="
ctest --test-dir build -C fuzz -R rapida_fuzz_corpus --output-on-failure

echo "== differential fuzz corpus, sharded data plane (4 shards) =="
# Every engine additionally runs at 4 shards; each sharded run must match
# the reference result AND the unsharded baseline's cycle count and total
# shuffled bytes.
./build/examples/rapida_fuzz --seeds=200 --shards=4

echo "== differential fuzz, OPTIONAL/UNION-biased grammar (100 seeds) =="
./build/examples/rapida_fuzz --grammar=opt-union --seeds=100

echo "== differential fuzz, multi-valued-star grammar (100 seeds) =="
# 3-10 objects per predicate-subject pair: the shape the factorize pass
# compresses. Runs with the pass on (default) and forced off — both must
# agree with the reference on every engine.
./build/examples/rapida_fuzz --grammar=multival --seeds=100
./build/examples/rapida_fuzz --grammar=multival --seeds=100 --no-factorize

echo "== golden regen guard (fixtures must match a fresh regeneration) =="
RAPIDA_UPDATE_GOLDEN=1 ./build/tests/golden_test > /dev/null
RAPIDA_UPDATE_GOLDEN=1 ./build/tests/explain_golden_test > /dev/null
git diff --exit-code -- tests/golden || {
  echo "golden regen guard FAILED: committed fixtures differ from a fresh" \
       "RAPIDA_UPDATE_GOLDEN=1 run (diff above; commit the regen if" \
       "intentional)" >&2
  exit 1
}

echo "== differential fuzz, service mode (caching + batching vs direct) =="
./build/examples/rapida_fuzz --service --seeds=50

echo "== perf smoke: Fig. 8(a)+(b) aggregates vs goldens (8 threads) =="
PERF_TMP="$SCRATCH/perf"
for FIG in fig8a fig8b; do
  mkdir -p "$PERF_TMP/$FIG"
  RAPIDA_EXEC_THREADS=8 RAPIDA_BENCH_JSON= RAPIDA_BENCH_CSV="$PERF_TMP/$FIG" \
      "./build/bench/bench_$FIG" > /dev/null
  diff "tests/golden/bench_${FIG}_aggregates.csv" "$PERF_TMP/$FIG"/*.csv || {
    echo "perf smoke FAILED: $FIG per-query aggregates differ from" \
         "tests/golden/bench_${FIG}_aggregates.csv" >&2
    exit 1
  }
done

echo "== perf smoke: shard scale-out sweep (BENCH_shard.json gates) =="
# bench_shard exits nonzero on any byte-identity violation; the JSON gate
# below additionally pins the scale-out claim on fig8a.
./build/bench/bench_shard > /dev/null
python3 - <<'EOF'
import json

rows = [json.loads(l) for l in open("BENCH_shard.json") if l.strip()]
assert rows, "BENCH_shard.json is empty"
bad = [r for r in rows if not r["identical"]]
assert not bad, "sharded results diverged from unsharded: %s" % bad

fig8a = [r for r in rows if r["bench"] == "fig8a"]
base = sum(r["sim_seconds"] for r in fig8a if r["shards"] == 1)
best8 = sum(r["sim_seconds"] for r in fig8a
            if r["shards"] == 8 and r["scheme"] == "hash-subject")
speedup = base / best8
assert speedup >= 3.0, "fig8a speedup at 8 shards %.2fx < 3x" % speedup
print("shard bench OK: %.2fx at 8 shards" % speedup)
EOF

echo "== perf smoke: factorized intermediates (BENCH_factorize.json gates) =="
# bench_factorize exits nonzero on any flat/factorized result mismatch;
# the JSON gates below pin the byte-reduction claims on the mg-pubmed
# rows (Table 4 shape: Hive (Naive), repartition joins, shards {1,8}).
./build/bench/bench_factorize > /dev/null
python3 scripts/check_factorize.py BENCH_factorize.json

echo "== AddressSanitizer fuzz smoke (RAPIDA_SANITIZE=address) =="
cmake -B build-asan -S . -DRAPIDA_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-asan -j "$JOBS" --target rapida_fuzz explain_golden_test \
      golden_test optional_union_test storage_test rapida_serve plan_ir_test \
      pass_differential_test property_invariants_test rdf_test \
      factorize_test relational_ops_test binding_test reference_evaluator_test \
      mapreduce_test shard_test engines_test kernels_test dataset_test \
      record_footprint_test
./build-asan/examples/rapida_fuzz --seeds=50
echo "== ASan: differential fuzz, sharded data plane (50 seeds, 4 shards) =="
# Every operator runs at 4 shards, booking each emission's placement.
./build-asan/examples/rapida_fuzz --seeds=50 --shards=4
echo "== ASan: OPTIONAL/UNION-biased fuzz (100 seeds) =="
./build-asan/examples/rapida_fuzz --grammar=opt-union --seeds=100
echo "== ASan: EXPLAIN goldens =="
./build-asan/tests/explain_golden_test
echo "== ASan: result goldens (32 catalog queries x 4 engines) =="
./build-asan/tests/golden_test
echo "== ASan: OPTIONAL/UNION semantics matrix =="
./build-asan/tests/optional_union_test
echo "== ASan: plan IR (per-node cycle gate, execs follow the plan) =="
./build-asan/tests/plan_ir_test
echo "== ASan: pass toggles and property invariants (greedy order, sequential Agg-Joins) =="
./build-asan/tests/pass_differential_test
./build-asan/tests/property_invariants_test

echo "== ASan: rdf_test (term store: arena views, concurrent interning) =="
./build-asan/tests/rdf_test

echo "== ASan: relational operators (row reader over flat rows and groups) =="
./build-asan/tests/factorize_test
./build-asan/tests/relational_ops_test

echo "== ASan: result tables (flat cells, shared copies, row spans) =="
./build-asan/tests/binding_test
./build-asan/tests/reference_evaluator_test

echo "== ASan: MapReduce runtime (sorted runs, key-range merge, shards) =="
./build-asan/tests/mapreduce_test
./build-asan/tests/shard_test

echo "== ASan: dataset_test (VP and triplegroup layouts packed at rest) =="
./build-asan/tests/dataset_test
echo "== ASan: record_footprint_test (the largest packed runs and layouts) =="
./build-asan/tests/record_footprint_test

echo "== ASan: engines_test, kernels_test (every engine's aggregation fold) =="
./build-asan/tests/engines_test
./build-asan/tests/kernels_test

echo "== ASan: storage suite (artifact recovery, IVM patch equivalence) =="
./build-asan/tests/storage_test

echo "== ASan: store corruption injection (degrade to recompute, no crash) =="
ASAN_STORE="$SCRATCH/store-asan"
./build-asan/examples/rapida_serve --smoke --store "$ASAN_STORE" > /dev/null
# Bit-flip one artifact and truncate another, then re-run the smoke over
# the damaged store: the corrupt artifacts must surface as typed DataLoss
# internally, be quarantined, and every query must still answer correctly
# from recompute — no crash, no wrong bytes.
ARTS=("$ASAN_STORE"/*.rapart)
printf '\xff' | dd of="${ARTS[0]}" bs=1 seek=64 conv=notrunc 2> /dev/null
truncate -s 17 "${ARTS[1]}"
CORRUPT_OUT="$SCRATCH/corrupt-run.txt"
./build-asan/examples/rapida_serve --smoke --store "$ASAN_STORE" \
    | tee "$CORRUPT_OUT" | tail -2
grep -q '"corrupt": *[1-9]' "$CORRUPT_OUT" || {
  echo "corruption gate FAILED: no quarantined artifact reported in the" \
       "store stats (expected \"corrupt\" >= 1 in the metrics JSON)" >&2
  exit 1
}

echo "== UndefinedBehaviorSanitizer build (RAPIDA_SANITIZE=undefined) =="
# The record plane is raw pointer and varint-length arithmetic (records
# packed back to back in a batch's chunks inside a job and in a file at
# rest, 16-byte order entries whose positions address the chunks, and
# 32-byte views decoded from both); any UB finding aborts
# (-fno-sanitize-recover=all).
cmake -B build-ubsan -S . -DRAPIDA_SANITIZE=undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-ubsan -j "$JOBS" --target \
      mapreduce_test kernels_test shard_test storage_test rdf_test rapida_fuzz \
      factorize_test relational_ops_test binding_test reference_evaluator_test \
      engines_test dataset_test record_footprint_test
echo "== UBSan: mapreduce_test =="
./build-ubsan/tests/mapreduce_test
echo "== UBSan: kernels_test =="
./build-ubsan/tests/kernels_test
echo "== UBSan: shard_test =="
./build-ubsan/tests/shard_test
echo "== UBSan: dataset_test (VP and triplegroup layouts packed at rest) =="
./build-ubsan/tests/dataset_test
echo "== UBSan: record_footprint_test (the largest packed runs and layouts) =="
./build-ubsan/tests/record_footprint_test
echo "== UBSan: storage_test (record codec truncation / corruption) =="
./build-ubsan/tests/storage_test
echo "== UBSan: rdf_test (term store entry bitfields, arena views) =="
./build-ubsan/tests/rdf_test
echo "== UBSan: relational operators (row reader over flat rows and groups) =="
./build-ubsan/tests/factorize_test
./build-ubsan/tests/relational_ops_test
echo "== UBSan: result tables (flat cells, shared copies, row spans) =="
./build-ubsan/tests/binding_test
./build-ubsan/tests/reference_evaluator_test
echo "== UBSan: engines_test (every engine's aggregation fold) =="
./build-ubsan/tests/engines_test
echo "== UBSan: differential fuzz (50 seeds) =="
./build-ubsan/examples/rapida_fuzz --seeds=50

echo "== ThreadSanitizer build (RAPIDA_SANITIZE=thread) =="
cmake -B build-tsan -S . -DRAPIDA_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-tsan -j "$JOBS" --target \
      thread_pool_test mapreduce_test kernels_test engines_test \
      shard_test service_stress_test rdf_test binding_test bench_factorize

echo "== TSan: thread_pool_test =="
./build-tsan/tests/thread_pool_test
echo "== TSan: mapreduce_test (incl. ValueSpan reduce-mode matrix) =="
./build-tsan/tests/mapreduce_test
echo "== TSan: kernels_test (operators x exec_threads x combine x shards) =="
./build-tsan/tests/kernels_test
echo "== TSan: engines_test =="
./build-tsan/tests/engines_test
echo "== TSan: shard_test (placement booking, shards {1,2,4,8} x threads {1,8}) =="
./build-tsan/tests/shard_test
echo "== TSan: service_stress_test (32 sessions + concurrent mutations) =="
./build-tsan/tests/service_stress_test

echo "== TSan: rdf_test (8 writers interning, readers through index growth) =="
./build-tsan/tests/rdf_test

echo "== TSan: binding_test (8 threads copy one shared table, write their own) =="
./build-tsan/tests/binding_test

echo "== TSan: bench_factorize (flat/factorized byte identity at 8 threads) =="
RAPIDA_FACTORIZE_JSON="$SCRATCH/BENCH_factorize_tsan.json" \
    ./build-tsan/bench/bench_factorize > /dev/null
python3 scripts/check_factorize.py "$SCRATCH/BENCH_factorize_tsan.json"

echo "All checks passed."
