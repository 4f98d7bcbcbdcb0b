#!/usr/bin/env bash
# Full verification: release build + test suite, metrics/serving smokes,
# the request-tracing smoke + overhead gate, the roadnet_lint +
# clang-tidy static-analysis gate, the Clang Thread Safety Analysis gate
# (with a scripted delete-one-annotation negative test), the wire/frame
# fuzz smoke, the server/event-loop suites rerun beside CPU hogs, an
# ASan+UBSan build running the complete suite, and a ThreadSanitizer
# build exercising the concurrent engine/server tests.
#
#   scripts/check.sh                 # everything
#   scripts/check.sh <stage>         # one stage: build smoke trace knn async lint tsa fuzz stress asan-ubsan tsan
#   scripts/check.sh <ctest-filter>  # everything, regular ctest narrowed to -R filter
#
# Each sanitizer gets its own build directory (build-asan-ubsan/,
# build-tsan/) so object files never mix; UBSan runs with recovery
# disabled, so any finding aborts the failing test.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVER_PID=""
SMOKE=""
TSA_MUTATED=""
cleanup() {
  # Kill the smoke server if loadgen died before the SHUTDOWN frame —
  # otherwise `roadnet_cli serve` is orphaned holding the port.
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  # Restore any source the tsa negative test mutated, even on ^C.
  if [[ -n "$TSA_MUTATED" ]] && [[ -f "$TSA_MUTATED.tsa-orig" ]]; then
    mv "$TSA_MUTATED.tsa-orig" "$TSA_MUTATED"
  fi
  # No `[[ ]] &&` tail here: a false test as the trap's last command
  # would become the script's exit status and fail passing stages that
  # never created a smoke dir.
  if [[ -n "$SMOKE" ]]; then rm -rf "$SMOKE"; fi
}
trap cleanup EXIT

stage_build() {
  local filter="${1:-}"
  echo "==> Release build + full test suite (build/)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DROADNET_WERROR=ON >/dev/null
  cmake --build build -j"$(nproc)"
  local args=(--output-on-failure -j"$(nproc)")
  if [[ -n "$filter" ]]; then args+=(-R "$filter"); fi
  SMOKE="$(mktemp -d)"
  (cd build && ctest "${args[@]}") | tee "$SMOKE/ctest.log"
  # ctest counts a GTEST_SKIP as a pass; name skipped tests so a bound
  # that went unchecked (the open-loop timing test on a busy host) shows.
  if grep -q '\*\*\*Skipped' "$SMOKE/ctest.log"; then
    echo "NOTE: skipped tests, counted as passed:"
    grep '\*\*\*Skipped' "$SMOKE/ctest.log"
  fi
  rm -rf "$SMOKE"
  SMOKE=""
}

stage_smoke() {
  echo "==> Metrics schema + search-space smoke (build/)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target \
    roadnet_cli roadnet_loadgen bench_searchspace bench_ch_layout bench_hl
  SMOKE="$(mktemp -d)"
  build/tools/roadnet_cli generate --vertices 1500 --seed 5 \
    --out "$SMOKE/g.bin" >/dev/null
  build/tools/roadnet_cli preprocess --graph "$SMOKE/g.bin" \
    --out "$SMOKE/g.ch" >/dev/null
  build/tools/roadnet_cli batch-query --graph "$SMOKE/g.bin" \
    --index "$SMOKE/g.ch" --random 500 --seed 7 --threads 2 \
    --metrics-out "$SMOKE/metrics.jsonl" >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/metrics.jsonl"
  # The bench exits nonzero if the settled-vertex ranking (Dijkstra >= bidi
  # >= CH, TNR in-table == 0) is violated, so this doubles as a counter
  # regression check.
  ROADNET_BENCH_FAST=1 build/bench/bench_searchspace \
    --out "$SMOKE/searchspace.csv" >/dev/null

  echo "==> CH layout bench: rank-permuted SoA vs legacy AoS (quick gate)"
  # Exits nonzero if the two layouts disagree on any distance or if the
  # rank-permuted SoA core is slower than the pre-split AoS baseline
  # compiled into the bench; the JSONL output must stay schema-valid.
  build/bench/bench_ch_layout --quick --out "$SMOKE/BENCH_ch_layout.json" \
    >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/BENCH_ch_layout.json"

  echo "==> HL bench: label merge vs CH search (quick gate)"
  # Exits nonzero if HL disagrees with CH on any distance or if the label
  # merge is not faster than the rank-SoA CH core on the Q6..Q10 workload
  # of the largest quick dataset.
  build/bench/bench_hl --quick --out "$SMOKE/BENCH_hl.json" >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/BENCH_hl.json"

  echo "==> Server smoke: serve + loadgen over loopback (build/)"
  # Ephemeral port; the server writes the bound port to a file the load
  # generator reads. The loadgen verifies EVERY answered distance against a
  # local Dijkstra oracle and sends the SHUTDOWN frame when done; the server
  # must drain and exit 0.
  build/tools/roadnet_cli serve --graph "$SMOKE/g.bin" --index "$SMOKE/g.ch" \
    --technique ch --port 0 --port-file "$SMOKE/port" \
    --metrics-out "$SMOKE/server_metrics.jsonl" >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SMOKE/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SMOKE/port" ]] || { echo "server never wrote port file"; exit 1; }
  build/tools/roadnet_loadgen --port "$(cat "$SMOKE/port")" \
    --graph "$SMOKE/g.bin" --connections 4 --queries 1000 \
    --verify-every 1 --workload Q5 --shutdown >/dev/null
  wait "$SERVER_PID"
  SERVER_PID=""
  python3 scripts/validate_metrics.py "$SMOKE/server_metrics.jsonl"

  echo "==> Server smoke: HL over the wire, Dijkstra-verified (build/)"
  # Same drill hosting hub labels: the server loads the CH file, builds
  # labels from it, and every answered distance is checked against the
  # loadgen's local Dijkstra oracle.
  rm -f "$SMOKE/port"
  build/tools/roadnet_cli serve --graph "$SMOKE/g.bin" --index "$SMOKE/g.ch" \
    --technique hl --port 0 --port-file "$SMOKE/port" >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SMOKE/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SMOKE/port" ]] || { echo "server never wrote port file"; exit 1; }
  build/tools/roadnet_loadgen --port "$(cat "$SMOKE/port")" \
    --graph "$SMOKE/g.bin" --connections 4 --queries 1000 \
    --technique hl --verify-every 1 --workload Q5 --shutdown >/dev/null
  wait "$SERVER_PID"
  SERVER_PID=""
  rm -rf "$SMOKE"
  SMOKE=""
}

stage_trace() {
  echo "==> Tracing smoke: serve --trace-out + loadgen, JSONL + report"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target \
    roadnet_cli roadnet_loadgen roadnet_trace bench_trace_overhead
  SMOKE="$(mktemp -d)"
  build/tools/roadnet_cli generate --vertices 1500 --seed 5 \
    --out "$SMOKE/g.bin" >/dev/null
  build/tools/roadnet_cli preprocess --graph "$SMOKE/g.bin" \
    --out "$SMOKE/g.ch" >/dev/null

  # Slow threshold 0 = every request crosses it, so the slow-query log
  # must come back non-empty even with head sampling at 1-in-10; the
  # loadgen retunes sampling to 1-in-5 over the wire and prints the
  # server's per-stage breakdown from STATS v2.
  build/tools/roadnet_cli serve --graph "$SMOKE/g.bin" --index "$SMOKE/g.ch" \
    --technique ch --port 0 --port-file "$SMOKE/port" \
    --trace-out "$SMOKE/traces.jsonl" --trace-sample 10 --slow-us 0 \
    >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SMOKE/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SMOKE/port" ]] || { echo "server never wrote port file"; exit 1; }
  local loadgen_out
  loadgen_out="$(build/tools/roadnet_loadgen --port "$(cat "$SMOKE/port")" \
    --graph "$SMOKE/g.bin" --connections 4 --queries 500 \
    --verify-every 10 --workload Q5 --trace-sample 5 --slow-us 0 \
    --stats --shutdown)"
  wait "$SERVER_PID"
  SERVER_PID=""
  grep -q "stage breakdown" <<<"$loadgen_out" || {
    echo "loadgen did not print the server stage breakdown"; exit 1; }

  # The slow-query log: non-empty, schema-valid (stage ordering and
  # non-negative durations checked per record), and renderable.
  [[ -s "$SMOKE/traces.jsonl" ]] || {
    echo "trace output is empty at slow threshold 0"; exit 1; }
  python3 scripts/validate_metrics.py "$SMOKE/traces.jsonl"
  local report
  report="$(build/tools/roadnet_trace --in "$SMOKE/traces.jsonl" \
    --csv "$SMOKE/stages.csv" --top 3)"
  grep -q "execute" <<<"$report" || {
    echo "roadnet_trace report is missing the execute stage"; exit 1; }
  grep -q "^total," "$SMOKE/stages.csv" || {
    echo "roadnet_trace CSV is missing the total row"; exit 1; }

  echo "==> Tracing overhead gate: <= 2% on the untraced hot path"
  # Exits nonzero if the instrumented-but-idle request path costs more
  # than 2% over the plain query loop, or if instrumentation changes
  # any distance.
  ROADNET_BENCH_FAST=1 build/bench/bench_trace_overhead --quick \
    --out "$SMOKE/BENCH_trace_overhead.json" >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/BENCH_trace_overhead.json"
  rm -rf "$SMOKE"
  SMOKE=""
}

stage_knn() {
  echo "==> kNN smoke: POI build + serve + oracle-verified loadgen + gate"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target \
    roadnet_cli roadnet_loadgen bench_knn
  SMOKE="$(mktemp -d)"
  build/tools/roadnet_cli generate --vertices 3000 --seed 5 \
    --out "$SMOKE/g.bin" >/dev/null
  build/tools/roadnet_cli preprocess --graph "$SMOKE/g.bin" \
    --out "$SMOKE/g.ch" >/dev/null
  # Deterministic POI placement: the default category sweep spans three
  # densities (power-of-ten selectivities), including a near-empty one.
  build/tools/roadnet_cli poi --graph "$SMOKE/g.bin" --seed 11 \
    --out "$SMOKE/pois.bin" >/dev/null

  # Serve with the kNN endpoints enabled; the loadgen sweeps both
  # methods (bucket-CH and IER), k in {1,4,10,50}, and one-to-many, and
  # verifies EVERY answered result list against its local Dijkstra
  # oracle before sending the SHUTDOWN frame.
  build/tools/roadnet_cli serve --graph "$SMOKE/g.bin" --index "$SMOKE/g.ch" \
    --technique ch --poi "$SMOKE/pois.bin" --port 0 \
    --port-file "$SMOKE/port" \
    --metrics-out "$SMOKE/server_metrics.jsonl" >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SMOKE/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SMOKE/port" ]] || { echo "server never wrote port file"; exit 1; }
  build/tools/roadnet_loadgen --port "$(cat "$SMOKE/port")" \
    --graph "$SMOKE/g.bin" --poi "$SMOKE/pois.bin" --workload knn \
    --connections 4 --queries 600 --verify-every 1 --shutdown >/dev/null
  wait "$SERVER_PID"
  SERVER_PID=""
  python3 scripts/validate_metrics.py "$SMOKE/server_metrics.jsonl"

  echo "==> kNN bench: bucket-CH vs IER vs brute-force (quick gate)"
  # Exits nonzero if the three strategies disagree on any result list,
  # if one-to-many != k=|category| kNN, or if bucket-CH is not faster
  # than brute-force Dijkstra on the aggregate sweep.
  build/bench/bench_knn --quick --out "$SMOKE/BENCH_knn.json" >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/BENCH_knn.json"
  rm -rf "$SMOKE"
  SMOKE=""
}

stage_async() {
  echo "==> Async server core: open-loop pipelined smoke (build/)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target \
    roadnet_cli roadnet_loadgen bench_server_scale
  SMOKE="$(mktemp -d)"
  build/tools/roadnet_cli generate --vertices 1500 --seed 5 \
    --out "$SMOKE/g.bin" >/dev/null
  build/tools/roadnet_cli preprocess --graph "$SMOKE/g.bin" \
    --out "$SMOKE/g.ch" >/dev/null
  # Two event loops, idle reaping armed, open-loop Poisson arrivals over
  # pipelined QUERY2 connections; EVERY reply is verified against the
  # loadgen's local Dijkstra oracle, then the SHUTDOWN frame must drain
  # the server cleanly (exit 0) with schema-valid metrics.
  build/tools/roadnet_cli serve --graph "$SMOKE/g.bin" --index "$SMOKE/g.ch" \
    --technique ch --port 0 --port-file "$SMOKE/port" \
    --loops 2 --idle-timeout-ms 5000 \
    --metrics-out "$SMOKE/server_metrics.jsonl" >/dev/null &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$SMOKE/port" ]] && break
    sleep 0.1
  done
  [[ -s "$SMOKE/port" ]] || { echo "server never wrote port file"; exit 1; }
  build/tools/roadnet_loadgen --port "$(cat "$SMOKE/port")" \
    --graph "$SMOKE/g.bin" --connections 16 --queries 3000 \
    --rate 5000 --pipeline 8 --verify-every 1 --stats --shutdown >/dev/null
  wait "$SERVER_PID"
  SERVER_PID=""
  python3 scripts/validate_metrics.py "$SMOKE/server_metrics.jsonl"

  echo "==> Connection-scale bench: open-loop latency gate (quick)"
  # Exits nonzero if any curve point loses a request or disagrees with
  # the oracle, or if p99 at 50% of the measured saturation rate blows
  # past the latency gate (see bench_server_scale.cc).
  build/bench/bench_server_scale --quick \
    --out "$SMOKE/BENCH_server_scale.json" >/dev/null
  python3 scripts/validate_metrics.py "$SMOKE/BENCH_server_scale.json"
  rm -rf "$SMOKE"
  SMOKE=""
}

stage_lint() {
  echo "==> roadnet_lint: project-specific static analysis (hard gate)"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target roadnet_lint
  local lint_out
  lint_out="$(mktemp -d)"
  # Exits nonzero on any finding not covered by a reasoned waiver; the
  # JSONL findings file must stay schema-valid (validate_metrics.py
  # understands the lint schema).
  build/tools/roadnet_lint --json "$lint_out/lint.jsonl"
  python3 scripts/validate_metrics.py "$lint_out/lint.jsonl"
  rm -rf "$lint_out"

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy (bugprone/concurrency/performance, .clang-tidy)"
    # compile_commands.json is exported by CMake; WarningsAsErrors in
    # .clang-tidy makes every reported check a hard failure.
    mapfile -t tidy_sources < <(find src -name '*.cc' | sort)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  else
    echo "==> clang-tidy not installed; skipping (lint gate still ran)"
  fi
}

# One tsa build of the library stack under clang with every
# thread-safety diagnostic promoted to an error.
tsa_build() {
  cmake -B build-tsa-clang -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety-analysis -Werror=thread-safety-precise -Werror=thread-safety-reference" \
    >/dev/null
  cmake --build build-tsa-clang -j"$(nproc)" --target roadnet
}

# A deliberate unlocked write to a guarded field must FAIL to compile —
# proof the flags and the ROADNET_ macros are armed (on a compiler
# where they expand away, this canary would compile and we must not
# claim the TSA gate ran).
tsa_canary() {
  local dir
  dir="$(mktemp -d)"
  cat > "$dir/canary.cc" <<'EOF'
#include "util/mutex.h"
struct Canary {
  roadnet::Mutex mu;
  int x ROADNET_GUARDED_BY(mu) = 0;
  void Poke() { x = 1; }  // unlocked write: must be a TSA error
};
EOF
  if clang++ -std=c++20 -Isrc -Wthread-safety \
      -Werror=thread-safety-analysis -fsyntax-only "$dir/canary.cc" \
      2>/dev/null; then
    rm -rf "$dir"
    echo "FAIL: the TSA canary (unlocked guarded write) compiled clean"
    exit 1
  fi
  rm -rf "$dir"
  echo "    canary rejected (unlocked guarded write is a build error)"
}

# Deletes the GUARDED_BY annotations naming one mutex in $1 and asserts
# the gate now FAILS. TSA alone cannot see a deletion (its checks are
# opt-in per declaration), so the catch is lint rule R10: the mutex is
# left guarding no field, which is a finding — on every compiler,
# clang or not. This is what makes the annotations load-bearing.
tsa_negative_test() {
  local victim="$1" mutex="$2"
  echo "==> TSA negative test: strip GUARDED_BY($mutex) from $victim"
  TSA_MUTATED="$victim"
  cp "$victim" "$victim.tsa-orig"
  sed -i "s/ ROADNET_GUARDED_BY(${mutex})//g" "$victim"
  if build/tools/roadnet_lint --root . --rules R10 src >/dev/null 2>&1; then
    echo "FAIL: R10 passed with GUARDED_BY($mutex) deleted from $victim"
    mv "$victim.tsa-orig" "$victim"
    TSA_MUTATED=""
    exit 1
  fi
  mv "$victim.tsa-orig" "$victim"
  TSA_MUTATED=""
  echo "    gate failed as required"
}

stage_tsa() {
  echo "==> Lock-discipline gate: Clang TSA build + R10 negative tests"
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j"$(nproc)" --target roadnet_lint
  if command -v clang++ >/dev/null 2>&1; then
    tsa_build
    echo "    clean under -Werror=thread-safety-*"
    tsa_canary
  else
    echo "SKIP: clang++ not installed — the compile half of the TSA gate"
    echo "      needs Clang (GCC expands the ROADNET_* annotations away)."
    echo "      The annotation-deletion negative tests below still run."
  fi
  # The gate must be falsifiable everywhere: deleting the GUARDED_BY
  # annotations tied to a QueryServer or EventLoop mutex has to fail
  # the stage (via R10) even on hosts without clang.
  tsa_negative_test src/server/server.h shutdown_mu_
  tsa_negative_test src/server/event_loop.cc post_mu
}

stage_fuzz() {
  echo "==> Fuzz harnesses: wire decode + frame assembler (ROADNET_FUZZ=ON)"
  if command -v clang++ >/dev/null 2>&1; then
    # Real libFuzzer: 30-second smoke per harness, seeded from the
    # checked-in corpus, ASan underneath. Any crash/trap fails the stage.
    cmake -B build-fuzz -S . -DCMAKE_BUILD_TYPE=Release -DROADNET_FUZZ=ON \
      -DCMAKE_CXX_COMPILER=clang++ >/dev/null
    cmake --build build-fuzz -j"$(nproc)" --target \
      fuzz_wire_decode fuzz_frame_assembler
    build-fuzz/tests/fuzz/fuzz_wire_decode -max_total_time=30 \
      -print_final_stats=1 tests/fuzz/corpus/wire
    build-fuzz/tests/fuzz/fuzz_frame_assembler -max_total_time=30 \
      -print_final_stats=1 tests/fuzz/corpus/frame
  else
    echo "SKIP: clang++ not installed — no libFuzzer; falling back to the"
    echo "      deterministic corpus replay + mutation sweep (the property"
    echo "      checks still run; coverage-guided exploration does not)."
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DROADNET_FUZZ=ON \
      >/dev/null
    cmake --build build -j"$(nproc)" --target \
      fuzz_wire_decode fuzz_frame_assembler
    build/tests/fuzz/fuzz_wire_decode --mutate 256 tests/fuzz/corpus/wire
    build/tests/fuzz/fuzz_frame_assembler --mutate 256 tests/fuzz/corpus/frame
  fi
}

stage_stress() {
  echo "==> Contention stress: server + event-loop suites beside CPU hogs"
  # A separate tree, so the stress tests never join a regular ctest run.
  # The hogs are at most min(4, nproc) busy loops (with_cpu_hogs.sh).
  cmake -B build-stress -S . -DCMAKE_BUILD_TYPE=Release -DROADNET_STRESS=ON \
    >/dev/null
  cmake --build build-stress -j"$(nproc)" --target server_test event_loop_test
  (cd build-stress && ctest --output-on-failure -L stress)
}

stage_asan_ubsan() {
  echo "==> ASan+UBSan build + full test suite (build-asan-ubsan/)"
  # -fno-sanitize-recover: the first UB report aborts the test, so the
  # suite cannot pass with latent UB. Leak detection comes with ASan.
  # The full suite includes differential_test: 10k+ randomized queries
  # where Dijkstra, bidi, CH, HL and ALT must agree exactly, all under
  # the sanitizers.
  cmake -B build-asan-ubsan -S . -DROADNET_SANITIZE=address,undefined \
    >/dev/null
  cmake --build build-asan-ubsan -j"$(nproc)"
  (cd build-asan-ubsan && ctest --output-on-failure -j"$(nproc)")
}

stage_tsan() {
  echo "==> ThreadSanitizer build + engine/server tests (build-tsan/)"
  cmake -B build-tsan -S . -DROADNET_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target \
    engine_equivalence_test engine_stress_test engine_edge_test \
    ch_layout_test server_test event_loop_test inline_serving_test \
    wire_fuzz_test hl_test trace_test bench_server
  (cd build-tsan && \
    ctest --output-on-failure -R 'Engine(Equivalence|Stress|Edge)|QueryEngineLazyContexts|ChLayout|QueryServer|EventLoopPool|Wire|BoundedQueue|HubLabel|Trace')
  # The serving bench under TSan covers the accept/handler/dispatcher/client
  # thread web end to end.
  ROADNET_BENCH_FAST=1 build-tsan/bench/bench_server >/dev/null
}

ARG="${1:-}"
case "$ARG" in
  build)      stage_build ;;
  smoke)      stage_smoke ;;
  trace)      stage_trace ;;
  knn)        stage_knn ;;
  async)      stage_async ;;
  lint)       stage_lint ;;
  tsa)        stage_tsa ;;
  fuzz)       stage_fuzz ;;
  stress)     stage_stress ;;
  asan-ubsan) stage_asan_ubsan ;;
  tsan)       stage_tsan ;;
  ""|all)
    stage_build
    stage_smoke
    stage_trace
    stage_knn
    stage_async
    stage_lint
    stage_tsa
    stage_fuzz
    stage_stress
    stage_asan_ubsan
    stage_tsan
    ;;
  *)
    # Back-compat: a non-stage argument narrows the regular ctest run.
    stage_build "$ARG"
    stage_smoke
    stage_trace
    stage_knn
    stage_async
    stage_lint
    stage_tsa
    stage_fuzz
    stage_stress
    stage_asan_ubsan
    stage_tsan
    ;;
esac

echo "==> OK"
