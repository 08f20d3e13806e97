#!/usr/bin/env bash
# Regenerates the six CI-gated BENCH_*.json records at the repository root: bench/run_all.sh
#
# Configures build-bench/ with the release CI flags on every run, so each record's
# provenance.git_revision names the tree that was built, then builds the six benches, runs
# each at its defaults and checks that its record parses. Prints every exit code and exits
# non-zero if any bench did or any record does not parse. Takes about a quarter of an hour
# on a 4-vCPU host, most of it BENCH_parallel.json's thread ladder.
set -u
cd "$(dirname "$0")/.."
benches=(hotpath blast_radius quarantine_pipeline screening recovery parallel_scaling)
records=(hotpath blast_radius quarantine screening recovery parallel)

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS_RELEASE=-O2 >/dev/null &&
  cmake --build build-bench -j "$(nproc)" --target "${benches[@]/#/bench_}" || exit 1
exit_codes=() failed=0
for i in "${!benches[@]}"; do
  bench="bench_${benches[$i]}" record="BENCH_${records[$i]}.json"
  echo "== $bench"
  rm -f "$record"
  "./build-bench/bench/$bench"
  code=$?
  python3 -m json.tool "$record" >/dev/null || { echo "$record does not parse"; failed=1; }
  [ "$code" -eq 0 ] || failed=1
  exit_codes+=("$bench: exit $code")
done
printf '%s\n' "== exit codes" "${exit_codes[@]}"
exit "$failed"
