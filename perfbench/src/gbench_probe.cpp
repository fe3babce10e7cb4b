// Runs one trivial google-benchmark case so the library prints its JSON
// context, whose "library_build_type" says whether libbenchmark itself was
// built in debug mode.  run.py reads that field into the host fingerprint.
#include <benchmark/benchmark.h>

static void BM_noop(benchmark::State& state) {
  int x = 0;
  for (auto _ : state) benchmark::DoNotOptimize(++x);
}
BENCHMARK(BM_noop)->Iterations(1);

BENCHMARK_MAIN();
