// Bring your own loop — build a custom stencil nest with LoopNestBuilder,
// let the library find a hyperplane schedule, and inspect the partition.
//
// The loop is a skewed 2-D recurrence that none of the canned workloads
// cover:
//   for t = 0 to T
//     for x = 1 to X
//       S: A[t+1, x] := f(A[t, x-1], A[t, x], A[t, x+1]);
// with dependences (1,-1), (1,0), (1,1) (a classic 1-D wave equation
// update written as a 2-nest).
//
//   $ ./example_stencil_partition [T] [X] [cube_dim]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "core/pipeline.hpp"
#include "perf/table.hpp"

int main(int argc, char** argv) {
  using namespace hypart;
  const std::int64_t t_steps = argc > 1 ? std::atoll(argv[1]) : 16;
  const std::int64_t x_cells = argc > 2 ? std::atoll(argv[2]) : 32;
  const unsigned cube_dim = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 3;

  LoopNest wave = LoopNestBuilder("wave1d")
                      .loop("t", 0, t_steps)
                      .loop("x", 1, x_cells)
                      .statement("S", 5)
                      .write("A", {idx(0) + 1, idx(1)})
                      .read("A", {idx(0), idx(1) - 1})
                      .read("A", {idx(0), idx(1)})
                      .read("A", {idx(0), idx(1) + 1})
                      .build();
  std::printf("%s\n", wave.to_string().c_str());

  PipelineConfig cfg;
  cfg.cube_dim = cube_dim;
  // Let the library search for the best small-integer time function instead
  // of supplying one.
  cfg.tf_search.max_coefficient = 3;
  PipelineResult r = run_pipeline(wave, cfg);

  std::printf("dependences:\n");
  for (const Dependence& d : r.dependence.dependences)
    std::printf("  %s\n", d.to_string().c_str());
  std::printf("\nfound Pi = %s (%lld schedule steps)\n", r.time_function.to_string().c_str(),
              static_cast<long long>(r.sim.steps));
  const PlanView& plan = *r.plan;
  std::printf("r = %lld, blocks = %llu, interblock = %zu/%zu arcs\n",
              static_cast<long long>(plan.group_size_r),
              static_cast<unsigned long long>(plan.blocks.group_count), plan.stats.interblock_arcs,
              plan.stats.total_arcs);

  // Distribution of block sizes (how even is the decomposition?).
  std::map<std::int64_t, std::size_t> histogram;
  for (std::uint64_t b = 0; b < plan.blocks.group_count; ++b) ++histogram[plan.population(b)];
  TextTable t({"block size (iterations)", "count"});
  for (const auto& [size, count] : histogram) t.row(size, count);
  std::printf("%s", t.to_string().c_str());

  std::printf("validation: cover=%s theorem1=%s theorem2=%s lemmas=%s/%s\n",
              r.exact_cover ? "ok" : "FAIL", r.theorem1 ? "ok" : "FAIL",
              r.theorem2.holds ? "ok" : "FAIL", r.lemmas.lemma2_holds ? "ok" : "FAIL",
              r.lemmas.lemma3_holds ? "ok" : "FAIL");
  std::printf("simulated on %zu processors: T = %s\n", plan.processors,
              r.sim.total.to_string().c_str());
  return 0;
}
