// Quickstart — partition and map your first nested loop.
//
// Takes the paper's loop (L1), runs the whole pipeline in one call, and
// prints what each stage produced.  Start here.
//
//   $ ./example_quickstart
#include <cstdio>

#include "core/pipeline.hpp"
#include "workloads/workloads.hpp"

int main() {
  using namespace hypart;

  // 1. Describe the loop nest.  This is the paper's loop (L1):
  //      for i = 0 to 3
  //        for j = 0 to 3
  //          S1: A[i+1,j+1] := A[i+1,j] + B[i,j];
  //          S2: B[i+1,j]   := A[i,j] * 2 + C;
  // (you could also write your own with LoopNestBuilder — see
  //  examples/stencil_partition.cpp).
  LoopNest loop = workloads::example_l1();
  std::printf("Input loop nest:\n%s\n", loop.to_string().c_str());

  // 2. Configure the pipeline: a 2-cube (4 processors) and the default
  //    machine constants (message startup far above per-flop cost).
  PipelineConfig config;
  config.cube_dim = 2;

  // 3. Run: dependence analysis -> hyperplane schedule -> projection ->
  //    grouping (Algorithm 1) -> blocks -> TIG -> Gray-code hypercube
  //    mapping (Algorithm 2) -> simulated execution.
  PipelineResult result = run_pipeline(loop, config);

  // 4. Inspect each stage.
  std::printf("Dependence vectors:\n");
  for (const Dependence& d : result.dependence.dependences)
    std::printf("  %s\n", d.to_string().c_str());

  std::printf("\nTime function Pi = %s (schedule: %lld steps)\n",
              result.time_function.to_string().c_str(),
              static_cast<long long>(result.sim.steps));

  // The plan: Algorithm 1's blocks and Algorithm 2's processors, read the
  // same way whichever grouping built them (dense, line-based or lattice).
  const PlanView& plan = *result.plan;
  std::printf("Projected points: %llu, group size r = %lld, groups/blocks: %llu\n",
              static_cast<unsigned long long>(plan.line_count),
              static_cast<long long>(plan.group_size_r),
              static_cast<unsigned long long>(plan.blocks.group_count));

  std::printf("Communication: %zu of %zu dependence pairs cross blocks (%.1f%%)\n",
              plan.stats.interblock_arcs, plan.stats.total_arcs,
              100.0 * plan.stats.interblock_fraction());

  std::printf("\nBlock -> processor (N = %zu):\n", plan.processors);
  for (std::uint64_t b = 0; b < plan.blocks.group_count; ++b)
    std::printf("  block %llu (%lld iterations) -> processor %llu\n",
                static_cast<unsigned long long>(b), static_cast<long long>(plan.population(b)),
                static_cast<unsigned long long>(plan.owner(b)));

  std::printf("\nSimulated execution: T = %s  (= %.1f time units)\n",
              result.sim.total.to_string().c_str(), result.sim.time);

  std::printf("\nValidation: cover=%s, Theorem1=%s, %s\n",
              result.exact_cover ? "ok" : "FAIL", result.theorem1 ? "ok" : "FAIL",
              result.theorem2.to_string().c_str());
  return 0;
}
