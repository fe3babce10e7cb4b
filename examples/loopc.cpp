// loopc — a miniature parallelizing compiler built on hypart.
//
// Reads a loop nest in the textual language (from a file, or a built-in
// demo program), then:
//   1. analyzes dependences,
//   2. finds a hyperplane time function,
//   3. partitions with Algorithm 1 and maps with Algorithm 2,
//   4. emits the SPMD node program,
//   5. runs the loop BOTH sequentially and under distributed message-
//      passing execution and checks the results agree.
//
//   $ ./example_loopc [source.loop] [cube_dim]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/spmd.hpp"
#include "core/pipeline.hpp"
#include "exec/interpreter.hpp"
#include "frontend/lexer.hpp"
#include "frontend/parser.hpp"
#include "sim/report.hpp"

namespace {

constexpr const char* kDemoProgram = R"(
# Demo: the paper's loop (L1) on an 8x8 domain.
loop demo {
  for i = 0 to 7
  for j = 0 to 7
  S1: A[i+1, j+1] = A[i+1, j] + B[i, j];
  S2: B[i+1, j]   = A[i, j] * 2 + 3;
}
)";

std::string read_file(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "loopc: cannot open '%s'\n", path);
    std::exit(1);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hypart;
  const std::string source = argc > 1 ? read_file(argv[1]) : std::string(kDemoProgram);
  const unsigned cube_dim = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 2;

  LoopNest nest = [&] {
    try {
      return parse_loop_nest(source);
    } catch (const ParseError& e) {
      std::fprintf(stderr, "loopc: %s\n", e.what());
      std::exit(1);
    }
  }();

  std::printf("=== parsed loop nest ===\n%s\n", nest.to_string().c_str());

  PipelineConfig cfg;
  cfg.cube_dim = cube_dim;
  PipelineResult r = run_pipeline(nest, cfg);

  std::printf("=== analysis ===\n");
  for (const Dependence& d : r.dependence.dependences)
    std::printf("  %s\n", d.to_string().c_str());
  std::printf("Pi = %s, %zu blocks on %zu processors, interblock %zu/%zu arcs\n\n",
              r.time_function.to_string().c_str(), r.partition.block_count(),
              r.plan->processors, r.plan->stats.interblock_arcs, r.plan->stats.total_arcs);

  std::printf("=== SPMD node program ===\n%s\n",
              generate_spmd_program(nest, *r.structure, r.time_function, r.partition,
                                    r.mapping.mapping, r.dependence)
                  .c_str());

  std::printf("=== processor 0 trace (first lines) ===\n%s\n",
              generate_processor_trace(nest, *r.structure, r.time_function, r.partition,
                                       r.mapping.mapping, r.dependence, 0, 24)
                  .c_str());

  UtilizationReport util = processor_utilization(*r.structure, r.time_function, r.partition,
                                                 r.mapping.mapping);
  std::printf("=== processor utilization ===\n%smean %.0f%%\n\n", util.gantt.c_str(),
              util.mean_utilization * 100.0);

  std::printf("=== execution check ===\n");
  ArrayStore seq = run_sequential(nest);
  DistributedResult dist = run_distributed(nest, *r.structure, r.time_function, r.partition,
                                           r.mapping.mapping, r.dependence);
  EquivalenceReport eq = compare_stores(seq, dist.written);
  std::printf("distributed == sequential over %zu written elements: %s\n", eq.compared,
              eq.equal ? "YES" : ("NO — " + eq.first_mismatch).c_str());
  std::printf("value messages: %lld, halo loads: %lld, steps: %lld\n",
              static_cast<long long>(dist.stats.value_messages),
              static_cast<long long>(dist.stats.halo_loads),
              static_cast<long long>(dist.stats.steps));
  std::printf("simulated cost: %s\n", r.sim.total.to_string().c_str());
  return eq.equal ? 0 : 2;
}
