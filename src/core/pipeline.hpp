// hypart — end-to-end pipeline facade.
//
// Runs the whole paper on a loop nest, one stage sequence in every mode:
//   loop -> dependence analysis -> structure (dense) or space (symbolic) ->
//   hyperplane time function -> plan (Algorithm 1: grouping, blocks) ->
//   hypercube mapping (Algorithm 2) -> simulated execution -> checks.
// This is the one-call public API used by the examples and benches;
// individual stages remain available for fine-grained use.
#pragma once

#include <memory>
#include <optional>

#include "core/plan_view.hpp"
#include "loop/dependence.hpp"
#include "loop/iter_space.hpp"
#include "loop/loop_nest.hpp"

namespace hypart {

/// Which iteration-space backend the pipeline runs on.
enum class SpaceMode {
  Dense,     ///< materialize J^n (required for faults, codegen, interpreters)
  Symbolic,  ///< closed-form IterSpace path, O(lines + slabs + deps); affine bounds
  Verify     ///< run dense, then re-derive every stage symbolically and assert equality
};

/// The space row's name for `mode` (core/params.hpp).
[[nodiscard]] const char* to_string(SpaceMode mode);

/// Which *real* execution backend the measured side runs on (CLI
/// `--backend`).  The simulator is backend-independent; this selects how
/// `hypart run` / `hypart explain` actually execute the schedule.
enum class ExecBackend {
  Threads,  ///< exec/parallel_runtime: one thread per processor, mailboxes
  Procs,    ///< exec/proc_runtime: one OS process per processor, supervised
};

[[nodiscard]] const char* to_string(ExecBackend backend);

/// Largest accepted hypercube dimension (2^20 processors): the dim row of
/// the parameter table (core/params.hpp) enforces [0, kMaxCubeDim].
inline constexpr unsigned kMaxCubeDim = 20;

struct PipelineConfig {
  DependenceOptions dependence;
  /// Explicit time function Π; when unset, the small-integer search is used.
  std::optional<IntVec> time_function;
  TimeFunctionSearchOptions tf_search;
  GroupingOptions grouping;
  /// Hypercube dimension n (N = 2^n processors).
  unsigned cube_dim = 3;
  HypercubeMapOptions mapping;
  MachineParams machine;
  SimOptions sim;
  /// Flops per iteration; defaults to the nest's statement flop total.
  std::optional<std::int64_t> flops_override;
  /// Iteration-space backend.  Symbolic/Verify accept any affine-bounded
  /// nest (docs/affine-spaces.md); only a slab decomposition too large to
  /// beat dense enumeration is refused with Error(ErrorKind::Config).
  /// Verify throws Error(ErrorKind::Internal) on any dense/symbolic
  /// disagreement.
  SpaceMode space_mode = SpaceMode::Dense;
  /// Real execution backend used by the CLI's run/explain measured paths
  /// (the pipeline itself only simulates and ignores this).
  ExecBackend backend = ExecBackend::Threads;
  /// Run the theorem/lemma checkers and record their reports.
  bool validate = true;
  /// Optional tracing/metrics hooks, propagated to every stage (stage spans
  /// on the wall clock, simulator events on the simulated clock).  Both
  /// pointers null (the default) disables all instrumentation.
  obs::ObsContext obs{};
};

/// All stage outputs.  Heap-held where later stages keep references.  The
/// plan's checks (exact_cover, theorem1, theorem2, lemmas) are populated
/// when config.validate.
struct PipelineResult : PlanChecks {
  /// The mode this result was produced under.
  SpaceMode space_mode = SpaceMode::Dense;
  DependenceInfo dependence;
  /// Materialized structure; null in symbolic mode (use `space` instead).
  std::unique_ptr<ComputationStructure> structure;
  /// Closed-form space; set in symbolic and verify modes, null in dense.
  std::unique_ptr<IterSpace> space;
  TimeFunction time_function;
  /// The plan — Algorithm 1's blocks, Algorithm 2's processors and the
  /// simulator feed — whichever grouping built it (core/plan_view.hpp).
  std::unique_ptr<PlanView> plan;
  /// Dense execution fields for exec, codegen and the ledger: the plan's
  /// per-vertex blocks and Algorithm 2 result.  Empty in symbolic mode.
  Partition partition;
  HypercubeMappingResult mapping;
  SimResult sim;

  /// Kept only for perfbench (perfbench/src/plan.cpp); read `plan`.
  /// Per-block iteration counts of a grouping plan, empty on the lattice.
  std::vector<std::int64_t> block_sizes;
  /// Kept only for perfbench; read `plan->blocks`.  The lattice plan's block
  /// statistics, unset on grouping plans.
  std::optional<LatticeBlockStats> lattice_stats;

  /// Iteration count regardless of backend.
  [[nodiscard]] std::uint64_t iteration_count() const;

  /// Final metrics snapshot; set only when config.obs carried a registry.
  std::optional<obs::MetricsSnapshot> metrics;

  /// One-paragraph human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// Run the full pipeline.  Throws on invalid configurations (e.g. no valid
/// time function in the search box, non-uniform dependences).
PipelineResult run_pipeline(const LoopNest& nest, const PipelineConfig& config = {});

}  // namespace hypart
