// hypart — end-to-end pipeline facade.
//
// Runs the whole paper on a loop nest:
//   loop -> dependence analysis -> hyperplane time function -> projection ->
//   grouping (Algorithm 1) -> blocks -> TIG -> hypercube mapping
//   (Algorithm 2) -> simulated execution.
// This is the one-call public API used by the examples and benches;
// individual stages remain available for fine-grained use.
#pragma once

#include <memory>
#include <optional>

#include "loop/dependence.hpp"
#include "loop/iter_space.hpp"
#include "loop/loop_nest.hpp"
#include "mapping/hypercube_map.hpp"
#include "partition/checkers.hpp"
#include "sim/exec_sim.hpp"

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

/// All stage outputs.  Heap-held where later stages keep references.
struct PipelineResult {
  /// The mode this result was produced under.
  SpaceMode space_mode = SpaceMode::Dense;
  DependenceInfo dependence;
  /// Materialized structure; null in symbolic mode (use `space` instead).
  std::unique_ptr<ComputationStructure> structure;
  /// Closed-form space; set in symbolic and verify modes, null in dense.
  std::unique_ptr<IterSpace> space;
  TimeFunction time_function;
  std::unique_ptr<ProjectedStructure> projected;
  Grouping grouping;
  /// Per-vertex block assignment; empty in symbolic mode.
  Partition partition;
  /// Per-block iteration counts.  Filled in dense/verify and in the
  /// line-based symbolic fallback; EMPTY on the pure lattice path (use
  /// `lattice`/`lattice_stats` — materializing one entry per group is
  /// exactly what that path avoids).
  std::vector<std::int64_t> block_sizes;
  PartitionStats stats;
  TaskInteractionGraph tig;
  HypercubeMappingResult mapping;
  SimResult sim;

  /// Closed-form grouping; set when the symbolic path ran on the group
  /// lattice (partition/group_lattice.hpp).  When set, `projected`,
  /// `grouping`, `block_sizes`, `tig` and `mapping` are empty/default —
  /// the lattice fields below replace them.
  std::unique_ptr<GroupLattice> lattice;
  /// Closed-form Algorithm 2 result for the lattice path.
  std::optional<LatticeHypercubeMapping> lattice_mapping;
  /// Aggregate block statistics for the lattice path (stand-in for
  /// `block_sizes`).
  std::optional<LatticeBlockStats> lattice_stats;

  /// Iteration count regardless of backend.
  [[nodiscard]] std::uint64_t iteration_count() const;

  // Validation reports (populated when config.validate).
  bool exact_cover = false;
  bool theorem1 = false;
  Theorem2Report theorem2;
  LemmaReport lemmas;

  /// Final metrics snapshot; set only when config.obs carried a registry.
  std::optional<obs::MetricsSnapshot> metrics;

  /// One-paragraph human-readable summary.
  [[nodiscard]] std::string summary() const;
};

/// Run the full pipeline.  Throws on invalid configurations (e.g. no valid
/// time function in the search box, non-uniform dependences).
PipelineResult run_pipeline(const LoopNest& nest, const PipelineConfig& config = {});

}  // namespace hypart
