// hypart::fault — degraded-hypercube remapping (spare-node policy).
//
// When a node fails, every block it owns migrates to one of the node's
// hypercube (Gray-code) neighbors: among the neighbors still alive at the
// failure step, the one with the lowest current compute load (iteration
// count), ties broken by lowest processor id.  Blocks leave the failed
// node largest-first so the load spreads instead of piling onto one spare.
// Failure events are processed in (fail step, node id) order, so a spare
// that later fails itself hands the inherited blocks on — after the last
// event no block lives on any ever-failed node.
//
// Each migrated block is charged words x (t_start + t_comm), words being
// the block's iteration count (its live state must cross one link); the
// simulator folds this into the degraded total so SimResult reports honest
// numbers instead of a free recovery.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mapping/tig.hpp"
#include "partition/blocks.hpp"
#include "sim/machine.hpp"

namespace hypart::fault {

struct Migration {
  std::size_t block = 0;
  ProcId from = 0;
  ProcId to = 0;
  std::int64_t at_step = kFromStart;
  std::int64_t words = 0;  ///< iteration count of the migrated block
};

struct RemapResult {
  /// Block -> processor after every failure event; no ever-failed node
  /// owns a block, so this mapping is safe to hand to run_parallel.
  Mapping mapping;
  std::vector<Migration> migrations;
  std::int64_t migration_words = 0;
  Cost migration_cost;  ///< {0, migration_words, migration_words}

  /// Owner of `block` at simulated step `step` (failure timeline aware).
  [[nodiscard]] ProcId proc_at(std::size_t block, std::int64_t step) const;

 private:
  friend RemapResult remap_for_faults(const std::vector<std::int64_t>& block_sizes,
                                      const Mapping& mapping, const Hypercube& cube,
                                      const FaultSet& faults);
  /// Ownership history in three flat arrays: the fault-free owner of each
  /// block; every migration as (owned-from step, new owner), grouped by
  /// block and in event order within a block; and per block the offset of
  /// its first migration in that list (CSR, blocks + 1 entries; empty when
  /// no node fails, so every block keeps its fault-free owner).
  std::vector<ProcId> base_owner_;
  std::vector<std::pair<std::int64_t, ProcId>> moves_;
  std::vector<std::size_t> move_offset_;
};

/// Apply the spare-node policy to every node failure in `faults`.
/// Throws FaultError when a failed node has no live neighbor to take its
/// blocks.  With no node failures the input mapping is returned verbatim.
RemapResult remap_for_faults(const Partition& part, const Mapping& mapping,
                             const Hypercube& cube, const FaultSet& faults);

/// Same policy fed by per-block iteration counts instead of materialized
/// blocks — the symbolic paths' entry point (block_sizes[i] is the size of
/// the block at index i of `mapping`, e.g. the lattice sorted order).
RemapResult remap_for_faults(const std::vector<std::int64_t>& block_sizes, const Mapping& mapping,
                             const Hypercube& cube, const FaultSet& faults);

}  // namespace hypart::fault
