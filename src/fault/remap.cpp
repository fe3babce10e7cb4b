#include "fault/remap.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace hypart::fault {

ProcId RemapResult::proc_at(std::size_t block, std::int64_t step) const {
  ProcId owner = base_owner_.at(block);
  if (move_offset_.empty()) return owner;
  for (std::size_t i = move_offset_[block]; i < move_offset_[block + 1]; ++i) {
    if (moves_[i].first > step) break;
    owner = moves_[i].second;
  }
  return owner;
}

RemapResult remap_for_faults(const Partition& part, const Mapping& mapping,
                             const Hypercube& cube, const FaultSet& faults) {
  if (mapping.block_to_proc.size() != part.block_count())
    throw Error(ErrorKind::Config, "remap_for_faults: mapping/partition size mismatch");
  std::vector<std::int64_t> block_words(part.block_count(), 0);
  for (std::size_t b = 0; b < part.block_count(); ++b)
    block_words[b] = static_cast<std::int64_t>(part.blocks()[b].iterations.size());
  return remap_for_faults(block_words, mapping, cube, faults);
}

RemapResult remap_for_faults(const std::vector<std::int64_t>& block_sizes, const Mapping& mapping,
                             const Hypercube& cube, const FaultSet& faults) {
  const std::size_t nblocks = block_sizes.size();
  if (mapping.block_to_proc.size() != nblocks)
    throw Error(ErrorKind::Config, "remap_for_faults: mapping/partition size mismatch");
  if (mapping.processor_count > cube.size())
    throw Error(ErrorKind::Config, "remap_for_faults: mapping larger than the cube");

  RemapResult r;
  r.mapping = mapping;
  r.base_owner_ = mapping.block_to_proc;
  if (faults.failed_node_count() == 0) return r;

  // Live per-processor load (iterations) and current block ownership.
  std::vector<std::int64_t> load(cube.size(), 0);
  std::vector<std::vector<std::size_t>> owned(cube.size());
  const std::vector<std::int64_t>& block_words = block_sizes;
  for (std::size_t b = 0; b < nblocks; ++b) {
    ProcId p = mapping.block_to_proc[b];
    load[p] += block_words[b];
    owned[p].push_back(b);
  }

  for (const NodeFault& event : faults.node_failures_in_order()) {
    std::vector<std::size_t> evicted = std::move(owned[event.node]);
    owned[event.node].clear();
    load[event.node] = 0;
    if (evicted.empty()) continue;

    std::vector<ProcId> spares;
    for (ProcId nb : cube.neighbors(event.node))
      if (!faults.node_failed_at(nb, event.at_step)) spares.push_back(nb);
    if (spares.empty())
      throw FaultError("remap_for_faults: node " + std::to_string(event.node) +
                       " failed with no live neighbor to migrate to");

    // Largest block first; each goes to the currently least-loaded spare.
    std::sort(evicted.begin(), evicted.end(), [&](std::size_t x, std::size_t y) {
      if (block_words[x] != block_words[y]) return block_words[x] > block_words[y];
      return x < y;
    });
    for (std::size_t b : evicted) {
      ProcId best = spares.front();
      for (ProcId s : spares)
        if (load[s] < load[best] || (load[s] == load[best] && s < best)) best = s;
      load[best] += block_words[b];
      owned[best].push_back(b);
      r.mapping.block_to_proc[b] = best;
      r.migrations.push_back({b, event.node, best, event.at_step, block_words[b]});
      r.migration_words += block_words[b];
    }
  }

  // Group the migrations by block with a counting sort, which keeps each
  // block's migrations in event order (step order), and record the CSR
  // offsets.
  r.move_offset_.assign(nblocks + 1, 0);
  for (const Migration& m : r.migrations) ++r.move_offset_[m.block + 1];
  for (std::size_t b = 0; b < nblocks; ++b) r.move_offset_[b + 1] += r.move_offset_[b];
  r.moves_.resize(r.migrations.size());
  std::vector<std::size_t> next(r.move_offset_.begin(), r.move_offset_.end() - 1);
  for (const Migration& m : r.migrations) r.moves_[next[m.block]++] = {m.at_step, m.to};

  r.migration_cost = Cost{0, r.migration_words, r.migration_words};
  return r;
}

}  // namespace hypart::fault
