// Brute-force reference simulator for the tests: walks every vertex and arc
// of a materialized plan and prices it with std::map accounting under all
// three conventions (and charge_hops).  It shares only the remap and routing
// primitives with the production accounting core, so checking a simulator
// result against it compares two accountings, not two feeds of one core.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "fault/degraded_route.hpp"
#include "fault/remap.hpp"
#include "sim/exec_sim.hpp"

namespace hypart::oracle {

inline SimResult simulate(const ComputationStructure& q, const TimeFunction& tf,
                          const Partition& part, const Mapping& mapping, const Topology& topo,
                          const MachineParams& machine, const SimOptions& opts) {
  const auto* cube = dynamic_cast<const Hypercube*>(&topo);
  const bool faulty = !opts.faults.machine_empty();
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;
  SimResult r;
  r.per_proc_iterations.assign(
      faulty ? std::max(mapping.processor_count, topo.size()) : mapping.processor_count, 0);
  if (faulty) {
    set = opts.faults.resolve(*cube);
    remap = fault::remap_for_faults(part, mapping, *cube, set);
    r.failed_nodes = static_cast<std::int64_t>(set.failed_node_count());
    r.failed_links = static_cast<std::int64_t>(set.failed_link_count());
    r.migrated_blocks = static_cast<std::int64_t>(remap->migrations.size());
    r.migration_cost = remap->migration_cost;
  }

  // Owner and step of every vertex; iterations per (step, processor).
  const std::size_t n = q.vertices().size();
  std::vector<ProcId> owner(n);
  std::vector<std::int64_t> step(n);
  std::map<std::pair<std::int64_t, ProcId>, std::int64_t> iters;
  for (std::size_t v = 0; v < n; ++v) {
    step[v] = tf.step_of(q.vertices()[v]);
    const std::size_t b = part.block_of(v);
    owner[v] = faulty ? remap->proc_at(b, step[v]) : mapping.block_to_proc[b];
    ++r.per_proc_iterations[owner[v]];
    ++iters[{step[v], owner[v]}];
  }
  const auto [lo, hi] = std::minmax_element(step.begin(), step.end());
  r.steps = *hi - *lo + 1;
  std::int64_t max_iters = 0;
  for (std::int64_t c : r.per_proc_iterations) max_iters = std::max(max_iters, c);
  r.compute_bottleneck = Cost{max_iters * opts.flops_per_iteration, 0, 0};

  auto route = [&](ProcId a, ProcId b, std::int64_t s) -> fault::Route {
    if (faulty) return fault::route_with_faults(*cube, a, b, set, s);
    return {cube != nullptr ? cube->ecube_route(a, b) : std::vector<ProcId>{}, false};
  };
  auto mult = [&](ProcId a, ProcId b, const fault::Route& rt) -> std::int64_t {
    if (!opts.charge_hops) return 1;
    return cube != nullptr ? static_cast<std::int64_t>(rt.hops.size())
                           : static_cast<std::int64_t>(topo.distance(a, b));
  };

  // Every crossing arc is a one-word message: PaperMaxChannel charges it to
  // its unordered processor pair; the per-step conventions aggregate words
  // per (step, src, dst).
  std::map<std::pair<ProcId, ProcId>, std::int64_t> pair_units;
  std::map<std::tuple<std::int64_t, ProcId, ProcId>, std::int64_t> msgs;
  q.for_each_arc([&](const IntVec& src, const IntVec& dst, std::size_t) {
    const std::size_t s = q.id_of(src), d = q.id_of(dst);
    if (owner[s] == owner[d]) return;
    ++r.words;
    ++msgs[{step[s], owner[s], owner[d]}];
    if (opts.accounting != CommAccounting::PaperMaxChannel) return;
    const fault::Route rt = route(owner[s], owner[d], step[s]);
    if (rt.rerouted) ++r.rerouted_messages;
    ++r.messages;
    pair_units[std::minmax(owner[s], owner[d])] += mult(owner[s], owner[d], rt);
  });

  if (opts.accounting == CommAccounting::PaperMaxChannel) {
    std::int64_t worst = 0;
    for (const auto& [pair, units] : pair_units) worst = std::max(worst, units);
    r.comm_bottleneck = Cost{0, worst, worst};
    r.total = r.compute_bottleneck + r.comm_bottleneck;
  } else {
    r.messages = static_cast<std::int64_t>(msgs.size());
    std::map<std::int64_t, std::map<ProcId, Cost>> proc_cost;  // barrier: per step, per proc
    std::map<std::int64_t, std::map<std::pair<ProcId, ProcId>, Cost>> link_load;  // contention
    std::map<std::pair<ProcId, ProcId>, std::int64_t> link_words;
    for (const auto& [key, count] : iters)
      proc_cost[key.first][key.second] += Cost{count * opts.flops_per_iteration, 0, 0};
    for (const auto& [key, words] : msgs) {
      const auto [s, a, b] = key;
      const fault::Route rt = route(a, b, s);
      if (rt.rerouted) ++r.rerouted_messages;
      const std::int64_t m = mult(a, b, rt);
      proc_cost[s][a] += Cost{0, m, m * words};
      ProcId at = a;
      for (ProcId hop : rt.hops) {
        link_load[s][{at, hop}] += Cost{0, 1, words};
        link_words[{at, hop}] += words;
        at = hop;
      }
    }
    // The worst processor (barrier) or link (contention) of a step, lowest
    // id first on exact ties.
    auto worst_of = [&](const auto& costs) {
      Cost worst;
      double worst_val = -1.0;
      for (const auto& [who, c] : costs)
        if (c.value(machine) > worst_val) {
          worst_val = c.value(machine);
          worst = c;
        }
      return worst;
    };
    for (const auto& [s, procs] : proc_cost) {
      Cost step_cost = worst_of(procs);
      if (opts.accounting == CommAccounting::LinkContention) {
        std::int64_t busiest = 0;  // compute of the busiest processor
        for (const auto& [p, c] : procs) busiest = std::max(busiest, c.calc);
        step_cost = Cost{busiest, 0, 0} + worst_of(link_load[s]);
      }
      r.total += step_cost;
      r.comm_bottleneck += Cost{0, step_cost.start, step_cost.comm};
    }
    if (opts.accounting == CommAccounting::LinkContention)
      for (const auto& [link, words] : link_words)
        r.max_link_words = std::max(r.max_link_words, words);
  }
  r.total += r.migration_cost;
  r.time = r.total.value(machine);
  return r;
}

/// Every priced quantity of `got` equals the oracle's `want`.
inline void expect_matches(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.compute_bottleneck, want.compute_bottleneck);
  EXPECT_EQ(got.comm_bottleneck, want.comm_bottleneck);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.words, want.words);
  EXPECT_EQ(got.max_link_words, want.max_link_words);
  EXPECT_EQ(got.per_proc_iterations, want.per_proc_iterations);
  EXPECT_EQ(got.rerouted_messages, want.rerouted_messages);
  EXPECT_EQ(got.migrated_blocks, want.migrated_blocks);
  EXPECT_EQ(got.migration_cost, want.migration_cost);
  EXPECT_EQ(got.failed_nodes, want.failed_nodes);
  EXPECT_EQ(got.failed_links, want.failed_links);
}

}  // namespace hypart::oracle
