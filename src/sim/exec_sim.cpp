#include "sim/exec_sim.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/error.hpp"
#include "fault/degraded_route.hpp"
#include "fault/remap.hpp"
#include "partition/symbolic.hpp"

namespace hypart {

double SimResult::speedup(const MachineParams& m, std::int64_t total_iterations,
                          std::int64_t flops_per_iteration) const {
  double seq = static_cast<double>(total_iterations) * static_cast<double>(flops_per_iteration) *
               m.t_calc;
  return time > 0 ? seq / time : 0.0;
}

namespace {

/// Resolved machine-fault state for one simulation.  `remap` is present
/// only when nodes fail; `breaks` are the steps at which the machine's fault
/// state changes — ownership and routing are constant between them.
struct SymFaultState {
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;
  std::vector<std::int64_t> breaks;  ///< distinct at_steps > kFromStart, ascending
  bool active = false;

  [[nodiscard]] bool remapped() const { return remap.has_value(); }
};

/// Checks the topology against the processor count and resolves the fault
/// plan.  Node failures need concrete migration targets, so only then does
/// `materialize_blocks` supply the feed's block sizes and base mapping — the
/// only O(blocks) work of a closed-form feed.
SymFaultState resolve_machine(
    const SimOptions& opts, const Topology& topo, std::size_t nprocs,
    const std::function<void(std::vector<std::int64_t>&, Mapping&)>& materialize_blocks) {
  if (topo.size() < nprocs)
    throw std::invalid_argument("simulate_execution: topology smaller than processor count");
  SymFaultState fs;
  if (opts.faults.machine_empty()) return fs;
  const auto* cube = dynamic_cast<const Hypercube*>(&topo);
  if (cube == nullptr)
    throw FaultError("simulate_execution: fault injection requires a Hypercube topology");
  fs.set = opts.faults.resolve(*cube);
  fs.active = true;
  for (const fault::NodeFault& nf : fs.set.node_failures_in_order())
    if (nf.at_step > fault::kFromStart) fs.breaks.push_back(nf.at_step);
  for (const auto& [link, step] : fs.set.link_failures())
    if (step > fault::kFromStart) fs.breaks.push_back(step);
  std::sort(fs.breaks.begin(), fs.breaks.end());
  fs.breaks.erase(std::unique(fs.breaks.begin(), fs.breaks.end()), fs.breaks.end());
  if (fs.set.failed_node_count() > 0) {
    std::vector<std::int64_t> sizes;
    Mapping base;
    materialize_blocks(sizes, base);
    fs.remap = fault::remap_for_faults(sizes, base, *cube, fs.set);
  }
  return fs;
}

/// One projection line of the feed.  `proc` is the fault-free owner;
/// `block` identifies the line's block for the degraded-ownership lookup and
/// is only meaningful when node faults are active.
struct SymLine {
  ProcId proc = 0;
  std::size_t block = 0;
  std::int64_t pop = 0;
  std::int64_t first_step = 0;
};

/// One (line, dependence) arc bundle.  `step_shift` is Π·d — the target
/// point of an arc leaving at step t fires at t + step_shift, which is when
/// its degraded owner must be evaluated.
struct SymBundle {
  ProcId src_proc = 0;
  ProcId dst_proc = 0;
  std::size_t src_block = 0;
  std::size_t dst_block = 0;
  std::int64_t step_shift = 0;
  std::int64_t count = 0;
  std::int64_t first_step = 0;
};

/// Feed for the shared accounting core: the caller provides the frame
/// (processors, schedule, stride) and two visitations — every projection
/// line and every dependence arc bundle.  The line-based path (Grouping +
/// Mapping), the lattice path (GroupLattice + LatticeHypercubeMapping) and
/// the dense path (one line per vertex, one bundle per arc) reduce to this.
struct SymbolicFeed {
  std::size_t nprocs = 0;
  std::int64_t steps = 0;  ///< schedule length
  std::int64_t lo = 0;     ///< minimum step (rebases first_step values)
  std::int64_t sigma = 1;  ///< step stride of the projection lines
  std::function<void(const std::function<void(const SymLine&)>&)> lines;
  std::function<void(const std::function<void(const SymBundle&)>&)> bundles;
  /// Build the per-step tables under every accounting and emit the per-step
  /// telemetry from them.  Only the dense feed sets it (see exec_sim.hpp).
  bool per_step_telemetry = false;
};

/// Words per rebased step of one directed (src, dst) processor channel.
struct Channel {
  ProcId src = 0;
  ProcId dst = 0;
  std::vector<std::int64_t> words;
};

/// The core's per-step tables, indexed by step - lo.
struct StepTables {
  std::int64_t lo = 0;
  std::vector<std::vector<std::int64_t>> iters;  ///< [slot][step]
  std::vector<Channel> channels;                 ///< in first-use order
  std::map<std::pair<ProcId, ProcId>, std::size_t> channel_index;  ///< (src, dst) order
};

/// Visits the directed links (from, to) a message on `ch` occupies: its
/// route's hops, or the logical channel itself when there is no route.
template <class Visit>
void for_each_link(const Channel& ch, const fault::Route* rt, const Visit& visit) {
  if (rt == nullptr) return visit(std::pair{ch.src, ch.dst});
  ProcId at = ch.src;
  for (ProcId hop : rt->hops) visit(std::pair{std::exchange(at, hop), hop});
}

/// Hop distance of a message: its route's length, or the topology's
/// distance when there is no route.  Prices charge_hops and sim.msg_hops.
std::int64_t message_hops(const Topology& topo, const Channel& ch, const fault::Route* rt) {
  return rt != nullptr ? static_cast<std::int64_t>(rt->hops.size())
                       : static_cast<std::int64_t>(topo.distance(ch.src, ch.dst));
}

/// Per-step telemetry read from the core's tables: busy and idle steps per
/// processor, the sim.msg_* histograms, the busiest-link series, the
/// sim.max_link_words gauge and the Chrome trace on the simulated clock (pid
/// obs::kSimPid: one tid per processor, one per directed link — the logical
/// channel off a hypercube).  `route(c, step)` is channel c's link path at an
/// absolute step: the e-cube route, detoured around failures under a fault
/// plan; null off a hypercube.
template <class ChannelRoute>
void emit_step_telemetry(const StepTables& tab, const ChannelRoute& route, const Topology& topo,
                         const MachineParams& machine, const SimOptions& opts,
                         std::int64_t nsteps) {
  obs::TraceSink* sink = opts.obs.trace;
  obs::MetricsRegistry* reg = opts.obs.metrics;
  const std::size_t nslots = tab.iters.size();
  auto compute_time = [&](std::int64_t iters) {
    return static_cast<double>(iters * opts.flops_per_iteration) * machine.t_calc;
  };

  // Link tracks in (from, to) order, so tids and names are stable.
  std::map<std::pair<ProcId, ProcId>, std::uint64_t> link_tid;
  if (sink != nullptr) {
    for (std::size_t c = 0; c < tab.channels.size(); ++c)
      for (std::int64_t t = 0; t < nsteps; ++t)
        if (tab.channels[c].words[t] != 0)
          for_each_link(tab.channels[c], route(c, t + tab.lo),
                        [&](std::pair<ProcId, ProcId> link) { link_tid.emplace(link, 0); });
    std::uint64_t next_tid = obs::kLinkTidBase;
    for (auto& [link, tid] : link_tid) tid = next_tid++;

    obs::emit_process_name(sink, obs::kSimPid, "hypart simulator (simulated time)");
    for (std::size_t p = 0; p < nslots; ++p)
      obs::emit_thread_name(sink, obs::kSimPid, p, "proc " + std::to_string(p));
    for (const auto& [link, tid] : link_tid)
      obs::emit_thread_name(sink, obs::kSimPid, tid, "link " + std::to_string(link.first) +
                                                         "->" + std::to_string(link.second));
  }

  static const std::vector<std::int64_t> kWordBounds{1, 2, 4, 8, 16, 32, 64, 128, 256};
  static const std::vector<std::int64_t> kHopBounds{0, 1, 2, 3, 4, 6, 8};
  std::vector<std::int64_t> busy(nslots, 0);
  std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
  double clock = 0.0;
  for (std::int64_t t = 0; t < nsteps; ++t) {
    const std::int64_t step = t + tab.lo;
    double max_compute = 0.0;
    bool computing = false;
    for (std::size_t p = 0; p < nslots; ++p) {
      const std::int64_t iters = tab.iters[p][t];
      if (iters == 0) continue;
      computing = true;
      ++busy[p];
      const double c = compute_time(iters);
      max_compute = std::max(max_compute, c);
      if (sink != nullptr)
        obs::emit_complete(sink, "compute", "sim", clock, c, obs::kSimPid, p,
                           {{"step", step}, {"iterations", iters}});
    }
    if (!computing) continue;

    // Messages sent this step in (src, dst) order, serialized per link
    // after the compute phase.
    std::map<std::pair<ProcId, ProcId>, Cost> links;  // {0, msgs, words} per link
    for (const auto& [key, c] : tab.channel_index) {
      const Channel& ch = tab.channels[c];
      const std::int64_t words = ch.words[t];
      if (words == 0) continue;
      const fault::Route* rt = route(c, step);
      const std::int64_t hops = message_hops(topo, ch, rt);
      if (reg != nullptr) {
        reg->observe("sim.msg_words", words, kWordBounds);
        reg->observe("sim.msg_hops", hops, kHopBounds);
      }
      if (sink != nullptr)
        obs::emit_instant(sink, "msg", "sim", clock + compute_time(tab.iters[ch.src][t]),
                          obs::kSimPid, ch.src,
                          {{"src", static_cast<std::int64_t>(ch.src)},
                           {"dst", static_cast<std::int64_t>(ch.dst)},
                           {"words", words}, {"hops", hops}, {"step", step}});
      for_each_link(ch, rt, [&](std::pair<ProcId, ProcId> link) {
        links[link] += Cost{0, 1, words};
        total_link_words[link] += words;
      });
    }

    double comm = 0.0;
    std::int64_t busiest_words = 0;
    for (const auto& [link, load] : links) {
      const double occupancy = load.value(machine);
      if (sink != nullptr)
        obs::emit_complete(sink, "xfer", "sim", clock + max_compute, occupancy, obs::kSimPid,
                           link_tid.at(link),
                           {{"step", step}, {"msgs", load.start}, {"words", load.comm}});
      comm = std::max(comm, occupancy);
      busiest_words = std::max(busiest_words, load.comm);
    }
    if (!links.empty()) {
      if (reg != nullptr)
        reg->append("sim.link.busiest_words", step, static_cast<double>(busiest_words));
      obs::emit_counter(sink, "busiest_link_words", clock + max_compute, obs::kSimPid,
                        static_cast<double>(busiest_words));
    }
    clock += max_compute + comm;
  }

  if (reg != nullptr) {
    for (std::size_t p = 0; p < nslots; ++p) {
      const auto x = static_cast<std::int64_t>(p);
      reg->append("sim.proc.busy_steps", x, static_cast<double>(busy[p]));
      reg->append("sim.proc.idle_steps", x, static_cast<double>(nsteps - busy[p]));
    }
    std::int64_t max_words = 0;
    for (const auto& [link, words] : total_link_words) max_words = std::max(max_words, words);
    reg->set_gauge("sim.max_link_words", static_cast<double>(max_words));
  }
}

/// The one metrics emitter of every simulation: aggregate counters, fault
/// counters whenever a fault plan is active, and per-processor loads as a
/// series keyed by processor id (exact in double below 2^53).
void emit_metrics(const SimOptions& opts, const SymFaultState& fstate, SimResult& res) {
  obs::MetricsRegistry* reg = opts.obs.metrics;
  if (reg == nullptr) return;
  reg->add("sim.steps", res.steps);
  reg->add("sim.messages", res.messages);
  reg->add("sim.words", res.words);
  reg->set_gauge("sim.time", res.time);
  if (fstate.active) {
    reg->add("fault.reroutes", res.rerouted_messages);
    reg->add("fault.migrations", res.migrated_blocks);
    reg->add("fault.migration_words", fstate.remapped() ? fstate.remap->migration_words : 0);
    reg->set_gauge("fault.failed_nodes", static_cast<double>(res.failed_nodes));
    reg->set_gauge("fault.failed_links", static_cast<double>(res.failed_links));
  }
  for (std::size_t p = 0; p < res.per_proc_iterations.size(); ++p)
    reg->append("sim.proc.iterations", static_cast<std::int64_t>(p),
                static_cast<double>(res.per_proc_iterations[p]));
  res.metrics = reg->snapshot();
}

/// Folds candidate costs into the costliest: the first strictly costlier one
/// wins, so exact ties go to the lowest key of an ascending scan.
struct Costliest {
  Cost worst;
  double worst_val = -1.0;

  void offer(const Cost& c, const MachineParams& machine) {
    const double v = c.value(machine);
    if (v > worst_val) {
      worst_val = v;
      worst = c;
    }
  }
};

SimResult simulate_symbolic_core(const SymbolicFeed& in, const Topology& topo,
                                 const MachineParams& machine, const SimOptions& opts,
                                 const SymFaultState& fstate) {
  // Spare nodes may sit outside the mapping's processor range but inside
  // the cube, so degraded runs account over the whole topology.
  const std::size_t nslots = fstate.active ? std::max(in.nprocs, topo.size()) : in.nprocs;
  const auto* cube = dynamic_cast<const Hypercube*>(&topo);  // non-null under faults
  SimResult res;
  res.per_proc_iterations.assign(nslots, 0);
  res.steps = in.steps;
  const std::int64_t lo = in.lo, sigma = in.sigma;
  if (fstate.active) {
    res.failed_nodes = static_cast<std::int64_t>(fstate.set.failed_node_count());
    res.failed_links = static_cast<std::int64_t>(fstate.set.failed_link_count());
    if (fstate.remapped()) {
      res.migrated_blocks = static_cast<std::int64_t>(fstate.remap->migrations.size());
      res.migration_cost = fstate.remap->migration_cost;
    }
  }
  // Every accounting ends with the migration charge and one metrics pass.
  auto finish = [&]() -> SimResult {
    res.total += res.migration_cost;
    res.time = res.total.value(machine);
    emit_metrics(opts, fstate, res);
    return std::move(res);
  };

  // Owner of a block at an absolute step (failure-timeline aware).
  auto owner = [&](ProcId fault_free, std::size_t blk, std::int64_t step) -> ProcId {
    return fstate.remapped() ? fstate.remap->proc_at(blk, step) : fault_free;
  };
  // Visit maximal equal-fault-state segments (seg_first, seg_count) of the
  // strided run first, first+σ, …: ownership and routing change only at the
  // cut steps, and a cut takes effect *at* the cut (matching
  // RemapResult::proc_at and FaultSet's at-step semantics).
  auto for_each_segment = [&](std::int64_t first, std::int64_t count,
                              const std::vector<std::int64_t>& cuts,
                              const std::function<void(std::int64_t, std::int64_t)>& emit) {
    if (count <= 0) return;
    const std::int64_t last = first + (count - 1) * sigma;
    std::int64_t i0 = 0;
    for (std::int64_t cut : cuts) {
      if (cut <= first) continue;
      if (cut > last) break;
      std::int64_t i = ceil_div(cut - first, sigma);
      if (i > i0) {
        emit(first + i0 * sigma, i - i0);
        i0 = i;
      }
    }
    emit(first + i0 * sigma, count - i0);
  };
  // An arc bundle's channel changes when the *source* step crosses a break
  // (source owner, route) or when the *target* step does (target owner);
  // the latter projects to source steps shifted by -Π·d.
  std::map<std::int64_t, std::vector<std::int64_t>> shift_cuts;
  auto cuts_for_shift = [&](std::int64_t shift) -> const std::vector<std::int64_t>& {
    auto it = shift_cuts.find(shift);
    if (it != shift_cuts.end()) return it->second;
    std::vector<std::int64_t> cuts = fstate.breaks;
    for (std::int64_t b : fstate.breaks) cuts.push_back(b - shift);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    return shift_cuts.emplace(shift, std::move(cuts)).first->second;
  };
  // Owned runs (proc, first step, count) of every line: a line's run splits
  // at the fault steps, each segment owned by whoever holds its block then.
  auto for_each_line_run = [&](const auto& visit) {
    in.lines([&](const SymLine& ln) {
      if (!fstate.remapped()) return visit(ln.proc, ln.first_step, ln.pop);
      for_each_segment(ln.first_step, ln.pop, fstate.breaks, [&](std::int64_t s, std::int64_t n) {
        visit(owner(ln.proc, ln.block, s), s, n);
      });
    });
  };
  // Channel runs (src, dst, first step, count) of every bundle, split
  // wherever its owners or its route may change.
  auto for_each_bundle_run = [&](const auto& visit) {
    in.bundles([&](const SymBundle& b) {
      if (!fstate.active) return visit(b.src_proc, b.dst_proc, b.first_step, b.count);
      for_each_segment(b.first_step, b.count, cuts_for_shift(b.step_shift),
                       [&](std::int64_t s, std::int64_t n) {
                         visit(owner(b.src_proc, b.src_block, s),
                               owner(b.dst_proc, b.dst_block, s + b.step_shift), s, n);
                       });
    });
  };
  // Degraded route of a channel, cached per fault epoch (the number of
  // breaks at or before the step): the detour BFS runs once per
  // (channel, epoch), not once per step.
  std::map<std::tuple<ProcId, ProcId, std::size_t>, fault::Route> route_cache;
  auto routed = [&](ProcId ps, ProcId pd, std::int64_t step) -> const fault::Route& {
    const std::size_t epoch = static_cast<std::size_t>(
        std::upper_bound(fstate.breaks.begin(), fstate.breaks.end(), step) -
        fstate.breaks.begin());
    auto [it, inserted] = route_cache.try_emplace({ps, pd, epoch});
    if (inserted) it->second = fault::route_with_faults(*cube, ps, pd, fstate.set, step);
    return it->second;
  };

  for_each_line_run(
      [&](ProcId p, std::int64_t, std::int64_t n) { res.per_proc_iterations[p] += n; });
  std::int64_t max_iters = 0;
  for (std::int64_t c : res.per_proc_iterations) max_iters = std::max(max_iters, c);
  res.compute_bottleneck = Cost{max_iters * opts.flops_per_iteration, 0, 0};

  if (opts.accounting == CommAccounting::PaperMaxChannel) {
    // Channel volumes need no step resolution beyond the fault segments: one
    // bundle segment contributes its whole arc count to the unordered
    // processor pair, with the degraded route priced at its first step.
    std::map<std::pair<ProcId, ProcId>, std::int64_t> channel;
    for_each_bundle_run([&](ProcId ps, ProcId pd, std::int64_t step, std::int64_t count) {
      if (ps == pd) return;
      std::int64_t units = 1;
      if (fstate.active) {
        const fault::Route& rt = routed(ps, pd, step);
        if (rt.rerouted) res.rerouted_messages += count;
        if (opts.charge_hops) units = static_cast<std::int64_t>(rt.hops.size());
      } else if (opts.charge_hops) {
        units = static_cast<std::int64_t>(topo.distance(ps, pd));
      }
      channel[std::minmax(ps, pd)] += units * count;
      res.messages += count;
      res.words += count;
    });
    std::int64_t worst = 0;
    for (const auto& [pair, units] : channel) worst = std::max(worst, units);
    res.comm_bottleneck = Cost{0, worst, worst};
    res.total = res.compute_bottleneck + res.comm_bottleneck;
    if (!in.per_step_telemetry) return finish();
  }

  // Per-step tables.  Every line (and every arc bundle segment) occupies
  // steps t0, t0+sigma, ..., so per-step tables are strided difference
  // arrays: +1 at the run's first step, -1 one stride past its last, then a
  // strided prefix sum recovers exact per-step counts in O(steps) per row.
  const std::int64_t nsteps = res.steps;
  auto add_run = [&](std::vector<std::int64_t>& row, std::int64_t first, std::int64_t count) {
    const std::int64_t t0 = first - lo;
    const std::int64_t end = t0 + count * sigma;
    row[t0] += 1;
    if (end < nsteps) row[end] -= 1;
  };
  auto strided_prefix = [&](std::vector<std::int64_t>& v) {
    for (std::int64_t t = sigma; t < nsteps; ++t) v[t] += v[t - sigma];
  };
  StepTables tab{lo, {}, {}, {}};
  tab.iters.assign(nslots, std::vector<std::int64_t>(nsteps, 0));
  for_each_line_run([&](ProcId p, std::int64_t first, std::int64_t n) {
    add_run(tab.iters[p], first, n);
  });
  for (auto& v : tab.iters) strided_prefix(v);
  std::int64_t words = 0;
  for_each_bundle_run([&](ProcId src, ProcId dst, std::int64_t first, std::int64_t count) {
    if (src == dst) return;
    words += count;
    auto [it, inserted] = tab.channel_index.try_emplace({src, dst}, tab.channels.size());
    if (inserted) tab.channels.push_back({src, dst, std::vector<std::int64_t>(nsteps, 0)});
    add_run(tab.channels[it->second].words, first, count);
  });
  for (Channel& ch : tab.channels) strided_prefix(ch.words);
  res.words = words;

  // Fault-free channels keep one static e-cube route, built on first use;
  // degraded channels look their route up per occupied step through the
  // epoch cache.
  std::vector<fault::Route> static_routes;
  auto route = [&](std::size_t c, std::int64_t step) -> const fault::Route* {
    if (fstate.active) return &routed(tab.channels[c].src, tab.channels[c].dst, step);
    if (cube == nullptr) return nullptr;
    if (static_routes.empty())
      for (const Channel& ch : tab.channels)
        static_routes.push_back({cube->ecube_route(ch.src, ch.dst), false});
    return &static_routes[c];
  };

  if (opts.accounting == CommAccounting::LinkContention) {
    // Per step: the busiest processor's compute plus the busiest directed
    // link's serialized traffic.
    if (cube == nullptr)
      throw std::invalid_argument(
          "simulate_execution: LinkContention accounting requires a Hypercube topology");
    std::map<std::pair<ProcId, ProcId>, std::int64_t> total_link_words;
    for (std::int64_t t = 0; t < nsteps; ++t) {
      std::int64_t step_iters = 0;
      for (std::size_t p = 0; p < nslots; ++p) step_iters = std::max(step_iters, tab.iters[p][t]);
      if (step_iters == 0) continue;  // messages only originate from computing procs
      std::map<std::pair<ProcId, ProcId>, Cost> links;  // {0, msgs, words} per link
      for (std::size_t c = 0; c < tab.channels.size(); ++c) {
        const std::int64_t w = tab.channels[c].words[t];
        if (w == 0) continue;
        ++res.messages;
        const fault::Route& rt = *route(c, t + lo);
        if (rt.rerouted) ++res.rerouted_messages;
        for_each_link(tab.channels[c], &rt, [&](std::pair<ProcId, ProcId> link) {
          links[link] += Cost{0, 1, w};
          if (fstate.active) total_link_words[link] += w;
        });
      }
      Costliest busiest;
      for (const auto& [link, load] : links) busiest.offer(load, machine);
      res.total += Cost{step_iters * opts.flops_per_iteration, 0, 0} + busiest.worst;
      res.comm_bottleneck += busiest.worst;
    }
    // Fault-free routes are static: link totals follow from channel totals.
    for (std::size_t c = 0; c < tab.channels.size() && !fstate.active; ++c) {
      const std::vector<std::int64_t>& w = tab.channels[c].words;
      const std::int64_t total = std::accumulate(w.begin(), w.end(), std::int64_t{0});
      for_each_link(tab.channels[c], route(c, lo),
                    [&](std::pair<ProcId, ProcId> link) { total_link_words[link] += total; });
    }
    for (const auto& [link, w] : total_link_words)
      res.max_link_words = std::max(res.max_link_words, w);
  } else if (opts.accounting == CommAccounting::PerStepBarrier) {
    // Each processor's step time is its compute plus its aggregated sends;
    // the step ends when the slowest processor finishes (barrier).
    std::vector<Cost> proc_cost(nslots);
    for (std::int64_t t = 0; t < nsteps; ++t) {
      bool any = false;
      for (std::size_t p = 0; p < nslots; ++p) {
        proc_cost[p] = Cost{tab.iters[p][t] * opts.flops_per_iteration, 0, 0};
        any = any || tab.iters[p][t] > 0;
      }
      if (!any) continue;
      for (std::size_t c = 0; c < tab.channels.size(); ++c) {
        const Channel& ch = tab.channels[c];
        const std::int64_t w = ch.words[t];
        if (w == 0) continue;
        ++res.messages;
        std::int64_t mult = 1;
        if (fstate.active || opts.charge_hops) {
          const fault::Route* rt = route(c, t + lo);
          if (rt != nullptr && rt->rerouted) ++res.rerouted_messages;
          if (opts.charge_hops) mult = message_hops(topo, ch, rt);
        }
        proc_cost[ch.src] += Cost{0, mult, mult * w};
      }
      Costliest slowest;
      for (std::size_t p = 0; p < nslots; ++p)
        if (tab.iters[p][t] > 0) slowest.offer(proc_cost[p], machine);  // idle procs send nothing
      res.total += slowest.worst;
      res.comm_bottleneck += Cost{0, slowest.worst.start, slowest.worst.comm};
    }
  }

  if (in.per_step_telemetry) emit_step_telemetry(tab, route, topo, machine, opts, nsteps);
  return finish();
}

/// Π·d of every dependence: an arc leaving at step t lands at t + Π·d.
std::vector<std::int64_t> step_shifts(const IterSpace& space, const TimeFunction& tf) {
  std::vector<std::int64_t> shifts;
  for (const IntVec& d : space.dependences()) shifts.push_back(dot(tf.pi, d));
  return shifts;
}

/// Frame of a closed-form feed: the schedule span of `space` under Π.
SymbolicFeed closed_form_frame(const IterSpace& space, const TimeFunction& tf,
                               std::size_t nprocs, std::int64_t sigma) {
  SymbolicFeed feed;
  feed.nprocs = nprocs;
  feed.lo = space.min_step(tf.pi);
  feed.steps = space.max_step(tf.pi) - feed.lo + 1;
  feed.sigma = sigma;
  return feed;
}

}  // namespace

SimResult simulate_execution(const ComputationStructure& q, const TimeFunction& tf,
                             const Partition& part, const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  if (mapping.block_to_proc.size() != part.block_count())
    throw std::invalid_argument("simulate_execution: mapping/partition size mismatch");
  // Blocks keep the partition's creation order, so node-fault remaps see
  // the same block indices as the materialized partition.
  SymFaultState fstate = resolve_machine(
      opts, topo, mapping.processor_count, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        for (const PartitionBlock& b : part.blocks())
          sizes.push_back(static_cast<std::int64_t>(b.iterations.size()));
        base = mapping;
      });

  const std::vector<IntVec>& verts = q.vertices();
  std::vector<std::int64_t> vstep(verts.size());
  for (std::size_t vid = 0; vid < verts.size(); ++vid) vstep[vid] = tf.step_of(verts[vid]);
  const auto [lo, hi] = std::minmax_element(vstep.begin(), vstep.end());

  // Every vertex is a one-point line of its block and every arc a one-arc
  // bundle, on the unit step stride.
  SymbolicFeed feed;
  feed.nprocs = mapping.processor_count;
  feed.lo = *lo;
  feed.steps = *hi - *lo + 1;
  feed.per_step_telemetry = opts.obs.enabled();
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    for (std::size_t vid = 0; vid < verts.size(); ++vid) {
      const std::size_t b = part.block_of(vid);
      v({mapping.block_to_proc[b], b, 1, vstep[vid]});
    }
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    q.for_each_arc_id([&](std::size_t s, std::size_t d, std::size_t) {
      const std::size_t bs = part.block_of(s), bd = part.block_of(d);
      v({mapping.block_to_proc[bs], mapping.block_to_proc[bd], bs, bd, vstep[d] - vstep[s], 1,
         vstep[s]});
    });
  };
  SimResult res = simulate_symbolic_core(feed, topo, machine, opts, fstate);
  span.arg("steps", res.steps);
  span.arg("messages", res.messages);
  return res;
}

SimResult simulate_execution(const IterSpace& space, const Grouping& grouping,
                             const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  const ProjectedStructure& ps = grouping.projected();
  const TimeFunction& tf = ps.time_function();
  if (mapping.block_to_proc.size() != grouping.group_count())
    throw std::invalid_argument("simulate_execution: mapping/partition size mismatch");
  SymFaultState fstate = resolve_machine(
      opts, topo, mapping.processor_count, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        sizes = symbolic_block_sizes(grouping);
        base = mapping;
      });

  // Processor (and block, for the degraded-ownership lookups) of every
  // projection line; a line's points all live in one block.
  std::vector<std::size_t> pblock(ps.point_count());
  std::vector<ProcId> pproc(ps.point_count());
  for (std::size_t pid = 0; pid < ps.point_count(); ++pid) {
    pblock[pid] = grouping.group_of_point(pid);
    pproc[pid] = mapping.block_to_proc[pblock[pid]];
  }
  const std::vector<std::int64_t> shifts = step_shifts(space, tf);

  SymbolicFeed feed = closed_form_frame(space, tf, mapping.processor_count, ps.step_stride());
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    for (std::size_t pid = 0; pid < ps.point_count(); ++pid)
      v({pproc[pid], pblock[pid], static_cast<std::int64_t>(ps.line_population(pid)),
         tf.step_of(ps.line_representative(pid))});
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    for_each_line_dep(space, ps, [&](const LineDepArcs& b) {
      v({pproc[b.point], pproc[b.target], pblock[b.point], pblock[b.target], shifts[b.dep],
         b.count, b.first_step});
    });
  };
  return simulate_symbolic_core(feed, topo, machine, opts, fstate);
}

SimResult simulate_execution(const GroupLattice& lattice, const LatticeHypercubeMapping& mapping,
                             const Topology& topo, const MachineParams& machine,
                             const SimOptions& opts) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  const IterSpace& space = lattice.space();
  const TimeFunction& tf = lattice.time_function();

  // Node failures index blocks in the lattice's canonical sorted order.
  std::map<GroupLattice::GroupKey, std::size_t> key_index;
  SymFaultState fstate = resolve_machine(
      opts, topo, mapping.processor_count, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        base.processor_count = mapping.processor_count;
        lattice.for_each_group([&](const GroupLattice::GroupKey& g, std::int64_t pop) {
          key_index.emplace(g, sizes.size());
          sizes.push_back(pop);
          base.block_to_proc.push_back(mapping.proc_of_group(lattice, g));
        });
      });
  auto block_of = [&](const GroupLattice::GroupKey& g) -> std::size_t {
    return fstate.remapped() ? key_index.at(g) : 0;
  };
  const std::vector<std::int64_t> shifts = step_shifts(space, tf);

  SymbolicFeed feed =
      closed_form_frame(space, tf, mapping.processor_count, lattice.step_stride());
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    lattice.for_each_line(
        [&](const GroupLattice::GroupKey& g, std::int64_t pop, std::int64_t first_step) {
          v({mapping.proc_of_group(lattice, g), block_of(g), pop, first_step});
        });
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    lattice.for_each_arc_bundle([&](const GroupLattice::GroupKey& src,
                                    const GroupLattice::GroupKey& dst, std::size_t dep,
                                    std::int64_t count, std::int64_t first_step) {
      v({mapping.proc_of_group(lattice, src), mapping.proc_of_group(lattice, dst), block_of(src),
         block_of(dst), shifts[dep], count, first_step});
    });
  };
  return simulate_symbolic_core(feed, topo, machine, opts, fstate);
}

}  // namespace hypart
