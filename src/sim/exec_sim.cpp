#include "sim/exec_sim.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/error.hpp"
#include "fault/degraded_route.hpp"
#include "fault/remap.hpp"
#include "numeric/rational.hpp"
#include "partition/symbolic.hpp"

namespace hypart {

double SimResult::speedup(const MachineParams& m, std::int64_t total_iterations,
                          std::int64_t flops_per_iteration) const {
  double seq = static_cast<double>(total_iterations) * static_cast<double>(flops_per_iteration) *
               m.t_calc;
  return time > 0 ? seq / time : 0.0;
}

std::string first_difference(const SimResult& a, const SimResult& b) {
  if (a.total != b.total) return "total";
  if (a.compute_bottleneck != b.compute_bottleneck) return "compute_bottleneck";
  if (a.comm_bottleneck != b.comm_bottleneck) return "comm_bottleneck";
  if (a.steps != b.steps) return "steps";
  if (a.messages != b.messages) return "messages";
  if (a.words != b.words) return "words";
  if (a.max_link_words != b.max_link_words) return "max_link_words";
  if (a.per_proc_iterations != b.per_proc_iterations) return "per_proc_iterations";
  if (a.failed_nodes != b.failed_nodes) return "failed_nodes";
  if (a.failed_links != b.failed_links) return "failed_links";
  if (a.rerouted_messages != b.rerouted_messages) return "rerouted_messages";
  if (a.migrated_blocks != b.migrated_blocks) return "migrated_blocks";
  if (a.migration_cost != b.migration_cost) return "migration_cost";
  return {};
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
  /// Sweep the per-step state under every accounting and emit the per-step
  /// telemetry from it.  Only the dense feed sets it (see exec_sim.hpp).
  bool per_step_telemetry = false;
};

/// Checked Cost arithmetic: every product and sum the core accumulates
/// throws ArithmeticError instead of wrapping.
Cost checked_sum(const Cost& a, const Cost& b) {
  return {detail::checked_add(a.calc, b.calc), detail::checked_add(a.start, b.start),
          detail::checked_add(a.comm, b.comm)};
}
Cost checked_scale(const Cost& c, std::int64_t k) {
  return {detail::checked_mul(c.calc, k), detail::checked_mul(c.start, k),
          detail::checked_mul(c.comm, k)};
}
/// acc += k·c, checked.
void add_scaled(std::int64_t& acc, std::int64_t c, std::int64_t k) {
  acc = detail::checked_add(acc, detail::checked_mul(c, k));
}

/// Run-length form of the core's per-step state: iterations per slot and
/// words per channel.  A run — row `row` (a processor slot, or nslots + a
/// channel) holding one iteration or one word at each rebased step t,
/// t+σ, …, t+(n−1)σ — raises its row's level by one at its first step and
/// lowers it one stride past its last.  Edges are bucketed by step,
/// residue-major: residue r = t mod σ owns the buckets r·span + t/σ, the
/// last one just past its final step.  seal() counting-sorts them, so one
/// walk visits each residue's steps in order and the levels change only at
/// nonempty buckets.  O(runs + steps) time and memory, in 32-bit fields: a
/// dense plan has many runs and few steps.  A walk returns every level to
/// zero, so the state can be walked again.
class StepSweep {
 public:
  /// Throws Error(Config) when the schedule's buckets overflow 32 bits.
  StepSweep(std::size_t nslots, std::int64_t nsteps, std::int64_t sigma)
      : nslots_(nslots),
        nsteps_(nsteps),
        sigma_(sigma),
        nres_(std::min(sigma, nsteps)),
        span_(ceil_div(nsteps, sigma) + 1) {
    if (nres_ * span_ > kMaxBuckets) throw_too_large();
  }

  /// Records the run of `row` at rebased steps first, …, first+(count−1)σ.
  /// Its last step lies inside the schedule, so its falling edge lands at
  /// most one bucket past its residue's final step.
  void add(std::size_t row, std::int64_t first, std::int64_t count) {
    const std::int64_t rise = (first % sigma_) * span_ + first / sigma_;
    runs_.push_back({static_cast<std::uint32_t>(row), static_cast<std::uint32_t>(rise),
                     static_cast<std::uint32_t>(rise + count)});
  }

  /// Counting-sorts the recorded edges of `nrows` rows; call once, after
  /// the last add().  Throws Error(Config) when the rows overflow 31 bits.
  void seal(std::size_t nrows) {
    if (nrows > kMaxRows) throw_too_large();
    level_.assign(nrows, 0);
    head_.assign(static_cast<std::size_t>(nres_ * span_) + 1, 0);
    for (const Run& r : runs_) {
      ++head_[r.rise + 1];
      ++head_[r.fall + 1];
    }
    std::partial_sum(head_.begin(), head_.end(), head_.begin());
    edges_.resize(head_.back());
    for (const Run& r : runs_) {
      edges_[head_[r.rise]++] = r.row << 1;
      edges_[head_[r.fall]++] = r.row << 1 | 1;
    }
    // Placing advanced every bucket's head to the start of the next one.
    std::copy_backward(head_.begin(), head_.end() - 1, head_.end());
    head_[0] = 0;
    std::vector<Run>().swap(runs_);
  }

  [[nodiscard]] std::size_t slots() const { return nslots_; }
  [[nodiscard]] std::int64_t sigma() const { return sigma_; }
  [[nodiscard]] std::int64_t level(std::size_t row) const { return level_[row]; }
  /// No slot computes during the current segment.
  [[nodiscard]] bool idle() const { return busy_ == 0; }

  /// Calls visit(t, len) once per maximal segment of rebased steps t, t+σ,
  /// …, t+(len−1)σ over which no level changes; level() and idle()
  /// describe the segment during the call.
  template <class Visit>
  void walk(const Visit& visit) {
    for (std::int64_t r = 0; r < nres_; ++r) {
      const std::int64_t nres_steps = ceil_div(nsteps_ - r, sigma_);
      const auto base = static_cast<std::size_t>(r * span_);
      for (std::int64_t j = 0; j < nres_steps;) {
        apply(base + j);
        std::int64_t end = j + 1;
        while (end < nres_steps && head_[base + end] == head_[base + end + 1]) ++end;
        visit(r + j * sigma_, end - j);
        j = end;
      }
      apply(base + nres_steps);
    }
  }

 private:
  static constexpr std::size_t kMaxRows = std::size_t{1} << 31;
  static constexpr std::int64_t kMaxBuckets = std::int64_t{0xffffffff};
  [[noreturn]] static void throw_too_large() {
    throw Error(ErrorKind::Config,
                "simulate_execution: schedule too long or too many channels for a per-step "
                "accounting (32-bit sweep); PaperMaxChannel has no such limit");
  }
  struct Run {
    std::uint32_t row, rise, fall;  ///< rise and fall are bucket indices
  };

  void apply(std::size_t b) {
    for (std::size_t e = head_[b]; e < head_[b + 1]; ++e) {
      const std::uint32_t row = edges_[e] >> 1;
      std::int64_t& lv = level_[row];
      const bool was = lv != 0;
      lv += (edges_[e] & 1) != 0 ? -1 : 1;
      if (row < nslots_)
        busy_ += static_cast<std::int64_t>(lv != 0) - static_cast<std::int64_t>(was);
    }
  }

  std::size_t nslots_;
  std::int64_t nsteps_, sigma_, nres_, span_;
  std::vector<Run> runs_;            ///< until seal()
  std::vector<std::size_t> head_;    ///< bucket starts into edges_
  std::vector<std::uint32_t> edges_;  ///< row << 1 | (1 for the falling edge)
  std::vector<std::int64_t> level_;  ///< per row, at the current segment
  std::int64_t busy_ = 0;            ///< slots with a nonzero level
};

/// Dense ids for the directed links (from, to) the core's messages occupy,
/// assigned on first use.  Link loads live in flat arrays indexed by id;
/// in_order() lists the ids in ascending (from, to) order, the scan order
/// that fixes tie-breaks and trace tids.
class LinkIndex {
 public:
  std::size_t id_of(std::pair<ProcId, ProcId> link) {
    auto [it, inserted] = ids_.try_emplace(link, keys_.size());
    if (inserted) keys_.push_back(link);
    return it->second;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] std::pair<ProcId, ProcId> key(std::size_t id) const { return keys_[id]; }
  const std::vector<std::size_t>& in_order() {
    if (order_.size() != keys_.size()) {
      order_.clear();
      for (const auto& [link, id] : ids_) order_.push_back(id);
    }
    return order_;
  }

 private:
  std::map<std::pair<ProcId, ProcId>, std::size_t> ids_;
  std::vector<std::pair<ProcId, ProcId>> keys_;
  std::vector<std::size_t> order_;
};

/// How a message on one channel travels in one fault epoch: its hop count
/// (prices charge_hops and sim.msg_hops), whether it detours, and the ids
/// of the links it occupies — its route's hops, or the logical channel
/// itself when there is no route (off a hypercube); none until resolved.
struct ChannelRoute {
  bool rerouted = false;
  std::int64_t hops = 0;
  std::vector<std::size_t> links;
};

/// The core's one channel table: channel c is the c-th directed (src, dst)
/// processor pair to carry a word (its words sit at sweep row nslots + c),
/// with one ChannelRoute per (channel, fault epoch), resolved on first use:
/// the e-cube path when fault free, else the detour at that epoch, so the
/// detour BFS runs once per (channel, epoch) and not once per step.
class ChannelTable {
 public:
  ChannelTable(const Topology& topo, const SymFaultState& fstate) : topo_(topo), fstate_(fstate) {}

  std::size_t id_of(ProcId src, ProcId dst) {
    auto [it, inserted] = index_.try_emplace({src, dst}, ends_.size());
    if (inserted) ends_.push_back({src, dst});
    return it->second;
  }
  [[nodiscard]] std::size_t size() const { return ends_.size(); }
  [[nodiscard]] std::pair<ProcId, ProcId> ends(std::size_t c) const { return ends_[c]; }
  /// (src, dst) -> channel, in ascending (src, dst) order.
  [[nodiscard]] const std::map<std::pair<ProcId, ProcId>, std::size_t>& in_order() const {
    return index_;
  }
  LinkIndex& links() { return links_; }

  /// Channel c's route at an absolute step.
  const ChannelRoute& route(std::size_t c, std::int64_t step) {
    const std::vector<std::int64_t>& breaks = fstate_.breaks;
    const std::size_t nepochs = breaks.size() + 1;
    const auto epoch = static_cast<std::size_t>(
        std::upper_bound(breaks.begin(), breaks.end(), step) - breaks.begin());
    routes_.resize(ends_.size() * nepochs);
    ChannelRoute& cr = routes_[c * nepochs + epoch];
    if (!cr.links.empty()) return cr;
    const auto [src, dst] = ends_[c];
    const auto* cube = dynamic_cast<const Hypercube*>(&topo_);  // non-null under faults
    std::optional<fault::Route> rt;
    if (fstate_.active) rt = fault::route_with_faults(*cube, src, dst, fstate_.set, step);
    else if (cube != nullptr) rt = fault::Route{cube->ecube_route(src, dst), false};
    cr.rerouted = rt && rt->rerouted;
    cr.hops = rt ? static_cast<std::int64_t>(rt->hops.size())
                 : static_cast<std::int64_t>(topo_.distance(src, dst));
    if (!rt) {
      cr.links.push_back(links_.id_of({src, dst}));
    } else {
      ProcId at = src;
      for (ProcId hop : rt->hops) cr.links.push_back(links_.id_of({std::exchange(at, hop), hop}));
    }
    return cr;
  }

 private:
  const Topology& topo_;
  const SymFaultState& fstate_;
  std::map<std::pair<ProcId, ProcId>, std::size_t> index_;
  std::vector<std::pair<ProcId, ProcId>> ends_;
  std::vector<ChannelRoute> routes_;  ///< channel-major, one per fault epoch
  LinkIndex links_;
};

/// Per-step telemetry read from the core's pricing walk: busy and idle
/// steps per processor, the sim.msg_* histograms, the busiest-link series,
/// the sim.max_link_words gauge and the Chrome trace on the simulated clock
/// (pid obs::kSimPid: one tid per processor, one per directed link — the
/// logical channel off a hypercube).  Every step of a segment repeats its
/// events on its own clock; messages are reported in (src, dst) order.
/// Only the dense feed asks for it; its σ = 1 makes the sweep's order the
/// time order the clock needs.
class StepTelemetry {
 public:
  /// With a trace sink, first walks the sweep once to resolve every route
  /// that carries a message, so the link tracks get their tids in (from,
  /// to) order before the first event.
  StepTelemetry(StepSweep& sweep, ChannelTable& channels, std::int64_t lo,
                const MachineParams& machine, const SimOptions& opts)
      : sweep_(sweep),
        channels_(channels),
        lo_(lo),
        machine_(machine),
        opts_(opts),
        sink_(opts.obs.trace),
        reg_(opts.obs.metrics),
        busy_(sweep.slots(), 0) {
    if (sink_ == nullptr) return;
    const std::size_t nslots = sweep.slots();
    sweep.walk([&](std::int64_t t, std::int64_t) {
      for (std::size_t c = 0; c < channels.size(); ++c)
        if (sweep.level(nslots + c) != 0) channels.route(c, t + lo);
    });
    LinkIndex& links = channels.links();
    link_tid_.resize(links.size());
    std::uint64_t next_tid = obs::kLinkTidBase;
    for (std::size_t l : links.in_order()) link_tid_[l] = next_tid++;

    obs::emit_process_name(sink_, obs::kSimPid, "hypart simulator (simulated time)");
    for (std::size_t p = 0; p < nslots; ++p)
      obs::emit_thread_name(sink_, obs::kSimPid, p, "proc " + std::to_string(p));
    for (std::size_t l : links.in_order())
      obs::emit_thread_name(sink_, obs::kSimPid, link_tid_[l],
                            "link " + std::to_string(links.key(l).first) + "->" +
                                std::to_string(links.key(l).second));
  }

  /// One busy segment of rebased steps t, t+σ, …, t+(len−1)σ, whose links
  /// `loaded` (in (from, to) order) carry load[l] = {0, msgs, words} at
  /// each of its steps.
  void segment(std::int64_t t, std::int64_t len, const std::vector<std::size_t>& loaded,
               const std::vector<Cost>& load) {
    static const std::vector<std::int64_t> kWordBounds{1, 2, 4, 8, 16, 32, 64, 128, 256};
    static const std::vector<std::int64_t> kHopBounds{0, 1, 2, 3, 4, 6, 8};
    const std::size_t nslots = sweep_.slots();
    double max_compute = 0.0;
    for (std::size_t p = 0; p < nslots; ++p) {
      if (sweep_.level(p) == 0) continue;
      busy_[p] += len;
      max_compute = std::max(max_compute, compute_time(sweep_.level(p)));
    }
    // Messages are serialized per link after the compute phase.
    double comm = 0.0;
    std::int64_t busiest_words = 0;
    for (std::size_t l : loaded) {
      comm = std::max(comm, load[l].value(machine_));
      busiest_words = std::max(busiest_words, load[l].comm);
    }

    for (std::int64_t k = 0; k < len; ++k) {
      const std::int64_t step = lo_ + t + k * sweep_.sigma();
      if (sink_ != nullptr)
        for (std::size_t p = 0; p < nslots; ++p)
          if (const std::int64_t iters = sweep_.level(p); iters != 0)
            obs::emit_complete(sink_, "compute", "sim", clock_, compute_time(iters), obs::kSimPid,
                               p, {{"step", step}, {"iterations", iters}});
      for (const auto& [key, c] : channels_.in_order()) {
        const std::int64_t words = sweep_.level(nslots + c);
        if (words == 0) continue;
        const auto [src, dst] = key;
        const std::int64_t hops = channels_.route(c, step).hops;
        if (reg_ != nullptr) {
          reg_->observe("sim.msg_words", words, kWordBounds);
          reg_->observe("sim.msg_hops", hops, kHopBounds);
        }
        if (sink_ != nullptr)
          obs::emit_instant(sink_, "msg", "sim", clock_ + compute_time(sweep_.level(src)),
                            obs::kSimPid, src,
                            {{"src", static_cast<std::int64_t>(src)},
                             {"dst", static_cast<std::int64_t>(dst)},
                             {"words", words}, {"hops", hops}, {"step", step}});
      }
      if (sink_ != nullptr)
        for (std::size_t l : loaded)
          obs::emit_complete(sink_, "xfer", "sim", clock_ + max_compute, load[l].value(machine_),
                             obs::kSimPid, link_tid_[l],
                             {{"step", step}, {"msgs", load[l].start}, {"words", load[l].comm}});
      if (!loaded.empty()) {
        if (reg_ != nullptr)
          reg_->append("sim.link.busiest_words", step, static_cast<double>(busiest_words));
        obs::emit_counter(sink_, "busiest_link_words", clock_ + max_compute, obs::kSimPid,
                          static_cast<double>(busiest_words));
      }
      clock_ += max_compute + comm;
    }
  }

  /// The per-run series: busy and idle steps per processor and the
  /// busiest link's words over the whole run.
  void finish(std::int64_t nsteps, const std::vector<std::int64_t>& link_words) {
    if (reg_ == nullptr) return;
    for (std::size_t p = 0; p < busy_.size(); ++p) {
      const auto x = static_cast<std::int64_t>(p);
      reg_->append("sim.proc.busy_steps", x, static_cast<double>(busy_[p]));
      reg_->append("sim.proc.idle_steps", x, static_cast<double>(nsteps - busy_[p]));
    }
    std::int64_t max_words = 0;
    for (std::int64_t w : link_words) max_words = std::max(max_words, w);
    reg_->set_gauge("sim.max_link_words", static_cast<double>(max_words));
  }

 private:
  [[nodiscard]] double compute_time(std::int64_t iters) const {
    return static_cast<double>(detail::checked_mul(iters, opts_.flops_per_iteration)) *
           machine_.t_calc;
  }

  StepSweep& sweep_;
  ChannelTable& channels_;
  std::int64_t lo_;
  const MachineParams& machine_;
  const SimOptions& opts_;
  obs::TraceSink* sink_;
  obs::MetricsRegistry* reg_;
  std::vector<std::int64_t> busy_;
  std::vector<std::uint64_t> link_tid_;
  double clock_ = 0.0;
};

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
  const bool paper = opts.accounting == CommAccounting::PaperMaxChannel;
  const bool contention = opts.accounting == CommAccounting::LinkContention;
  if (contention && dynamic_cast<const Hypercube*>(&topo) == nullptr)
    throw std::invalid_argument(
        "simulate_execution: LinkContention accounting requires a Hypercube topology");
  SimResult res;
  res.per_proc_iterations.assign(nslots, 0);
  res.steps = in.steps;
  const std::int64_t lo = in.lo, sigma = in.sigma;
  const std::int64_t flops = opts.flops_per_iteration;
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
    res.total = checked_sum(res.total, res.migration_cost);
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

  // The per-step accountings and the per-step telemetry read the line and
  // channel runs through a StepSweep; the paper convention needs neither.
  std::optional<StepSweep> step_state;
  if (!paper || in.per_step_telemetry) step_state.emplace(nslots, res.steps, sigma);
  for_each_line_run([&](ProcId p, std::int64_t first, std::int64_t n) {
    res.per_proc_iterations[p] = detail::checked_add(res.per_proc_iterations[p], n);
    if (step_state) step_state->add(p, first - lo, n);
  });
  std::int64_t max_iters = 0;
  for (std::int64_t c : res.per_proc_iterations) max_iters = std::max(max_iters, c);
  res.compute_bottleneck = Cost{detail::checked_mul(max_iters, flops), 0, 0};

  // The one bundle pass: every channel run lands on its directed channel's
  // sweep row and, for the paper convention, in the channel's message
  // units (one per word, or its hop count with charge_hops).  A run's first
  // step fixes the route of all its messages.
  ChannelTable channels(topo, fstate);
  std::vector<std::int64_t> units;
  for_each_bundle_run([&](ProcId src, ProcId dst, std::int64_t first, std::int64_t count) {
    if (src == dst) return;
    const std::size_t c = channels.id_of(src, dst);
    res.words = detail::checked_add(res.words, count);
    if (step_state) step_state->add(nslots + c, first - lo, count);
    if (!paper) return;
    units.resize(channels.size());
    std::int64_t unit = 1;
    if (fstate.active || opts.charge_hops) {
      const ChannelRoute& rt = channels.route(c, first);
      if (rt.rerouted) res.rerouted_messages = detail::checked_add(res.rerouted_messages, count);
      if (opts.charge_hops) unit = rt.hops;
    }
    add_scaled(units[c], unit, count);
    res.messages = detail::checked_add(res.messages, count);
  });

  if (paper) {
    // The busiest unordered processor pair: a channel plus its reverse.
    std::int64_t worst = 0;
    const auto& index = channels.in_order();
    for (const auto& [key, c] : index) {
      const auto back = index.find({key.second, key.first});
      if (back == index.end()) worst = std::max(worst, units[c]);
      else if (key.first < key.second)
        worst = std::max(worst, detail::checked_add(units[c], units[back->second]));
    }
    res.comm_bottleneck = Cost{0, worst, worst};
    res.total = checked_sum(res.compute_bottleneck, res.comm_bottleneck);
    if (!in.per_step_telemetry) return finish();
  }
  StepSweep& sweep = *step_state;
  sweep.seal(nslots + channels.size());

  // The one pricing walk.  Per busy segment: every channel's messages and
  // their routes, the per-link loads (LinkContention and the telemetry),
  // the per-processor sends (PerStepBarrier), then the segment's cost,
  // times its length.  A segment's first step fixes its routes: bundle runs
  // split at every fault break, so no segment that carries a message
  // straddles one.
  std::optional<StepTelemetry> telemetry;
  if (in.per_step_telemetry) telemetry.emplace(sweep, channels, lo, machine, opts);
  LinkIndex& links = channels.links();
  std::vector<Cost> load;                // {0, msgs, words} per link, one step
  std::vector<std::int64_t> link_words;  // per link, whole run
  std::vector<std::size_t> loaded;       // links loaded this segment, (from, to) order
  std::vector<Cost> proc_cost(nslots);   // PerStepBarrier: compute plus sends, one step
  const bool barrier = opts.accounting == CommAccounting::PerStepBarrier;
  const bool link_loads = contention || in.per_step_telemetry;
  sweep.walk([&](std::int64_t t, std::int64_t len) {
    if (sweep.idle()) return;  // messages only originate from computing procs
    if (barrier)
      for (std::size_t p = 0; p < nslots; ++p)
        proc_cost[p] = Cost{detail::checked_mul(sweep.level(p), flops), 0, 0};
    std::int64_t msgs = 0, rerouted = 0;
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const std::int64_t w = sweep.level(nslots + c);
      if (w == 0) continue;
      ++msgs;
      const ChannelRoute& rt = channels.route(c, t + lo);
      if (rt.rerouted) ++rerouted;
      if (barrier) {
        const std::int64_t mult = opts.charge_hops ? rt.hops : 1;
        Cost& pc = proc_cost[channels.ends(c).first];
        pc = checked_sum(pc, Cost{0, mult, detail::checked_mul(mult, w)});
      }
      if (!link_loads) continue;
      load.resize(links.size());
      link_words.resize(links.size());
      for (std::size_t l : rt.links) {
        load[l] = checked_sum(load[l], Cost{0, 1, w});
        add_scaled(link_words[l], w, len);
      }
    }
    loaded.clear();
    if (link_loads)
      for (std::size_t l : links.in_order())
        if (l < load.size() && load[l].start != 0) loaded.push_back(l);

    if (contention) {
      // The busiest processor's compute plus the busiest directed link's
      // serialized traffic.
      std::int64_t step_iters = 0;
      for (std::size_t p = 0; p < nslots; ++p) step_iters = std::max(step_iters, sweep.level(p));
      Costliest busiest;
      for (std::size_t l : loaded) busiest.offer(load[l], machine);
      const Cost step_cost =
          checked_sum(Cost{detail::checked_mul(step_iters, flops), 0, 0}, busiest.worst);
      res.total = checked_sum(res.total, checked_scale(step_cost, len));
      res.comm_bottleneck = checked_sum(res.comm_bottleneck, checked_scale(busiest.worst, len));
    } else if (barrier) {
      // Each processor's compute plus its aggregated sends; the step ends
      // when the slowest processor finishes (barrier).
      Costliest slowest;
      for (std::size_t p = 0; p < nslots; ++p)
        if (sweep.level(p) > 0) slowest.offer(proc_cost[p], machine);  // idle procs send nothing
      res.total = checked_sum(res.total, checked_scale(slowest.worst, len));
      const Cost comm{0, slowest.worst.start, slowest.worst.comm};
      res.comm_bottleneck = checked_sum(res.comm_bottleneck, checked_scale(comm, len));
    }
    if (!paper) {
      add_scaled(res.messages, msgs, len);
      add_scaled(res.rerouted_messages, rerouted, len);
    }
    if (telemetry) telemetry->segment(t, len, loaded, load);
    for (std::size_t l : loaded) load[l] = Cost{};
  });
  if (contention)
    for (std::int64_t w : link_words) res.max_link_words = std::max(res.max_link_words, w);
  if (telemetry) telemetry->finish(res.steps, link_words);
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
  feed.steps = detail::checked_add(detail::checked_sub(space.max_step(tf.pi), feed.lo), 1);
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

  // The walks are group-contiguous, so the owner of the current source
  // group and of the last target group answer almost every lookup.
  struct OwnerMemo {
    GroupLattice::GroupKey key;
    ProcId proc = 0;
    bool valid = false;
  };
  auto owner = [&](OwnerMemo& memo, const GroupLattice::GroupKey& g) {
    if (!memo.valid || !(memo.key == g)) memo = {g, mapping.proc_of_group(lattice, g), true};
    return memo.proc;
  };
  OwnerMemo line_owner, src_owner, dst_owner;

  SymbolicFeed feed =
      closed_form_frame(space, tf, mapping.processor_count, lattice.step_stride());
  feed.lines = [&](const std::function<void(const SymLine&)>& v) {
    lattice.for_each_line(
        [&](const GroupLattice::GroupKey& g, std::int64_t pop, std::int64_t first_step) {
          v({owner(line_owner, g), block_of(g), pop, first_step});
        });
  };
  feed.bundles = [&](const std::function<void(const SymBundle&)>& v) {
    lattice.for_each_arc_bundle([&](const GroupLattice::GroupKey& src,
                                    const GroupLattice::GroupKey& dst, std::size_t dep,
                                    std::int64_t count, std::int64_t first_step) {
      const ProcId ps = owner(src_owner, src);
      const ProcId pd = dst == src ? ps : owner(dst_owner, dst);
      v({ps, pd, block_of(src), block_of(dst), shifts[dep], count, first_step});
    });
  };
  return simulate_symbolic_core(feed, topo, machine, opts, fstate);
}

}  // namespace hypart
