#include "sim/exec_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <span>
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
/// state changes — ownership and routing are constant between them.  Fault
/// epoch e holds the steps from breaks[e − 1] (or the start) up to
/// breaks[e].
struct SymFaultState {
  fault::FaultSet set;
  std::optional<fault::RemapResult> remap;
  std::vector<std::int64_t> breaks;  ///< distinct at_steps > kFromStart, ascending
  bool active = false;

  [[nodiscard]] bool remapped() const { return remap.has_value(); }
  [[nodiscard]] std::size_t epochs() const { return breaks.size() + 1; }
  [[nodiscard]] std::size_t epoch_of(std::int64_t step) const {
    return static_cast<std::size_t>(std::upper_bound(breaks.begin(), breaks.end(), step) -
                                    breaks.begin());
  }
};

/// Checks the topology against the processor count and resolves the fault
/// plan.  Node failures need concrete migration targets, so only then does
/// `materialize_blocks(sizes, base)` supply the feed's block sizes and base
/// mapping — the only O(blocks) work of a closed-form feed.
template <class Materialize>
SymFaultState resolve_machine(const SimOptions& opts, const Topology& topo, std::size_t nprocs,
                              const Materialize& materialize_blocks) {
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

/// One (line, dependence) arc bundle: `count` arcs of dependence `dep`, the
/// first leaving at `first_step`.  An arc leaving at step t lands at
/// t + Π·d_dep, which is when its target's degraded owner must be evaluated.
struct SymBundle {
  ProcId src_proc = 0;
  ProcId dst_proc = 0;
  std::size_t src_block = 0;
  std::size_t dst_block = 0;
  std::size_t dep = 0;
  std::int64_t count = 0;
  std::int64_t first_step = 0;
};

/// Frame of a feed for the shared accounting core.  The feed itself is a
/// callable that hands the core every projection line (line()) and every
/// dependence arc bundle (bundle()), inline: the dense path (one line per
/// vertex, one bundle per arc), the line-based path (Grouping + Mapping)
/// and the lattice path (GroupLattice + LatticeHypercubeMapping, one walk,
/// each line followed by its bundles) reduce to this.
struct FeedFrame {
  std::size_t nprocs = 0;
  std::int64_t steps = 0;  ///< schedule length
  std::int64_t lo = 0;     ///< minimum step (rebases first_step values)
  std::int64_t sigma = 1;  ///< step stride of the projection lines
  std::vector<std::int64_t> shifts;  ///< Π·d of every dependence
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
/// dense plan has many runs and few steps.
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

  /// The walk, once per residue in step order.  Each maximal segment of
  /// rebased steps t, t+σ, …, t+(len−1)σ over which no level changes gets
  /// v.batch(t), then v.edge(c, before, after) for each channel edge that
  /// opens it, then v.segment(t, len), with level() and idle() describing
  /// the segment.  A residue ends with v.batch(t_end) and the edges that
  /// return its levels to zero.  Edges come one at a time, so a visitor
  /// that follows them never confuses a residue's closing edges with the
  /// next residue's opening ones.
  template <class Visitor>
  void walk(Visitor& v) {
    for (std::int64_t r = 0; r < nres_; ++r) {
      const std::int64_t nres_steps = ceil_div(nsteps_ - r, sigma_);
      const auto base = static_cast<std::size_t>(r * span_);
      for (std::int64_t j = 0; j < nres_steps;) {
        v.batch(r + j * sigma_);
        apply(base + j, v);
        std::int64_t end = j + 1;
        while (end < nres_steps && head_[base + end] == head_[base + end + 1]) ++end;
        v.segment(r + j * sigma_, end - j);
        j = end;
      }
      v.batch(r + nres_steps * sigma_);
      apply(base + nres_steps, v);
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

  template <class Visitor>
  void apply(std::size_t b, Visitor& v) {
    for (std::size_t e = head_[b]; e < head_[b + 1]; ++e) {
      const std::uint32_t row = edges_[e] >> 1;
      std::int64_t& lv = level_[row];
      const std::int64_t was = lv;
      lv += (edges_[e] & 1) != 0 ? -1 : 1;
      if (row < nslots_)
        busy_ += static_cast<std::int64_t>(lv != 0) - static_cast<std::int64_t>(was != 0);
      else
        v.edge(row - nslots_, was, lv);
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

/// Dense ids for directed processor pairs (src, dst), assigned on first
/// use, behind a flat open-addressing hash: O(1) per lookup, O(pairs)
/// memory.
class PairIndex {
 public:
  using Key = std::pair<ProcId, ProcId>;

  std::size_t id_of(ProcId a, ProcId b) {
    if (2 * (keys_.size() + 1) > slots_.size())
      rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    std::size_t& slot = slots_[probe(a, b)];
    if (slot == kEmpty) {
      slot = keys_.size();
      keys_.emplace_back(a, b);
    }
    return slot;
  }
  /// The id of (a, b), or size() when it has none.
  [[nodiscard]] std::size_t find(ProcId a, ProcId b) const {
    const std::size_t slot = slots_.empty() ? kEmpty : slots_[probe(a, b)];
    return slot == kEmpty ? keys_.size() : slot;
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] const Key& key(std::size_t id) const { return keys_[id]; }
  /// The ids in ascending (src, dst) order.
  [[nodiscard]] std::vector<std::size_t> sorted_ids() const {
    std::vector<std::size_t> ids(keys_.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    std::sort(ids.begin(), ids.end(),
              [&](std::size_t x, std::size_t y) { return keys_[x] < keys_[y]; });
    return ids;
  }
  /// Renumbers the ids in ascending (src, dst) order; returns the new id of
  /// each old one.
  std::vector<std::size_t> sort() {
    const std::vector<std::size_t> order = sorted_ids();
    std::vector<std::size_t> renamed(order.size());
    std::vector<Key> keys(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      renamed[order[i]] = i;
      keys[i] = keys_[order[i]];
    }
    keys_ = std::move(keys);
    for (std::size_t& slot : slots_)
      if (slot != kEmpty) slot = renamed[slot];
    return renamed;
  }

 private:
  static constexpr std::size_t kEmpty = ~std::size_t{0};

  [[nodiscard]] std::size_t probe(ProcId a, ProcId b) const {
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t h = (a * 0x9E3779B97F4A7C15ULL) ^ b;
    h = (h ^ (h >> 32)) * 0xD6E8FEB86659FD93ULL;
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
    while (slots_[i] != kEmpty && keys_[slots_[i]] != Key{a, b}) i = (i + 1) & mask;
    return i;
  }
  void rehash(std::size_t capacity) {
    slots_.assign(capacity, kEmpty);
    for (std::size_t id = 0; id < keys_.size(); ++id)
      slots_[probe(keys_[id].first, keys_[id].second)] = id;
  }

  std::vector<std::size_t> slots_;  ///< power-of-two table of ids
  std::vector<Key> keys_;           ///< by id
};

/// How a message on one channel travels in one fault epoch: its hop count
/// (prices charge_hops and sim.msg_hops), whether it detours, and the links
/// it occupies — its route's hops, or the logical channel itself when there
/// is no route (off a hypercube) — as a slice of ChannelTable's flat link
/// list.
struct ChannelRoute {
  bool resolved = false;
  bool rerouted = false;
  std::int64_t hops = 0;
  std::size_t link_off = 0, link_count = 0;
};

/// The core's one channel table: channel c is the c-th directed (src, dst)
/// processor pair to carry a word (its words sit at sweep row nslots + c),
/// with one ChannelRoute per (channel, fault epoch) in a flat channel-major
/// array, resolved on first use: the e-cube path when fault free, else the
/// detour at that epoch, so the detour BFS runs once per (channel, epoch).
/// The feed pass resolves every route a message takes; seal() then lists
/// the channels in (src, dst) order and renumbers the links in (from, to)
/// order, the scan order that fixes tie-breaks and trace tids.
class ChannelTable {
 public:
  ChannelTable(const Topology& topo, const SymFaultState& fstate)
      : topo_(topo), cube_(dynamic_cast<const Hypercube*>(&topo)), fstate_(fstate) {}

  std::size_t id_of(ProcId src, ProcId dst) {
    const std::size_t c = index_.id_of(src, dst);
    if (c == routes_.size() / fstate_.epochs()) routes_.resize(routes_.size() + fstate_.epochs());
    return c;
  }
  /// Channel (src, dst), or size() when no word took it.
  [[nodiscard]] std::size_t find(ProcId src, ProcId dst) const { return index_.find(src, dst); }
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] const PairIndex::Key& ends(std::size_t c) const { return index_.key(c); }
  /// The channels in ascending (src, dst) order; after seal().
  [[nodiscard]] const std::vector<std::size_t>& in_order() const { return order_; }

  /// Channel c's route at an absolute step, resolved on first use.
  const ChannelRoute& route(std::size_t c, std::int64_t step) {
    ChannelRoute& cr = routes_[c * fstate_.epochs() + fstate_.epoch_of(step)];
    if (!cr.resolved) resolve(c, step, cr);
    return cr;
  }
  /// Channel c's route in a fault epoch, resolved by the feed pass.
  [[nodiscard]] const ChannelRoute& route_in(std::size_t c, std::size_t epoch) const {
    return routes_[c * fstate_.epochs() + epoch];
  }
  [[nodiscard]] std::span<const std::size_t> links(const ChannelRoute& cr) const {
    return {route_links_.data() + cr.link_off, cr.link_count};
  }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const PairIndex::Key& link(std::size_t l) const { return links_.key(l); }

  void seal() {
    order_ = index_.sorted_ids();
    const std::vector<std::size_t> renamed = links_.sort();
    for (std::size_t& l : route_links_) l = renamed[l];
  }

 private:
  void resolve(std::size_t c, std::int64_t step, ChannelRoute& cr) {
    const auto [src, dst] = index_.key(c);
    std::optional<fault::Route> rt;
    if (fstate_.active) rt = fault::route_with_faults(*cube_, src, dst, fstate_.set, step);
    else if (cube_ != nullptr) rt = fault::Route{cube_->ecube_route(src, dst), false};
    cr.resolved = true;
    cr.rerouted = rt && rt->rerouted;
    cr.hops = rt ? static_cast<std::int64_t>(rt->hops.size())
                 : static_cast<std::int64_t>(topo_.distance(src, dst));
    cr.link_off = route_links_.size();
    if (!rt) {
      route_links_.push_back(links_.id_of(src, dst));
    } else {
      ProcId at = src;
      for (ProcId hop : rt->hops) route_links_.push_back(links_.id_of(std::exchange(at, hop), hop));
    }
    cr.link_count = route_links_.size() - cr.link_off;
  }

  const Topology& topo_;
  const Hypercube* cube_;  ///< non-null under faults
  const SymFaultState& fstate_;
  PairIndex index_;
  std::vector<ChannelRoute> routes_;  ///< channel-major, one per fault epoch
  std::vector<std::size_t> route_links_;
  PairIndex links_;                   ///< directed links (from, to)
  std::vector<std::size_t> order_;
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
  /// The links carry their ids in (from, to) order, so the link tracks
  /// take their tids in that order before the first event.
  StepTelemetry(const StepSweep& sweep, const ChannelTable& channels, std::int64_t lo,
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
    obs::emit_process_name(sink_, obs::kSimPid, "hypart simulator (simulated time)");
    for (std::size_t p = 0; p < sweep.slots(); ++p)
      obs::emit_thread_name(sink_, obs::kSimPid, p, "proc " + std::to_string(p));
    for (std::size_t l = 0; l < channels.link_count(); ++l)
      obs::emit_thread_name(sink_, obs::kSimPid, tid(l),
                            "link " + std::to_string(channels.link(l).first) + "->" +
                                std::to_string(channels.link(l).second));
  }

  /// One busy segment of rebased steps t, t+σ, …, t+(len−1)σ in fault
  /// epoch `epoch`, whose links `loaded` (in (from, to) order) carry
  /// load[l] = {0, msgs, words} at each of its steps.
  void segment(std::int64_t t, std::int64_t len, std::size_t epoch,
               const std::vector<std::size_t>& loaded, const std::vector<Cost>& load) {
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
      for (std::size_t c : channels_.in_order()) {
        const std::int64_t words = sweep_.level(nslots + c);
        if (words == 0) continue;
        const auto [src, dst] = channels_.ends(c);
        const std::int64_t hops = channels_.route_in(c, epoch).hops;
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
                             obs::kSimPid, tid(l),
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
  [[nodiscard]] static std::uint64_t tid(std::size_t link) { return obs::kLinkTidBase + link; }
  [[nodiscard]] double compute_time(std::int64_t iters) const {
    return static_cast<double>(detail::checked_mul(iters, opts_.flops_per_iteration)) *
           machine_.t_calc;
  }

  const StepSweep& sweep_;
  const ChannelTable& channels_;
  std::int64_t lo_;
  const MachineParams& machine_;
  const SimOptions& opts_;
  obs::TraceSink* sink_;
  obs::MetricsRegistry* reg_;
  std::vector<std::int64_t> busy_;
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

/// The one pricing walk of the per-step accountings, driven by the sweep's
/// channel edges.  It keeps what each segment reads up to date edge by
/// edge, in the current fault epoch: the messages in flight and how many
/// of them detour, each processor's aggregated sends (PerStepBarrier), each
/// link's load {0, msgs, words} (LinkContention and the telemetry), and
/// each link's words over the run, accumulated as words × steps since its
/// load last changed.  A busy segment then scans the processors and the
/// loaded links, in (from, to) order so that Costliest breaks ties as a
/// full scan would, and prices itself once, times its length.  A segment
/// that starts in another fault epoch than the aggregates (a break, or the
/// next residue under σ > 1) rebuilds them from the levels with that
/// epoch's routes; bundle runs split at every break, so no segment that
/// carries a message straddles one.
class PricingWalk {
 public:
  PricingWalk(const StepSweep& sweep, const ChannelTable& channels, const FeedFrame& in,
              const SymFaultState& fstate, const MachineParams& machine, const SimOptions& opts,
              SimResult& res, StepTelemetry* telemetry)
      : sweep_(sweep),
        channels_(channels),
        lo_(in.lo),
        fstate_(fstate),
        machine_(machine),
        opts_(opts),
        res_(res),
        telemetry_(telemetry),
        barrier_(opts.accounting == CommAccounting::PerStepBarrier),
        contention_(opts.accounting == CommAccounting::LinkContention),
        link_loads_(contention_ || telemetry != nullptr) {
    if (barrier_) send_.assign(sweep.slots(), Cost{});
    if (link_loads_) {
      const std::size_t nlinks = channels.link_count();
      load_.assign(nlinks, Cost{});
      link_words_.assign(nlinks, 0);
      since_.assign(nlinks, 0);
      loaded_bits_.assign((nlinks + 63) / 64, 0);
    }
  }

  // ---- StepSweep::walk visitor ----
  /// Before the edges at rebased step t: edges of another fault epoch
  /// leave the aggregates to the next segment's rebuild.
  void batch(std::int64_t t) {
    if (valid_ && !fstate_.breaks.empty() && fstate_.epoch_of(t + lo_) != epoch_) valid_ = false;
  }
  void edge(std::size_t c, std::int64_t was, std::int64_t now) {
    if (valid_) move(c, was, now);
  }
  void segment(std::int64_t t, std::int64_t len) {
    if (!valid_) rebuild(fstate_.epoch_of(t + lo_));
    if (!sweep_.idle()) price(t, len);  // messages only originate from computing procs
    elapsed_ += len;
  }

  /// After the walk: the busiest link's words, and the per-run telemetry.
  /// A fault break past the last busy step leaves the final falling edges
  /// unapplied, so the links still loaded count their words up to the end.
  void finish() {
    if (link_loads_)
      for (std::size_t l : collect_loaded()) flush(l);
    if (contention_)
      for (std::int64_t w : link_words_) res_.max_link_words = std::max(res_.max_link_words, w);
    if (telemetry_ != nullptr) telemetry_->finish(res_.steps, link_words_);
  }

 private:
  /// Channel c's level moves from `was` to `now` in the current epoch.
  void move(std::size_t c, std::int64_t was, std::int64_t now) {
    const ChannelRoute& rt = channels_.route_in(c, epoch_);
    const std::int64_t on =
        static_cast<std::int64_t>(now != 0) - static_cast<std::int64_t>(was != 0);
    const std::int64_t dw = now - was;
    msgs_ += on;
    if (rt.rerouted) rerouted_ += on;
    if (barrier_) {
      const std::int64_t mult = opts_.charge_hops ? rt.hops : 1;
      Cost& sends = send_[channels_.ends(c).first];
      sends.start = detail::checked_add(sends.start, mult * on);
      sends.comm = detail::checked_add(sends.comm, detail::checked_mul(mult, dw));
    }
    if (!link_loads_) return;
    for (std::size_t l : channels_.links(rt)) {
      flush(l);
      load_[l].start += on;
      load_[l].comm = detail::checked_add(load_[l].comm, dw);
      const std::uint64_t bit = std::uint64_t{1} << (l % 64);
      if (load_[l].start != 0) loaded_bits_[l / 64] |= bit;
      else loaded_bits_[l / 64] &= ~bit;
    }
  }
  /// Link l's words up to the current segment.
  void flush(std::size_t l) {
    if (load_[l].comm != 0) add_scaled(link_words_[l], load_[l].comm, elapsed_ - since_[l]);
    since_[l] = elapsed_;
  }
  void rebuild(std::size_t epoch) {
    for (std::size_t l : collect_loaded()) {
      flush(l);
      load_[l] = Cost{};
    }
    std::fill(loaded_bits_.begin(), loaded_bits_.end(), 0);
    std::fill(send_.begin(), send_.end(), Cost{});
    msgs_ = rerouted_ = 0;
    epoch_ = epoch;
    valid_ = true;
    for (std::size_t c = 0; c < channels_.size(); ++c)
      if (const std::int64_t w = sweep_.level(sweep_.slots() + c); w != 0) move(c, 0, w);
  }
  /// The loaded links, ascending.
  const std::vector<std::size_t>& collect_loaded() {
    loaded_.clear();
    for (std::size_t i = 0; i < loaded_bits_.size(); ++i)
      for (std::uint64_t bits = loaded_bits_[i]; bits != 0; bits &= bits - 1)
        loaded_.push_back(i * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    return loaded_;
  }

  void price(std::int64_t t, std::int64_t len) {
    const std::size_t nslots = sweep_.slots();
    const std::int64_t flops = opts_.flops_per_iteration;
    if (link_loads_) collect_loaded();
    if (contention_) {
      // The busiest processor's compute plus the busiest directed link's
      // serialized traffic.
      std::int64_t step_iters = 0;
      for (std::size_t p = 0; p < nslots; ++p) step_iters = std::max(step_iters, sweep_.level(p));
      Costliest busiest;
      for (std::size_t l : loaded_) busiest.offer(load_[l], machine_);
      const Cost step_cost =
          checked_sum(Cost{detail::checked_mul(step_iters, flops), 0, 0}, busiest.worst);
      res_.total = checked_sum(res_.total, checked_scale(step_cost, len));
      res_.comm_bottleneck = checked_sum(res_.comm_bottleneck, checked_scale(busiest.worst, len));
    } else if (barrier_) {
      // Each processor's compute plus its aggregated sends; the step ends
      // when the slowest processor finishes (barrier).  Idle procs send
      // nothing.
      Costliest slowest;
      for (std::size_t p = 0; p < nslots; ++p)
        if (const std::int64_t iters = sweep_.level(p); iters > 0)
          slowest.offer(Cost{detail::checked_mul(iters, flops), send_[p].start, send_[p].comm},
                        machine_);
      res_.total = checked_sum(res_.total, checked_scale(slowest.worst, len));
      const Cost comm{0, slowest.worst.start, slowest.worst.comm};
      res_.comm_bottleneck = checked_sum(res_.comm_bottleneck, checked_scale(comm, len));
    }
    if (opts_.accounting != CommAccounting::PaperMaxChannel) {
      add_scaled(res_.messages, msgs_, len);
      add_scaled(res_.rerouted_messages, rerouted_, len);
    }
    if (telemetry_ != nullptr) telemetry_->segment(t, len, epoch_, loaded_, load_);
  }

  const StepSweep& sweep_;
  const ChannelTable& channels_;
  std::int64_t lo_;
  const SymFaultState& fstate_;
  const MachineParams& machine_;
  const SimOptions& opts_;
  SimResult& res_;
  StepTelemetry* telemetry_;
  bool barrier_, contention_, link_loads_;

  bool valid_ = false;  ///< the aggregates describe the levels in epoch_
  std::size_t epoch_ = 0;
  std::int64_t elapsed_ = 0;  ///< steps walked before the current segment
  std::int64_t msgs_ = 0, rerouted_ = 0;  ///< nonzero channels, and those detouring
  std::vector<Cost> send_;                ///< per processor: {0, msgs, words}, charge_hops-scaled
  std::vector<Cost> load_;                ///< per link: {0, msgs, words}
  std::vector<std::uint64_t> loaded_bits_;  ///< links with load_[l].start != 0
  std::vector<std::size_t> loaded_;
  std::vector<std::int64_t> link_words_;  ///< per link, whole run up to since_
  std::vector<std::int64_t> since_;
};

/// The shared accounting core.  A feed hands it every projection line and
/// every arc bundle; it splits line runs at node-fault breaks and bundle
/// runs wherever an owner or the route may change, resolves each route once
/// per (channel, fault epoch), and records the runs.  price() then applies
/// the convention: PaperMaxChannel prices the totals directly; the
/// per-step accountings (and the dense feed's telemetry) walk the runs in
/// a StepSweep with a PricingWalk.
class AccountingCore {
 public:
  AccountingCore(const FeedFrame& in, const Topology& topo, const MachineParams& machine,
                 const SimOptions& opts, const SymFaultState& fstate)
      : in_(in),
        machine_(machine),
        opts_(opts),
        fstate_(fstate),
        // Spare nodes may sit outside the mapping's processor range but
        // inside the cube, so degraded runs account over the whole topology.
        nslots_(fstate.active ? std::max(in.nprocs, topo.size()) : in.nprocs),
        paper_(opts.accounting == CommAccounting::PaperMaxChannel),
        channels_(topo, fstate) {
    if (opts.accounting == CommAccounting::LinkContention &&
        dynamic_cast<const Hypercube*>(&topo) == nullptr)
      throw std::invalid_argument(
          "simulate_execution: LinkContention accounting requires a Hypercube topology");
    res_.per_proc_iterations.assign(nslots_, 0);
    res_.steps = in.steps;
    if (fstate.active) {
      res_.failed_nodes = static_cast<std::int64_t>(fstate.set.failed_node_count());
      res_.failed_links = static_cast<std::int64_t>(fstate.set.failed_link_count());
      if (fstate.remapped()) {
        res_.migrated_blocks = static_cast<std::int64_t>(fstate.remap->migrations.size());
        res_.migration_cost = fstate.remap->migration_cost;
      }
      // A bundle's channel changes when the *source* step crosses a break
      // (source owner, route) or when the *target* step does (target
      // owner); the latter projects to source steps shifted by -Π·d.
      for (std::int64_t shift : in.shifts) {
        std::vector<std::int64_t> cuts = fstate.breaks;
        for (std::int64_t b : fstate.breaks) cuts.push_back(b - shift);
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        cuts_.push_back(std::move(cuts));
      }
    }
    if (!paper_ || in.per_step_telemetry) sweep_.emplace(nslots_, in.steps, in.sigma);
    resolve_routes_ = sweep_.has_value() || fstate.active || opts.charge_hops;
  }

  void line(const SymLine& ln) {
    if (fstate_.remapped()) return split_line(ln);
    line_run(ln.proc, ln.first_step, ln.pop);
  }
  void bundle(const SymBundle& b) {
    if (fstate_.active) return split_bundle(b);
    if (b.src_proc != b.dst_proc) channel_run(b.src_proc, b.dst_proc, b.first_step, b.count);
  }

  SimResult price() {
    std::int64_t max_iters = 0;
    for (std::int64_t c : res_.per_proc_iterations) max_iters = std::max(max_iters, c);
    res_.compute_bottleneck = Cost{detail::checked_mul(max_iters, opts_.flops_per_iteration), 0, 0};
    channels_.seal();

    if (paper_) {
      // The busiest unordered processor pair: a channel plus its reverse.
      std::int64_t worst = 0;
      for (std::size_t c : channels_.in_order()) {
        const auto [src, dst] = channels_.ends(c);
        const std::size_t back = channels_.find(dst, src);
        if (back == channels_.size()) worst = std::max(worst, units_[c]);
        else if (src < dst) worst = std::max(worst, detail::checked_add(units_[c], units_[back]));
      }
      res_.comm_bottleneck = Cost{0, worst, worst};
      res_.total = checked_sum(res_.compute_bottleneck, res_.comm_bottleneck);
      if (!in_.per_step_telemetry) return finish();
    }
    StepSweep& sweep = *sweep_;
    sweep.seal(nslots_ + channels_.size());
    std::optional<StepTelemetry> telemetry;
    if (in_.per_step_telemetry) telemetry.emplace(sweep, channels_, in_.lo, machine_, opts_);
    PricingWalk walk(sweep, channels_, in_, fstate_, machine_, opts_, res_,
                     telemetry ? &*telemetry : nullptr);
    sweep.walk(walk);
    walk.finish();
    return finish();
  }

 private:
  /// Owner of a block at an absolute step (failure-timeline aware).
  [[nodiscard]] ProcId owner(ProcId fault_free, std::size_t blk, std::int64_t step) const {
    return fstate_.remapped() ? fstate_.remap->proc_at(blk, step) : fault_free;
  }
  /// Visit maximal equal-fault-state segments (seg_first, seg_count) of the
  /// strided run first, first+σ, …: ownership and routing change only at
  /// the cut steps, and a cut takes effect *at* the cut (matching
  /// RemapResult::proc_at and FaultSet's at-step semantics).
  template <class Emit>
  void for_each_segment(std::int64_t first, std::int64_t count,
                        const std::vector<std::int64_t>& cuts, const Emit& emit) const {
    if (count <= 0) return;
    const std::int64_t sigma = in_.sigma;
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
  }

  /// A line's run splits at the node-fault breaks, each segment owned by
  /// whoever holds its block then.
  void split_line(const SymLine& ln) {
    for_each_segment(ln.first_step, ln.pop, fstate_.breaks, [&](std::int64_t s, std::int64_t n) {
      line_run(fstate_.remap->proc_at(ln.block, s), s, n);
    });
  }
  /// A bundle's run splits wherever its owners or its route may change.
  void split_bundle(const SymBundle& b) {
    const std::int64_t shift = in_.shifts[b.dep];
    for_each_segment(b.first_step, b.count, cuts_[b.dep], [&](std::int64_t s, std::int64_t n) {
      channel_run(owner(b.src_proc, b.src_block, s), owner(b.dst_proc, b.dst_block, s + shift), s,
                  n);
    });
  }

  void line_run(ProcId p, std::int64_t first, std::int64_t n) {
    res_.per_proc_iterations[p] = detail::checked_add(res_.per_proc_iterations[p], n);
    if (sweep_) sweep_->add(p, first - in_.lo, n);
  }
  /// A channel run lands on its directed channel's sweep row and, for the
  /// paper convention, in the channel's message units (one per word, or
  /// its hop count with charge_hops).  A run's first step fixes the route
  /// of all its messages.
  void channel_run(ProcId src, ProcId dst, std::int64_t first, std::int64_t count) {
    if (src == dst) return;
    const std::size_t c = channels_.id_of(src, dst);
    res_.words = detail::checked_add(res_.words, count);
    if (sweep_) sweep_->add(nslots_ + c, first - in_.lo, count);
    std::int64_t unit = 1;
    if (resolve_routes_) {
      const ChannelRoute& rt = channels_.route(c, first);
      if (paper_ && rt.rerouted)
        res_.rerouted_messages = detail::checked_add(res_.rerouted_messages, count);
      if (opts_.charge_hops) unit = rt.hops;
    }
    if (!paper_) return;
    if (c == units_.size()) units_.push_back(0);
    add_scaled(units_[c], unit, count);
    res_.messages = detail::checked_add(res_.messages, count);
  }

  /// Every accounting ends with the migration charge and one metrics pass.
  SimResult finish() {
    res_.total = checked_sum(res_.total, res_.migration_cost);
    res_.time = res_.total.value(machine_);
    emit_metrics(opts_, fstate_, res_);
    return std::move(res_);
  }

  const FeedFrame& in_;
  const MachineParams& machine_;
  const SimOptions& opts_;
  const SymFaultState& fstate_;
  std::size_t nslots_;
  bool paper_;
  bool resolve_routes_ = false;
  SimResult res_;
  std::vector<std::vector<std::int64_t>> cuts_;  ///< per dependence, under faults
  std::optional<StepSweep> sweep_;  ///< per-step accountings and telemetry only
  ChannelTable channels_;
  std::vector<std::int64_t> units_;  ///< PaperMaxChannel: message units per channel
};

/// Runs one feed through the accounting core: visit(core) hands it every
/// line and bundle.
template <class Visit>
SimResult simulate_feed(const FeedFrame& frame, const Visit& visit, const Topology& topo,
                        const MachineParams& machine, const SimOptions& opts,
                        const SymFaultState& fstate) {
  AccountingCore core(frame, topo, machine, opts, fstate);
  visit(core);
  return core.price();
}

/// Π·d of every dependence: an arc leaving at step t lands at t + Π·d.
std::vector<std::int64_t> step_shifts(const std::vector<IntVec>& deps, const TimeFunction& tf) {
  std::vector<std::int64_t> shifts;
  for (const IntVec& d : deps) shifts.push_back(dot(tf.pi, d));
  return shifts;
}

/// Frame of a closed-form feed: the schedule span of `space` under Π.
FeedFrame closed_form_frame(const IterSpace& space, const TimeFunction& tf, std::size_t nprocs,
                            std::int64_t sigma) {
  FeedFrame feed;
  feed.nprocs = nprocs;
  const auto [lo, hi] = space.step_range(tf.pi);
  feed.lo = lo;
  feed.steps = detail::checked_add(detail::checked_sub(hi, lo), 1);
  feed.sigma = sigma;
  feed.shifts = step_shifts(space.dependences(), tf);
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

  const PointRows& verts = q.vertices();
  std::vector<std::int64_t> vstep(verts.size());
  for (std::size_t vid = 0; vid < verts.size(); ++vid) vstep[vid] = tf.step_of(verts[vid]);
  const auto [lo, hi] = std::minmax_element(vstep.begin(), vstep.end());

  // Every vertex is a one-point line of its block and every arc a one-arc
  // bundle, on the unit step stride.
  FeedFrame frame;
  frame.nprocs = mapping.processor_count;
  frame.lo = *lo;
  frame.steps = *hi - *lo + 1;
  frame.shifts = step_shifts(q.dependences(), tf);
  frame.per_step_telemetry = opts.obs.enabled();
  SimResult res = simulate_feed(
      frame,
      [&](AccountingCore& core) {
        for (std::size_t vid = 0; vid < verts.size(); ++vid) {
          const std::size_t b = part.block_of(vid);
          core.line({mapping.block_to_proc[b], b, 1, vstep[vid]});
        }
        q.for_each_arc_id([&](std::size_t s, std::size_t d, std::size_t k) {
          const std::size_t bs = part.block_of(s), bd = part.block_of(d);
          core.bundle({mapping.block_to_proc[bs], mapping.block_to_proc[bd], bs, bd, k, 1,
                       vstep[s]});
        });
      },
      topo, machine, opts, fstate);
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

  const FeedFrame frame = closed_form_frame(space, tf, mapping.processor_count, ps.step_stride());
  return simulate_feed(
      frame,
      [&](AccountingCore& core) {
        for (std::size_t pid = 0; pid < ps.point_count(); ++pid)
          core.line({pproc[pid], pblock[pid], static_cast<std::int64_t>(ps.line_population(pid)),
                     tf.step_of(ps.line_representative(pid))});
        for_each_line_dep(space, ps, [&](const LineDepArcs& b) {
          core.bundle({pproc[b.point], pproc[b.target], pblock[b.point], pblock[b.target], b.dep,
                       b.count, b.first_step});
        });
      },
      topo, machine, opts, fstate);
}

SimResult simulate_execution(const GroupLattice& lattice, const LatticeHypercubeMapping& mapping,
                             const Topology& topo, const MachineParams& machine,
                             const SimOptions& opts, GroupLattice::Sweep* sweep) {
  obs::Span span(opts.obs.trace, "simulate_execution", "sim");
  using GroupKey = GroupLattice::GroupKey;
  using Fragment = LatticeHypercubeMapping::Fragment;
  const std::vector<GroupLattice::Run>& runs = lattice.runs();

  // Node failures index blocks in the lattice's canonical sorted order:
  // group a of run i is block sorted[run_order(i, a)].
  std::vector<std::uint64_t> sorted;
  auto run_order = [&](std::size_t i, std::int64_t a) {
    return runs[i].first + static_cast<std::uint64_t>(a - runs[i].a_lo);
  };
  SymFaultState fstate = resolve_machine(
      opts, topo, mapping.processor_count, [&](std::vector<std::int64_t>& sizes, Mapping& base) {
        sorted = lattice.sorted_order();
        const std::vector<std::int64_t> pre = lattice.population_prefix();
        sizes.assign(sorted.size(), 0);
        for (std::size_t j = 0; j < sorted.size(); ++j) sizes[sorted[j]] = pre[j + 1] - pre[j];
        base.processor_count = mapping.processor_count;
        base.block_to_proc.assign(sorted.size(), 0);
        mapping.for_each_fragment(lattice, [&](std::size_t i, std::int64_t a_from,
                                               std::int64_t a_next, ProcId proc) {
          for (std::int64_t a = a_from; a < a_next; ++a)
            base.block_to_proc[sorted[run_order(i, a)]] = proc;
        });
      });
  auto block_of = [&](const Fragment& f, const GroupKey& g) -> std::size_t {
    return fstate.remapped() ? sorted[run_order(f.run, g.a)] : 0;
  };

  // Owners by fragment: the walk is group-contiguous, so the fragment of
  // the current line and the last fragment each dependence's targets fell
  // in answer almost every lookup; a group outside its cursor's fragment
  // searches again.
  Fragment src;
  std::vector<Fragment> dst(lattice.original_deps().size());
  auto holding = [&](Fragment& cursor, const GroupKey& g) -> const Fragment& {
    if (!cursor.holds(g)) cursor = mapping.fragment_of(lattice, g);
    return cursor;
  };

  const FeedFrame frame = closed_form_frame(lattice.space(), lattice.time_function(),
                                            mapping.processor_count, lattice.step_stride());
  return simulate_feed(
      frame,
      [&](AccountingCore& core) {
        lattice.for_each_line_and_bundle(
            [&](const GroupKey& g, std::int64_t pop, std::int64_t first_step) {
              const Fragment& f = holding(src, g);
              core.line({f.proc, block_of(f, g), pop, first_step});
            },
            [&](const GroupKey& from, const GroupKey& to, std::size_t k, std::int64_t count,
                std::int64_t first_step) {
              const Fragment& ft = to == from ? src : holding(dst[k], to);
              core.bundle({src.proc, ft.proc, block_of(src, from), block_of(ft, to), k, count,
                           first_step});
            },
            sweep);
      },
      topo, machine, opts, fstate);
}

}  // namespace hypart
