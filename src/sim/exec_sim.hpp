// hypart — execution simulator for partitioned, mapped nested loops.
//
// We have no 1991 message-passing hypercube, so the machine is simulated:
// iterations execute step-synchronously by hyperplane (all points with
// Π·x = t run at step t on their assigned processors); every dependence arc
// crossing processors becomes a one-word message charged t_start + t_comm
// (optionally scaled by hop count).  Two accounting conventions are
// provided:
//
//  * PaperMaxChannel — the paper's Table I convention:
//        T = max_p compute_p + max_{p!=q} channel_volume(p,q)*(t_start+t_comm)
//    ("the communication time is determined by the largest amount of
//     interblock communication that occurred between two processors").
//  * PerStepBarrier — a step-synchronous model with per-(step, src, dst)
//    message aggregation:
//        T = sum_t max_p [ compute_p(t) + sum_{msgs sent by p at t}
//                                          (t_start + words*t_comm) ]
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mapping/hypercube_map.hpp"
#include "mapping/tig.hpp"
#include "obs/obs.hpp"
#include "partition/blocks.hpp"
#include "partition/group_lattice.hpp"
#include "sim/machine.hpp"
#include "topology/topology.hpp"

namespace hypart {

//  * LinkContention — messages are routed over the hypercube's physical
//    links with deterministic e-cube routing; each link serializes its
//    traffic, so the communication time of a step is the busiest link's
//    total (msgs*t_start + words*t_comm).  Models the congestion that the
//    first two conventions ignore.
enum class CommAccounting {
  PaperMaxChannel,
  PerStepBarrier,
  LinkContention,
};

struct SimOptions {
  CommAccounting accounting = CommAccounting::PaperMaxChannel;
  bool charge_hops = false;            ///< multiply message cost by hop distance
  std::int64_t flops_per_iteration = 1;
  /// Deterministic fault injection (see fault/fault_plan.hpp).  When
  /// non-empty the topology must be a Hypercube: failed nodes' blocks are
  /// remapped to live Gray-code neighbors (migration charged), messages
  /// detour around failed links, and SimResult reports the degraded totals.
  fault::FaultPlan faults;
  /// Optional tracing/metrics hooks (see obs/obs.hpp).  When both pointers
  /// are null (the default), the simulator does no extra work at all; the
  /// dense feed's per-step telemetry runs only when a sink or registry is set.
  obs::ObsContext obs{};
};

struct SimResult {
  Cost total;               ///< symbolic total execution cost
  double time = 0.0;        ///< total.value(machine)
  Cost compute_bottleneck;  ///< max over processors of total compute
  Cost comm_bottleneck;     ///< communication term of `total`
  std::int64_t steps = 0;   ///< schedule length (hyperplane count)
  std::int64_t messages = 0;  ///< total messages (after aggregation, if any)
  std::int64_t words = 0;     ///< total words crossing processors
  std::vector<std::int64_t> per_proc_iterations;

  /// Speedup vs. the same work on one processor (all-compute, no comm).
  [[nodiscard]] double speedup(const MachineParams& m, std::int64_t total_iterations,
                               std::int64_t flops_per_iteration) const;

  /// Busiest-link word count over the whole run (LinkContention only).
  std::int64_t max_link_words = 0;

  // ---- degraded-machine accounting (all zero without fault injection) ----
  std::int64_t failed_nodes = 0;        ///< nodes the fault plan ever fails
  std::int64_t failed_links = 0;        ///< links the plan fails directly
  std::int64_t rerouted_messages = 0;   ///< messages detoured off their e-cube path
  std::int64_t migrated_blocks = 0;     ///< blocks moved off failed nodes
  Cost migration_cost;                  ///< words x (t_start + t_comm), in `total`

  /// Metrics captured during this run; set only when SimOptions::obs carried
  /// a MetricsRegistry (snapshot taken as the simulation returns).
  std::optional<obs::MetricsSnapshot> metrics;
};

/// The first field on which two results differ, or "" when they agree:
/// the totals, both bottlenecks, steps, messages, words, busiest-link
/// words, per-processor loads and every degraded count.  Verify mode
/// compares each feed's result with it.
[[nodiscard]] std::string first_difference(const SimResult& a, const SimResult& b);

// One accounting core prices every plan.  Each overload below is a *feed*
// for it: a frame (processors, schedule span, step stride σ) plus two
// visitations — every projection line (processor, block, population, first
// step) and every dependence arc bundle (source/target processor and block,
// Π·d, arc count, first step).  The core resolves fault plans once (one
// route per directed channel and fault epoch; node failures remap over
// per-block iteration counts in the feed's block order) and splits line
// and bundle runs at the failure steps.  PaperMaxChannel prices the runs
// directly.  The per-step accountings sweep them in run-length form: each
// run is a rising and a falling edge, counting-sorted by step
// (residue-major under the stride σ), and one walk prices each segment of
// steps between edges once, times its length.  That costs O(lines·deps) for the runs,
// O(runs + steps) time and memory for the sort, and
// O(segments·(processors + channels)) for the pricing; no table grows with
// steps × channels.  The sweep keeps 32-bit fields, so a per-step
// accounting past about 2^32 steps (or 2^31 processors + channels) throws
// Error(Config).  All three overloads return identical
// SimResults (totals, steps, messages, words, per-processor loads,
// bottlenecks, degraded counts) for the same plan; under node failures the
// remap also depends on the block order, which the lattice feed takes from
// its sorted group order.  Every Cost product and sum is checked: a total
// that leaves int64 throws ArithmeticError.
//
// Per-step telemetry — the sim.msg_* histograms, busy/idle steps, the
// busiest-link series and the simulated-clock trace — reads the same
// pricing walk and expands its segments step by step; only the dense feed
// asks for it (whenever SimOptions::obs is enabled).  Its output grows
// with the step count, and the closed-form feeds plan schedules of 10⁷
// steps and more (the sor2d sweep of bench_symbolic_scaling has about
// 1.7·10⁷), so they report aggregate metrics only.

/// Dense feed: every vertex is a one-point line of its block, every arc a
/// one-arc bundle, σ = 1.  Block ids follow the partition's creation order.
SimResult simulate_execution(const ComputationStructure& q, const TimeFunction& tf,
                             const Partition& part, const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts = {});

/// Line-based feed: the projection lines of a symbolic Grouping, bundled
/// per (line, dependence) in closed form — no index point is materialized.
/// Node failures materialize the per-group sizes once for the remap.
SimResult simulate_execution(const IterSpace& space, const Grouping& grouping,
                             const Mapping& mapping, const Topology& topo,
                             const MachineParams& machine, const SimOptions& opts = {});

/// Lattice feed: GroupLattice line/bundle sweeps and the per-run fragment
/// owners — no per-line processor array, no Group objects.
/// With PaperMaxChannel, memory is O(processors²), independent of the
/// iteration count.  Link-only fault plans stay independent of the group
/// count; node failures materialize one O(groups) block index (sizes and
/// owners in lattice sorted order) for the remap.
SimResult simulate_execution(const GroupLattice& lattice, const LatticeHypercubeMapping& mapping,
                             const Topology& topo, const MachineParams& machine,
                             const SimOptions& opts = {});

}  // namespace hypart
