// hypart — the node program both real-execution backends run.
//
// In Sheu & Tai's machine model every hypercube node runs the same
// program: execute its blocks in hyperplane order, wait for the values its
// interblock dependences bring in, and forward the values it produces.
// NodeProgram is that program, written once.  The backends differ only in
// how a value crosses between nodes, so each supplies a WorkerTransport:
// in-process mailboxes (exec/parallel_runtime) or framed messages over a
// supervised socket (exec/proc_runtime).  run_sequential and
// run_distributed stay separate: they are the references both are tested
// against.
#pragma once

#include "exec/interpreter.hpp"

namespace hypart::exec {

/// The static schedule every node follows (and the program codegen/spmd
/// emits): vertex -> proc, each proc's vertices ordered by (hyperplane
/// step, vertex), and the cross-proc messages each vertex awaits.
struct Schedule {
  std::vector<ProcId> vproc;
  std::vector<std::vector<std::size_t>> my_order;
  std::vector<std::uint32_t> expected;
  std::int64_t min_step = 0;
  std::int64_t max_step = 0;
};

/// One value crossing processors: the element a dependence carries and the
/// iteration it unblocks.
struct ValueMessage {
  std::size_t sink_vid = 0;
  std::string array;
  IntVec element;
  double value = 0.0;
};

/// One element a worker wrote, stamped with its hyperplane step.
struct WriteRecord {
  std::string array;
  IntVec element;
  std::int64_t step = 0;
  double value = 0.0;
};

/// What one worker did: its write records, counters and (when measured)
/// the microseconds spent computing, blocked on receives and sending.
struct WorkerOutcome {
  std::vector<WriteRecord> writes;
  std::int64_t messages_sent = 0;
  std::int64_t halo_loads = 0;
  double compute_us = 0.0;
  double wait_us = 0.0;
  double send_us = 0.0;
};

/// How values move between nodes.  Every call names the worker `me` it is
/// made for.  Any call may return false to abort the worker (the run is
/// failing elsewhere); the loop then stops without another call.
class WorkerTransport {
 public:
  /// Per-step hook, called before vertex `vid` at hyperplane `step` runs.
  virtual bool before_vertex(ProcId me, std::size_t vid, std::int64_t step) = 0;
  /// Block until at least one value message for `me` arrives, then move
  /// every message received so far into `inbox` (empty on entry).
  /// `outstanding` is how many messages vertex `vid` still awaits.
  virtual bool receive(ProcId me, std::size_t vid, std::uint32_t outstanding,
                       std::vector<ValueMessage>& inbox) = 0;
  /// Deliver `msg` to processor `target` (it may be moved from).
  virtual bool send(ProcId me, ProcId target, ValueMessage& msg) = 0;

 protected:
  ~WorkerTransport() = default;
};

/// The node program of one partitioned, mapped nest.
class NodeProgram {
 public:
  /// Checks that the nest can run distributed and the mapping matches the
  /// partition (std::invalid_argument, prefixed with `runtime`), then
  /// builds the schedule for `mapping`.
  NodeProgram(const char* runtime, const LoopNest& nest, const ComputationStructure& q,
              const TimeFunction& tf, const Partition& part, const Mapping& mapping,
              const DependenceInfo& deps, const InitFn& init, bool measure_phases);

  /// Rebuild the schedule for a new mapping of the same partition (after a
  /// recovery reassigns blocks).
  void remap(const Mapping& mapping);

  [[nodiscard]] const Schedule& schedule() const { return sched_; }

  /// Run processor `me`'s share of the schedule over `transport`,
  /// accumulating into `out`.  Returns false when the transport aborted.
  bool run(ProcId me, WorkerTransport& transport, WorkerOutcome& out) const;

 private:
  const LoopNest& nest_;
  const ComputationStructure& q_;
  const TimeFunction& tf_;
  const Partition& part_;
  const DependenceInfo& deps_;
  const InitFn& init_;
  bool measure_;
  std::vector<std::size_t> arc_cols_;  ///< arc-table column per Dependence entry
  Schedule sched_;
};

/// Merge every worker's write records: per element the record with the
/// largest hyperplane step wins (the later record among equal steps).
ArrayStore merge_writes(const std::vector<WorkerOutcome>& workers);

}  // namespace hypart::exec
