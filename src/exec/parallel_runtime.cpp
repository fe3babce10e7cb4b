#include "exec/parallel_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "exec/worker_loop.hpp"

namespace hypart {

namespace {

using exec::ValueMessage;

/// Delivery attempts to a closed mailbox before the run aborts.
constexpr int kDeliveryAttempts = 4;

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<ValueMessage> queue;
  bool closed = false;        ///< set by injected worker death
  std::size_t max_depth = 0;  ///< deepest the queue ever got

  /// Deliver one message (moved from only on success); false when the
  /// mailbox is closed (owner dead).
  bool post(ValueMessage& msg) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (closed) return false;
      queue.push_back(std::move(msg));
      max_depth = std::max(max_depth, queue.size());
    }
    cv.notify_one();
    return true;
  }
};

constexpr std::int64_t kRunning = -1;
constexpr std::int64_t kDone = -2;

/// The in-process transport all thread workers share: a blocking mailbox
/// receive under the stall watchdog, capped-backoff delivery that gives up
/// on a dead worker's closed mailbox, and a first-error-wins abort.
class ThreadTransport final : public exec::WorkerTransport {
 public:
  ThreadTransport(std::size_t nprocs, std::int64_t recv_timeout_ms)
      : mailbox(nprocs), blocked_vid_(nprocs), outstanding_(nprocs),
        recv_timeout_ms_(recv_timeout_ms) {
    for (std::size_t p = 0; p < nprocs; ++p) mark(p, kRunning);
  }

  bool before_vertex(ProcId /*me*/, std::size_t /*vid*/, std::int64_t /*step*/) override {
    return !aborted();
  }

  bool receive(ProcId me, std::size_t vid, std::uint32_t outstanding,
               std::vector<ValueMessage>& inbox) override {
    mark(me, static_cast<std::int64_t>(vid), outstanding);
    Mailbox& mb = mailbox[me];
    std::unique_lock<std::mutex> lock(mb.mutex);
    auto wakeup = [&] { return !mb.queue.empty() || aborted(); };
    // The watchdog deadline restarts on every call, i.e. whenever a
    // delivery made progress; expiring with nothing delivered means the
    // schedule is stuck.  A deadline past the clock's range never expires.
    const auto now = std::chrono::steady_clock::now();
    const auto headroom = std::chrono::floor<std::chrono::milliseconds>(
        std::chrono::steady_clock::time_point::max() - now);
    if (recv_timeout_ms_ <= 0 || recv_timeout_ms_ > headroom.count()) {
      mb.cv.wait(lock, wakeup);
    } else if (!mb.cv.wait_until(lock, now + std::chrono::milliseconds(recv_timeout_ms_),
                                 wakeup)) {
      lock.unlock();
      fail(ErrorKind::Stall,
           "run_parallel: stall watchdog fired after " + std::to_string(recv_timeout_ms_) +
               " ms (proc " + std::to_string(me) + " blocked on vertex " + std::to_string(vid) +
               ")",
           dump_workers());
      return false;
    }
    if (aborted()) return false;
    inbox.swap(mb.queue);
    lock.unlock();
    mark(me, kRunning);
    return true;
  }

  bool send(ProcId me, ProcId target, ValueMessage& msg) override {
    for (int attempt = 0; attempt < kDeliveryAttempts; ++attempt) {
      if (attempt > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(std::min(8, 1 << (attempt - 1))));
      if (aborted()) return false;
      if (mailbox[target].post(msg)) return true;
    }
    fail(ErrorKind::WorkerDeath, "run_parallel: delivery to dead worker " +
                                     std::to_string(target) + " failed after " +
                                     std::to_string(kDeliveryAttempts) + " attempts (sender proc " +
                                     std::to_string(me) + ", value for vertex " +
                                     std::to_string(msg.sink_vid) + ")");
    return false;
  }

  /// Record the first failure (later ones are dropped) and wake every
  /// blocked worker.
  void fail(ErrorKind kind, std::string message, std::string diagnostics = {}) {
    {
      std::lock_guard<std::mutex> lock(failure_mutex_);
      if (aborted()) return;
      failure_kind = kind;
      failure_message = std::move(message);
      failure_diagnostics = std::move(diagnostics);
      aborted_.store(true, std::memory_order_release);
    }
    for (Mailbox& mb : mailbox) {
      std::lock_guard<std::mutex> lock(mb.mutex);
      mb.cv.notify_all();
    }
  }

  [[nodiscard]] bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  /// Stall-report state of worker `me`: kRunning, kDone, or the vertex it
  /// is blocked on and how many messages that vertex still awaits.
  void mark(ProcId me, std::int64_t vid, std::uint32_t outstanding = 0) {
    blocked_vid_[me].store(vid, std::memory_order_relaxed);
    outstanding_[me].store(outstanding, std::memory_order_relaxed);
  }

  std::vector<Mailbox> mailbox;
  /// The first failure, written under the failure mutex and read only
  /// after every worker has joined.
  ErrorKind failure_kind = ErrorKind::Internal;
  std::string failure_message;
  std::string failure_diagnostics;

 private:
  /// Snapshot every worker's blocked-on state for the stall report.  The
  /// owners write it while this reads it, racily but harmlessly.
  std::string dump_workers() {
    std::ostringstream os;
    for (ProcId p = 0; p < mailbox.size(); ++p) {
      std::int64_t vid = blocked_vid_[p].load(std::memory_order_relaxed);
      os << "  proc " << p << ": ";
      if (vid == kDone) os << "finished";
      else if (vid == kRunning) os << "running";
      else
        os << "blocked on vertex " << vid << " (awaiting "
           << outstanding_[p].load(std::memory_order_relaxed) << " message(s))";
      std::lock_guard<std::mutex> lock(mailbox[p].mutex);
      os << ", mailbox depth " << mailbox[p].queue.size() << "\n";
    }
    return os.str();
  }

  std::vector<std::atomic<std::int64_t>> blocked_vid_;
  std::vector<std::atomic<std::uint32_t>> outstanding_;
  std::int64_t recv_timeout_ms_;
  std::atomic<bool> aborted_{false};
  std::mutex failure_mutex_;
};

}  // namespace

ParallelRunResult run_parallel(const LoopNest& nest, const ComputationStructure& q,
                               const TimeFunction& tf, const Partition& part,
                               const Mapping& mapping, const DependenceInfo& deps,
                               const ParallelRunOptions& options) {
  const exec::NodeProgram program("run_parallel", nest, q, tf, part, mapping, deps,
                                  options.init, options.measure_phases);
  const std::size_t nprocs = mapping.processor_count;
  const obs::ObsContext& obs = options.obs;
  for (ProcId d : options.dead_workers)
    if (d >= nprocs)
      throw Error(ErrorKind::Config,
                  "run_parallel: dead worker " + std::to_string(d) + " out of range");

  ThreadTransport transport(nprocs, options.recv_timeout_ms);
  // Injected death: a dead worker's mailbox is closed *before* any thread
  // starts, so no send can slip a message in during worker startup — the
  // first delivery attempt already sees the closed box deterministically.
  for (ProcId d : options.dead_workers) transport.mailbox[d].closed = true;

  // Per-worker slots: each is touched by exactly one thread and read only
  // after join, so no synchronization (and no sink calls from worker
  // threads) is needed.
  std::vector<exec::WorkerOutcome> outcome(nprocs);
  std::vector<double> span_begin(nprocs, 0.0), span_end(nprocs, 0.0);
  const bool measure = options.measure_phases;
  const bool timing = obs.trace != nullptr || measure;

  obs::Span run_span(obs.trace, "run_parallel", "runtime", obs::kPipelinePid, obs::kPipelineTid,
                     {{"threads", static_cast<std::int64_t>(nprocs)}});

  std::vector<std::thread> threads;
  threads.reserve(nprocs);
  for (ProcId p = 0; p < nprocs; ++p)
    threads.emplace_back([&, p] {
      if (timing) span_begin[p] = obs::wall_clock_us();
      try {
        // A dead worker executes nothing; senders hit its closed box.  The
        // flag is read-only once the threads start.
        const bool dead = transport.mailbox[p].closed;
        if (dead || program.run(p, transport, outcome[p])) transport.mark(p, kDone);
      } catch (const std::exception& e) {
        transport.fail(ErrorKind::Internal,
                       "run_parallel: worker " + std::to_string(p) + " threw: " + e.what());
      }
      if (timing) span_end[p] = obs::wall_clock_us();
    });
  for (std::thread& t : threads) t.join();

  std::int64_t max_depth = 0;
  for (Mailbox& mb : transport.mailbox)
    max_depth = std::max(max_depth, static_cast<std::int64_t>(mb.max_depth));

  if (transport.aborted()) {
    // Surface the failure through obs before throwing so even failed runs
    // leave a diagnosable record.
    const std::string& message = transport.failure_message;
    if (obs.metrics != nullptr) {
      if (transport.failure_kind == ErrorKind::Stall) obs.metrics->add("fault.stalls_detected");
      if (transport.failure_kind == ErrorKind::WorkerDeath)
        obs.metrics->add("fault.worker_deaths");
      obs.metrics->set_gauge("runtime.max_mailbox_depth", static_cast<double>(max_depth));
    }
    if (obs.trace != nullptr)
      obs::emit_instant(obs.trace, "abort", "runtime", obs::wall_clock_us(), obs::kPipelinePid,
                        obs::kPipelineTid, {{"reason", message}});
    switch (transport.failure_kind) {
      case ErrorKind::Stall: throw StallError(message, transport.failure_diagnostics);
      case ErrorKind::WorkerDeath: throw WorkerDeathError(message);
      default: throw Error(ErrorKind::Internal, message);
    }
  }

  ParallelRunResult result;
  result.written = exec::merge_writes(outcome);
  ParallelRunStats& stats = result.stats;
  stats.threads = nprocs;
  stats.max_mailbox_depth = max_depth;
  for (const exec::WorkerOutcome& w : outcome) {
    stats.messages_sent += w.messages_sent;
    stats.halo_loads += w.halo_loads;
    stats.per_proc_messages.push_back(w.messages_sent);
    if (!measure) continue;
    stats.per_proc_compute_us.push_back(w.compute_us);
    stats.per_proc_wait_us.push_back(w.wait_us);
    stats.per_proc_send_us.push_back(w.send_us);
  }
  if (measure)
    for (ProcId p = 0; p < nprocs; ++p)
      stats.wall_us = std::max(stats.wall_us, span_end[p] - span_begin[p]);

  if (obs.trace != nullptr) {
    for (ProcId p = 0; p < nprocs; ++p) {
      obs::emit_thread_name(obs.trace, obs::kPipelinePid, obs::kRuntimeTidBase + p,
                            "runtime worker " + std::to_string(p));
      obs::emit_complete(obs.trace, "worker", "runtime", span_begin[p],
                         span_end[p] - span_begin[p], obs::kPipelinePid,
                         obs::kRuntimeTidBase + p,
                         {{"messages_sent", outcome[p].messages_sent},
                          {"halo_loads", outcome[p].halo_loads}});
    }
  }
  if (obs.metrics != nullptr) {
    obs.metrics->add("runtime.messages_sent", stats.messages_sent);
    obs.metrics->add("runtime.halo_loads", stats.halo_loads);
    obs.metrics->add("runtime.threads", static_cast<std::int64_t>(nprocs));
    obs.metrics->set_gauge("runtime.max_mailbox_depth", static_cast<double>(max_depth));
    for (ProcId p = 0; p < nprocs; ++p)
      obs.metrics->add("runtime.proc." + std::to_string(p) + ".messages_sent",
                       outcome[p].messages_sent);
  }
  return result;
}

}  // namespace hypart
