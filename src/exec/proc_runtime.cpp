#include "exec/proc_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "core/io_util.hpp"
#include "exec/parallel_runtime.hpp"
#include "exec/supervisor.hpp"
#include "exec/worker_loop.hpp"
#include "fault/remap.hpp"
#include "mapping/gray.hpp"

namespace hypart {

namespace {

using exec::Frame;
using exec::FrameType;
using exec::PayloadReader;
using exec::PayloadWriter;
using exec::Supervisor;
using exec::SupervisorEvent;
using exec::SupervisorEventKind;
using exec::WorkerDeath;

/// Worker-side fault triggers for one proc, derived from the plan.
struct WorkerFaults {
  std::optional<std::int64_t> kill_at;   // hyperplane step (kFromStart = now)
  std::optional<std::int64_t> hang_at;
  std::optional<std::int64_t> trunc_at;
  std::optional<std::int64_t> delay_at;
  std::int64_t delay_ms = 0;
};

bool triggered(const std::optional<std::int64_t>& at, std::int64_t step) {
  return at.has_value() && (*at == fault::kFromStart || step >= *at);
}

/// One worker's end of the socket transport, in the forked child: value
/// messages travel as DATA frames through the supervisor, the worker
/// heartbeats whenever it waits, and the `proc:` fault triggers fire at
/// their hyperplane step.  A lost supervisor ends the child (the epoch is
/// over), so no operation ever reports an abort.
class SocketTransport final : public exec::WorkerTransport {
 public:
  SocketTransport(int fd, const WorkerFaults& faults, std::int64_t heartbeat_interval_ms)
      : fd_(fd), faults_(faults), heartbeat_interval_ms_(heartbeat_interval_ms) {}

  void send_frame(const Frame& f) {
    int retries = 0;
    if (!exec::write_frame(fd_, f, &retries)) _exit(3);  // supervisor gone
    send_retries_ += retries;
    last_hb_ = std::chrono::steady_clock::now();
  }

  void fire_faults(std::int64_t step) {
    if (triggered(faults_.kill_at, step)) ::raise(SIGKILL);
    if (triggered(faults_.trunc_at, step)) {
      // Deliberately corrupt the stream: a length prefix promising more
      // bytes than ever arrive, then die.  The supervisor must classify
      // this as a truncated frame, not hang waiting for the rest.
      const std::uint8_t junk[6] = {0xff, 0x00, 0x00, 0x00,
                                    static_cast<std::uint8_t>(FrameType::Data), 0x42};
      (void)write_full(fd_, junk, sizeof(junk));
      _exit(4);
    }
    if (triggered(faults_.hang_at, step)) {
      for (;;)  // silent forever; heartbeat watchdog's case
        std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    if (triggered(faults_.delay_at, step)) delaying_ = true;
  }

  bool before_vertex(ProcId /*me*/, std::size_t /*vid*/, std::int64_t step) override {
    fire_faults(step);
    if (std::chrono::steady_clock::now() - last_hb_ >=
        std::chrono::milliseconds(heartbeat_interval_ms_))
      send_frame({FrameType::Heartbeat, {}});
    return true;
  }

  bool receive(ProcId /*me*/, std::size_t /*vid*/, std::uint32_t /*outstanding*/,
               std::vector<exec::ValueMessage>& inbox) override {
    for (;;) {
      int r = exec::wait_readable(fd_, static_cast<int>(heartbeat_interval_ms_));
      if (r < 0) _exit(3);
      if (r == 0) {
        send_frame({FrameType::Heartbeat, {}});
        continue;
      }
      Frame f;
      if (exec::read_frame(fd_, f) <= 0) _exit(3);  // supervisor closed our end: epoch is over
      if (f.type != FrameType::Data) continue;
      PayloadReader pr(f.payload);
      (void)pr.u64();  // routing target (us), already consumed by the hub
      exec::ValueMessage& m = inbox.emplace_back();
      m.sink_vid = static_cast<std::size_t>(pr.u64());
      m.array = pr.str();
      m.element = pr.ivec();
      m.value = pr.f64();
      return true;
    }
  }

  bool send(ProcId /*me*/, ProcId target, exec::ValueMessage& msg) override {
    if (delaying_) std::this_thread::sleep_for(std::chrono::milliseconds(faults_.delay_ms));
    PayloadWriter pw;
    pw.u64(target);
    pw.u64(msg.sink_vid);
    pw.str(msg.array);
    pw.ivec(msg.element);
    pw.f64(msg.value);
    send_frame({FrameType::Data, pw.take()});
    return true;
  }

  [[nodiscard]] std::int64_t send_retries() const { return send_retries_; }

 private:
  int fd_;
  const WorkerFaults& faults_;
  std::int64_t heartbeat_interval_ms_;
  bool delaying_ = false;
  std::chrono::steady_clock::time_point last_hb_ = std::chrono::steady_clock::now();
  std::int64_t send_retries_ = 0;
};

/// The forked child: runs proc `me`'s node program over the socket, then
/// reports its write records and counters.  A worker exception is sent to
/// the supervisor as an ERROR frame.  Never returns.
[[noreturn]] void worker_main(int fd, ProcId me, const exec::NodeProgram& program,
                              const WorkerFaults& faults, std::int64_t heartbeat_interval_ms) {
  SocketTransport link(fd, faults, heartbeat_interval_ms);
  try {
    PayloadWriter hello;
    hello.u64(me);
    link.send_frame({FrameType::Hello, hello.take()});
    link.fire_faults(program.schedule().min_step - 1);  // kFromStart faults fire first

    exec::WorkerOutcome out;
    (void)program.run(me, link, out);
    PayloadWriter writes;
    writes.u32(static_cast<std::uint32_t>(out.writes.size()));
    for (const exec::WriteRecord& w : out.writes) {
      writes.str(w.array);
      writes.ivec(w.element);
      writes.i64(w.step);
      writes.f64(w.value);
    }
    link.send_frame({FrameType::Writes, writes.take()});
    PayloadWriter stats;
    stats.f64(out.compute_us);
    stats.f64(out.wait_us);
    stats.f64(out.send_us);
    stats.i64(out.halo_loads);
    stats.i64(link.send_retries());
    link.send_frame({FrameType::Stats, stats.take()});
    link.send_frame({FrameType::Done, {}});
  } catch (const std::exception& e) {
    PayloadWriter pw;
    pw.str(e.what());
    (void)exec::write_frame(fd, {FrameType::Error, pw.take()});
    _exit(1);
  }
  _exit(0);
}

}  // namespace

ProcRunResult run_procs(const LoopNest& nest, const ComputationStructure& q,
                        const TimeFunction& tf, const Partition& part,
                        const Mapping& mapping, const DependenceInfo& deps,
                        const ProcRunOptions& options) {
  exec::NodeProgram program("run_procs", nest, q, tf, part, mapping, deps, options.init,
                            options.measure_phases);
  if (options.max_recoveries < 0)
    throw Error(ErrorKind::Config, "run_procs: max_recoveries must be >= 0");
  if (options.heartbeat_interval_ms <= 0)
    throw Error(ErrorKind::Config, "run_procs: heartbeat_interval_ms must be > 0");

  const std::size_t nprocs = mapping.processor_count;
  const obs::ObsContext& obs = options.obs;
  ignore_sigpipe();

  for (const fault::ProcFault& f : options.proc_faults)
    if (f.kind != fault::ProcFaultKind::RandKill && f.proc >= nprocs)
      throw Error(ErrorKind::Config, "run_procs: proc fault targets worker " +
                                         std::to_string(f.proc) + " but only " +
                                         std::to_string(nprocs) + " exist");

  ProcRunResult result;
  ProcRunStats& stats = result.stats;

  auto emit_event = [&](const SupervisorEvent& e) {
    if (obs.trace != nullptr)
      obs::emit_instant(obs.trace, std::string("supervisor.") + exec::to_string(e.kind),
                        "procs", obs::wall_clock_us(), obs::kPipelinePid, obs::kPipelineTid,
                        {{"worker", static_cast<std::int64_t>(e.proc)}, {"detail", e.detail}});
    if (obs.metrics != nullptr)
      obs.metrics->add(std::string("procs.events.") + exec::to_string(e.kind));
  };

  auto degrade = [&](const std::string& why) {
    if (!options.allow_degrade)
      throw Error(ErrorKind::Io, "run_procs: cannot spawn workers (" + why +
                                     ") and degradation is disabled");
    emit_event({SupervisorEventKind::Degrade, 0, why});
    ParallelRunOptions po;
    po.init = options.init;
    po.obs = options.obs;
    po.recv_timeout_ms = options.run_timeout_ms;
    po.measure_phases = options.measure_phases;
    ParallelRunResult threaded = run_parallel(nest, q, tf, part, mapping, deps, po);
    result.written = std::move(threaded.written);
    stats.messages_sent = threaded.stats.messages_sent;
    stats.halo_loads = threaded.stats.halo_loads;
    stats.workers = threaded.stats.threads;
    stats.per_proc_compute_us = std::move(threaded.stats.per_proc_compute_us);
    stats.per_proc_wait_us = std::move(threaded.stats.per_proc_wait_us);
    stats.per_proc_send_us = std::move(threaded.stats.per_proc_send_us);
    stats.wall_us = threaded.stats.wall_us;
    stats.degraded = true;
    return result;
  };

  // Resolve seeded RandKill terms into concrete Kill faults so every epoch
  // (and every rerun with the same seed) injects identically.
  std::vector<fault::ProcFault> pending_faults;
  for (const fault::ProcFault& f : options.proc_faults) {
    if (f.kind != fault::ProcFaultKind::RandKill) {
      pending_faults.push_back(f);
      continue;
    }
    std::mt19937_64 rng(f.seed);
    fault::ProcFault kill;
    kill.kind = fault::ProcFaultKind::Kill;
    kill.proc = static_cast<ProcId>(rng() % nprocs);
    const exec::Schedule& sched = program.schedule();
    const std::uint64_t steps = static_cast<std::uint64_t>(sched.max_step - sched.min_step) + 1;
    kill.at_step = sched.min_step + static_cast<std::int64_t>(rng() % steps);
    pending_faults.push_back(kill);
  }

  // The topology frames are routed along.  The mapper targets a hypercube,
  // so processor counts are powers of two in practice; anything else gets
  // unit hop charges and least-loaded (instead of spare-neighbor) respawn
  // placement.
  std::optional<Hypercube> cube;
  if (is_power_of_two(nprocs)) cube.emplace(log2_exact(nprocs));

  Supervisor::Options sup_opts;
  sup_opts.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  sup_opts.on_event = emit_event;
  Supervisor sup(std::move(sup_opts));

  std::vector<ProcId> ever_dead;  // cumulative, across epochs
  Mapping epoch_mapping = mapping;
  const bool measure = options.measure_phases;
  const auto run_clock_start = std::chrono::steady_clock::now();

  for (int epoch = 0;; ++epoch) {
    std::vector<ProcId> live_procs;
    for (ProcId p = 0; p < nprocs; ++p)
      if (std::find(ever_dead.begin(), ever_dead.end(), p) == ever_dead.end())
        live_procs.push_back(p);

    // Per-proc fault triggers for this epoch (consumed faults excluded).
    std::vector<WorkerFaults> wf(nprocs);
    for (const fault::ProcFault& f : pending_faults) {
      WorkerFaults& t = wf[f.proc];
      switch (f.kind) {
        case fault::ProcFaultKind::Kill: t.kill_at = f.at_step; break;
        case fault::ProcFaultKind::Hang: t.hang_at = f.at_step; break;
        case fault::ProcFaultKind::TruncFrame: t.trunc_at = f.at_step; break;
        case fault::ProcFaultKind::DelaySend:
          t.delay_at = f.at_step;
          t.delay_ms = f.delay_ms;
          break;
        case fault::ProcFaultKind::RandKill: break;  // resolved above
      }
    }

    std::string spawn_error;
    bool spawned = sup.spawn(
        live_procs,
        [&](ProcId me, int fd) {
          worker_main(fd, me, program, wf[me], options.heartbeat_interval_ms);
        },
        &spawn_error);
    if (!spawned) return degrade(spawn_error);

    const auto epoch_start = std::chrono::steady_clock::now();
    auto last_progress = epoch_start;
    std::vector<std::pair<ProcId, Frame>> frames;
    std::vector<WorkerDeath> deaths;
    std::vector<exec::WorkerOutcome> epoch_out(nprocs);
    std::int64_t worker_retries = 0;
    std::int64_t epoch_messages = 0, epoch_hops = 0;
    std::size_t done = 0;
    bool epoch_failed = false;
    std::string worker_error;

    while (done < live_procs.size() && !epoch_failed && worker_error.empty()) {
      frames.clear();
      deaths.clear();
      sup.poll_once(10, frames, deaths);
      for (auto& [src, f] : frames) {
        switch (f.type) {
          case FrameType::Hello:
          case FrameType::Heartbeat: break;
          case FrameType::Data: {
            PayloadReader pr(f.payload);
            ProcId target = static_cast<ProcId>(pr.u64());
            if (target >= nprocs) {
              worker_error = "worker " + std::to_string(src) + " routed to bad target " +
                             std::to_string(target);
              break;
            }
            epoch_hops += cube ? cube->distance(src, target) : 1;
            ++epoch_messages;
            sup.send(target, f);
            last_progress = std::chrono::steady_clock::now();
            break;
          }
          case FrameType::Writes: {
            PayloadReader pr(f.payload);
            std::uint32_t n = pr.u32();
            for (std::uint32_t i = 0; i < n; ++i) {
              exec::WriteRecord& w = epoch_out[src].writes.emplace_back();
              w.array = pr.str();
              w.element = pr.ivec();
              w.step = pr.i64();
              w.value = pr.f64();
            }
            last_progress = std::chrono::steady_clock::now();
            break;
          }
          case FrameType::Stats: {
            PayloadReader pr(f.payload);
            exec::WorkerOutcome& ws = epoch_out[src];
            ws.compute_us = pr.f64();
            ws.wait_us = pr.f64();
            ws.send_us = pr.f64();
            ws.halo_loads = pr.i64();
            worker_retries += pr.i64();
            break;
          }
          case FrameType::Done:
            ++done;
            last_progress = std::chrono::steady_clock::now();
            break;
          case FrameType::Error: {
            PayloadReader pr(f.payload);
            worker_error = "worker " + std::to_string(src) + " threw: " + pr.str();
            break;
          }
        }
        if (!worker_error.empty()) break;
      }

      if (!deaths.empty()) {
        // First recovery-relevant event wins; kill the epoch and restart.
        epoch_failed = true;
        for (const WorkerDeath& d : deaths) {
          ever_dead.push_back(d.proc);
          if (obs.trace != nullptr)
            obs::emit_instant(obs.trace, "supervisor.death", "procs", obs::wall_clock_us(),
                              obs::kPipelinePid, obs::kPipelineTid,
                              {{"worker", static_cast<std::int64_t>(d.proc)},
                               {"reason", d.reason}});
          if (obs.metrics != nullptr) obs.metrics->add("procs.worker_deaths");
        }
        break;
      }

      if (options.run_timeout_ms > 0) {
        auto idle = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - last_progress)
                        .count();
        if (idle > static_cast<double>(options.run_timeout_ms)) {
          std::string dump = sup.dump_workers();
          sup.reset();
          throw StallError("run_procs: no schedule progress for " +
                               std::to_string(options.run_timeout_ms) + " ms (epoch " +
                               std::to_string(epoch) + ")",
                           dump);
        }
      }
    }

    if (!worker_error.empty()) {
      sup.reset();
      throw Error(ErrorKind::Internal, "run_procs: " + worker_error);
    }

    if (!epoch_failed) {
      // Success: every worker's WRITES and STATS precede its DONE on the
      // wire, so all of them have been read.
      sup.reset();

      result.written = exec::merge_writes(epoch_out);
      stats.messages_sent = epoch_messages;
      stats.route_hops = epoch_hops;
      stats.workers = live_procs.size();
      stats.heartbeat_misses = sup.heartbeat_misses();
      stats.send_retries = sup.send_retries() + worker_retries;
      for (const exec::WorkerOutcome& ws : epoch_out) {
        stats.halo_loads += ws.halo_loads;
        if (!measure) continue;
        stats.per_proc_compute_us.push_back(ws.compute_us);
        stats.per_proc_wait_us.push_back(ws.wait_us);
        stats.per_proc_send_us.push_back(ws.send_us);
      }
      if (measure) {
        stats.wall_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - run_clock_start)
                            .count();
      }
      break;
    }

    // ---- recovery: consume faults, reassign blocks, restart the epoch ----
    sup.reset();
    ++stats.recoveries;
    if (stats.recoveries > options.max_recoveries)
      throw WorkerDeathError("run_procs: worker died and recovery budget exhausted (" +
                             std::to_string(options.max_recoveries) + " restart(s) allowed)");

    std::sort(ever_dead.begin(), ever_dead.end());
    ever_dead.erase(std::unique(ever_dead.begin(), ever_dead.end()), ever_dead.end());
    if (ever_dead.size() >= nprocs)
      throw FaultError("run_procs: every worker has died; no spare to recover on");

    // A fault that fired is consumed: the respawned epoch must not re-kill
    // the spare's inherited schedule.  (DelaySend is non-fatal and would
    // not have caused the death, so it survives consumption.)
    std::vector<fault::ProcFault> remaining;
    for (const fault::ProcFault& f : pending_faults) {
      bool victim_dead = std::find(ever_dead.begin(), ever_dead.end(), f.proc) != ever_dead.end();
      if (victim_dead && f.kind != fault::ProcFaultKind::DelaySend) continue;
      remaining.push_back(f);
    }
    pending_faults = std::move(remaining);

    std::size_t before_blocks = stats.migrated_blocks;
    if (cube) {
      // Spare-neighbor policy with charged migration, exactly the degraded
      // -cube accounting the simulator uses (fault/remap.hpp).
      fault::FaultPlan plan;
      for (ProcId p : ever_dead) plan.node_faults.push_back({p, fault::kFromStart});
      fault::FaultSet fset = plan.resolve(*cube);
      fault::RemapResult remap = fault::remap_for_faults(part, mapping, *cube, fset);
      epoch_mapping = remap.mapping;
      stats.migrated_blocks = remap.migrations.size();
      stats.migration_words = remap.migration_words;
      for (const fault::Migration& m : remap.migrations)
        emit_event({SupervisorEventKind::Reassign, m.to,
                    "block " + std::to_string(m.block) + " from worker " +
                        std::to_string(m.from) + " (" + std::to_string(m.words) + " words)"});
    } else {
      // Non-power-of-two fallback: move each dead proc's blocks to the
      // least-loaded live proc (load = owned iteration count).
      std::vector<std::int64_t> block_words(part.block_count(), 0);
      for (std::size_t vid = 0; vid < q.vertices().size(); ++vid)
        ++block_words[part.block_of(vid)];
      std::vector<std::int64_t> load(nprocs, 0);
      for (std::size_t b = 0; b < part.block_count(); ++b)
        load[epoch_mapping.block_to_proc[b]] += block_words[b];
      auto is_dead = [&](ProcId p) {
        return std::find(ever_dead.begin(), ever_dead.end(), p) != ever_dead.end();
      };
      std::size_t migrated = 0;
      std::int64_t words = 0;
      for (std::size_t b = 0; b < part.block_count(); ++b) {
        ProcId owner = epoch_mapping.block_to_proc[b];
        if (!is_dead(owner)) continue;
        ProcId best = nprocs;
        for (ProcId p = 0; p < nprocs; ++p)
          if (!is_dead(p) && (best == nprocs || load[p] < load[best])) best = p;
        epoch_mapping.block_to_proc[b] = best;
        load[best] += block_words[b];
        ++migrated;
        words += block_words[b];
        emit_event({SupervisorEventKind::Reassign, best,
                    "block " + std::to_string(b) + " from worker " + std::to_string(owner) +
                        " (" + std::to_string(block_words[b]) + " words)"});
      }
      stats.migrated_blocks += migrated;
      stats.migration_words += words;
    }
    program.remap(epoch_mapping);
    if (obs.metrics != nullptr) {
      obs.metrics->add("procs.recoveries");
      obs.metrics->add("procs.migrated_blocks",
                       static_cast<std::int64_t>(stats.migrated_blocks - before_blocks));
    }
  }

  if (obs.metrics != nullptr) {
    obs.metrics->add("procs.messages_routed", stats.messages_sent);
    obs.metrics->add("procs.route_hops", stats.route_hops);
    obs.metrics->add("procs.halo_loads", stats.halo_loads);
    obs.metrics->add("procs.workers", static_cast<std::int64_t>(stats.workers));
    obs.metrics->add("procs.migration_words", stats.migration_words);
  }
  return result;
}

}  // namespace hypart
