// hypart::exec — process supervision for the multi-process backend.
//
// The threaded runtime (exec/parallel_runtime.hpp) shares one address
// space; this layer removes that last simplification.  A Supervisor forks
// one OS process per simulated processor, connected to the parent by an
// AF_UNIX socketpair, and speaks a length-prefixed frame protocol over it.
// The parent is the hub of a hub-and-spoke star: workers never talk to each
// other directly, every DATA frame passes through the supervisor, which
// routes it to the destination worker and charges the hop count of the
// mapped topology — so the wire layout stays simple (N sockets, not N^2)
// while the accounting still reflects the hypercube the mapper targeted.
//
// Fault tolerance is the point, so the supervisor treats workers as
// unreliable by construction:
//   * all parent-side fds are nonblocking with per-worker in/out byte
//     buffers — a slow or dead worker can never wedge the router;
//   * each worker must produce a frame (heartbeats count) within the
//     heartbeat deadline or it is declared hung and SIGKILLed;
//   * death is detected three independent ways — EOF / error on the
//     socket, waitpid() reporting an exit or signal, and the heartbeat
//     deadline — and reported as a WorkerDeath with the detection reason;
//   * a partial frame left in a dead worker's input buffer is reported as
//     a truncated frame (the wire-corruption case framed protocols exist
//     to catch).
//
// The Supervisor is policy-free: it spawns, pumps I/O, detects death and
// kills.  What to *do* about a death (remap and restart the epoch) lives in
// exec/proc_runtime.cpp.  Lifecycle events stream through an optional
// callback so the runtime can forward them to obs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace hypart::exec {

/// Frame types of the worker <-> supervisor wire protocol.  On the wire a
/// frame is a little-endian u32 byte length (type byte + payload), the type
/// byte, then the payload.
enum class FrameType : std::uint8_t {
  Hello = 1,      ///< worker -> supervisor: {u64 proc} after startup
  Heartbeat = 2,  ///< worker -> supervisor: empty, proves liveness
  Data = 3,       ///< value message; supervisor routes to the target worker
  Writes = 4,     ///< worker -> supervisor: final write records
  Stats = 5,      ///< worker -> supervisor: phase clocks and counters
  Done = 6,       ///< worker -> supervisor: schedule finished, exiting
  Error = 7,      ///< worker -> supervisor: {string} fatal worker exception
};

[[nodiscard]] const char* to_string(FrameType type);

struct Frame {
  FrameType type = FrameType::Heartbeat;
  std::vector<std::uint8_t> payload;
};

/// Hard cap on a frame's wire size; a length prefix beyond it means the
/// stream is corrupt (or hostile) and the worker is declared dead rather
/// than letting a garbage length drive a huge allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

// ---- payload serialization ------------------------------------------------

/// Append-only little-endian payload builder.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);               ///< u32 length + bytes
  void ivec(const std::vector<std::int64_t>& v);  ///< u32 count + i64s

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Cursor over a received payload.  Every accessor throws a typed
/// hypart::Error (kind Internal — a malformed frame is a protocol bug, not
/// user input) when the payload is shorter than the read, so a truncated or
/// corrupt frame can never read past the buffer.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::int64_t> ivec();
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// ---- worker-side blocking I/O ---------------------------------------------

/// Write one frame to a blocking fd via write_full (EINTR/partial-write
/// safe, bounded backoff on transient errors).  Returns false on hard error
/// (EPIPE: supervisor gone) or retry exhaustion; accumulates backoff
/// retries into *retries_out when non-null.
bool write_frame(int fd, const Frame& frame, int* retries_out = nullptr);

/// Read one frame from a blocking fd.  Returns 1 on success, 0 on clean
/// EOF at a frame boundary, -1 on error or a frame truncated mid-message.
int read_frame(int fd, Frame& frame);

/// poll()-based wait for readability so a blocked worker can interleave
/// heartbeats: returns 1 when `fd` is readable, 0 on timeout, -1 on error.
int wait_readable(int fd, int timeout_ms);

// ---- supervision ----------------------------------------------------------

enum class SupervisorEventKind {
  Spawn,          ///< worker process forked
  HeartbeatMiss,  ///< heartbeat deadline passed; worker will be killed
  Kill,           ///< SIGKILL sent to a worker
  Retry,          ///< a buffered send to a worker needed a backoff retry
  Reassign,       ///< (emitted by the runtime) blocks moved off a dead worker
  Degrade,        ///< (emitted by the runtime) fell back to the threaded backend
  WorkerExit,     ///< worker exited cleanly after Done
};

[[nodiscard]] const char* to_string(SupervisorEventKind kind);

struct SupervisorEvent {
  SupervisorEventKind kind = SupervisorEventKind::Spawn;
  ProcId proc = 0;
  std::string detail;
};

using SupervisorEventFn = std::function<void(const SupervisorEvent&)>;

/// One detected worker death and how it was detected ("socket closed",
/// "truncated frame", "killed by signal N", "heartbeat timeout", ...).
struct WorkerDeath {
  ProcId proc = 0;
  std::string reason;
};

class Supervisor {
 public:
  struct Options {
    /// A worker producing no frame for this long is declared hung and
    /// killed.  <= 0 disables the heartbeat watchdog.
    std::int64_t heartbeat_timeout_ms = 2000;
    SupervisorEventFn on_event;  ///< optional lifecycle event stream
  };

  explicit Supervisor(Options options) : options_(std::move(options)) {}
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Fork one worker per id in `procs`; `body(proc, fd)` runs in the child
  /// with a blocking socket fd and must never return (it _exit()s).  An
  /// exception escaping `body` ends the child with status 70.
  /// Returns false — with any partially spawned workers cleaned up and
  /// `*error` describing the failed resource — when fork/socketpair hit
  /// resource exhaustion (EAGAIN/EMFILE/ENFILE/ENOMEM): the caller's
  /// graceful-degradation path.  Throws hypart::Error on non-resource
  /// failures (a bug, not pressure).
  bool spawn(const std::vector<ProcId>& procs,
             const std::function<void(ProcId, int)>& body, std::string* error);

  /// Pump I/O for up to `timeout_ms`: flush pending outbound bytes, read
  /// whatever arrived, check heartbeat deadlines and reap children.
  /// Complete frames are appended to `frames` (in per-worker arrival
  /// order); detected deaths to `deaths` (each worker reported once).
  void poll_once(int timeout_ms, std::vector<std::pair<ProcId, Frame>>& frames,
                 std::vector<WorkerDeath>& deaths);

  /// Queue a frame for delivery to `proc` (never blocks; bytes drain
  /// through poll_once as the worker's socket accepts them).
  void send(ProcId proc, const Frame& frame);

  /// Mark a worker as finished: its later EOF/exit is a clean WorkerExit,
  /// not a death, and its heartbeat deadline no longer applies.
  void mark_done(ProcId proc);

  /// SIGKILL one worker / every live worker.  The death surfaces through
  /// poll_once unless the worker was already marked done.
  void kill_worker(ProcId proc, const std::string& reason);
  void kill_all();

  /// Kill and reap everything and drop all per-worker state — the epoch
  /// boundary.  The Supervisor is ready for a fresh spawn() afterwards.
  void reset();

  [[nodiscard]] bool alive(ProcId proc) const;
  [[nodiscard]] std::size_t live_count() const;
  /// Total backoff retries taken by buffered sends (observability).
  [[nodiscard]] std::int64_t send_retries() const { return send_retries_; }
  /// Heartbeat deadlines missed since construction (survives reset()).
  [[nodiscard]] std::int64_t heartbeat_misses() const { return heartbeat_misses_; }

  /// One line per worker (state, buffered bytes, last-frame age) for stall
  /// diagnostics.
  [[nodiscard]] std::string dump_workers() const;

 private:
  struct WorkerState {
    pid_t pid = -1;
    int fd = -1;
    bool done = false;     ///< Done frame seen
    bool dead = false;     ///< death already reported
    bool reaped = false;   ///< waitpid collected the child
    std::vector<std::uint8_t> inbuf;   ///< partial inbound frame bytes
    std::vector<std::uint8_t> outbuf;  ///< undelivered outbound bytes
    double last_frame_ms = 0.0;        ///< steady-clock ms of last frame
  };

  void emit(SupervisorEventKind kind, ProcId proc, std::string detail);
  void flush_out(WorkerState& w, ProcId proc);
  /// Drain readable bytes and extract complete frames; returns false when
  /// the stream ended (EOF or fatal read error).
  bool drain_in(WorkerState& w, ProcId proc, std::vector<std::pair<ProcId, Frame>>& frames);
  void declare_dead(ProcId proc, WorkerState& w, const std::string& reason,
                    std::vector<WorkerDeath>& deaths);
  void close_fd(WorkerState& w);
  void reap(WorkerState& w, bool block);
  [[nodiscard]] static double now_ms();

  Options options_;
  std::map<ProcId, WorkerState> workers_;
  std::int64_t send_retries_ = 0;
  std::int64_t heartbeat_misses_ = 0;
};

}  // namespace hypart::exec
