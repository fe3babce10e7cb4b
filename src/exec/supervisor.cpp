#include "exec/supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/error.hpp"
#include "core/io_util.hpp"

namespace hypart::exec {

namespace {

bool is_resource_errno(int err) {
  return err == EAGAIN || err == EMFILE || err == ENFILE || err == ENOMEM;
}

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Append one encoded frame (length prefix + type + payload) to `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::uint32_t len = static_cast<std::uint32_t>(1 + frame.payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.push_back(static_cast<std::uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

/// Try to cut one complete frame off the front of `buf`.  Returns 1 when a
/// frame was extracted, 0 when more bytes are needed, -1 when the length
/// prefix is insane (corrupt stream).
int extract_frame(std::vector<std::uint8_t>& buf, Frame& frame) {
  if (buf.size() < 4) return 0;
  const std::uint32_t len = static_cast<std::uint32_t>(buf[0]) |
                            (static_cast<std::uint32_t>(buf[1]) << 8) |
                            (static_cast<std::uint32_t>(buf[2]) << 16) |
                            (static_cast<std::uint32_t>(buf[3]) << 24);
  if (len == 0 || len > kMaxFrameBytes) return -1;
  if (buf.size() < 4u + len) return 0;
  frame.type = static_cast<FrameType>(buf[4]);
  frame.payload.assign(buf.begin() + 5, buf.begin() + 4 + len);
  buf.erase(buf.begin(), buf.begin() + 4 + len);
  return 1;
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::Hello: return "hello";
    case FrameType::Heartbeat: return "heartbeat";
    case FrameType::Data: return "data";
    case FrameType::Writes: return "writes";
    case FrameType::Stats: return "stats";
    case FrameType::Done: return "done";
    case FrameType::Error: return "error";
  }
  return "?";
}

const char* to_string(SupervisorEventKind kind) {
  switch (kind) {
    case SupervisorEventKind::Spawn: return "spawn";
    case SupervisorEventKind::HeartbeatMiss: return "heartbeat_miss";
    case SupervisorEventKind::Kill: return "kill";
    case SupervisorEventKind::Retry: return "retry";
    case SupervisorEventKind::Reassign: return "reassign";
    case SupervisorEventKind::Degrade: return "degrade";
    case SupervisorEventKind::WorkerExit: return "worker_exit";
  }
  return "?";
}

// ---- payload serialization ------------------------------------------------

void PayloadWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void PayloadWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
}

void PayloadWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void PayloadWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void PayloadWriter::ivec(const std::vector<std::int64_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (std::int64_t x : v) i64(x);
}

void PayloadReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n)
    throw Error(ErrorKind::Internal, "frame payload truncated: need " + std::to_string(n) +
                                         " byte(s) at offset " + std::to_string(pos_) +
                                         " of " + std::to_string(bytes_.size()));
}

std::uint8_t PayloadReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t PayloadReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t PayloadReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

double PayloadReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::str() {
  std::uint32_t n = u32();
  need(n);
  std::string s(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

std::vector<std::int64_t> PayloadReader::ivec() {
  std::uint32_t n = u32();
  std::vector<std::int64_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i64();
  return v;
}

// ---- worker-side blocking I/O ---------------------------------------------

bool write_frame(int fd, const Frame& frame, int* retries_out) {
  std::vector<std::uint8_t> wire;
  wire.reserve(5 + frame.payload.size());
  encode_frame(frame, wire);
  return write_full(fd, wire.data(), wire.size(), /*max_retries=*/16, retries_out);
}

int read_frame(int fd, Frame& frame) {
  std::uint8_t head[4];
  ssize_t r = read_full(fd, head, 4);
  if (r == 0) return 0;   // clean EOF at a frame boundary
  if (r != 4) return -1;  // error or EOF mid-prefix
  const std::uint32_t len = static_cast<std::uint32_t>(head[0]) |
                            (static_cast<std::uint32_t>(head[1]) << 8) |
                            (static_cast<std::uint32_t>(head[2]) << 16) |
                            (static_cast<std::uint32_t>(head[3]) << 24);
  if (len == 0 || len > kMaxFrameBytes) return -1;
  std::vector<std::uint8_t> body(len);
  r = read_full(fd, body.data(), len);
  if (r != static_cast<ssize_t>(len)) return -1;  // truncated mid-frame
  frame.type = static_cast<FrameType>(body[0]);
  frame.payload.assign(body.begin() + 1, body.end());
  return 1;
}

int wait_readable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) return 0;
    return 1;
  }
}

// ---- Supervisor -----------------------------------------------------------

double Supervisor::now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Supervisor::~Supervisor() {
  kill_all();
  for (auto& [proc, w] : workers_) {
    (void)proc;
    close_fd(w);
    reap(w, /*block=*/true);
  }
}

void Supervisor::emit(SupervisorEventKind kind, ProcId proc, std::string detail) {
  if (options_.on_event) options_.on_event({kind, proc, std::move(detail)});
}

bool Supervisor::spawn(const std::vector<ProcId>& procs,
                       const std::function<void(ProcId, int)>& body, std::string* error) {
  ignore_sigpipe();
  auto fail_resource = [&](const char* what, int err) {
    if (error != nullptr)
      *error = std::string(what) + " failed: " + std::strerror(err) +
               " (resource exhaustion; degrading)";
    // Unwind whatever this call already spawned so the caller can fall
    // back with no leaked children or fds.
    reset();
    return false;
  };

  for (ProcId proc : procs) {
    if (workers_.contains(proc))
      throw Error(ErrorKind::Internal,
                  "Supervisor::spawn: worker " + std::to_string(proc) + " already exists");
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      if (is_resource_errno(errno)) return fail_resource("socketpair", errno);
      throw Error(ErrorKind::Io,
                  "Supervisor::spawn: socketpair failed: " + std::string(std::strerror(errno)));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      int err = errno;
      ::close(sv[0]);
      ::close(sv[1]);
      if (is_resource_errno(err)) return fail_resource("fork", err);
      throw Error(ErrorKind::Io,
                  "Supervisor::spawn: fork failed: " + std::string(std::strerror(err)));
    }
    if (pid == 0) {
      // Child: keep only our end, blocking, and run the worker body.  The
      // body never returns; _exit (not exit) so no parent-owned state
      // (atexit handlers, stream buffers) runs twice, and an escaping
      // exception never unwinds into the child's copy of the caller's stack.
      ::close(sv[0]);
      try {
        body(proc, sv[1]);
      } catch (...) {
        _exit(70);
      }
      _exit(0);
    }
    ::close(sv[1]);
    set_nonblocking(sv[0]);
    WorkerState w;
    w.pid = pid;
    w.fd = sv[0];
    w.last_frame_ms = now_ms();
    workers_.emplace(proc, std::move(w));
    emit(SupervisorEventKind::Spawn, proc, "pid " + std::to_string(pid));
  }
  return true;
}

void Supervisor::close_fd(WorkerState& w) {
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
}

void Supervisor::reap(WorkerState& w, bool block) {
  if (w.pid < 0 || w.reaped) return;
  int status = 0;
  pid_t r = ::waitpid(w.pid, &status, block ? 0 : WNOHANG);
  if (r == w.pid || (r < 0 && errno == ECHILD)) w.reaped = true;
}

void Supervisor::flush_out(WorkerState& w, ProcId proc) {
  while (!w.outbuf.empty() && w.fd >= 0) {
    ssize_t n = ::write(w.fd, w.outbuf.data(), w.outbuf.size());
    if (n > 0) {
      w.outbuf.erase(w.outbuf.begin(), w.outbuf.begin() + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Worker's socket is full; poll_once retries on POLLOUT.  Count it
      // so observability shows backpressure happening.
      ++send_retries_;
      emit(SupervisorEventKind::Retry, proc,
           std::to_string(w.outbuf.size()) + " byte(s) pending");
      return;
    }
    // Hard error (EPIPE: worker gone).  Death is detected on the read
    // side / waitpid; just stop writing.
    w.outbuf.clear();
    return;
  }
}

bool Supervisor::drain_in(WorkerState& w, ProcId proc,
                          std::vector<std::pair<ProcId, Frame>>& frames) {
  std::uint8_t chunk[16384];
  for (;;) {
    ssize_t n = ::read(w.fd, chunk, sizeof(chunk));
    if (n > 0) {
      w.inbuf.insert(w.inbuf.end(), chunk, chunk + n);
      w.last_frame_ms = now_ms();
      Frame f;
      int rc;
      while ((rc = extract_frame(w.inbuf, f)) == 1) {
        if (f.type == FrameType::Done) w.done = true;
        frames.emplace_back(proc, std::move(f));
        f = Frame{};
      }
      if (rc < 0) return false;  // corrupt length prefix
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // fatal read error (ECONNRESET, ...)
  }
}

void Supervisor::declare_dead(ProcId proc, WorkerState& w, const std::string& reason,
                              std::vector<WorkerDeath>& deaths) {
  if (w.dead) return;
  w.dead = true;
  close_fd(w);
  if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
  reap(w, /*block=*/true);
  if (w.done) {
    emit(SupervisorEventKind::WorkerExit, proc, reason);
    return;  // finished its schedule first: a clean exit, not a death
  }
  deaths.push_back({proc, reason});
}

void Supervisor::poll_once(int timeout_ms, std::vector<std::pair<ProcId, Frame>>& frames,
                           std::vector<WorkerDeath>& deaths) {
  std::vector<pollfd> pfds;
  std::vector<ProcId> pfd_proc;
  for (auto& [proc, w] : workers_) {
    if (w.dead || w.fd < 0) continue;
    pollfd p{};
    p.fd = w.fd;
    p.events = POLLIN;
    if (!w.outbuf.empty()) p.events |= POLLOUT;
    pfds.push_back(p);
    pfd_proc.push_back(proc);
  }
  if (!pfds.empty()) {
    int r = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (r < 0 && errno != EINTR)
      throw Error(ErrorKind::Io, "Supervisor: poll failed: " + std::string(std::strerror(errno)));
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      WorkerState& w = workers_.at(pfd_proc[i]);
      if (w.dead) continue;
      if (pfds[i].revents & POLLOUT) flush_out(w, pfd_proc[i]);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!drain_in(w, pfd_proc[i], frames)) {
          const char* why = w.inbuf.empty() ? "socket closed" : "truncated frame";
          declare_dead(pfd_proc[i], w, why, deaths);
        }
      }
    }
  }

  const double now = now_ms();
  for (auto& [proc, w] : workers_) {
    if (w.dead) continue;
    // Exit detection via waitpid: catches a child that died without the
    // socket reporting it yet (or whose death raced the poll above).
    if (w.pid > 0 && !w.reaped) {
      int status = 0;
      pid_t r = ::waitpid(w.pid, &status, WNOHANG);
      if (r == w.pid) {
        w.reaped = true;
        if (!w.done) {
          std::string why = WIFSIGNALED(status)
                                ? "killed by signal " + std::to_string(WTERMSIG(status))
                                : "exited with status " +
                                      std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
          // Drain any bytes the worker flushed before dying, then report.
          if (w.fd >= 0) (void)drain_in(w, proc, frames);
          if (w.done) {  // the drained bytes included Done after all
            declare_dead(proc, w, "exited", deaths);
          } else {
            declare_dead(proc, w, why, deaths);
          }
          continue;
        }
        declare_dead(proc, w, "exited", deaths);
        continue;
      }
    }
    // Heartbeat deadline: no frame (not even a heartbeat) for too long
    // means the worker is hung, not merely slow — kill it so recovery can
    // start instead of waiting forever.
    if (options_.heartbeat_timeout_ms > 0 && !w.done &&
        now - w.last_frame_ms > static_cast<double>(options_.heartbeat_timeout_ms)) {
      ++heartbeat_misses_;
      emit(SupervisorEventKind::HeartbeatMiss, proc,
           "no frame for " + std::to_string(options_.heartbeat_timeout_ms) + " ms");
      emit(SupervisorEventKind::Kill, proc, "heartbeat timeout");
      declare_dead(proc, w, "heartbeat timeout", deaths);
    }
  }
}

void Supervisor::send(ProcId proc, const Frame& frame) {
  auto it = workers_.find(proc);
  if (it == workers_.end() || it->second.dead || it->second.fd < 0)
    return;  // destination died; the death event drives recovery instead
  encode_frame(frame, it->second.outbuf);
  flush_out(it->second, proc);
}

void Supervisor::mark_done(ProcId proc) {
  auto it = workers_.find(proc);
  if (it != workers_.end()) it->second.done = true;
}

void Supervisor::kill_worker(ProcId proc, const std::string& reason) {
  auto it = workers_.find(proc);
  if (it == workers_.end() || it->second.dead) return;
  emit(SupervisorEventKind::Kill, proc, reason);
  if (it->second.pid > 0 && !it->second.reaped) ::kill(it->second.pid, SIGKILL);
}

void Supervisor::kill_all() {
  for (auto& [proc, w] : workers_) {
    if (w.dead || w.pid <= 0 || w.reaped) continue;
    emit(SupervisorEventKind::Kill, proc, "kill_all");
    ::kill(w.pid, SIGKILL);
  }
}

void Supervisor::reset() {
  kill_all();
  for (auto& [proc, w] : workers_) {
    (void)proc;
    close_fd(w);
    reap(w, /*block=*/true);
  }
  workers_.clear();
}

bool Supervisor::alive(ProcId proc) const {
  auto it = workers_.find(proc);
  return it != workers_.end() && !it->second.dead;
}

std::size_t Supervisor::live_count() const {
  std::size_t n = 0;
  for (const auto& [proc, w] : workers_) {
    (void)proc;
    if (!w.dead) ++n;
  }
  return n;
}

std::string Supervisor::dump_workers() const {
  std::ostringstream os;
  const double now = now_ms();
  for (const auto& [proc, w] : workers_) {
    os << "  worker " << proc << ": ";
    if (w.dead) os << "dead";
    else if (w.done) os << "done";
    else os << "running";
    os << ", outbuf " << w.outbuf.size() << " byte(s), inbuf " << w.inbuf.size()
       << " byte(s), last frame " << static_cast<std::int64_t>(now - w.last_frame_ms)
       << " ms ago\n";
  }
  return os.str();
}

}  // namespace hypart::exec
