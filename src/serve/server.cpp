#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/error.hpp"
#include "core/io_util.hpp"

namespace hypart::serve {

namespace {

[[noreturn]] void io_fail(const std::string& what) {
  throw Error(ErrorKind::Io, what + ": " + std::strerror(errno));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(PlanService& service, ServerOptions opts)
    : service_(service), opts_(std::move(opts)) {
  ignore_sigpipe();
  if (opts_.threads == 0) opts_.threads = 1;

  if (::pipe(stop_pipe_) != 0) io_fail("serve: pipe");

  if (!opts_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) io_fail("serve: socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.unix_path.size() >= sizeof(addr.sun_path))
      throw Error(ErrorKind::Config, "serve: socket path too long: " + opts_.unix_path);
    std::strncpy(addr.sun_path, opts_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(opts_.unix_path.c_str());  // stale socket from a previous run
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      io_fail("serve: bind(" + opts_.unix_path + ")");
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) io_fail("serve: socket(AF_INET)");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      io_fail("serve: bind(127.0.0.1:" + std::to_string(opts_.tcp_port) + ")");
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      io_fail("serve: getsockname");
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listen_fd_, 64) != 0) io_fail("serve: listen");
}

Server::~Server() {
  request_stop();
  stop();
  close_quietly(listen_fd_);
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
}

std::string Server::address() const {
  if (!opts_.unix_path.empty()) return "unix:" + opts_.unix_path;
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void Server::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(opts_.threads);
  for (std::size_t i = 0; i < opts_.threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::request_stop() {
  // Async-signal-safe: an atomic store and one write(2) on the self-pipe.
  stopping_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::stop() {
  request_stop();
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  // Close any accepted-but-never-served connections.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

void Server::wait() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{stop_pipe_[0], POLLIN, 0};
    ::poll(&p, 1, 200);
  }
  stop();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    int ready = ::poll(fds, 2, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready == 0 || (fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // transient (ECONNABORTED, EINTR, ...)
    bool admitted = true;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (opts_.max_pending > 0 && pending_.size() >= opts_.max_pending) admitted = false;
      else pending_.push_back(fd);
    }
    if (!admitted) {
      // Shed load at the door: one typed error line, then close.  The
      // message is static so the accept thread never allocates or parses
      // under overload; key order matches the service's error replies.
      static const char kOverloaded[] =
          "{\"error\":{\"code\":79,\"kind\":\"overloaded\",\"message\":"
          "\"server overloaded: pending connection queue is full\"},\"id\":null,\"ok\":false}\n";
      (void)write_full(fd, kOverloaded, sizeof(kOverloaded) - 1);
      ::close(fd);
      obs::MetricsRegistry* metrics = service_.options().obs.metrics;
      if (metrics != nullptr) metrics->add("serve.overload.rejected");
      continue;
    }
    queue_cv_.notify_one();
  }
}

void Server::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool overlong = false;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd p{fd, POLLIN, 0};
    int ready = ::poll(&p, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (overlong) {
        // The terminator of a discarded overlong line; resume framing.
        overlong = false;
        continue;
      }
      if (line.empty()) continue;
      std::string reply = service_.handle_line(line);
      reply.push_back('\n');
      bool delivered = write_full(fd, reply.data(), reply.size());
      if (!delivered || service_.shutdown_requested()) {
        ::close(fd);
        if (service_.shutdown_requested()) request_stop();
        return;
      }
    }
    buffer.erase(0, start);
    if (overlong) {
      // Still inside a discarded line: no terminator yet.
      buffer.clear();
    } else if (buffer.size() > opts_.max_line_bytes) {
      // Reply once, then discard bytes until the next newline.
      static const char kTooLong[] =
          "{\"error\":{\"code\":78,\"kind\":\"config\",\"message\":"
          "\"request line exceeds maximum length\"},\"id\":null,\"ok\":false}\n";
      if (obs::MetricsRegistry* metrics = service_.options().obs.metrics)
        metrics->add("serve.errors");
      (void)write_full(fd, kTooLong, sizeof(kTooLong) - 1);
      buffer.clear();
      overlong = true;
    }
  }
  ::close(fd);
}

}  // namespace hypart::serve
