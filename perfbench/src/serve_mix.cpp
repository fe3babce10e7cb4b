// serve-mix: the real `hypart serve` daemon on a Unix socket under open-loop
// Poisson arrivals from this process (two generator threads, two
// connections; the daemon runs two workers).  The seeded request stream
// mixes exact hits, rescaled-bound "pi" requests, fresh-structure misses and
// batch lines across the four plan ops, with random identifier renaming.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <thread>

#include "common.hpp"
#include "core/error.hpp"
#include "core/io_util.hpp"
#include "core/json_export.hpp"
#include "core/json_reader.hpp"
#include "core/json_writer.hpp"
#include "core/pipeline.hpp"
#include "frontend/parser.hpp"
#include "serve/canonical.hpp"
#include "serve/service.hpp"

namespace perf {

using namespace hypart;
using serve::PlanCacheStats;
using serve::PlanService;
using serve::ServiceOptions;

namespace {

// ---- fixed settings (documented in README.md) ------------------------------

constexpr std::size_t kDaemonThreads = 1;     ///< hypart serve --threads
constexpr std::size_t kConnections = 1;       ///< one per daemon worker
constexpr unsigned kDefaultDim = 3;           ///< hypart serve --dim
constexpr std::size_t kHotPool = 64;          ///< exact keys primed at set-up
constexpr double kLatencyLimitUs = 20000.0;   ///< p99 limit of the rate ladder
constexpr double kReferenceRate = 1500.0;     ///< req/s for latency_p50/p99
constexpr double kLowestRate = 250.0;         ///< ladder bottom (transport probe)
constexpr double kLadderStep = 1.03;          ///< ladder ratio between rungs
constexpr int kLadderRungs = 140;             ///< 250 req/s * 1.03^139 ~ 15.1k req/s
constexpr double kProbeSeconds = 0.5;
constexpr double kReferenceSeconds = 2.0;     ///< reference window (detail)
/// Time left for the ladder (~8 probes) and the reference window.
constexpr double kOpenLoopSeconds = 8 * kProbeSeconds + kReferenceSeconds;
constexpr std::size_t kWallLines = 1000;      ///< closed-loop pass size
constexpr std::size_t kOracleChecks = 150;    ///< replies cold-planned after the run

double ladder_rate(int rung) { return kLowestRate * std::pow(kLadderStep, rung); }

// ---- request generation ----------------------------------------------------

enum class Kind { Hit, Pi, Miss, Batch };

struct Names {
  std::string loop;
  std::vector<std::string> idx;
  std::vector<std::string> arr;
};

std::string ident(std::mt19937_64& rng) {
  static const char kAlpha[] = "abcdefghjkmnpqrstuvwxyz";
  std::string s = "v";
  for (int k = 0; k < 6; ++k) s.push_back(kAlpha[rng() % (sizeof(kAlpha) - 1)]);
  return s;
}

Names fresh_names(std::mt19937_64& rng, std::size_t dims, std::size_t arrays) {
  std::set<std::string> used;
  auto next = [&] {
    for (;;) {
      std::string s = ident(rng);
      if (used.insert(s).second) return s;
    }
  };
  Names n;
  n.loop = next();
  for (std::size_t k = 0; k < dims; ++k) n.idx.push_back(next());
  for (std::size_t k = 0; k < arrays; ++k) n.arr.push_back(next());
  return n;
}

/// "i", "i-2" or "i+1": an index shifted back by `off`.
std::string shifted(const std::string& i, std::int64_t off) {
  if (off == 0) return i;
  return off > 0 ? i + "-" + std::to_string(off) : i + "+" + std::to_string(-off);
}

struct Template {
  const char* name;
  std::size_t dims, arrays;
  std::int64_t nmin, nmax;
  std::string (*render)(const Names&, std::int64_t);
};

const std::vector<Template>& templates() {
  static const std::vector<Template> t = {
      {"sor", 2, 1, 16, 256,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], &A = n.arr[0], s = std::to_string(N);
         return "loop " + n.loop + " { for " + i + " = 1 to " + s + " for " + j + " = 1 to " + s +
                " " + A + "[" + i + ", " + j + "] = (" + A + "[" + i + "-1, " + j + "] + " + A +
                "[" + i + ", " + j + "-1]) * 0.5 + 0.125; }";
       }},
      {"l1", 2, 2, 16, 256,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], &A = n.arr[0], &B = n.arr[1];
         const std::string s = std::to_string(N);
         return "loop " + n.loop + " { for " + i + " = 0 to " + s + " for " + j + " = 0 to " + s +
                " " + A + "[" + i + "+1, " + j + "+1] = " + A + "[" + i + "+1, " + j + "] + " + B +
                "[" + i + ", " + j + "]; " + B + "[" + i + "+1, " + j + "] = " + A + "[" + i +
                ", " + j + "] * 2 + 3; }";
       }},
      {"matvec", 2, 3, 16, 256,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], s = std::to_string(N);
         const std::string &y = n.arr[0], &A = n.arr[1], &x = n.arr[2];
         return "loop " + n.loop + " { for " + i + " = 1 to " + s + " for " + j + " = 1 to " + s +
                " " + y + "[" + i + "] = " + y + "[" + i + "] + " + A + "[" + i + ", " + j +
                "] * " + x + "[" + j + "]; }";
       }},
      {"matmul", 3, 3, 4, 24,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], &k = n.idx[2], s = std::to_string(N);
         const std::string &C = n.arr[0], &A = n.arr[1], &B = n.arr[2];
         return "loop " + n.loop + " { for " + i + " = 0 to " + s + " for " + j + " = 0 to " + s +
                " for " + k + " = 0 to " + s + " " + C + "[" + i + ", " + j + "] = " + C + "[" +
                i + ", " + j + "] + " + A + "[" + i + ", " + k + "] * " + B + "[" + k + ", " + j +
                "]; }";
       }},
      {"lu", 3, 3, 8, 32,
       [](const Names& n, std::int64_t N) {
         const std::string &k = n.idx[0], &i = n.idx[1], &j = n.idx[2], s = std::to_string(N);
         const std::string &L = n.arr[0], &U = n.arr[1], &A = n.arr[2];
         const std::string at = "[" + k + ", " + i + ", " + j + "]";
         return "loop " + n.loop + " { for " + k + " = 0 to " + s + " for " + i + " = " + k +
                " + 1 to " + s + " for " + j + " = " + k + " + 1 to " + s + " " + L + at + " = " +
                L + "[" + k + ", " + i + ", " + j + "-1]; " + U + at + " = " + U + "[" + k +
                ", " + i + "-1, " + j + "]; " + A + at + " = " + A + "[" + k + "-1, " + i + ", " +
                j + "] - " + L + at + " * " + U + at + "; }";
       }},
      {"pyramid", 2, 1, 16, 256,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], &A = n.arr[0], s = std::to_string(N);
         return "loop " + n.loop + " { for " + i + " = 0 to " + s + " for " + j + " = 0 to min(" +
                i + ", " + s + " - " + i + ") " + A + "[" + i + ", " + j + "] = (" + A + "[" + i +
                "-1, " + j + "] + " + A + "[" + i + ", " + j + "-1]) / 2; }";
       }},
      {"band", 2, 1, 24, 256,
       [](const Names& n, std::int64_t N) {
         const std::string &i = n.idx[0], &j = n.idx[1], &A = n.arr[0], s = std::to_string(N);
         return "loop " + n.loop + " { for " + i + " = 0 to " + s + " for " + j + " = max(0, " +
                i + " - 6) to min(" + s + ", " + i + " + 6) " + A + "[" + i + ", " + j + "] = (" +
                A + "[" + i + "-1, " + j + "] + " + A + "[" + i + ", " + j + "-1] + " + A + "[" +
                i + "-1, " + j + "-1]) / 3; }";
       }},
  };
  return t;
}

struct PlanKey {
  std::size_t tmpl = 0;
  std::int64_t n = 0;
  std::int64_t dim = kDefaultDim;
  bool barrier = false;
};

const char* kOps[] = {"partition", "map", "predict", "explain"};

std::string plan_request(std::int64_t id, const std::string& op, const std::string& program,
                         std::int64_t dim, bool barrier) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("op", op);
  w.field("program", program);
  w.key("params").begin_object();
  w.field("dim", dim);
  w.field("space", "symbolic");
  if (barrier) w.field("accounting", "barrier");
  w.end_object();
  w.end_object();
  return w.str();
}

/// Low-discrepancy point in [0, 1) for the n-th draw of a sequence.
double golden(std::int64_t n) {
  return std::fmod(static_cast<double>(n) * 0.6180339887498949, 1.0);
}

/// A fresh uniform-dependence structure: 2 or 3 distinct lexicographically
/// positive distance vectors over a 2-D or 3-D domain.  Shape and size
/// follow the miss's ordinal, so every stretch of misses costs about the
/// same; the distance vectors are drawn.
std::string miss_program(std::mt19937_64& rng, std::int64_t ordinal, std::int64_t& dim_out) {
  const std::size_t dims = ordinal % 3 == 0 ? 3 : 2;
  const std::size_t ndeps = 2 + static_cast<std::size_t>(ordinal / 3) % 2;
  std::set<std::vector<std::int64_t>> deps;
  while (deps.size() < ndeps) {
    std::vector<std::int64_t> d(dims);
    if (dims == 2) {
      d[0] = static_cast<std::int64_t>(rng() % 4);
      d[1] = static_cast<std::int64_t>(rng() % 6) - 2;
    } else {
      for (auto& x : d) x = static_cast<std::int64_t>(rng() % 3);
    }
    auto nz = std::find_if(d.begin(), d.end(), [](std::int64_t x) { return x != 0; });
    if (nz == d.end() || *nz < 0) continue;
    deps.insert(d);
  }
  Names n = fresh_names(rng, dims, 1);
  const double u = golden(ordinal);
  const std::int64_t N = dims == 2 ? 12 + static_cast<std::int64_t>(u * 37)
                                   : 6 + static_cast<std::int64_t>(u * 7);
  std::string s = "loop " + n.loop + " {";
  for (std::size_t k = 0; k < dims; ++k)
    s += " for " + n.idx[k] + " = 1 to " + std::to_string(N);
  auto ref = [&](const std::vector<std::int64_t>& off) {
    std::string r = n.arr[0] + "[";
    for (std::size_t k = 0; k < dims; ++k) r += (k ? ", " : "") + shifted(n.idx[k], off[k]);
    return r + "]";
  };
  s += " " + ref(std::vector<std::int64_t>(dims, 0)) + " =";
  bool first = true;
  for (const auto& d : deps) {
    s += (first ? " " : " + ") + ref(d);
    first = false;
  }
  s += " + 1; }";
  dim_out = 2 + static_cast<std::int64_t>(rng() % 2);
  return s;
}

struct Request {
  std::string line;
  Kind kind = Kind::Hit;
};

/// The seeded request stream.  The hot pool is shuffled by the seed;
/// request k is a pure function of (seed, k).
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : seed_(seed) {
    // Stratified so every seed plans the same mix of shapes and sizes: the
    // hot pool cycles the templates over a fixed size grid, dims 2..4 and
    // one barrier-accounted key in eight; the seed only shuffles it.
    for (std::size_t i = 0; i < kHotPool; ++i) {
      PlanKey k;
      k.tmpl = i % templates().size();
      const Template& t = templates()[k.tmpl];
      const auto slot = static_cast<std::int64_t>(i / templates().size());
      k.n = t.nmin + slot * ((t.nmax - t.nmin) / 9);
      k.dim = 2 + static_cast<std::int64_t>(i % 3);
      k.barrier = i % 8 == 5;
      hot_.push_back(k);
    }
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    std::shuffle(hot_.begin(), hot_.end(), rng);
  }

  /// One plan request of the given kind (never Batch).  The op cycles with
  /// the id.  `ordinal` numbers the requests of this kind: pi requests cycle
  /// through the hot pool with sizes on a low-discrepancy sequence, and
  /// misses take their shape from it, so every window sees the same spread
  /// of ops, templates and sizes.
  std::string plan_line(std::mt19937_64& rng, Kind kind, std::int64_t id,
                        std::int64_t ordinal) const {
    const std::string op = kOps[id % 4];
    if (kind == Kind::Miss) {
      std::int64_t dim = 2;
      std::string prog = miss_program(rng, ordinal, dim);
      return plan_request(id, op, prog, dim, false);
    }
    PlanKey k = kind == Kind::Pi ? hot_[static_cast<std::size_t>(ordinal) % hot_.size()]
                                 : hot_[rng() % hot_.size()];
    const Template& t = templates()[k.tmpl];
    if (kind == Kind::Pi) {
      const double u = golden(ordinal);
      k.n = t.nmin + static_cast<std::int64_t>(u * static_cast<double>(t.nmax - t.nmin + 1));
    }
    return plan_request(id, op, t.render(fresh_names(rng, t.dims, t.arrays), k.n), k.dim,
                        k.barrier);
  }

  /// Request k (k >= 0).  Kinds are stratified: every block of 100
  /// consecutive requests holds exactly 80 hits, 12 pi, 5 misses and 3 batch
  /// lines (7 hits + 1 pi each), in an order drawn from the seed.
  [[nodiscard]] Request at(std::int64_t k) const {
    std::array<int, 100> slots{};
    std::iota(slots.begin(), slots.end(), 0);
    std::mt19937_64 block_rng(seed_ ^ (static_cast<std::uint64_t>(k / 100) * 0x94d049bb133111ebULL));
    std::shuffle(slots.begin(), slots.end(), block_rng);
    const int slot = slots[static_cast<std::size_t>(k % 100)];
    std::mt19937_64 rng(seed_ ^ (static_cast<std::uint64_t>(k) * 0xbf58476d1ce4e5b9ULL));
    Request r;
    r.kind = slot < 80 ? Kind::Hit : slot < 92 ? Kind::Pi : slot < 97 ? Kind::Miss : Kind::Batch;
    // Ordinals: each block holds 15 pi requests (12 plain, one per batch
    // line) and 5 misses.
    const std::int64_t block = k / 100;
    if (r.kind != Kind::Batch) {
      const std::int64_t ordinal = r.kind == Kind::Pi     ? block * 15 + (slot - 80)
                                   : r.kind == Kind::Miss ? block * 5 + (slot - 92)
                                                          : 0;
      r.line = plan_line(rng, r.kind, k, ordinal);
      return r;
    }
    JsonWriter w;
    w.begin_object();
    w.field("id", k);
    w.field("op", "batch");
    w.begin_array("requests");
    for (int s = 0; s < 8; ++s)
      w.raw_value(
          plan_line(rng, s == 7 ? Kind::Pi : Kind::Hit, k * 8 + s, block * 15 + 12 + (slot - 97)));
    w.end_array();
    w.end_object();
    r.line = w.str();
    return r;
  }

  /// Priming lines: one request per hot-pool key.
  [[nodiscard]] std::vector<std::string> priming() const {
    std::mt19937_64 rng(seed_ + 99);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < hot_.size(); ++i) {
      const PlanKey& k = hot_[i];
      const Template& t = templates()[k.tmpl];
      out.push_back(plan_request(-1 - static_cast<std::int64_t>(i), "partition",
                                 t.render(fresh_names(rng, t.dims, t.arrays), k.n), k.dim,
                                 k.barrier));
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<PlanKey> hot_;
};

/// Reply classification by byte search (replies are JsonWriter output with
/// sorted keys, so these spellings are exact).
struct Tally {
  std::int64_t hit = 0, pi = 0, miss = 0, errors = 0;
};

std::int64_t count_of(const std::string& s, const std::string& what) {
  std::int64_t n = 0;
  for (std::size_t p = s.find(what); p != std::string::npos; p = s.find(what, p + what.size()))
    ++n;
  return n;
}

void classify(const std::string& reply, Tally& t) {
  t.hit += count_of(reply, "\"cache\":\"hit\"");
  t.pi += count_of(reply, "\"cache\":\"pi\"");
  t.miss += count_of(reply, "\"cache\":\"miss\"");
  if (reply.find("\"ok\":false") != std::string::npos || reply.find("\"ok\":true") == std::string::npos)
    ++t.errors;
}

ServiceOptions daemon_options() {
  ServiceOptions o;
  o.default_cube_dim = kDefaultDim;
  o.default_space = SpaceMode::Symbolic;
  o.batch_parallelism = 1;
  return o;
}

/// Oracle: the reply's "result" members must equal a cold plan of the same
/// request from a fresh PlanService.
bool oracle_check(const std::string& request, const std::string& reply, std::string& why) {
  PlanService cold(daemon_options());
  const std::string expect = cold.handle_line(request);
  try {
    JsonValue a = parse_json(reply), b = parse_json(expect);
    std::vector<const JsonValue*> ra, rb;
    if (a.has("replies")) {
      for (const JsonValue& v : a.get("replies").as_array()) ra.push_back(&v);
      for (const JsonValue& v : b.get("replies").as_array()) rb.push_back(&v);
    } else {
      ra.push_back(&a);
      rb.push_back(&b);
    }
    if (ra.size() != rb.size()) {
      why = "reply count";
      return false;
    }
    for (std::size_t k = 0; k < ra.size(); ++k) {
      if (!ra[k]->has("result") || !rb[k]->has("result") ||
          ra[k]->get("result").to_json() != rb[k]->get("result").to_json()) {
        why = "result differs from a cold plan";
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    why = e.what();
    return false;
  }
}

// ---- the daemon --------------------------------------------------------------

int connect_unix(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking line-oriented connection.
class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  bool send(const std::string& line) {
    std::string l = line;
    l.push_back('\n');
    return write_full(fd_, l.data(), l.size());
  }
  /// Next complete reply line from the buffer, reading when `block`.
  bool next_line(std::string& out, bool block) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        out.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      if (!block) return false;
      if (!fill()) return false;
    }
  }
  /// One read(); false on EOF/error.
  bool fill() {
    char chunk[65536];
    for (;;) {
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
  std::string roundtrip(const std::string& line) {
    std::string reply;
    if (!send(line) || !next_line(reply, true)) return {};
    return reply;
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t scan_ = 0;
};

class Daemon {
 public:
  Daemon(const Options& opts, const std::string& tag, bool traced) {
    socket_ = opts.workdir + "/serve-" + tag + "-" + std::to_string(::getpid()) + ".sock";
    trace_file_ = opts.workdir + "/serve-" + tag + ".trace.json";
    metrics_file_ = opts.workdir + "/serve-" + tag + ".metrics.json";
    std::vector<std::string> args = {opts.hypart, "serve", "--socket", socket_, "--threads",
                                     std::to_string(kDaemonThreads), "--dim",
                                     std::to_string(kDefaultDim), "--batch-threads", "1"};
    if (traced) {
      args.insert(args.end(), {"--trace", trace_file_, "--metrics", metrics_file_});
      traced_ = true;
    }
    pid_ = ::fork();
    if (pid_ < 0) throw Error(ErrorKind::Io, "fork failed");
    if (pid_ == 0) {
      int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, 1);
        ::close(devnull);
      }
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    const double deadline = now_us() + 20e6;
    for (;;) {
      int fd = connect_unix(socket_);
      if (fd >= 0) {
        Conn c(fd);
        if (c.roundtrip("{\"id\":0,\"op\":\"ping\"}").find("\"ok\":true") != std::string::npos)
          break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw Error(ErrorKind::Io, "hypart serve exited during start-up");
      }
      if (now_us() > deadline) throw Error(ErrorKind::Io, "hypart serve did not answer ping");
      ::usleep(1000);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Peak RSS of the daemon (VmHWM), MiB.
  [[nodiscard]] double peak_rss_mib() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line))
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socket_.c_str());
    if (traced_) {
      ::unlink(trace_file_.c_str());
      ::unlink(metrics_file_.c_str());
    }
  }

 private:
  pid_t pid_ = -1;
  bool traced_ = false;
  std::string socket_, trace_file_, metrics_file_;
};

/// Confine the calling thread (and the threads it starts from now on) and
/// every thread of the daemon to `cpus`.  On one CPU, a request hands the
/// CPU from generator to daemon and back without waking an idle vCPU, whose
/// wake-up time on a shared host swings by 2x from run to run.
void pin_to(const std::vector<int>& cpus, pid_t daemon) {
  pin_thread(0, cpus);
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/" + std::to_string(daemon) + "/task", ec))
    pin_thread(std::stoi(task.path().filename().string()), cpus);
}

// ---- open-loop windows -----------------------------------------------------

struct Sample {
  double due = 0, sent = 0, done = -1;
  std::string reply;  ///< kept for oracle samples only
};

struct Window {
  double start = 0, end = 0;
  std::vector<Request> reqs;
  std::vector<Sample> samples;
  Tally tally;
  std::int64_t unanswered = 0;
};

bool keep_reply(std::int64_t k) { return k % 97 == 3; }

/// Poisson arrivals at `rate` for `seconds`, spread over the connections by
/// fewest outstanding requests.  Latency counts from the scheduled send.
Window open_loop(std::vector<std::unique_ptr<Conn>>& conns, const Stream& stream,
                 std::int64_t& next_id, double rate, double seconds, std::mt19937_64& rng) {
  Window w;
  std::exponential_distribution<double> gap(rate / 1e6);
  double t = 0;
  std::vector<double> offsets;
  while (true) {
    t += gap(rng);
    if (t > seconds * 1e6) break;
    offsets.push_back(t);
  }
  w.reqs.reserve(offsets.size());
  std::vector<std::int64_t> ids;
  for (std::size_t k = 0; k < offsets.size(); ++k) {
    ids.push_back(next_id);
    w.reqs.push_back(stream.at(next_id++));
  }
  w.samples.resize(offsets.size());

  std::vector<std::deque<std::size_t>> inflight(conns.size());
  std::mutex mu;
  std::vector<std::size_t> outstanding(conns.size(), 0);
  std::atomic<std::size_t> sent_count{0};
  std::atomic<bool> send_done{false};

  w.start = now_us() + 2000;
  w.end = w.start + seconds * 1e6;
  for (std::size_t k = 0; k < offsets.size(); ++k) w.samples[k].due = w.start + offsets[k];

  std::thread sender([&] {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on time, not 50 us late
    for (std::size_t k = 0; k < offsets.size(); ++k) {
      const double due = w.samples[k].due;
      const double wait = due - now_us();
      if (wait > 0) {
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait / 1e6);
        ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec) * 1e6) * 1e3);
        ::nanosleep(&ts, nullptr);
      }
      std::size_t c = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (std::size_t i = 1; i < conns.size(); ++i)
          if (outstanding[i] < outstanding[c]) c = i;
        ++outstanding[c];
        inflight[c].push_back(k);
      }
      w.samples[k].sent = now_us();
      sent_count.store(k + 1, std::memory_order_release);
      if (!conns[c]->send(w.reqs[k].line)) break;
    }
    send_done.store(true, std::memory_order_release);
  });

  std::size_t received = 0;
  const double drain_deadline = w.end + 10e6;
  std::vector<pollfd> pfds(conns.size());
  while (true) {
    if (send_done.load(std::memory_order_acquire) &&
        received >= sent_count.load(std::memory_order_acquire))
      break;
    if (now_us() > drain_deadline) break;
    for (std::size_t i = 0; i < conns.size(); ++i) pfds[i] = {conns[i]->fd(), POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!conns[i]->fill()) continue;
      std::string line;
      while (conns[i]->next_line(line, false)) {
        const double done = now_us();
        std::size_t k = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (inflight[i].empty()) break;
          k = inflight[i].front();
          inflight[i].pop_front();
          --outstanding[i];
        }
        w.samples[k].done = done;
        classify(line, w.tally);
        if (keep_reply(ids[k])) w.samples[k].reply = std::move(line);
        ++received;
      }
    }
  }
  sender.join();
  for (const Sample& s : w.samples)
    if (s.done < 0) ++w.unanswered;
  return w;
}

std::vector<double> latencies(const Window& w) {
  std::vector<double> v;
  v.reserve(w.samples.size());
  for (const Sample& s : w.samples) v.push_back(s.done < 0 ? 1e12 : s.done - s.due);
  return v;
}

std::int64_t backlog_at_end(const Window& w) {
  std::int64_t n = 0;
  for (const Sample& s : w.samples)
    if (s.due <= w.end && (s.done < 0 || s.done > w.end)) ++n;
  return n;
}

/// p99 of each whole second of the window (arrivals by due time).  Their
/// median is the reported p99: a few multi-millisecond host stalls inflate
/// one slice's tail, not the typical second's.
std::vector<double> per_second_p99(const Window& w) {
  std::vector<std::vector<double>> slices;
  for (const Sample& s : w.samples) {
    const auto k = static_cast<std::size_t>((s.due - w.start) / 1e6);
    if (k >= slices.size()) slices.resize(k + 1);
    slices[k].push_back(s.done < 0 ? 1e12 : s.done - s.due);
  }
  std::vector<double> out;
  for (std::vector<double>& v : slices)
    if (v.size() >= 1000) out.push_back(percentile(std::move(v), 0.99));
  return out;
}

/// Ladder probe: p99 under the limit and the backlog at the end of the
/// window no larger than one latency limit's worth of arrivals.
bool probe_passes(const Window& w, double rate) {
  const Quantiles q = quantiles(latencies(w));
  return w.unanswered == 0 && w.tally.errors == 0 && q.p99 <= kLatencyLimitUs &&
         static_cast<double>(backlog_at_end(w)) <= rate * kLatencyLimitUs / 1e6 + 1;
}

/// Closed loop: kWallLines request lines spread over the connections, one
/// generator thread per connection, each sending its next line when the
/// previous reply arrives.  Appends every round trip (us) to `rtt`; returns
/// the pass's wall time in seconds.
double closed_pass(std::vector<std::unique_ptr<Conn>>& conns, const Stream& stream,
                   std::int64_t& next_id, Tally& tally, std::vector<double>& rtt, Report& r) {
  std::vector<Request> reqs;
  for (std::size_t k = 0; k < kWallLines; ++k) reqs.push_back(stream.at(next_id++));
  std::vector<Tally> tallies(conns.size());
  std::vector<std::vector<double>> times(conns.size());
  const double t0 = now_us();
  std::vector<std::thread> th;
  for (std::size_t c = 0; c < conns.size(); ++c)
    th.emplace_back([&, c] {
      for (std::size_t k = c; k < reqs.size(); k += conns.size()) {
        const double sent = now_us();
        classify(conns[c]->roundtrip(reqs[k].line), tallies[c]);
        times[c].push_back(now_us() - sent);
      }
    });
  for (std::thread& t : th) t.join();
  const double dt = (now_us() - t0) / 1e6;
  for (const std::vector<double>& v : times) rtt.insert(rtt.end(), v.begin(), v.end());
  r.attempted += static_cast<std::int64_t>(reqs.size());
  for (const Tally& t : tallies) {
    tally.hit += t.hit;
    tally.pi += t.pi;
    tally.miss += t.miss;
    tally.errors += t.errors;
  }
  return dt;
}

std::vector<std::unique_ptr<Conn>> connect_all(const Daemon& d) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    int fd = connect_unix(d.socket());
    if (fd < 0) throw Error(ErrorKind::Io, "cannot connect to hypart serve");
    conns.push_back(std::make_unique<Conn>(fd));
  }
  return conns;
}

/// Start a daemon and prime its cache with the hot pool; returns set-up s.
double start_primed(std::unique_ptr<Daemon>& d, const Options& opts, const Stream& stream,
                    const std::string& tag, bool traced, Report& r) {
  const double t0 = now_us();
  d = std::make_unique<Daemon>(opts, tag, traced);
  Conn c(connect_unix(d->socket()));
  Tally t;
  for (const std::string& line : stream.priming()) classify(c.roundtrip(line), t);
  if (t.errors > 0) r.fail("priming request failed");
  return (now_us() - t0) / 1e6;
}

void account_window(const Window& w, Report& r, Tally& total,
                    std::vector<std::pair<std::string, std::string>>& checks) {
  r.attempted += static_cast<std::int64_t>(w.samples.size());
  total.hit += w.tally.hit;
  total.pi += w.tally.pi;
  total.miss += w.tally.miss;
  total.errors += w.tally.errors;
  for (std::int64_t k = 0; k < w.unanswered; ++k) r.fail("request not answered");
  for (std::size_t k = 0; k < w.samples.size(); ++k)
    if (!w.samples[k].reply.empty() && checks.size() < kOracleChecks)
      checks.emplace_back(w.reqs[k].line, w.samples[k].reply);
}

}  // namespace

void run_serve_mix(const Options& opts, Report& r) {
  ignore_sigpipe();
  const std::vector<int> cpus = allowed_cpus();
  const Stream stream(opts.seed);
  std::mt19937_64 rng(opts.seed * 31 + 7);
  std::int64_t next_id = 0;

  // Set-up: daemon start to first ping, plus priming; nine times.
  std::vector<double> setups;
  std::unique_ptr<Daemon> d;
  for (int k = 0; k < 9; ++k) {
    d.reset();
    (void)quietest_cpu(cpus);
    setups.push_back(start_primed(d, opts, stream, "mix", opts.trace, r));
  }
  auto conns = connect_all(*d);
  const double t_begin = now_us();
  Tally total;
  std::vector<std::pair<std::string, std::string>> checks;

  // Closed-loop passes of kWallLines lines fill the measured time but the
  // open-loop budget: they give the end-to-end latency, throughput and wall
  // figures, each the fastest pass's (see fastest()).  Generator and daemon
  // share one CPU per pass, the quietest one just before the pass, so a
  // neighbour that slows one vCPU for a while does not set the figures.
  // The open-loop ladder and reference window that follow are detail; they
  // need idle vCPUs to wake, which is what varies most on a shared VM.
  std::vector<double> walls, pass_p50, pass_p99, rtt;
  const double closed_end = t_begin + std::max(4.0, opts.seconds - kOpenLoopSeconds) * 1e6;
  do {
    if (!cpus.empty()) pin_to({quietest_cpu(cpus)}, d->pid());
    std::vector<double> pass_rtt;
    walls.push_back(closed_pass(conns, stream, next_id, total, pass_rtt, r));
    const Quantiles pq = quantiles(pass_rtt);
    pass_p50.push_back(pq.p50);
    pass_p99.push_back(pq.p99);
    rtt.insert(rtt.end(), pass_rtt.begin(), pass_rtt.end());
  } while (now_us() < closed_end);
  if (!cpus.empty()) pin_to(cpus, d->pid());

  // Rate ladder: binary search for the highest passing rung.
  int lo = -1, hi = kLadderRungs;
  std::string probes = "[";
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    Window w = open_loop(conns, stream, next_id, ladder_rate(mid), kProbeSeconds, rng);
    const bool ok = probe_passes(w, ladder_rate(mid));
    account_window(w, r, total, checks);
    probes += (probes.size() > 1 ? "," : "") + std::string("[") + std::to_string(ladder_rate(mid)) +
              "," + (ok ? "true" : "false") + "]";
    (ok ? lo : hi) = mid;
  }
  probes += "]";
  const double sustained = lo >= 0 ? ladder_rate(lo) : 0.0;

  // Reference window at the fixed rate, for the rest of the measured time.
  const double used_s = (now_us() - t_begin) / 1e6;
  const double ref_s = std::max(kReferenceSeconds, opts.seconds - used_s);
  Window ref = open_loop(conns, stream, next_id, kReferenceRate, ref_s, rng);
  account_window(ref, r, total, checks);
  const Quantiles q = quantiles(latencies(ref));
  const std::vector<double> slice_p99 = per_second_p99(ref);
  std::vector<double> late;
  for (const Sample& s : ref.samples) late.push_back(s.sent - s.due);

  const double rss = d->peak_rss_mib();
  conns.clear();
  d->stop();

  // Oracle checks after the timed window.
  std::int64_t oracle_failed = 0;
  for (const auto& [req, reply] : checks) {
    ++r.attempted;
    std::string why;
    if (!oracle_check(req, reply, why)) {
      ++oracle_failed;
      r.fail("serve oracle: " + why);
    }
  }
  for (std::int64_t k = 0; k < total.errors; ++k) r.fail("error reply");

  const Quantiles cq = quantiles(rtt);
  r.metrics["setup_s"] = median(setups);
  r.metrics["latency_p50_us"] = fastest(pass_p50);
  r.metrics["latency_p99_us"] = fastest(pass_p99);
  r.metrics["sustained_rps"] = static_cast<double>(kWallLines) / fastest(walls);
  r.metrics["wall_s"] = fastest(walls);
  r.metrics["peak_rss_mib"] = rss;
  r.info["closed_loop_latency_us"] = quantiles_json(cq);
  r.info["closed_loop_passes"] = std::to_string(walls.size());
  r.info["closed_loop_median_pass"] =
      "{\"wall_s\":" + JsonWriter().value(median(walls)).str() +
      ",\"p50_us\":" + JsonWriter().value(median(pass_p50)).str() +
      ",\"p99_us\":" + JsonWriter().value(median(pass_p99)).str() + "}";
  r.info["open_loop_sustained_rps"] = JsonWriter().value(sustained).str();
  r.info["reference_latency_us"] = quantiles_json(q);
  r.info["reference_slice_p99_us"] = quantiles_json(quantiles(slice_p99));
  {
    std::map<std::string, std::vector<double>> by_kind;
    static const char* kKindNames[] = {"hit", "pi", "miss", "batch"};
    for (std::size_t k = 0; k < ref.samples.size(); ++k)
      if (ref.samples[k].done >= 0)
        by_kind[kKindNames[static_cast<int>(ref.reqs[k].kind)]].push_back(ref.samples[k].done -
                                                                          ref.samples[k].due);
    JsonWriter w;
    w.begin_object();
    for (const auto& [name, v] : by_kind) w.key(name).raw_value(quantiles_json(quantiles(v)));
    w.end_object();
    r.info["reference_latency_by_kind_us"] = w.str();
  }
  r.info["reference_rate"] = std::to_string(kReferenceRate);
  r.info["latency_limit_us"] = std::to_string(kLatencyLimitUs);
  r.info["late_us"] = quantiles_json(quantiles(late));
  r.info["backlog_end"] = std::to_string(backlog_at_end(ref));
  r.info["ladder_probes"] = probes;
  r.info["oracle_checked"] = std::to_string(checks.size());
  r.info["oracle_failed"] = std::to_string(oracle_failed);
  r.info["dispositions"] = "{\"hit\":" + std::to_string(total.hit) + ",\"pi\":" +
                           std::to_string(total.pi) + ",\"miss\":" + std::to_string(total.miss) +
                           "}";
}

// ---- in-process replay: untimed mode and the traced per-layer suite -------

namespace {

struct ReplayResult {
  Tally tally;
  std::int64_t evictions = 0;
  std::int64_t hot_refills = 0;  ///< hot-pool requests whose document was evicted
  std::int64_t checked = 0, check_failed = 0;
};

/// Replays the first `count` stream lines through an in-process PlanService
/// primed like the daemon.  With a recorder, each layer's public function is
/// called once more under a span (the same work handle_line does inside).
ReplayResult replay(const Stream& stream, std::size_t count, Recorder* rec, Report& r) {
  ServiceOptions so = daemon_options();
  PlanService svc(so);
  ReplayResult out;
  Tally prime;
  for (const std::string& line : stream.priming()) classify(svc.handle_line(line), prime);
  obs::TraceSink* sink = rec;
  for (std::size_t k = 0; k < count; ++k) {
    const Request req = stream.at(static_cast<std::int64_t>(k));
    ++r.attempted;
    std::string reply;
    if (req.kind == Kind::Batch) {
      obs::Span s(sink, "serve.batch");
      reply = svc.handle_line(req.line);
    } else {
      JsonValue parsed;
      {
        obs::Span s(sink, "serve.request_parse");
        parsed = parse_json(req.line);
      }
      std::unique_ptr<LoopNest> nest;
      {
        obs::Span s(sink, "frontend.parse");
        nest = std::make_unique<LoopNest>(parse_loop_nest(parsed.get("program").as_string()));
      }
      DependenceInfo deps;
      {
        obs::Span s(sink, "loop.dependence");
        deps = analyze_dependences(*nest);
      }
      {
        obs::Span s(sink, "serve.canonicalize");
        (void)serve::canonicalize_nest(*nest, deps);
      }
      {
        obs::Span s(sink, "serve.handle_line");
        reply = svc.handle_line(req.line);
      }
      const std::string disp = reply.find("\"cache\":\"hit\"") != std::string::npos ? "hit"
                               : reply.find("\"cache\":\"pi\"") != std::string::npos ? "pi"
                                                                                      : "miss";
      if (rec != nullptr) {
        const double us = rec->last_us("serve.handle_line");
        obs::TraceEvent e;
        e.name = "serve." + disp;
        e.phase = obs::Phase::Complete;
        e.dur = us;
        rec->event(e);
        for (const char* stage : {"serve.request_parse", "frontend.parse", "loop.dependence",
                                  "serve.canonicalize"}) {
          obs::TraceEvent st;
          st.name = std::string(stage) + "@" + disp;
          st.phase = obs::Phase::Complete;
          st.dur = rec->last_us(stage);
          rec->event(st);
        }
        if (disp != "hit") {
          // The document a cold plan renders: time pipeline_result_to_json.
          PipelineConfig c;
          c.space_mode = SpaceMode::Symbolic;
          c.cube_dim = static_cast<unsigned>(parsed.get("params").int_or("dim", kDefaultDim));
          if (parsed.get("params").string_or("accounting", "paper") == "barrier")
            c.sim.accounting = CommAccounting::PerStepBarrier;
          PipelineResult res = run_pipeline(*nest, c);
          obs::Span s(sink, "core.json_export");
          (void)pipeline_result_to_json(*nest, res);
        }
      }
    }
    if (req.kind == Kind::Hit && reply.find("\"cache\":\"hit\"") == std::string::npos)
      ++out.hot_refills;
    classify(reply, out.tally);
    // Oracle on a deterministic sample: cold plan from a fresh service.
    if (keep_reply(static_cast<std::int64_t>(k)) && out.checked < 40) {
      ++out.checked;
      ++r.attempted;
      std::string why;
      if (!oracle_check(req.line, reply, why)) {
        ++out.check_failed;
        r.fail("serve oracle (replay): " + why);
      }
    }
  }
  const PlanCacheStats cs = svc.cache_stats();
  out.evictions = cs.doc_evictions + cs.pi_evictions;
  for (std::int64_t k = 0; k < out.tally.errors; ++k) r.fail("error reply (replay)");
  return out;
}

constexpr std::size_t kReplayLines = 2500;

void replay_counters(const ReplayResult& rr, Report& r) {
  r.counters["serve.hit"] = rr.tally.hit;
  r.counters["serve.pi"] = rr.tally.pi;
  r.counters["serve.miss"] = rr.tally.miss;
  r.counters["serve.evictions"] = rr.evictions;
  r.counters["serve.hot_refills"] = rr.hot_refills;
  r.counters["serve.errors"] = rr.tally.errors;
  r.counters["serve.oracle_checked"] = rr.checked;
  r.counters["serve.oracle_failed"] = rr.check_failed;
}

}  // namespace

void untimed_serve(const Options& opts, Report& r) {
  const Stream stream(opts.seed);
  replay_counters(replay(stream, kReplayLines, nullptr, r), r);
}

void serve_layers(const Options& opts, Report& r) {
  ignore_sigpipe();
  const Stream stream(opts.seed);
  Recorder rec;
  const ReplayResult rr = replay(stream, kReplayLines, &rec, r);
  replay_counters(rr, r);

  auto med = [&](const std::string& name) { return rec.median_us(name); };
  r.metrics["serve.request_parse_us"] = med("serve.request_parse");
  r.metrics["frontend.parse_us"] = med("frontend.parse");
  r.metrics["loop.dependence_us"] = med("loop.dependence");
  r.metrics["serve.canonicalize_us"] = med("serve.canonicalize");
  r.metrics["serve.hit_us"] = med("serve.hit");
  r.metrics["serve.pi_us"] = med("serve.pi");
  r.metrics["serve.miss_us"] = med("serve.miss");
  r.metrics["serve.splice_self_us"] =
      med("serve.hit") - med("serve.request_parse@hit") - med("frontend.parse@hit") -
      med("loop.dependence@hit") - med("serve.canonicalize@hit");
  r.metrics["core.json_export_us"] = med("core.json_export");
  {
    JsonWriter w;
    w.begin_object();
    for (const char* d : {"serve.hit", "serve.pi", "serve.miss", "serve.batch"})
      w.key(d).raw_value(quantiles_json(quantiles(rec.durations(d))));
    w.end_object();
    r.info["in_process_us"] = w.str();
  }
  r.metrics["serve.hit"] = static_cast<double>(rr.tally.hit);
  r.metrics["serve.pi"] = static_cast<double>(rr.tally.pi);
  r.metrics["serve.miss"] = static_cast<double>(rr.tally.miss);
  r.metrics["serve.evictions"] = static_cast<double>(rr.evictions);
  const double plans = static_cast<double>(rr.tally.hit + rr.tally.pi + rr.tally.miss);
  r.metrics["serve.hit_ratio"] = plans > 0 ? static_cast<double>(rr.tally.hit) / plans : 0.0;

  // Transport: client round trip at the lowest ladder rate minus the
  // in-process handle_line time, per disposition; lateness and backlog at
  // the reference rate.
  std::unique_ptr<Daemon> d;
  (void)start_primed(d, opts, stream, "layers", false, r);
  auto conns = connect_all(*d);
  std::mt19937_64 rng(opts.seed * 131 + 3);
  std::int64_t next_id = 1'000'000;
  Window low = open_loop(conns, stream, next_id, kLowestRate, 2.0, rng);
  std::map<std::string, std::vector<double>> rt;
  for (std::size_t k = 0; k < low.samples.size(); ++k) {
    if (low.reqs[k].kind == Kind::Batch || low.samples[k].done < 0) continue;
    const char* disp = low.reqs[k].kind == Kind::Hit ? "hit" : nullptr;
    if (disp != nullptr) rt[disp].push_back(low.samples[k].done - low.samples[k].sent);
  }
  r.attempted += static_cast<std::int64_t>(low.samples.size());
  Window ref = open_loop(conns, stream, next_id, kReferenceRate, 2.0, rng);
  r.attempted += static_cast<std::int64_t>(ref.samples.size());
  for (std::int64_t k = 0; k < low.unanswered + ref.unanswered; ++k) r.fail("request not answered");
  for (std::int64_t k = 0; k < low.tally.errors + ref.tally.errors; ++k) r.fail("error reply");
  conns.clear();
  d->stop();
  std::vector<double> late;
  for (const Sample& s : ref.samples) late.push_back(s.sent - s.due);
  r.metrics["server.transport_us"] = median(rt["hit"]) - med("serve.hit");
  r.metrics["loadgen.late_p99_us"] = percentile(late, 0.99);
  r.metrics["serve.backlog_end"] = static_cast<double>(backlog_at_end(ref));
}

}  // namespace perf
