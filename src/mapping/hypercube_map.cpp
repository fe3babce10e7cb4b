#include "mapping/hypercube_map.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "mapping/gray.hpp"

namespace hypart {

HypercubeMappingResult map_to_hypercube(const TaskInteractionGraph& tig, unsigned cube_dim,
                                        const HypercubeMapOptions& options) {
  const std::size_t nverts = tig.vertex_count();
  if (nverts == 0) throw std::invalid_argument("map_to_hypercube: empty TIG");

  // Bisection directions: the TIG coordinate axes (Ω), else vertex order.
  const bool coords = tig.has_coordinates();
  const std::size_t beta = coords ? std::max<std::size_t>(tig.coordinate_dimensions(), 1) : 1;

  auto coord_along = [&](std::size_t v, std::size_t dir) -> std::int64_t {
    if (!coords) return static_cast<std::int64_t>(v);
    const std::optional<IntVec>& c = tig.coordinates(v);
    return dir < c->size() ? (*c)[dir] : 0;
  };

  obs::TraceSink* sink = options.obs.trace;
  if (sink != nullptr)
    obs::emit_thread_name(sink, obs::kPipelinePid, obs::kMappingTid, "mapping search");
  obs::Span map_span(sink, "map_to_hypercube", "mapping", obs::kPipelinePid,
                     obs::kMappingTid,
                     {{"blocks", static_cast<std::int64_t>(nverts)},
                      {"cube_dim", static_cast<std::int64_t>(cube_dim)}});

  // ---- Phase I: cluster formation -----------------------------------------
  std::vector<Cluster> clusters(1);
  clusters[0].vertices.resize(nverts);
  for (std::size_t v = 0; v < nverts; ++v) clusters[0].vertices[v] = v;
  clusters[0].ranks.assign(beta, 0);
  std::vector<unsigned> bits(beta, 0);

  for (unsigned j = 0; j < cube_dim; ++j) {
    const std::size_t dir = j % beta;
    ++bits[dir];
    obs::Span level_span(sink, "bisect_level", "mapping", obs::kPipelinePid, obs::kMappingTid,
                         {{"level", static_cast<std::int64_t>(j)},
                          {"direction", static_cast<std::int64_t>(dir)},
                          {"clusters_in", static_cast<std::int64_t>(clusters.size())}});
    std::vector<Cluster> next;
    next.reserve(clusters.size() * 2);
    for (Cluster& c : clusters) {
      // Deterministic sort along the direction; ties broken by the full
      // coordinate vector, then vertex id, so splits are reproducible.
      std::sort(c.vertices.begin(), c.vertices.end(), [&](std::size_t a, std::size_t b) {
        std::int64_t ca = coord_along(a, dir), cb = coord_along(b, dir);
        if (ca != cb) return ca < cb;
        for (std::size_t d = 0; d < beta; ++d) {
          std::int64_t xa = coord_along(a, d), xb = coord_along(b, d);
          if (xa != xb) return xa < xb;
        }
        return a < b;
      });
      std::size_t half = c.vertices.size() / 2 + (c.vertices.size() % 2);
      if (options.weighted && c.vertices.size() >= 2) {
        // Smallest prefix whose compute weight reaches half the cluster's.
        std::int64_t total = 0;
        for (std::size_t v : c.vertices) total += tig.compute_weight(v);
        std::int64_t prefix = 0;
        std::size_t cut = 0;
        while (cut < c.vertices.size() && 2 * prefix < total)
          prefix += tig.compute_weight(c.vertices[cut++]);
        half = std::clamp<std::size_t>(cut, 1, c.vertices.size() - 1);
      }
      Cluster low, high;
      low.vertices.assign(c.vertices.begin(), c.vertices.begin() + static_cast<std::ptrdiff_t>(half));
      high.vertices.assign(c.vertices.begin() + static_cast<std::ptrdiff_t>(half), c.vertices.end());
      low.ranks = c.ranks;
      high.ranks = c.ranks;
      low.ranks[dir] = c.ranks[dir] * 2;
      high.ranks[dir] = c.ranks[dir] * 2 + 1;
      next.push_back(std::move(low));
      next.push_back(std::move(high));
    }
    clusters = std::move(next);
  }

  // ---- Phase II: cluster allocation ---------------------------------------
  HypercubeMappingResult result;
  result.bits_per_direction = bits;
  result.directions_used = static_cast<std::size_t>(
      std::count_if(bits.begin(), bits.end(), [](unsigned b) { return b > 0; }));

  std::vector<std::uint64_t> ranks_used;
  std::vector<unsigned> bits_used;
  result.mapping.block_to_proc.assign(nverts, 0);
  result.mapping.processor_count = std::size_t{1} << cube_dim;
  result.mapping.method = "gray-bisection";

  for (Cluster& c : clusters) {
    ranks_used.clear();
    bits_used.clear();
    for (std::size_t d = 0; d < beta; ++d) {
      if (bits[d] == 0) continue;
      ranks_used.push_back(c.ranks[d]);
      bits_used.push_back(bits[d]);
    }
    c.processor = concat_gray(ranks_used, bits_used);
    for (std::size_t v : c.vertices) result.mapping.block_to_proc[v] = c.processor;
  }
  result.clusters = std::move(clusters);
  if (options.obs.metrics != nullptr) {
    options.obs.metrics->add("map.clusters", static_cast<std::int64_t>(result.clusters.size()));
    options.obs.metrics->add("map.bisection_levels", static_cast<std::int64_t>(cube_dim));
    options.obs.metrics->add("map.directions_used",
                             static_cast<std::int64_t>(result.directions_used));
  }
  return result;
}

LatticeHypercubeMapping::Fragment LatticeHypercubeMapping::fragment_of(
    const GroupLattice& lattice, const GroupLattice::GroupKey& g) const {
  const std::size_t run = lattice.run_of(g);
  Fragment f{run, g.b, g.comp, g.a, g.a + 1, 0};
  if (run + 1 >= frag_off.size()) return f;  // no such group
  auto first = frag_runs.begin() + static_cast<std::ptrdiff_t>(frag_off[run]);
  auto last = frag_runs.begin() + static_cast<std::ptrdiff_t>(frag_off[run + 1]);
  // Last fragment with a_from <= g.a.
  auto it = std::upper_bound(first, last, g.a,
                             [](std::int64_t a, const std::pair<std::int64_t, ProcId>& frag) {
                               return a < frag.first;
                             });
  if (it == first) return f;
  f.proc = (it - 1)->second;
  if (lattice.degenerate()) return f;
  f.a_from = (it - 1)->first;
  f.a_next = a_next_of(lattice, run, static_cast<std::size_t>(it - 1 - frag_runs.begin()));
  return f;
}

namespace {

/// One per-run a-interval of a cluster.
struct Frag {
  std::size_t run = 0;
  std::int64_t a_lo = 0, a_hi = 0;
};

struct FragCluster {
  std::vector<Frag> frags;  ///< run-table order, at most one per run
  std::uint64_t ranks[2] = {0, 0};
  std::uint64_t size = 0;  ///< group count
};

/// What a bisection balances: the group count of a fragment's prefix, or,
/// with population prefix sums, its population.
struct Measure {
  const std::vector<GroupLattice::Run>* runs = nullptr;
  std::vector<std::int64_t> pre;  ///< GroupLattice::population_prefix(); empty: count

  /// Measure of f's groups with a' <= a.
  [[nodiscard]] std::int64_t upto(const Frag& f, std::int64_t a) const {
    const std::int64_t hi = std::min(a, f.a_hi);
    if (hi < f.a_lo) return 0;
    if (pre.empty()) return hi - f.a_lo + 1;
    const GroupLattice::Run& run = (*runs)[f.run];
    return pre[run.first + static_cast<std::uint64_t>(hi - run.a_lo) + 1] -
           pre[run.first + static_cast<std::uint64_t>(f.a_lo - run.a_lo)];
  }
};

/// Append to low the shortest prefix of `fs`'s groups in (a, run) order
/// whose measure satisfies `reach`, and the rest to high.  `fs` shares one
/// b, or is a whole cluster bisected along a.
template <class Reach>
void split_a(const Frag* fs, std::size_t count, const Measure& m, const Reach& reach,
             FragCluster& low, FragCluster& high) {
  if (count == 0) return;
  if (reach(0)) {
    high.frags.insert(high.frags.end(), fs, fs + count);
    return;
  }
  auto measure_upto = [&](std::int64_t a) {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < count; ++i) total = detail::checked_add(total, m.upto(fs[i], a));
    return total;
  };
  std::int64_t lo = fs[0].a_lo, hi = fs[0].a_hi;
  for (std::size_t i = 1; i < count; ++i) {
    lo = std::min(lo, fs[i].a_lo);
    hi = std::max(hi, fs[i].a_hi);
  }
  while (lo < hi) {  // smallest a* whose groups a <= a* reach
    const std::int64_t mid = lo + floor_div(hi - lo, 2);
    if (reach(measure_upto(mid))) hi = mid;
    else lo = mid + 1;
  }
  // Every group below a* goes low, then the groups at a*, in run order,
  // until the prefix reaches.
  std::int64_t acc = measure_upto(lo - 1);
  for (std::size_t i = 0; i < count; ++i) {
    const Frag& f = fs[i];
    std::int64_t cut = std::min(f.a_hi, lo - 1);  // low gets [a_lo, cut]
    if (f.a_lo <= lo && lo <= f.a_hi && !reach(acc)) {
      acc = detail::checked_add(acc, m.upto(f, lo) - m.upto(f, lo - 1));
      cut = lo;
    }
    if (cut >= f.a_lo) low.frags.push_back(Frag{f.run, f.a_lo, cut});
    if (cut < f.a_hi) high.frags.push_back(Frag{f.run, std::max(cut + 1, f.a_lo), f.a_hi});
  }
}

/// Bisect `c` along `dir`: the shortest prefix reaching goes low.  Along b
/// (dir 1) whole b-values go low in ascending order; the b-value where the
/// prefix reaches is split in (a, comp) order.
template <class Reach>
void split(const FragCluster& c, std::size_t dir, const Measure& m, const Reach& reach,
           const std::vector<GroupLattice::Run>& runs, FragCluster& low, FragCluster& high) {
  if (dir == 0) return split_a(c.frags.data(), c.frags.size(), m, reach, low, high);
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < c.frags.size();) {
    std::size_t j = i;
    std::int64_t tot = 0;
    for (; j < c.frags.size() && runs[c.frags[j].run].b == runs[c.frags[i].run].b; ++j)
      tot = detail::checked_add(tot, m.upto(c.frags[j], c.frags[j].a_hi));
    if (!reach(detail::checked_add(acc, tot))) {
      low.frags.insert(low.frags.end(), c.frags.begin() + static_cast<std::ptrdiff_t>(i),
                       c.frags.begin() + static_cast<std::ptrdiff_t>(j));
    } else {
      const std::int64_t base = acc;
      split_a(c.frags.data() + i, j - i, m,
              [&](std::int64_t x) { return reach(detail::checked_add(base, x)); }, low, high);
      high.frags.insert(high.frags.end(), c.frags.begin() + static_cast<std::ptrdiff_t>(j),
                        c.frags.end());
      return;
    }
    acc = detail::checked_add(acc, tot);
    i = j;
  }
}

std::uint64_t group_total(const FragCluster& c) {
  std::uint64_t n = 0;
  for (const Frag& f : c.frags) n += static_cast<std::uint64_t>(f.a_hi - f.a_lo + 1);
  return n;
}

}  // namespace

LatticeHypercubeMapping map_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                         const HypercubeMapOptions& options) {
  const std::vector<GroupLattice::Run>& runs = lattice.runs();
  obs::TraceSink* sink = options.obs.trace;
  if (sink != nullptr)
    obs::emit_thread_name(sink, obs::kPipelinePid, obs::kMappingTid, "mapping search");
  obs::Span map_span(sink, "map_to_hypercube", "mapping", obs::kPipelinePid,
                     obs::kMappingTid,
                     {{"blocks", static_cast<std::int64_t>(lattice.group_count())},
                      {"cube_dim", static_cast<std::int64_t>(cube_dim)}});

  const Measure count{&runs, {}};
  const Measure weight{&runs, options.weighted ? lattice.population_prefix()
                                               : std::vector<std::int64_t>{}};
  const std::size_t ndirs = lattice.auxiliary_vector_index() ? 2 : 1;
  std::vector<FragCluster> clusters(1);
  for (std::size_t i = 0; i < runs.size(); ++i)
    clusters[0].frags.push_back(Frag{i, runs[i].a_lo, runs[i].a_hi});
  clusters[0].size = lattice.group_count();
  std::vector<unsigned> bits(ndirs, 0);

  for (unsigned j = 0; j < cube_dim; ++j) {
    const std::size_t dir = j % ndirs;
    ++bits[dir];
    std::vector<FragCluster> next;
    next.reserve(clusters.size() * 2);
    for (const FragCluster& c : clusters) {
      std::uint64_t h = c.size / 2 + c.size % 2;  // dense ceil-half
      if (options.weighted && c.size >= 2) {
        // The smallest prefix whose population reaches half the cluster's,
        // clamped as the dense mapper does.
        std::int64_t total = 0;
        for (const Frag& f : c.frags) total = detail::checked_add(total, weight.upto(f, f.a_hi));
        FragCluster prefix, rest;
        split(c, dir, weight, [&](std::int64_t x) { return x >= total - x; }, runs, prefix, rest);
        h = std::clamp<std::uint64_t>(group_total(prefix), 1, c.size - 1);
      }
      FragCluster low, high;
      const auto want = static_cast<std::int64_t>(h);
      split(c, dir, count, [&](std::int64_t x) { return x >= want; }, runs, low, high);
      low.size = h;
      high.size = c.size - h;
      for (std::size_t d = 0; d < 2; ++d) low.ranks[d] = high.ranks[d] = c.ranks[d];
      low.ranks[dir] = c.ranks[dir] * 2;
      high.ranks[dir] = c.ranks[dir] * 2 + 1;
      next.push_back(std::move(low));
      next.push_back(std::move(high));
    }
    clusters = std::move(next);
  }

  LatticeHypercubeMapping result;
  result.cube_dim = cube_dim;
  result.processor_count = std::size_t{1} << cube_dim;
  result.bits_per_direction = bits;
  result.directions_used = static_cast<std::size_t>(
      std::count_if(bits.begin(), bits.end(), [](unsigned b) { return b > 0; }));

  // Phase II: Gray allocation, then the fragments of all clusters merged
  // into the per-run CSR index, ascending a.
  std::vector<std::pair<Frag, ProcId>> all;
  std::vector<std::uint64_t> ranks_used;
  std::vector<unsigned> bits_used;
  for (const FragCluster& c : clusters) {
    ranks_used.clear();
    bits_used.clear();
    for (std::size_t d = 0; d < ndirs; ++d) {
      if (bits[d] == 0) continue;
      ranks_used.push_back(c.ranks[d]);
      bits_used.push_back(bits[d]);
    }
    const ProcId proc = cube_dim > 0 ? concat_gray(ranks_used, bits_used) : ProcId{0};
    for (const Frag& f : c.frags) all.emplace_back(f, proc);
  }
  std::sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return std::tie(x.first.run, x.first.a_lo) < std::tie(y.first.run, y.first.a_lo);
  });
  result.frag_off.assign(runs.size() + 1, 0);
  for (const auto& [f, proc] : all) {
    ++result.frag_off[f.run + 1];
    result.frag_runs.emplace_back(f.a_lo, proc);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) result.frag_off[i + 1] += result.frag_off[i];

  if (options.obs.metrics != nullptr) {
    options.obs.metrics->add("map.clusters", static_cast<std::int64_t>(clusters.size()));
    options.obs.metrics->add("map.bisection_levels", static_cast<std::int64_t>(cube_dim));
    options.obs.metrics->add("map.directions_used",
                             static_cast<std::int64_t>(result.directions_used));
  }
  return result;
}

}  // namespace hypart
