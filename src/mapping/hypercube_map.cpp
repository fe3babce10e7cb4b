#include "mapping/hypercube_map.hpp"

#include <algorithm>
#include <stdexcept>

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

ProcId LatticeHypercubeMapping::proc_of_sorted_index(std::uint64_t k) const {
  // boundaries is ascending with duplicates at empty clusters; the owning
  // cluster is the last one whose start is <= k.
  auto it = std::upper_bound(boundaries.begin(), boundaries.end(), k);
  std::size_t rank = static_cast<std::size_t>(it - boundaries.begin()) - 1;
  return cluster_processor[std::min(rank, cluster_processor.size() - 1)];
}

ProcId LatticeHypercubeMapping::proc_of_group(const GroupLattice& lattice,
                                              const GroupLattice::GroupKey& g) const {
  if (frag_b.empty()) return proc_of_sorted_index(lattice.sorted_index_of_group(g));
  auto cit = std::lower_bound(frag_b.begin(), frag_b.end(), g.b);
  if (cit == frag_b.end() || *cit != g.b) return 0;  // unpopulated chain
  const std::size_t i = static_cast<std::size_t>(cit - frag_b.begin());
  auto first = frag_runs.begin() + static_cast<std::ptrdiff_t>(frag_off[i]);
  auto last = frag_runs.begin() + static_cast<std::ptrdiff_t>(frag_off[i + 1]);
  // Last run with a_lo <= g.a.
  auto rit = std::upper_bound(first, last, g.a,
                              [](std::int64_t a, const std::pair<std::int64_t, ProcId>& run) {
                                return a < run.first;
                              });
  if (rit == first) return 0;
  return (rit - 1)->second;
}

namespace {

/// One per-aux-chain a-interval of a plane cluster.
struct Frag {
  std::int64_t b = 0;
  std::int64_t a_lo = 0, a_hi = 0;
};

struct PlaneCluster {
  std::vector<Frag> frags;  ///< ascending b, at most one per b
  std::uint64_t ranks[2] = {0, 0};
  std::uint64_t size = 0;  ///< group count
};

/// Closed-form dense bisection of a plane cluster along direction 0 (the
/// grouping-chain coordinate a): the dense level sort is (a, b), so the low
/// half is every group with a < a*, plus the first q groups at a == a* in
/// ascending b — a* and q chosen so the low half has exactly `h` groups.
void split_plane_a(const PlaneCluster& c, std::uint64_t h, PlaneCluster& low,
                   PlaneCluster& high) {
  if (c.frags.empty() || h == 0) {
    (h == 0 ? high : low).frags = c.frags;
    return;
  }
  std::int64_t amin = c.frags.front().a_lo, amax = c.frags.front().a_hi;
  for (const Frag& f : c.frags) {
    amin = std::min(amin, f.a_lo);
    amax = std::max(amax, f.a_hi);
  }
  auto cnt_le = [&](std::int64_t a) {
    std::uint64_t n = 0;
    for (const Frag& f : c.frags) {
      const std::int64_t hi = std::min(a, f.a_hi);
      if (hi >= f.a_lo) n += static_cast<std::uint64_t>(hi - f.a_lo + 1);
    }
    return n;
  };
  std::int64_t lo = amin, hi = amax;
  while (lo < hi) {  // smallest a with cnt_le(a) >= h
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (cnt_le(mid) >= h) hi = mid;
    else lo = mid + 1;
  }
  const std::int64_t astar = lo;
  std::uint64_t q = h - cnt_le(astar - 1);  // groups at a == a* taken low, in b order
  for (const Frag& f : c.frags) {
    if (f.a_hi < astar) {
      low.frags.push_back(f);
      continue;
    }
    if (f.a_lo > astar) {
      high.frags.push_back(f);
      continue;
    }
    std::int64_t cut = astar - 1;  // low gets [a_lo, cut]
    if (q > 0) {
      cut = astar;
      --q;
    }
    if (cut >= f.a_lo) low.frags.push_back(Frag{f.b, f.a_lo, cut});
    if (cut + 1 <= f.a_hi) high.frags.push_back(Frag{f.b, cut + 1, f.a_hi});
  }
}

/// Bisection along direction 1 (the aux coordinate b): the dense level sort
/// is (b, a), so the low half is whole chains in ascending b plus the
/// lowest-a prefix of the straddling chain.
void split_plane_b(const PlaneCluster& c, std::uint64_t h, PlaneCluster& low,
                   PlaneCluster& high) {
  std::uint64_t cum = 0;
  for (const Frag& f : c.frags) {
    const std::uint64_t sz = static_cast<std::uint64_t>(f.a_hi - f.a_lo + 1);
    if (cum + sz <= h) {
      low.frags.push_back(f);
    } else if (cum >= h) {
      high.frags.push_back(f);
    } else {
      const std::int64_t take = static_cast<std::int64_t>(h - cum);
      low.frags.push_back(Frag{f.b, f.a_lo, f.a_lo + take - 1});
      high.frags.push_back(Frag{f.b, f.a_lo + take, f.a_hi});
    }
    cum += sz;
  }
}

LatticeHypercubeMapping map_plane_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                               const HypercubeMapOptions& options) {
  if (options.weighted)
    throw std::invalid_argument(
        "map_to_hypercube: weighted mapping of a plane lattice is not closed-form");
  std::vector<PlaneCluster> clusters(1);
  for (const GroupLattice::GroupBox& box : lattice.enumerate_boxes())
    clusters[0].frags.push_back(Frag{box.c_lo, box.a_lo, box.a_hi});
  std::vector<unsigned> bits(2, 0);
  for (PlaneCluster& c : clusters)
    for (const Frag& f : c.frags) c.size += static_cast<std::uint64_t>(f.a_hi - f.a_lo + 1);

  for (unsigned j = 0; j < cube_dim; ++j) {
    const std::size_t dir = j % 2;
    ++bits[dir];
    std::vector<PlaneCluster> next;
    next.reserve(clusters.size() * 2);
    for (PlaneCluster& c : clusters) {
      const std::uint64_t h = c.size / 2 + c.size % 2;  // dense ceil-half
      PlaneCluster low, high;
      if (dir == 0) split_plane_a(c, h, low, high);
      else split_plane_b(c, h, low, high);
      low.size = h;
      high.size = c.size - h;
      for (std::size_t d = 0; d < 2; ++d) {
        low.ranks[d] = c.ranks[d];
        high.ranks[d] = c.ranks[d];
      }
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
  result.cluster_processor.reserve(clusters.size());

  // Phase II Gray allocation + flatten fragments into the CSR (b -> runs)
  // index.  Runs from all clusters are merged per chain, sorted by a_lo.
  std::vector<Frag> all;
  std::vector<ProcId> frag_proc;
  std::vector<std::uint64_t> ranks_used;
  std::vector<unsigned> bits_used;
  for (const PlaneCluster& c : clusters) {
    ranks_used.clear();
    bits_used.clear();
    for (std::size_t d = 0; d < 2; ++d) {
      if (bits[d] == 0) continue;
      ranks_used.push_back(c.ranks[d]);
      bits_used.push_back(bits[d]);
    }
    const ProcId proc = cube_dim > 0 ? concat_gray(ranks_used, bits_used) : ProcId{0};
    result.cluster_processor.push_back(proc);
    for (const Frag& f : c.frags) {
      all.push_back(f);
      frag_proc.push_back(proc);
    }
  }
  std::vector<std::size_t> order(all.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (all[x].b != all[y].b) return all[x].b < all[y].b;
    return all[x].a_lo < all[y].a_lo;
  });
  for (std::size_t i : order) {
    if (result.frag_b.empty() || result.frag_b.back() != all[i].b) {
      result.frag_b.push_back(all[i].b);
      result.frag_off.push_back(result.frag_runs.size());
    }
    result.frag_runs.emplace_back(all[i].a_lo, frag_proc[i]);
  }
  result.frag_off.push_back(result.frag_runs.size());

  if (options.obs.metrics != nullptr) {
    options.obs.metrics->add("map.clusters",
                             static_cast<std::int64_t>(result.cluster_processor.size()));
    options.obs.metrics->add("map.bisection_levels", static_cast<std::int64_t>(cube_dim));
    options.obs.metrics->add("map.directions_used",
                             static_cast<std::int64_t>(result.directions_used));
  }
  return result;
}

}  // namespace

LatticeHypercubeMapping map_to_hypercube(const GroupLattice& lattice, unsigned cube_dim,
                                         const HypercubeMapOptions& options) {
  const std::uint64_t ngroups = lattice.group_count();

  obs::TraceSink* sink = options.obs.trace;
  if (sink != nullptr)
    obs::emit_thread_name(sink, obs::kPipelinePid, obs::kMappingTid, "mapping search");
  obs::Span map_span(sink, "map_to_hypercube", "mapping", obs::kPipelinePid,
                     obs::kMappingTid,
                     {{"blocks", static_cast<std::int64_t>(ngroups)},
                      {"cube_dim", static_cast<std::int64_t>(cube_dim)}});

  if (lattice.layout() == LatticeLayout::Plane)
    return map_plane_to_hypercube(lattice, cube_dim, options);

  // Weighted splitting needs per-group populations; one O(groups) prefix-sum
  // array is the only N-dependent allocation, and only in this opt-in mode.
  std::vector<std::int64_t> prefix;
  if (options.weighted) {
    prefix.assign(static_cast<std::size_t>(ngroups) + 1, 0);
    for (std::uint64_t k = 0; k < ngroups; ++k)
      prefix[static_cast<std::size_t>(k) + 1] =
          prefix[static_cast<std::size_t>(k)] +
          lattice.group_population(lattice.group_at_sorted_index(k));
  }

  // Phase I: the dense mapper's recursive ceil-halving, on interval lengths.
  // Rank bits accumulate low-half-first, so final clusters in rank order
  // cover ascending sorted-index intervals.
  std::vector<std::uint64_t> starts{0};
  std::vector<std::uint64_t> sizes{ngroups};
  for (unsigned j = 0; j < cube_dim; ++j) {
    std::vector<std::uint64_t> next_starts, next_sizes;
    next_starts.reserve(sizes.size() * 2);
    next_sizes.reserve(sizes.size() * 2);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      std::uint64_t size = sizes[i];
      std::uint64_t half = size / 2 + size % 2;
      if (options.weighted && size >= 2) {
        std::size_t b = static_cast<std::size_t>(starts[i]);
        std::int64_t total = prefix[b + static_cast<std::size_t>(size)] - prefix[b];
        std::uint64_t cut = 0;
        while (cut < size && 2 * (prefix[b + static_cast<std::size_t>(cut)] - prefix[b]) < total)
          ++cut;
        half = std::clamp<std::uint64_t>(cut, 1, size - 1);
      }
      next_starts.push_back(starts[i]);
      next_sizes.push_back(half);
      next_starts.push_back(starts[i] + half);
      next_sizes.push_back(size - half);
    }
    starts = std::move(next_starts);
    sizes = std::move(next_sizes);
  }

  // Phase II: cluster rank -> Gray-coded processor.
  LatticeHypercubeMapping result;
  result.cube_dim = cube_dim;
  result.processor_count = std::size_t{1} << cube_dim;
  result.directions_used = cube_dim > 0 ? 1 : 0;
  if (cube_dim > 0) result.bits_per_direction.assign(1, cube_dim);
  result.boundaries.reserve(starts.size() + 1);
  result.boundaries = starts;
  result.boundaries.push_back(ngroups);
  result.cluster_processor.reserve(sizes.size());
  for (std::uint64_t rank = 0; rank < sizes.size(); ++rank)
    result.cluster_processor.push_back(
        cube_dim > 0 ? concat_gray({rank}, {cube_dim}) : ProcId{0});

  if (options.obs.metrics != nullptr) {
    options.obs.metrics->add("map.clusters",
                             static_cast<std::int64_t>(result.cluster_processor.size()));
    options.obs.metrics->add("map.bisection_levels", static_cast<std::int64_t>(cube_dim));
    options.obs.metrics->add("map.directions_used",
                             static_cast<std::int64_t>(result.directions_used));
  }
  return result;
}

bool closed_form_mapping(const GroupLattice& lattice, const HypercubeMapOptions& options) {
  return !(options.weighted && lattice.layout() == LatticeLayout::Plane);
}

}  // namespace hypart
