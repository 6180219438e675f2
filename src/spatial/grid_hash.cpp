#include "vf/spatial/grid_hash.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include <omp.h>

#include "vf/obs/obs.hpp"
#include "vf/util/contract.hpp"

namespace vf::spatial {

using vf::field::Vec3;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline int clamp_cell(int c, int nc) {
  return c < 0 ? 0 : (c >= nc ? nc - 1 : c);
}

/// Insert (idx, d2) into `out` kept sorted by (dist2, index) ascending,
/// dropping the worst entry once `out` holds `cap`. Returns the new worst
/// distance (inf while not yet full).
inline double sorted_insert(std::vector<Neighbor>& out, std::size_t cap,
                            std::uint32_t idx, double d2) {
  const Neighbor nb{idx, d2};
  auto pos = std::lower_bound(out.begin(), out.end(), nb,
                              [](const Neighbor& a, const Neighbor& b) {
                                return a.dist2 != b.dist2
                                           ? a.dist2 < b.dist2
                                           : a.index < b.index;
                              });
  out.insert(pos, nb);
  if (out.size() > cap) out.pop_back();
  return out.size() == cap ? out.back().dist2 : kInf;
}

}  // namespace

GridHashIndex::GridHashIndex(std::vector<Vec3> points, double target_per_cell)
    : points_(std::move(points)) {
  cell_start_.assign(1, 0);
  const std::size_t n = points_.size();
  if (n == 0) return;
  VF_OBS_SPAN("grid_hash_build");
  VF_OBS_COUNT("spatial.grid_hash.builds", 1);

  Vec3 lo{kInf, kInf, kInf}, hi{-kInf, -kInf, -kInf};
  for (const Vec3& p : points_) {
    lo.x = std::min(lo.x, p.x); hi.x = std::max(hi.x, p.x);
    lo.y = std::min(lo.y, p.y); hi.y = std::max(hi.y, p.y);
    lo.z = std::min(lo.z, p.z); hi.z = std::max(hi.z, p.z);
  }
  origin_ = lo;
  const double ext[3] = {hi.x - lo.x, hi.y - lo.y, hi.z - lo.z};
  face_slack_ = 1e-12 * std::max({std::abs(lo.x), std::abs(lo.y),
                                  std::abs(lo.z), std::abs(hi.x),
                                  std::abs(hi.y), std::abs(hi.z)});

  // Size the grid to ~target_per_cell points per cell, splitting cells
  // across the active (non-degenerate) axes in proportion to their extent
  // so cells stay roughly cubical. Capped at ~4 cells per point so the CSR
  // arrays stay O(n) even for tiny target_per_cell.
  const double target_cells =
      std::max(1.0, static_cast<double>(n) / std::max(target_per_cell, 0.25));
  double active_prod = 1.0;
  int active_axes = 0;
  for (double e : ext) {
    if (e > 0.0) {
      active_prod *= e;
      ++active_axes;
    }
  }
  int nc[3] = {1, 1, 1};
  if (active_axes > 0) {
    const double scale =
        std::pow(target_cells / active_prod, 1.0 / active_axes);
    for (int a = 0; a < 3; ++a) {
      if (ext[a] > 0.0) {
        nc[a] = static_cast<int>(
            std::clamp(std::ceil(ext[a] * scale), 1.0, 4096.0));
      }
    }
    const double cap = 4.0 * static_cast<double>(n) + 64.0;
    double total = static_cast<double>(nc[0]) * nc[1] * nc[2];
    if (total > cap) {
      const double shrink = std::cbrt(cap / total);
      for (int& c : nc) c = std::max(1, static_cast<int>(c * shrink));
    }
  }
  ncx_ = nc[0]; ncy_ = nc[1]; ncz_ = nc[2];
  h_ = {ext[0] > 0.0 ? ext[0] / ncx_ : 1.0,
        ext[1] > 0.0 ? ext[1] / ncy_ : 1.0,
        ext[2] > 0.0 ? ext[2] / ncz_ : 1.0};
  inv_h_ = {ext[0] > 0.0 ? ncx_ / ext[0] : 0.0,
            ext[1] > 0.0 ? ncy_ / ext[1] : 0.0,
            ext[2] > 0.0 ? ncz_ / ext[2] : 0.0};

  // Counting sort the points into CSR buckets with SoA coordinates.
  const std::size_t ncells = static_cast<std::size_t>(ncx_) * ncy_ * ncz_;
  std::vector<std::uint32_t> cell_of(n);
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int cx = 0, cy = 0, cz = 0;
    home_cell(points_[i], cx, cy, cz);
    const auto c = static_cast<std::uint32_t>(
        (static_cast<std::size_t>(cz) * ncy_ + cy) * ncx_ + cx);
    cell_of[i] = c;
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  xs_.resize(n); ys_.resize(n); zs_.resize(n);
  order_.resize(n);
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t pos = cursor[cell_of[i]]++;
    VF_BOUNDS_CHECK(pos, n);
    xs_[pos] = points_[i].x;
    ys_[pos] = points_[i].y;
    zs_[pos] = points_[i].z;
    order_[pos] = static_cast<std::uint32_t>(i);
  }
}

void GridHashIndex::home_cell(const Vec3& q, int& cx, int& cy,
                              int& cz) const {
  cx = clamp_cell(static_cast<int>((q.x - origin_.x) * inv_h_.x), ncx_);
  cy = clamp_cell(static_cast<int>((q.y - origin_.y) * inv_h_.y), ncy_);
  cz = clamp_cell(static_cast<int>((q.z - origin_.z) * inv_h_.z), ncz_);
}

template <typename CellFn>
void GridHashIndex::for_each_ring_cell(int cx, int cy, int cz, int r,
                                       CellFn&& fn) const {
  // Shell of Chebyshev radius r around the home cell, clipped to the grid.
  const int zlo = std::max(cz - r, 0), zhi = std::min(cz + r, ncz_ - 1);
  const int ylo = std::max(cy - r, 0), yhi = std::min(cy + r, ncy_ - 1);
  const int xlo = std::max(cx - r, 0), xhi = std::min(cx + r, ncx_ - 1);
  for (int z = zlo; z <= zhi; ++z) {
    const bool z_face = (z == cz - r || z == cz + r);
    for (int y = ylo; y <= yhi; ++y) {
      if (z_face || y == cy - r || y == cy + r) {
        for (int x = xlo; x <= xhi; ++x) fn(x, y, z);
      } else if (r > 0) {
        if (cx - r >= 0) fn(cx - r, y, z);
        if (cx + r <= ncx_ - 1) fn(cx + r, y, z);
      }
    }
  }
}

double GridHashIndex::ring_bound2(const Vec3& q, int cx, int cy, int cz,
                                  int r) const {
  // Nearest face of the scanned box that still has grid cells beyond it.
  // Directions where the box is clipped at the grid edge have no unscanned
  // cells and contribute no bound.
  double d = kInf;
  if (cx + r < ncx_ - 1) d = std::min(d, origin_.x + h_.x * (cx + r + 1) - q.x);
  if (cx - r > 0) d = std::min(d, q.x - (origin_.x + h_.x * (cx - r)));
  if (cy + r < ncy_ - 1) d = std::min(d, origin_.y + h_.y * (cy + r + 1) - q.y);
  if (cy - r > 0) d = std::min(d, q.y - (origin_.y + h_.y * (cy - r)));
  if (cz + r < ncz_ - 1) d = std::min(d, origin_.z + h_.z * (cz + r + 1) - q.z);
  if (cz - r > 0) d = std::min(d, q.z - (origin_.z + h_.z * (cz - r)));
  if (d == kInf) return kInf;
  // A sample on a face can compute an ulp closer than the face (seen on
  // grid-placed lattices): shrink the bound by far more than rounding, so
  // no unscanned point is ever inside it.
  d = std::max(d * (1.0 - 1e-12) - face_slack_, 0.0);
  return d * d;
}

void GridHashIndex::knn(const Vec3& query, int k,
                        std::vector<Neighbor>& out) const {
  out.clear();
  if (points_.empty() || k <= 0) return;
  const auto cap = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(k), points_.size()));
  int cx = 0, cy = 0, cz = 0;
  home_cell(query, cx, cy, cz);
  double worst = kInf;
  const int max_r = std::max({ncx_, ncy_, ncz_});
  for (int r = 0; r <= max_r; ++r) {
    for_each_ring_cell(cx, cy, cz, r, [&](int x, int y, int z) {
      const auto c = (static_cast<std::size_t>(z) * ncy_ + y) * ncx_ + x;
      const std::uint32_t b = cell_start_[c], e = cell_start_[c + 1];
      for (std::uint32_t i = b; i < e; ++i) {
        const double dx = xs_[i] - query.x;
        const double dy = ys_[i] - query.y;
        const double dz = zs_[i] - query.z;
        const double d2 = dx * dx + dy * dy + dz * dz;
        if (d2 <= worst) worst = sorted_insert(out, cap, order_[i], d2);
      }
    });
    // Strictly below: an unscanned point exactly at the bound could tie
    // the k-th distance with a smaller index.
    if (out.size() == cap && worst < ring_bound2(query, cx, cy, cz, r)) {
      break;
    }
  }
}

struct GridHashIndex::SweepCache {
  std::uint64_t cell = ~std::uint64_t{0};  // home cell of the candidates
  int cx = 0, cy = 0, cz = 0;
  // Candidates [ring_end[r-1], ring_end[r]) are shell r's points.
  std::vector<std::size_t> ring_end;
  vf::util::AlignedVector<double> xs, ys, zs;  // candidate coordinates (SoA)
  std::vector<std::uint32_t> idx;              // candidate original indices
  vf::util::AlignedVector<double> d2;          // per-query distance scratch
};

void GridHashIndex::gather_ring(SweepCache& cache) const {
  const int r = static_cast<int>(cache.ring_end.size());
  for_each_ring_cell(cache.cx, cache.cy, cache.cz, r, [&](int x, int y,
                                                          int z) {
    const auto c = (static_cast<std::size_t>(z) * ncy_ + y) * ncx_ + x;
    const std::uint32_t b = cell_start_[c], e = cell_start_[c + 1];
    cache.xs.insert(cache.xs.end(), xs_.begin() + b, xs_.begin() + e);
    cache.ys.insert(cache.ys.end(), ys_.begin() + b, ys_.begin() + e);
    cache.zs.insert(cache.zs.end(), zs_.begin() + b, zs_.begin() + e);
    cache.idx.insert(cache.idx.end(), order_.begin() + b, order_.begin() + e);
  });
  cache.ring_end.push_back(cache.idx.size());
  cache.d2.resize(cache.idx.size());
}

void GridHashIndex::scan_cached(SweepCache& cache, const Vec3& q,
                                std::size_t k,
                                std::vector<Neighbor>& sel) const {
  // Scan shell by shell, gathering a shell the first time any query of
  // the cell needs it, until the k-th distance is strictly below the bound
  // on every unscanned point. The selection is then exactly brute force's.
  sel.clear();
  double worst = kInf;
  std::size_t begin = 0;
  for (int r = 0;; ++r) {
    if (static_cast<std::size_t>(r) == cache.ring_end.size()) {
      gather_ring(cache);
    }
    const std::size_t end = cache.ring_end[static_cast<std::size_t>(r)];
    const double* cxs = cache.xs.data();
    const double* cys = cache.ys.data();
    const double* czs = cache.zs.data();
    double* cd2 = cache.d2.data();
#pragma omp simd
    for (std::size_t i = begin; i < end; ++i) {
      const double dx = cxs[i] - q.x;
      const double dy = cys[i] - q.y;
      const double dz = czs[i] - q.z;
      cd2[i] = dx * dx + dy * dy + dz * dz;
    }
    for (std::size_t i = begin; i < end; ++i) {
      if (cd2[i] <= worst) worst = sorted_insert(sel, k, cache.idx[i], cd2[i]);
    }
    begin = end;
    const double bound = ring_bound2(q, cache.cx, cache.cy, cache.cz, r);
    if (bound == kInf || (sel.size() == k && worst < bound)) return;
  }
}

void GridHashIndex::knn_batch(const Vec3* queries, std::size_t count, int k,
                              std::uint32_t* indices, double* dist2) const {
  if (count == 0) return;
  VF_REQUIRE(k >= 1, "knn_batch: k must be >= 1");
  VF_REQUIRE(points_.size() >= static_cast<std::size_t>(k),
             "knn_batch: cloud smaller than k");
  VF_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(),
             "knn_batch: more queries than a 32-bit query number holds");
  VF_OBS_COUNT("spatial.grid_hash.batch_queries", count);
  const auto uk = static_cast<std::size_t>(k);

  // Visit the queries grouped by home cell, so each cell's shells are
  // gathered once per call. The key is (cell, query number): sorting it
  // costs O(count log count), nothing per grid cell, and keeps each cell's
  // queries in input order.
  std::vector<std::uint64_t> by_cell(count);
  for (std::size_t qi = 0; qi < count; ++qi) {
    int cx = 0, cy = 0, cz = 0;
    home_cell(queries[qi], cx, cy, cz);
    const auto cell = (static_cast<std::uint64_t>(cz) * ncy_ + cy) * ncx_ +
                      static_cast<std::uint64_t>(cx);
    by_cell[qi] = cell << 32 | qi;
  }
  std::sort(by_cell.begin(), by_cell.end());
  const auto cell_at = [&](std::size_t s) { return by_cell[s] >> 32; };

  // vf-par: disjoint-writes — each sorted entry names a distinct query and
  // writes only that query's rows of the output arrays; the sweep cache and
  // selection buffer are thread-private. Static scheduling hands each
  // thread a contiguous run of cells.
#pragma omp parallel
  {
    SweepCache cache;
    std::vector<Neighbor> sel;
#pragma omp for schedule(static)
    for (std::int64_t si = 0; si < static_cast<std::int64_t>(count); ++si) {
      const auto s = static_cast<std::size_t>(si);
      const std::uint64_t cell = cell_at(s);
      const std::size_t qi = by_cell[s] & 0xffffffffu;
      if ((s == 0 || cell_at(s - 1) != cell) &&
          (s + 1 == count || cell_at(s + 1) != cell)) {
        // The only query of its cell walks the cells in place: copying
        // shells no other query reads costs more than it saves.
        knn(queries[qi], k, sel);
      } else {
        if (cell != cache.cell) {
          cache.cell = cell;
          home_cell(queries[qi], cache.cx, cache.cy, cache.cz);
          cache.ring_end.clear();
          cache.xs.clear(); cache.ys.clear(); cache.zs.clear();
          cache.idx.clear();
        }
        scan_cached(cache, queries[qi], uk, sel);
      }
      VF_ASSERT(sel.size() == uk, "knn_batch: short row from full cloud");
      const auto row = qi * uk;
      for (std::size_t j = 0; j < uk; ++j) {
        indices[row + j] = sel[j].index;
        dist2[row + j] = sel[j].dist2;
      }
    }
  }
}

}  // namespace vf::spatial
