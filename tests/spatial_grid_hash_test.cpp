// GridHashIndex: the bucketed-cell index must return exactly the same
// k-NN sets as brute force on every cloud shape that stresses its cell
// geometry — uniform, clustered, degenerate (planar / collinear /
// duplicated), anisotropic, and grid-aligned — and its batched sweep path
// must agree with its single-query path, with ties in brute force's order
// whatever else shares a batch. Also covers the NeighborIndex factory and
// the Auto selection policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "vf/spatial/brute_force.hpp"
#include "vf/spatial/grid_hash.hpp"
#include "vf/spatial/kdtree.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::field::Vec3;
using vf::spatial::brute_force_knn;
using vf::spatial::GridHashIndex;
using vf::spatial::IndexKind;
using vf::spatial::KdTree;
using vf::spatial::Neighbor;

std::vector<Vec3> random_cloud(std::size_t n, std::uint64_t seed,
                               double aniso_z = 1.0) {
  vf::util::Rng rng(seed);
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10),
                   rng.uniform(0, 10 * aniso_z)});
  }
  return pts;
}

/// Tight gaussian blobs: most cells empty, a few crowded far past the
/// average bucket occupancy.
std::vector<Vec3> clustered_cloud(std::size_t n, std::uint64_t seed) {
  vf::util::Rng rng(seed);
  std::vector<Vec3> centers;
  for (int c = 0; c < 5; ++c) {
    centers.push_back(
        {rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)});
  }
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3& c = centers[i % centers.size()];
    pts.push_back({c.x + rng.uniform(-0.08, 0.08),
                   c.y + rng.uniform(-0.08, 0.08),
                   c.z + rng.uniform(-0.08, 0.08)});
  }
  return pts;
}

void expect_matches_brute_force(const vf::spatial::NeighborIndex& index,
                                const std::vector<Vec3>& pts,
                                const Vec3& query, int k) {
  auto got = index.knn(query, k);
  auto want = brute_force_knn(pts, query, k);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Distances must agree exactly; indices may differ only on exact ties.
    ASSERT_DOUBLE_EQ(got[i].dist2, want[i].dist2)
        << "rank " << i << " at query (" << query.x << ", " << query.y
        << ", " << query.z << ")";
    if (i + 1 == got.size() ||
        want[i].dist2 != want[i + 1].dist2) {
      if (i == 0 || want[i].dist2 != want[i - 1].dist2) {
        ASSERT_EQ(got[i].index, want[i].index);
      }
    }
  }
}

// Randomized equivalence fuzz across (cloud size, k), queries inside,
// outside, and on the hull of the cloud's bounding box.
class GridHashAgainstBruteForce
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GridHashAgainstBruteForce, MatchesReferenceOnUniformClouds) {
  auto [n, k] = GetParam();
  auto pts = random_cloud(static_cast<std::size_t>(n), 4000 + n * 13 + k);
  GridHashIndex index(pts);
  vf::util::Rng rng(91);
  for (int q = 0; q < 50; ++q) {
    Vec3 query{rng.uniform(-2, 12), rng.uniform(-2, 12), rng.uniform(-2, 12)};
    expect_matches_brute_force(index, pts, query, k);
  }
}

TEST_P(GridHashAgainstBruteForce, MatchesReferenceOnClusteredClouds) {
  auto [n, k] = GetParam();
  auto pts = clustered_cloud(static_cast<std::size_t>(n), 7100 + n + k);
  GridHashIndex index(pts);
  vf::util::Rng rng(17);
  for (int q = 0; q < 50; ++q) {
    // Half the queries land near a cluster, half in the empty space the
    // shell sweep has to cross.
    Vec3 query = q % 2 == 0 ? pts[static_cast<std::size_t>(q) % pts.size()]
                            : Vec3{rng.uniform(0, 10), rng.uniform(0, 10),
                                   rng.uniform(0, 10)};
    query.x += rng.uniform(-0.3, 0.3);
    expect_matches_brute_force(index, pts, query, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridHashAgainstBruteForce,
    ::testing::Combine(::testing::Values(6, 40, 300, 2000),
                       ::testing::Values(1, 3, 5)));

TEST(GridHash, HandlesDegeneratePlanarCloud) {
  // All z identical: the z axis collapses to one cell (inv_h = 0).
  auto pts = random_cloud(400, 42);
  for (auto& p : pts) p.z = 3.0;
  GridHashIndex index(pts);
  vf::util::Rng rng(5);
  for (int q = 0; q < 40; ++q) {
    Vec3 query{rng.uniform(-1, 11), rng.uniform(-1, 11), rng.uniform(0, 6)};
    expect_matches_brute_force(index, pts, query, 5);
  }
}

TEST(GridHash, HandlesCollinearCloud) {
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({0.05 * i, 1.0, 2.0});
  }
  GridHashIndex index(pts);
  for (int q = 0; q < 20; ++q) {
    Vec3 query{0.31 * q - 1.0, 1.0 + 0.1 * q, 2.0};
    expect_matches_brute_force(index, pts, query, 4);
  }
}

TEST(GridHash, HandlesDuplicatePoints) {
  std::vector<Vec3> pts(64, Vec3{1, 2, 3});
  pts.push_back({4, 5, 6});
  GridHashIndex index(pts);
  auto got = index.knn({1.1, 2.0, 3.0}, 5);
  ASSERT_EQ(got.size(), 5u);
  // Ties on identical points break by ascending index (the brute-force
  // contract).
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, static_cast<std::uint32_t>(i));
  }
}

TEST(GridHash, HandlesSinglePointAndTinyClouds) {
  std::vector<Vec3> one{{2, 2, 2}};
  GridHashIndex index(one);
  auto got = index.knn({0, 0, 0}, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].index, 0u);
  EXPECT_DOUBLE_EQ(got[0].dist2, 12.0);
}

TEST(GridHash, MatchesReferenceOnAnisotropicCloud) {
  // z extent 100x the x/y extent: per-axis cell sizing must not starve an
  // axis or blow up the cell count.
  auto pts = random_cloud(1500, 77, 100.0);
  GridHashIndex index(pts);
  vf::util::Rng rng(3);
  for (int q = 0; q < 40; ++q) {
    Vec3 query{rng.uniform(0, 10), rng.uniform(0, 10),
               rng.uniform(0, 1000)};
    expect_matches_brute_force(index, pts, query, 5);
  }
}

TEST(GridHash, MatchesReferenceOnGridAlignedCloud) {
  // Lattice points falling exactly on cell boundaries — the worst case for
  // any floor()-based cell assignment.
  std::vector<Vec3> pts;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      for (int z = 0; z < 8; ++z) {
        pts.push_back({1.0 * x, 1.0 * y, 1.0 * z});
      }
    }
  }
  GridHashIndex index(pts);
  for (const Vec3& query : std::vector<Vec3>{{0, 0, 0},
                                             {3.5, 3.5, 3.5},
                                             {7, 7, 7},
                                             {3, 4, 5},
                                             {-0.5, 3.0, 8.5}}) {
    expect_matches_brute_force(index, pts, query, 5);
  }
}

TEST(GridHash, BatchPathMatchesSingleQueryPath) {
  auto pts = random_cloud(3000, 11);
  GridHashIndex index(pts);
  constexpr int k = 5;

  // Grid-ordered queries (the engine workload the sweep cache serves) plus
  // a shuffled copy (cache misses on every step).
  std::vector<Vec3> queries;
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      for (int z = 0; z < 12; ++z) {
        queries.push_back({x * 0.9 - 0.3, y * 0.9 - 0.3, z * 0.9 - 0.3});
      }
    }
  }
  auto shuffled = queries;
  vf::util::Rng rng(23);
  rng.shuffle(shuffled);
  queries.insert(queries.end(), shuffled.begin(), shuffled.end());

  std::vector<std::uint32_t> indices(queries.size() * k);
  std::vector<double> dist2(queries.size() * k);
  index.knn_batch(queries.data(), queries.size(), k, indices.data(),
                  dist2.data());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    auto want = index.knn(queries[qi], k);
    ASSERT_EQ(want.size(), static_cast<std::size_t>(k));
    for (int j = 0; j < k; ++j) {
      ASSERT_DOUBLE_EQ(dist2[qi * k + j], want[static_cast<std::size_t>(j)].dist2)
          << "query " << qi << " rank " << j;
      ASSERT_EQ(indices[qi * k + j], want[static_cast<std::size_t>(j)].index)
          << "query " << qi << " rank " << j;
    }
  }
}

/// The rows of `knn_batch` over `queries`, k-wide.
struct BatchRows {
  std::vector<std::uint32_t> indices;
  std::vector<double> dist2;
};

BatchRows batch_rows(const GridHashIndex& index,
                     const std::vector<Vec3>& queries, int k) {
  const std::size_t n = queries.size() * static_cast<std::size_t>(k);
  BatchRows rows{std::vector<std::uint32_t>(n), std::vector<double>(n)};
  index.knn_batch(queries.data(), queries.size(), k, rows.indices.data(),
                  rows.dist2.data());
  return rows;
}

/// Whether row `a` of `x` and row `b` of `y` hold the same (index, dist2)
/// sequence, bit for bit.
bool same_row(const BatchRows& x, std::size_t a, const BatchRows& y,
              std::size_t b, int k) {
  const auto uk = static_cast<std::size_t>(k);
  return std::equal(x.indices.begin() + static_cast<std::ptrdiff_t>(a * uk),
                    x.indices.begin() + static_cast<std::ptrdiff_t>(a * uk + uk),
                    y.indices.begin() + static_cast<std::ptrdiff_t>(b * uk)) &&
         std::equal(x.dist2.begin() + static_cast<std::ptrdiff_t>(a * uk),
                    x.dist2.begin() + static_cast<std::ptrdiff_t>(a * uk + uk),
                    y.dist2.begin() + static_cast<std::ptrdiff_t>(b * uk));
}

TEST(GridHash, LatticeTiesFollowBruteForceOrderInAnyBatch) {
  // A lattice of spacing 0.5 is exact in binary, so equidistant samples tie
  // exactly and cell faces can pass through lattice points. Every batch row
  // must be brute force's (distance, index) order, and a query's row must
  // not depend on which other queries share its batch: the cell-grouped
  // sweep reuses each cell's gathered shells for all of that cell's
  // queries, and its ring walk stops only when the k-th distance is
  // strictly below the unscanned bound.
  for (std::uint64_t seed = 101; seed < 141; ++seed) {
    vf::util::Rng rng(seed);
    const int nx = 12 + static_cast<int>(rng.below(5));
    const int ny = 10 + static_cast<int>(rng.below(3));
    const int nz = 6 + static_cast<int>(rng.below(4));
    for (const double keep : {0.05, 0.2}) {
      std::vector<Vec3> samples, queries;
      for (int z = 0; z < nz; ++z) {
        for (int y = 0; y < ny; ++y) {
          for (int x = 0; x < nx; ++x) {
            const Vec3 p{0.5 * x, 0.5 * y, 0.5 * z};
            (rng.uniform(0, 1) < keep ? samples : queries).push_back(p);
          }
        }
      }
      if (samples.size() < 8) continue;
      const GridHashIndex index(samples);
      for (const int k : {5, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", " << nx << "x" << ny << "x"
                     << nz << ", " << keep * 100 << " % kept, k " << k);
        const auto uk = static_cast<std::size_t>(k);
        const BatchRows full = batch_rows(index, queries, k);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const auto want = brute_force_knn(samples, queries[q], k);
          for (std::size_t j = 0; j < uk; ++j) {
            ASSERT_EQ(full.indices[q * uk + j], want[j].index)
                << "query (" << queries[q].x << ", " << queries[q].y << ", "
                << queries[q].z << ") rank " << j;
            ASSERT_EQ(full.dist2[q * uk + j], want[j].dist2);
          }
        }

        // A shuffled third of the queries in one batch.
        std::vector<std::size_t> order(queries.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
        order.resize(order.size() / 3);
        std::vector<Vec3> subset;
        for (const std::size_t q : order) subset.push_back(queries[q]);
        const BatchRows part = batch_rows(index, subset, k);
        for (std::size_t i = 0; i < order.size(); ++i) {
          ASSERT_TRUE(same_row(part, i, full, order[i], k))
              << "subset row " << i;
        }

        // Serve-sized batches of 1-4 queries, in sweep order.
        for (std::size_t b = 0; b < queries.size();) {
          const std::size_t n =
              std::min<std::size_t>(1 + rng.below(4), queries.size() - b);
          const std::vector<Vec3> small(
              queries.begin() + static_cast<std::ptrdiff_t>(b),
              queries.begin() + static_cast<std::ptrdiff_t>(b + n));
          const BatchRows rows = batch_rows(index, small, k);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(same_row(rows, i, full, b + i, k))
                << "query " << b + i << " in a batch of " << n;
          }
          b += n;
        }
      }
    }
  }
}

TEST(GridHash, GridPlacedLatticeRowsFollowBruteForce) {
  // Samples placed as UniformGrid3 places grid points, origin + i * spacing
  // with a spacing binary cannot hold: a cell face then meets a lattice
  // plane only up to rounding, and a sample on the face can compute one ulp
  // closer than the face's own distance. Seeds 75 and 196 of this
  // generator each hold such a sample (found by searching seeds 1-200);
  // without the rounding margin on the unscanned bound, both knn and
  // knn_batch stop before reaching it.
  for (const std::uint64_t seed : {75u, 196u}) {
    vf::util::Rng rng(seed);
    const int nx = 12 + static_cast<int>(rng.below(21));
    const int ny = 10 + static_cast<int>(rng.below(23));
    const int nz = 4 + static_cast<int>(rng.below(13));
    const double ox = rng.below(2) != 0 ? 0.0 : -0.5;
    const double oz = rng.below(2) != 0 ? 0.0 : 1.0;
    const vf::field::UniformGrid3 grid(
        {nx, ny, nz}, {ox, 0.0, oz},
        {1.0 / (nx - 1), 1.0 / (ny - 1), 1.0 / (nz - 1)});
    for (const double keep : {0.01, 0.05, 0.2}) {
      std::vector<Vec3> samples, queries;
      for (std::int64_t g = 0; g < grid.point_count(); ++g) {
        (rng.uniform(0, 1) < keep ? samples : queries)
            .push_back(grid.position(g));
      }
      if (samples.size() < 8) continue;
      const GridHashIndex index(samples);
      for (const int k : {5, 8}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << ", " << keep * 100
                     << " % kept, k " << k);
        const auto uk = static_cast<std::size_t>(k);
        const BatchRows rows = batch_rows(index, queries, k);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          const auto want = brute_force_knn(samples, queries[q], k);
          const auto one = index.knn(queries[q], k);
          for (std::size_t j = 0; j < uk; ++j) {
            ASSERT_EQ(rows.indices[q * uk + j], want[j].index)
                << "batch row " << q << " rank " << j;
            ASSERT_EQ(one[j].index, want[j].index)
                << "query " << q << " rank " << j;
          }
        }
      }
    }
  }
}

TEST(GridHash, KdTreeBatchMatchesGridHashBatch) {
  auto pts = clustered_cloud(2000, 99);
  GridHashIndex grid(pts);
  KdTree tree(pts);
  constexpr int k = 5;
  auto queries = random_cloud(500, 31);
  std::vector<std::uint32_t> gi(queries.size() * k), ti(queries.size() * k);
  std::vector<double> gd(queries.size() * k), td(queries.size() * k);
  grid.knn_batch(queries.data(), queries.size(), k, gi.data(), gd.data());
  tree.knn_batch(queries.data(), queries.size(), k, ti.data(), td.data());
  for (std::size_t i = 0; i < gd.size(); ++i) {
    ASSERT_DOUBLE_EQ(gd[i], td[i]) << "flat slot " << i;
  }
}

TEST(NeighborIndexFactory, BuildsRequestedKind) {
  auto pts = random_cloud(100, 1);
  auto kd = vf::spatial::build_index(pts, IndexKind::KdTree);
  auto gh = vf::spatial::build_index(pts, IndexKind::GridHash);
  EXPECT_STREQ(kd->kind_name(), "kdtree");
  EXPECT_STREQ(gh->kind_name(), "grid_hash");
  EXPECT_EQ(kd->size(), pts.size());
  EXPECT_EQ(gh->size(), pts.size());
}

TEST(NeighborIndexFactory, AutoSelectsByQueryDensity) {
  // Dense sweep (queries >> points): grid-hash. Sparse probe: k-d tree.
  EXPECT_EQ(vf::spatial::select_index_kind(10000, 1000000),
            IndexKind::GridHash);
  EXPECT_EQ(vf::spatial::select_index_kind(10000, 64), IndexKind::KdTree);

  auto pts = random_cloud(200, 8);
  auto dense = vf::spatial::build_index(pts, IndexKind::Auto, 100000);
  auto sparse = vf::spatial::build_index(pts, IndexKind::Auto, 3);
  EXPECT_STREQ(dense->kind_name(), "grid_hash");
  EXPECT_STREQ(sparse->kind_name(), "kdtree");
}

TEST(NeighborIndexFactory, KindNamesRoundTrip) {
  using vf::spatial::index_kind_from_name;
  EXPECT_EQ(index_kind_from_name("auto"), IndexKind::Auto);
  EXPECT_EQ(index_kind_from_name("kdtree"), IndexKind::KdTree);
  EXPECT_EQ(index_kind_from_name("grid_hash"), IndexKind::GridHash);
  EXPECT_THROW((void)index_kind_from_name("octree"), std::invalid_argument);
}

}  // namespace
