// Randomized property tests: random sparse matrices, random orderings,
// random process-grid shapes — every configuration must produce factors
// identical to the sequential reference and machine-precision solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>

#include "lu3d/factor3d.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

/// Random sparse matrix with symmetric pattern, (possibly) nonsymmetric
/// values, strict diagonal dominance, and a connected-ish structure:
/// a random spanning path plus `extra` random edges.
CsrMatrix random_matrix(index_t n, index_t extra, std::uint64_t seed,
                        bool symmetric_values) {
  Rng rng(seed);
  CooMatrix coo(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 0.0);
  auto add_pair = [&](index_t u, index_t v) {
    if (u == v) return;
    const real_t a = rng.uniform(-1.0, 1.0);
    const real_t b = symmetric_values ? a : rng.uniform(-1.0, 1.0);
    coo.add(u, v, a);
    coo.add(v, u, b);
    diag[static_cast<std::size_t>(u)] += std::abs(a);
    diag[static_cast<std::size_t>(v)] += std::abs(b);
  };
  // Random spanning path over a shuffled vertex order.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  for (index_t i = n - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.next_index(i + 1))]);
  for (index_t i = 0; i + 1 < n; ++i)
    add_pair(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(i + 1)]);
  for (index_t e = 0; e < extra; ++e)
    add_pair(rng.next_index(n), rng.next_index(n));
  for (index_t i = 0; i < n; ++i)
    coo.add(i, i, diag[static_cast<std::size_t>(i)] * 1.1 + 0.5);
  return CsrMatrix::from_coo(coo);
}

class RandomMatrixFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomMatrixFuzz, SequentialFactorReconstructs) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 1000 + 1);
  const index_t n = 30 + rng.next_index(60);
  const CsrMatrix A = random_matrix(n, n, seed, (seed % 2) == 0);
  const index_t leaf = 4 + rng.next_index(12);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = leaf});
  ASSERT_TRUE(is_permutation(tree.perm()));
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      const index_t kmax = std::min(i, j);
      for (index_t k = 0; k <= kmax; ++k)
        acc += F.l_entry(i, k) * F.u_entry(k, j);
      ASSERT_NEAR(acc, Ap.at(i, j), 1e-8)
          << "seed " << seed << " at (" << i << "," << j << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatrixFuzz, ::testing::Range(0, 12));

class RandomPipelineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineFuzz, Distributed3dSolvesRandomSystem) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 7919 + 13);
  const index_t n = 40 + rng.next_index(80);
  const CsrMatrix A = random_matrix(n, 2 * n, seed + 100, false);

  service::ServiceOptions opt;
  const int shapes[][3] = {{1, 1, 2}, {2, 1, 2}, {1, 2, 4}, {2, 2, 1},
                           {2, 2, 2}, {1, 3, 2}, {3, 1, 1}, {2, 3, 1}};
  const auto& s = shapes[seed % 8];
  opt.Px = s[0];
  opt.Py = s[1];
  opt.Pz = s[2];
  opt.nd.leaf_size = 4 + rng.next_index(10);
  opt.lu3d.lu2d.lookahead = static_cast<int>(rng.next_index(12));

  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> xref(nu), b(nu), x(nu);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  service::SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-11) << "seed " << seed;
  for (std::size_t i = 0; i < nu; ++i)
    ASSERT_NEAR(x[i], xref[i], 1e-6) << "seed " << seed << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineFuzz, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// Sparse (targeted) panel packing alone, z-reduction left Dense, under
// randomized sparsity patterns: every random matrix/shape/lookahead draw
// must solve to the bit-identical answer with PanelPacking::Targeted as
// with Dense — the wire format is not allowed to touch the numbers,
// whatever presence pattern the panels happen to have.
// ---------------------------------------------------------------------------

class RandomPackingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomPackingFuzz, SparsePanelPackingSolvesBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 6271 + 31);
  const index_t n = 40 + rng.next_index(80);
  // Vary density across seeds: sparse path-like graphs up to near-dense
  // blocks, so panels range from mostly-zero to fully populated.
  const index_t extra = n / 2 + rng.next_index(3 * n);
  const CsrMatrix A = random_matrix(n, extra, seed + 500, (seed % 3) == 0);

  service::ServiceOptions opt;
  const int shapes[][3] = {{2, 2, 1}, {2, 1, 2}, {1, 2, 4}, {2, 2, 2},
                           {1, 3, 2}, {2, 3, 1}};
  const auto& s = shapes[seed % 6];
  opt.Px = s[0];
  opt.Py = s[1];
  opt.Pz = s[2];
  opt.nd.leaf_size = 4 + rng.next_index(10);
  opt.lu3d.lu2d.lookahead = static_cast<int>(rng.next_index(12));
  opt.lu3d.lu2d.async = (seed % 2) == 0;

  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> xref(nu), b(nu), xd(nu), xs(nu);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Dense;
  service::SolverService dense(opt);
  const auto fd = dense.factor(A);
  const auto repd = dense.solve({b, xd, 1});
  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Targeted;
  service::SolverService sparse(opt);
  const auto fs = sparse.factor(A);
  const auto reps = sparse.solve({b, xs, 1});

  EXPECT_LT(repd.residual, 1e-11) << "seed " << seed;
  EXPECT_LT(reps.residual, 1e-11) << "seed " << seed;
  for (std::size_t i = 0; i < nu; ++i)
    ASSERT_EQ(xd[i], xs[i]) << "seed " << seed << " i=" << i;
  // Packing may only remove bytes from the XY factor volume.
  EXPECT_LE(fs.w_fact, fd.w_fact) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPackingFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Targeted one-sided delivery under the same randomized-density regime:
// whatever footprint the symbolic structure implies for each receiver, the
// put-based wire on both planes must solve bit-identically to the dense
// broadcasts, and the XY factor volume may only shrink.
// ---------------------------------------------------------------------------

class RandomTargetedDeliveryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomTargetedDeliveryFuzz, TargetedDeliverySolvesBitIdentical) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 9173 + 47);
  const index_t n = 40 + rng.next_index(80);
  const index_t extra = n / 2 + rng.next_index(3 * n);
  const CsrMatrix A = random_matrix(n, extra, seed + 900, (seed % 3) == 0);

  service::ServiceOptions opt;
  const int shapes[][3] = {{2, 2, 1}, {2, 1, 2}, {1, 2, 4}, {2, 2, 2},
                           {1, 3, 2}, {2, 3, 1}};
  const auto& s = shapes[seed % 6];
  opt.Px = s[0];
  opt.Py = s[1];
  opt.Pz = s[2];
  opt.nd.leaf_size = 4 + rng.next_index(10);
  opt.lu3d.lu2d.lookahead = static_cast<int>(rng.next_index(12));
  opt.lu3d.lu2d.async = (seed % 2) == 0;
  opt.lu3d.async = (seed % 2) == 0;
  opt.lu3d.chunk_snodes = 1 + static_cast<int>(rng.next_index(3));

  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> xref(nu), b(nu), xd(nu), xt(nu);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Dense;
  opt.lu3d.packing = pipeline::ZRedPacking::Dense;
  service::SolverService dense(opt);
  const auto fd = dense.factor(A);
  const auto repd = dense.solve({b, xd, 1});
  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Targeted;
  opt.lu3d.packing = pipeline::ZRedPacking::Targeted;
  service::SolverService targeted(opt);
  const auto ft = targeted.factor(A);
  const auto rept = targeted.solve({b, xt, 1});

  EXPECT_LT(repd.residual, 1e-11) << "seed " << seed;
  EXPECT_LT(rept.residual, 1e-11) << "seed " << seed;
  for (std::size_t i = 0; i < nu; ++i)
    ASSERT_EQ(xd[i], xt[i]) << "seed " << seed << " i=" << i;
  EXPECT_LE(ft.w_fact, fd.w_fact) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTargetedDeliveryFuzz,
                         ::testing::Range(0, 12));

TEST(Fuzz, FullyDensePanelsSurviveSparsePacking) {
  // Near-dense matrix: presence bitmaps are (almost) all ones, the degenerate
  // end of the targeted wire format. Must stay bit-identical to the dense
  // wire.
  const index_t n = 36;
  const CsrMatrix A = random_matrix(n, n * n, 4242, false);
  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> b(nu, 1.0), xd(nu), xs(nu);
  service::ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 1;
  opt.nd.leaf_size = 6;
  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Dense;
  service::SolverService dense(opt);
  dense.factor(A);
  const auto repd = dense.solve({b, xd, 1});
  opt.lu3d.lu2d.packing = pipeline::PanelPacking::Targeted;
  service::SolverService sparse(opt);
  sparse.factor(A);
  const auto reps = sparse.solve({b, xs, 1});
  EXPECT_LT(repd.residual, 1e-12);
  EXPECT_LT(reps.residual, 1e-12);
  for (std::size_t i = 0; i < nu; ++i) ASSERT_EQ(xd[i], xs[i]) << "i=" << i;
}

TEST(Fuzz, AllZeroAncestorPanelsArePrunedWholesale) {
  // Two path islands coupled to a bridge clique only through *explicit
  // zeros*: the entries exist structurally (so the separator panels are
  // allocated and broadcast) but every value in them is 0.0 for the whole
  // factorization. The targeted wire carries such panels as presence
  // bitmaps with no scalars behind them, and the factors must stay
  // bit-identical to the dense wire.
  const index_t m = 12, nb = 4;
  const index_t n = 2 * m + nb;
  CooMatrix coo(n, n);
  auto path = [&](index_t base) {
    for (index_t i = 0; i + 1 < m; ++i) {
      coo.add(base + i, base + i + 1, -1.0);
      coo.add(base + i + 1, base + i, -1.0);
    }
  };
  path(0);
  path(m);
  for (index_t i = 0; i < nb; ++i)  // bridge clique, nonzero internally
    for (index_t j = 0; j < nb; ++j)
      if (i != j) coo.add(2 * m + i, 2 * m + j, -0.5);
  for (index_t i = 0; i < m; i += 2)
    for (index_t v = 0; v < nb; ++v) {  // island <-> bridge: explicit zeros
      coo.add(i, 2 * m + v, 0.0);
      coo.add(2 * m + v, i, 0.0);
      coo.add(m + i, 2 * m + v, 0.0);
      coo.add(2 * m + v, m + i, 0.0);
    }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 4});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);

  auto run = [&](pipeline::PanelPacking packing, SupernodalMatrix* out) {
    Lu3dOptions o;
    o.lu2d.packing = packing;
    std::mutex mu;
    return sim::run_ranks(4, sim::MachineModel{}, [&](sim::Comm& world) {
      auto grid = sim::ProcessGrid3D::create(world, 2, 2, 1);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      factorize_3d(F, grid, part, o);
      auto full = gather_3d_to_root(F, world, grid, part);
      if (full.has_value()) {
        const std::lock_guard<std::mutex> lock(mu);
        *out = std::move(*full);
      }
    });
  };
  SupernodalMatrix fd(bs), fs(bs);
  run(pipeline::PanelPacking::Dense, &fd);
  const sim::RunResult rs = run(pipeline::PanelPacking::Targeted, &fs);

  for (int s = 0; s < bs.n_snodes(); ++s) {
    const auto a = fd.lpanel(s), b2 = fs.lpanel(s);
    ASSERT_EQ(a.size(), b2.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_EQ(a[i], b2[i]) << "L snode " << s << " idx " << i;
    const auto u = fd.upanel(s), u2 = fs.upanel(s);
    for (std::size_t i = 0; i < u.size(); ++i)
      ASSERT_EQ(u[i], u2[i]) << "U snode " << s << " idx " << i;
  }
  EXPECT_GT(rs.total_panel_saved_bytes(), 0);
}

TEST(Fuzz, DenseLeafMatrixSingleSupernode) {
  // Matrix small enough to be one relaxed leaf: the whole pipeline
  // degenerates to a dense factorization.
  const CsrMatrix A = random_matrix(12, 40, 77, false);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 64});
  EXPECT_EQ(tree.n_nodes(), 1);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  service::ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 1;
  opt.nd.leaf_size = 64;
  service::SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-12);
}

TEST(Fuzz, PathGraphDeepTree) {
  // A pure path graph: the worst-case (deepest) elimination tree shape.
  const index_t n = 120;
  CooMatrix coo(n, n);
  for (index_t i = 0; i + 1 < n; ++i) {
    coo.add(i, i + 1, -1.0);
    coo.add(i + 1, i, -1.0);
  }
  for (index_t i = 0; i < n; ++i) coo.add(i, i, 2.5);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto nu = static_cast<std::size_t>(n);
  std::vector<real_t> b(nu, 1.0), x(nu);
  service::ServiceOptions opt;
  opt.Px = 1;
  opt.Py = 2;
  opt.Pz = 4;
  opt.nd.leaf_size = 4;
  service::SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-13);
}

TEST(Fuzz, ManyIslandsForestPartition) {
  // Heavily disconnected input: exercises empty separators and the
  // component-balancing path of the partitioner at every level.
  const index_t k = 14, m = 9;  // 14 path islands of 9 vertices
  CooMatrix coo(k * m, k * m);
  for (index_t c = 0; c < k; ++c)
    for (index_t i = 0; i + 1 < m; ++i) {
      coo.add(c * m + i, c * m + i + 1, -1.0);
      coo.add(c * m + i + 1, c * m + i, -1.0);
    }
  for (index_t i = 0; i < k * m; ++i) coo.add(i, i, 3.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto nu = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(nu, 1.0), x(nu);
  service::ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 4;
  opt.nd.leaf_size = 4;
  service::SolverService svc(opt);
  svc.factor(A);
  const auto rep = svc.solve({b, x, 1});
  EXPECT_LT(rep.residual, 1e-13);
}

}  // namespace
}  // namespace slu3d
