#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>

#include "lu3d/solve3d.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using sim::MachineModel;
using sim::ProcessGrid3D;
using sim::run_ranks;

const MachineModel kModel{};

/// Full 3D pipeline: factorize with Algorithm 1, then solve directly on
/// the 3D-distributed factors; every rank must end with the solution.
void check_3d_pipeline(const CsrMatrix& A, const SeparatorTree& tree, int Px,
                       int Py, int Pz) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);
  const auto pinv = invert_permutation(tree.perm());

  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(31);
  std::vector<real_t> xref(n), b(n), pb(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv[i])] = b[i];

  const int P = Px * Py * Pz;
  std::vector<std::vector<real_t>> per_rank(static_cast<std::size_t>(P));
  run_ranks(P, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});
    std::vector<real_t> x(pb);
    solve_3d(F, world, grid, part, x);
    per_rank[static_cast<std::size_t>(world.rank())] = std::move(x);
  });

  for (int r = 0; r < P; ++r) {
    const auto& px = per_rank[static_cast<std::size_t>(r)];
    ASSERT_EQ(px.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(px[static_cast<std::size_t>(pinv[i])], xref[i], 1e-8)
          << "rank " << r << " of " << Px << "x" << Py << "x" << Pz;
  }
}

/// World rank of plane position (px, py) on grid pz.
int world_of(int Px, int Py, int pz, int px, int py) {
  return pz * Px * Py + px * Py + py;
}

/// Host-side audit of the lsum schedule: every block product is formed by
/// exactly one rank, and for every target the diagonal owner waits for
/// exactly the other ranks that form a product for it — a mismatch would
/// leave a rank blocked forever (simmpi has no deadlock detection).
void audit_lsum_plan(const BlockStructure& bs, const ForestPartition& part,
                     int Px, int Py) {
  const int P = Px * Py * part.Pz();
  std::vector<Solve3dPlan> plans;
  for (int r = 0; r < P; ++r)
    plans.push_back(make_solve3d_plan(bs, part, Px, Py, r));

  std::vector<int> l_blocks(static_cast<std::size_t>(bs.n_snodes()), 0);
  for (int c = 0; c < bs.n_snodes(); ++c)
    for (const PanelBlock& blk : bs.lpanel(c))
      ++l_blocks[static_cast<std::size_t>(blk.snode)];

  for (int t = 0; t < bs.n_snodes(); ++t) {
    const auto ut = static_cast<std::size_t>(t);
    const int owner = world_of(Px, Py, part.anchor_of(t), t % Px, t % Py);
    std::vector<int> fwd, bwd;
    int fwd_total = 0, bwd_total = 0;
    for (int r = 0; r < P; ++r) {
      const Solve3dPlan& pl = plans[static_cast<std::size_t>(r)];
      fwd_total += pl.fwd_count[ut];
      bwd_total += pl.bwd_count[ut];
      if (r == owner) continue;
      if (pl.fwd_count[ut] > 0) fwd.push_back(r);
      if (pl.bwd_count[ut] > 0) bwd.push_back(r);
      EXPECT_TRUE(pl.fwd_sources[ut].empty() && pl.bwd_sources[ut].empty())
          << "rank " << r << " is not the owner of target " << t;
    }
    const Solve3dPlan& own = plans[static_cast<std::size_t>(owner)];
    EXPECT_EQ(own.fwd_sources[ut], fwd) << "forward target " << t;
    EXPECT_EQ(own.bwd_sources[ut], bwd) << "backward target " << t;
    EXPECT_EQ(fwd_total, l_blocks[ut]) << "forward target " << t;
    EXPECT_EQ(bwd_total, static_cast<int>(bs.lpanel(t).size()))
        << "backward target " << t;
  }
}

struct Grid3dCase {
  int Px, Py, Pz;
};

class Solve3dGrids : public ::testing::TestWithParam<Grid3dCase> {};

TEST_P(Solve3dGrids, SolvesPlanarSystemEndToEnd) {
  const auto [Px, Py, Pz] = GetParam();
  const GridGeometry g{11, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_3d_pipeline(A, geometric_nd(g, {.leaf_size = 8}), Px, Py, Pz);
}

TEST_P(Solve3dGrids, LsumPlanMatchesOwnersSources) {
  const auto [Px, Py, Pz] = GetParam();
  const GridGeometry g{11, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, geometric_nd(g, {.leaf_size = 8}));
  audit_lsum_plan(bs, ForestPartition(bs, Pz), Px, Py);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, Solve3dGrids,
    ::testing::Values(Grid3dCase{1, 1, 1}, Grid3dCase{1, 1, 2},
                      Grid3dCase{2, 2, 1}, Grid3dCase{2, 2, 2},
                      Grid3dCase{1, 2, 4}, Grid3dCase{2, 1, 4},
                      Grid3dCase{2, 2, 4}, Grid3dCase{1, 1, 8}),
    [](const auto& pi) {
      return std::to_string(pi.param.Px) + "x" + std::to_string(pi.param.Py) +
             "x" + std::to_string(pi.param.Pz);
    });

// Pz = 1 is the 2D SuperLU_DIST layout, so the Solve2d cases below run
// solve_3d on a single Px x Py plane.
struct GridCase {
  int Px, Py;
};

class Solve2dGrids : public ::testing::TestWithParam<GridCase> {};

TEST_P(Solve2dGrids, SolvesPlanarSystem) {
  const auto [Px, Py] = GetParam();
  const GridGeometry g{11, 9, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 8}), Px, Py, 1);
}

INSTANTIATE_TEST_SUITE_P(GridShapes, Solve2dGrids,
                         ::testing::Values(GridCase{1, 1}, GridCase{1, 2},
                                           GridCase{2, 1}, GridCase{2, 2},
                                           GridCase{2, 3}, GridCase{3, 2},
                                           GridCase{4, 2}),
                         [](const auto& pi) {
                           return "Px" + std::to_string(pi.param.Px) + "Py" +
                                  std::to_string(pi.param.Py);
                         });

TEST(Solve2d, NonsymmetricValues) {
  const GridGeometry g{7, 8, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.4);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 6}), 2, 2, 1);
}

TEST(Solve2d, NonplanarMatrix) {
  const GridGeometry g{4, 4, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  check_3d_pipeline(A, geometric_nd(g, {.leaf_size = 8}), 2, 2, 1);
}

TEST(Solve2d, KktSystem) {
  const GridGeometry g{3, 3, 2};
  const CsrMatrix A = kkt3d(g, 3);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 8}), 3, 2, 1);
}

TEST(Solve2d, RepeatedSolvesWithSameFactors) {
  // Two back-to-back solves on one set of resident factors, in distinct
  // tag ranges; each must recover its own known solution.
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 1);
  const auto pinv = invert_permutation(tree.perm());
  const auto n = static_cast<std::size_t>(A.n_rows());

  std::vector<real_t> err(2, 1e300);
  run_ranks(4, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, 2, 2, 1);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});

    for (int rhs = 0; rhs < 2; ++rhs) {
      Rng rng(static_cast<std::uint64_t>(100 + rhs));
      std::vector<real_t> xref(n), b(n), x(n);
      for (auto& v : xref) v = rng.uniform(-1, 1);
      A.spmv(xref, b);
      for (std::size_t i = 0; i < n; ++i)
        x[static_cast<std::size_t>(pinv[i])] = b[i];
      Solve3dOptions opt;
      opt.tag_base = (1 << 24) + rhs * solve3d_tag_span(bs);
      solve_3d(F, world, grid, part, x, opt);
      if (world.rank() == 0) {
        real_t e = 0;
        for (std::size_t i = 0; i < n; ++i)
          e = std::max(e, std::abs(x[static_cast<std::size_t>(pinv[i])] -
                                   xref[i]));
        err[static_cast<std::size_t>(rhs)] = e;
      }
    }
  });
  EXPECT_LT(err[0], 1e-9);
  EXPECT_LT(err[1], 1e-9);
}

TEST(Solve3d, NonplanarSystem) {
  const GridGeometry g{4, 5, 4};
  const CsrMatrix A = grid3d_laplacian(g, Stencil3D::SevenPoint);
  check_3d_pipeline(A, geometric_nd(g, {.leaf_size = 10}), 2, 2, 2);
}

TEST(Solve3d, NonsymmetricValues) {
  const GridGeometry g{9, 7, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.5);
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 8}), 2, 1, 2);
}

/// Two disconnected 25-vertex chains: general ND on them produces empty
/// separator supernodes.
CsrMatrix two_chains() {
  CooMatrix coo(50, 50);
  for (index_t comp = 0; comp < 2; ++comp) {
    const index_t off = comp * 25;
    for (index_t i = 0; i < 24; ++i) {
      coo.add(off + i, off + i + 1, -1.0);
      coo.add(off + i + 1, off + i, -1.0);
    }
  }
  for (index_t i = 0; i < 50; ++i) coo.add(i, i, 4.0);
  return CsrMatrix::from_coo(coo);
}

TEST(Solve3d, GeneralNdWithEmptySeparators) {
  // The solve must skip the empty separator supernodes cleanly.
  const CsrMatrix A = two_chains();
  check_3d_pipeline(A, nested_dissection(A, {.leaf_size = 4}), 1, 2, 2);
}

TEST(Solve3d, LsumPlanMatchesOwnersSourcesOn2x1x2AndEmptySeparators) {
  {
    const GridGeometry g{9, 7, 1};
    const CsrMatrix A = grid2d_convection_diffusion(g, 0.5);
    const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 8}));
    audit_lsum_plan(bs, ForestPartition(bs, 2), 2, 1);
  }
  const CsrMatrix A = two_chains();
  const BlockStructure bs(A, nested_dissection(A, {.leaf_size = 4}));
  audit_lsum_plan(bs, ForestPartition(bs, 2), 1, 2);
}

TEST(Solve3d, LsumSendsOneMessagePerRemoteSourceAndNoneToSelf) {
  // On the benchmark's 2x1x2 shape, a solve sends one contribution message
  // per (target, remote rank holding one of its blocks) and none to
  // itself. Everything else the solve sends is a binomial-tree collective
  // (size - 1 messages each), counted here from the schedule.
  const GridGeometry g{11, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const int Px = 2, Py = 1, Pz = 2, P = Px * Py * Pz;
  const ForestPartition part(bs, Pz);

  offset_t contributions = 0, collectives = 3 * (P - 1);  // final allgatherv
  for (int t = 0; t < bs.n_snodes(); ++t) {
    const int owner = world_of(Px, Py, part.anchor_of(t), t % Px, t % Py);
    std::set<int> fwd, bwd;
    // L(t, c) lives at (anchor(c), t%Px, c%Py); U(t, a) at
    // (anchor(t), t%Px, a%Py).
    for (int c = 0; c < t; ++c)
      for (const PanelBlock& blk : bs.lpanel(c))
        if (blk.snode == t)
          fwd.insert(world_of(Px, Py, part.anchor_of(c), t % Px, c % Py));
    for (const PanelBlock& blk : bs.lpanel(t))
      bwd.insert(world_of(Px, Py, part.anchor_of(t), t % Px, blk.snode % Py));
    fwd.erase(owner);
    bwd.erase(owner);
    contributions += static_cast<offset_t>(fwd.size() + bwd.size());
    if (bs.snode_size(t) == 0) continue;
    // Forward: y_t down the anchor grid's process column. Backward: x_t
    // along z over t's replication group, then down each grid's column.
    const int group = part.group_size(t);
    collectives += (Px - 1) + (group - 1) + group * (Px - 1);
  }
  ASSERT_GT(contributions, 0);

  std::vector<real_t> B(static_cast<std::size_t>(A.n_rows()), 1.0);
  std::vector<offset_t> msgs(static_cast<std::size_t>(P), 0);
  std::vector<double> solve_start(static_cast<std::size_t>(P), 0.0);
  sim::RunOptions ropt;
  ropt.trace = true;
  const sim::RunResult res = run_ranks(
      P, kModel,
      [&](sim::Comm& world) {
        auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
        Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
        factorize_3d(F, grid, part, {});
        const auto r = static_cast<std::size_t>(world.rank());
        const sim::RankStats pre = world.stats();
        solve_start[r] = world.clock();
        std::vector<real_t> x(B);
        solve_3d(F, world, grid, part, x);
        const sim::RankStats post = world.stats();
        msgs[r] = post.messages_sent[0] + post.messages_sent[1] -
                  pre.messages_sent[0] - pre.messages_sent[1];
      },
      ropt);

  offset_t total = 0;
  for (offset_t m : msgs) total += m;
  EXPECT_EQ(total, contributions + collectives);
  // The solve's sends are the trace's Send events from its start clock on.
  int self_sends = 0;
  for (int r = 0; r < P; ++r)
    for (const sim::TraceEvent& ev : res.traces[static_cast<std::size_t>(r)])
      self_sends += ev.kind == sim::TraceEvent::Kind::Send && ev.peer == r &&
                    ev.t0 >= solve_start[static_cast<std::size_t>(r)];
  EXPECT_EQ(self_sends, 0);
}

/// One nrhs-wide sweep must produce exactly the columns that nrhs
/// independent single-RHS solves produce: per-column accumulation order in
/// the panel kernels does not depend on the panel width, so the comparison
/// is bitwise. The sequential solves run back-to-back on the same resident
/// factors with tag bases advanced by solve3d_tag_span — the tag-collision
/// regression for queued solves on one grid — and each must recover its
/// column of the known solution.
void check_batched_matches_sequential(const CsrMatrix& A,
                                      const SeparatorTree& tree, int Pz,
                                      index_t nrhs, std::uint64_t seed) {
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, Pz);
  const auto n = static_cast<std::size_t>(A.n_rows());
  const int Px = 2, Py = 2;

  Rng rng(seed);
  std::vector<real_t> X(n * static_cast<std::size_t>(nrhs)), B(X.size());
  for (auto& v : X) v = rng.uniform(-1, 1);
  for (index_t j = 0; j < nrhs; ++j) {
    const auto off = static_cast<std::size_t>(j) * n;
    Ap.spmv(std::span<const real_t>(X).subspan(off, n),
            std::span<real_t>(B).subspan(off, n));
  }

  std::vector<real_t> batched, seq;
  run_ranks(Px * Py * Pz, kModel, [&](sim::Comm& world) {
    auto grid = ProcessGrid3D::create(world, Px, Py, Pz);
    Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
    factorize_3d(F, grid, part, {});

    std::vector<real_t> xp(B);
    Solve3dOptions bopt;
    bopt.nrhs = nrhs;
    solve_3d(F, world, grid, part, xp, bopt);

    std::vector<real_t> xs(B);
    for (index_t j = 0; j < nrhs; ++j) {
      Solve3dOptions sopt;
      sopt.tag_base = (1 << 24) + (j + 1) * solve3d_tag_span(bs);
      const auto off = static_cast<std::size_t>(j) * n;
      solve_3d(F, world, grid, part, std::span<real_t>(xs).subspan(off, n),
               sopt);
    }
    if (world.rank() == 0) {
      batched = xp;
      seq = xs;
    }
  });

  ASSERT_EQ(batched.size(), seq.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], seq[i]) << "Pz " << Pz << " panel entry " << i;
    EXPECT_NEAR(seq[i], X[i], 1e-9) << "Pz " << Pz << " panel entry " << i;
  }
}

TEST(Solve3d, BatchedPanelBitwiseMatchesSequentialSolves) {
  const GridGeometry g{11, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_batched_matches_sequential(A, geometric_nd(g, {.leaf_size = 8}), 2, 4,
                                   93);
}

TEST(Solve2d, BatchedPanelBitwiseMatchesSequentialSolves) {
  const GridGeometry g{10, 9, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  check_batched_matches_sequential(A, nested_dissection(A, {.leaf_size = 8}),
                                   1, 3, 57);
}

TEST(Solve3d, BatchedMessageCountIndependentOfNrhs) {
  // The point of batching: solve-phase message *counts* do not grow with
  // the panel width (sizes do).
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = geometric_nd(g, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  const ForestPartition part(bs, 2);
  const auto n = static_cast<std::size_t>(A.n_rows());

  auto solve_messages = [&](index_t nrhs) {
    std::vector<real_t> B(n * static_cast<std::size_t>(nrhs), 1.0);
    std::vector<offset_t> msgs(8, 0);
    run_ranks(8, kModel, [&](sim::Comm& world) {
      auto grid = ProcessGrid3D::create(world, 2, 2, 2);
      Dist2dFactors F = make_3d_factors(bs, grid, part, Ap);
      factorize_3d(F, grid, part, {});
      const sim::RankStats pre = world.stats();
      std::vector<real_t> x(B);
      Solve3dOptions opt;
      opt.nrhs = nrhs;
      solve_3d(F, world, grid, part, x, opt);
      const sim::RankStats post = world.stats();
      msgs[static_cast<std::size_t>(world.rank())] =
          post.messages_sent[0] + post.messages_sent[1] -
          pre.messages_sent[0] - pre.messages_sent[1];
    });
    offset_t total = 0;
    for (offset_t m : msgs) total += m;
    return total;
  };

  const offset_t one = solve_messages(1);
  const offset_t sixteen = solve_messages(16);
  EXPECT_GT(one, 0);
  EXPECT_EQ(one, sixteen);
}

}  // namespace
}  // namespace slu3d
