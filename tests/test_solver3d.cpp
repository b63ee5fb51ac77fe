#include <gtest/gtest.h>

#include "lu3d/solver3d.hpp"
#include <cmath>

#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

TEST(Solver3d, EndToEndPlanar) {
  const GridGeometry g{14, 14, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(51);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  Solver3dOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 4;
  opt.geometry = g;
  const Solver3dReport rep = solve_distributed_3d(A, b, x, opt);

  EXPECT_LT(rep.residual, 1e-12);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
  EXPECT_GT(rep.factor_time, 0);
  EXPECT_GT(rep.solve_time, 0);
  EXPECT_GT(rep.flops, 0);
  EXPECT_GT(rep.w_fact, 0);
  EXPECT_GT(rep.w_red, 0);  // Pz > 1 implies z traffic
  // Solve-phase communication is reported separately from the factor
  // phase; Pz > 1 routes solve contributions across grids (Z plane).
  EXPECT_GT(rep.w_solve_xy, 0);
  EXPECT_GT(rep.w_solve_z, 0);
  EXPECT_GT(rep.msg_solve_xy, 0);
  EXPECT_GT(rep.msg_solve_z, 0);
  EXPECT_GE(rep.mem_total, rep.mem_max);
}

TEST(Solver3d, Pz1IsPure2d) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  Solver3dOptions opt;
  opt.Px = 2;
  opt.Py = 3;
  opt.Pz = 1;
  const auto rep = solve_distributed_3d(A, b, x, opt);
  EXPECT_LT(rep.residual, 1e-13);
  EXPECT_EQ(rep.w_red, 0);
  // The solve split is reported independently of the factor phase: even
  // with w_red == 0 here, the solve's own counters are populated.
  EXPECT_GT(rep.msg_solve_xy, 0);
}

TEST(Solver3d, ReportsReplicationMemoryGrowth) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);

  Solver3dOptions o1;
  o1.Px = 4;
  o1.Py = 2;
  o1.Pz = 1;
  o1.geometry = g;
  Solver3dOptions o4 = o1;
  o4.Px = 2;
  o4.Py = 1;
  o4.Pz = 4;
  const auto r1 = solve_distributed_3d(A, b, x, o1);
  const auto r4 = solve_distributed_3d(A, b, x, o4);
  EXPECT_GT(r4.mem_total, r1.mem_total);  // replication costs memory
  EXPECT_LT(r4.w_fact, r1.w_fact);        // ...and buys XY volume
}

TEST(Solver3d, RejectsBadConfigs) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  Solver3dOptions opt;
  opt.Pz = 3;  // not a power of two
  EXPECT_THROW(solve_distributed_3d(A, b, x, opt), Error);
}

TEST(Solver3d, DistributedRefinementTightensResidual) {
  // A weak diagonal under a dominant skew-symmetric 5-point coupling: the
  // static-pivot (unpivoted) factorization suffers element growth, so
  // without refinement the solve leaves a residual far above roundoff;
  // distributed refinement must tighten it.
  const GridGeometry g{10, 10, 1};
  CooMatrix coo(100, 100);
  Rng rng(119);
  for (index_t y = 0; y < g.ny; ++y)
    for (index_t x = 0; x < g.nx; ++x) {
      const index_t v = g.vertex(x, y, 0);
      coo.add(v, v, 1e-4);
      for (const index_t u : {x + 1 < g.nx ? g.vertex(x + 1, y, 0) : -1,
                              y + 1 < g.ny ? g.vertex(x, y + 1, 0) : -1}) {
        if (u < 0) continue;
        const real_t w = rng.uniform(0.5, 1.5);
        coo.add(v, u, w);
        coo.add(u, v, -w);
      }
    }
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng xrng(121);
  std::vector<real_t> xref(n), b(n), x0(n), x2(n);
  for (auto& v : xref) v = xrng.uniform(-1, 1);
  A.spmv(xref, b);

  Solver3dOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.refinement_steps = 0;
  const auto rep0 = solve_distributed_3d(A, b, x0, opt);
  EXPECT_GT(rep0.residual, 1e-14) << "premise: the unrefined solve must "
                                     "leave a residual above roundoff";
  opt.refinement_steps = 3;
  const auto rep2 = solve_distributed_3d(A, b, x2, opt);
  EXPECT_LE(rep2.residual, rep0.residual * 1.0000001);
  EXPECT_LT(rep2.residual, 1e-12);
}

TEST(Solver3d, InSimulationDistributedAnalysis) {
  const GridGeometry g{12, 11, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(137);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  Solver3dOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.analysis = AnalysisMode::Distributed;  // analysis runs inside the machine
  opt.nd.leaf_size = 8;
  const auto rep = solve_distributed_3d(A, b, x, opt);
  EXPECT_LT(rep.residual, 1e-12);
  EXPECT_GT(rep.flops, 0);
  EXPECT_GT(rep.t_analysis, 0);
  EXPECT_GT(rep.w_analysis, 0);
  EXPECT_GT(rep.msg_analysis, 0);
  EXPECT_GE(rep.factor_time, rep.t_analysis);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
}

TEST(Solver3d, AutomaticPzSelection) {
  // Pz = 0: the driver picks a power-of-two Pz from the §IV model given
  // the total rank budget (passed as Px*Py).
  const GridGeometry g{16, 16, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  Solver3dOptions opt;
  opt.Px = 4;
  opt.Py = 8;  // total budget: 32 ranks
  opt.Pz = 0;
  opt.geometry = g;
  const auto rep = solve_distributed_3d(A, b, x, opt);
  EXPECT_LT(rep.residual, 1e-13);
  EXPECT_GT(rep.w_red, 0);  // it chose Pz > 1 for this planar problem
}

TEST(Solver3d, SingularMatrixAbortsCleanly) {
  // A numerically singular input must surface as an Error, not a hang:
  // the failing rank's exception aborts the whole simulated run. The
  // matrix is a healthy path graph plus an exactly rank-deficient 2x2
  // component [[1, 2], [2, 4]] — elimination hits an exact zero pivot.
  const index_t nn = 34;
  CooMatrix coo(nn, nn);
  for (index_t i = 0; i + 1 < nn - 2; ++i) {
    coo.add(i, i + 1, -1.0);
    coo.add(i + 1, i, -1.0);
  }
  for (index_t i = 0; i < nn - 2; ++i) coo.add(i, i, 4.0);
  coo.add(nn - 2, nn - 2, 1.0);
  coo.add(nn - 2, nn - 1, 2.0);
  coo.add(nn - 1, nn - 2, 2.0);
  coo.add(nn - 1, nn - 1, 4.0);
  const CsrMatrix A = CsrMatrix::from_coo(coo);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  Solver3dOptions opt;
  opt.Px = 2;
  opt.Py = 1;
  opt.Pz = 2;
  opt.nd.leaf_size = 4;
  // Depending on where elimination hits the zero pivot this throws from a
  // rank (propagated by run_ranks); it must never deadlock.
  EXPECT_THROW(solve_distributed_3d(A, b, x, opt), Error);
}

}  // namespace
}  // namespace slu3d
