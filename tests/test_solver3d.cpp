// End-to-end distributed runs through the one request path: a
// SolverService factors the matrix (ordering, symbolic analysis, forest
// partition, Algorithm 1) and then serves a 3D triangular solve, each phase
// with its own report.
#include <gtest/gtest.h>

#include <cmath>

#include "service/solver_service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

using service::ServiceOptions;
using service::SolverService;

TEST(Solver3d, EndToEndPlanar) {
  const GridGeometry g{14, 14, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(51);
  std::vector<real_t> xref(n), b(n), x(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 4;
  opt.geometry = g;
  SolverService svc(opt);
  const service::FactorReport fr = svc.factor(A);
  const service::SolveReport sr = svc.solve({b, x, 1});

  EXPECT_LT(sr.residual, 1e-12);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
  EXPECT_GT(fr.factor_time, 0);
  EXPECT_GT(sr.solve_time, 0);
  EXPECT_GT(fr.flops, 0);
  EXPECT_GT(fr.w_fact, 0);
  EXPECT_GT(fr.w_red, 0);  // Pz > 1 implies z traffic
  // Solve-phase communication is reported separately from the factor
  // phase; Pz > 1 routes solve contributions across grids (Z plane).
  EXPECT_GT(sr.w_solve_xy, 0);
  EXPECT_GT(sr.w_solve_z, 0);
  EXPECT_GT(sr.msg_solve_xy, 0);
  EXPECT_GT(sr.msg_solve_z, 0);
  EXPECT_GE(fr.mem_total, fr.mem_max);
}

TEST(Solver3d, Pz1IsPure2d) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 3;
  opt.Pz = 1;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});
  EXPECT_LT(sr.residual, 1e-13);
  EXPECT_EQ(fr.w_red, 0);
  // The solve split is reported independently of the factor phase: even
  // with w_red == 0 here, the solve's own counters are populated.
  EXPECT_GT(sr.msg_solve_xy, 0);
}

TEST(Solver3d, ReportsReplicationMemoryGrowth) {
  const GridGeometry g{12, 12, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);

  ServiceOptions o1;
  o1.Px = 4;
  o1.Py = 2;
  o1.Pz = 1;
  o1.geometry = g;
  ServiceOptions o4 = o1;
  o4.Px = 2;
  o4.Py = 1;
  o4.Pz = 4;
  SolverService s1(o1), s4(o4);
  const auto r1 = s1.factor(A);
  const auto r4 = s4.factor(A);
  EXPECT_GT(r4.mem_total, r1.mem_total);  // replication costs memory
  EXPECT_LT(r4.w_fact, r1.w_fact);        // ...and buys XY volume
}

TEST(Solver3d, RejectsBadConfigs) {
  // Invalid machine options are rejected when the service is built, not at
  // the first factor(). A negative refinement count would give every
  // queued request of a solve_stream the same tag range.
  ServiceOptions pz3, no_px, no_py, refine, automatic;
  pz3.Pz = 3;  // not a power of two
  no_px.Px = 0;
  no_py.Py = 0;
  refine.refinement_steps = -1;
  automatic.Pz = 0;
  EXPECT_THROW(SolverService{pz3}, Error);
  EXPECT_THROW(SolverService{no_px}, Error);
  EXPECT_THROW(SolverService{no_py}, Error);
  EXPECT_THROW(SolverService{refine}, Error);
  EXPECT_NO_THROW(SolverService{automatic});
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

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.refinement_steps = 0;
  SolverService s0(opt);
  s0.factor(A);
  const auto rep0 = s0.solve({b, x0, 1});
  EXPECT_GT(rep0.residual, 1e-14) << "premise: the unrefined solve must "
                                     "leave a residual above roundoff";
  opt.refinement_steps = 3;
  SolverService s2(opt);
  s2.factor(A);
  const auto rep2 = s2.solve({b, x2, 1});
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

  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 2;
  opt.Pz = 2;
  opt.analysis = AnalysisMode::Distributed;  // analysis runs inside the machine
  opt.nd.leaf_size = 8;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});
  EXPECT_LT(sr.residual, 1e-12);
  EXPECT_GT(fr.flops, 0);
  EXPECT_GT(fr.t_analysis, 0);
  EXPECT_GT(fr.w_analysis, 0);
  EXPECT_GT(fr.msg_analysis, 0);
  EXPECT_GE(fr.factor_time, fr.t_analysis);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], xref[i], 1e-7);
}

TEST(Solver3d, AutomaticPzSelection) {
  // Pz = 0: the service picks a power-of-two Pz from the §IV model given
  // the total rank budget (passed as Px*Py).
  const GridGeometry g{16, 16, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> b(n, 1.0), x(n);
  ServiceOptions opt;
  opt.Px = 4;
  opt.Py = 8;  // total budget: 32 ranks
  opt.Pz = 0;
  opt.geometry = g;
  SolverService svc(opt);
  const auto fr = svc.factor(A);
  const auto sr = svc.solve({b, x, 1});
  EXPECT_LT(sr.residual, 1e-13);
  EXPECT_GT(fr.w_red, 0);  // it chose Pz > 1 for this planar problem
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
  ServiceOptions opt;
  opt.Px = 2;
  opt.Py = 1;
  opt.Pz = 2;
  opt.nd.leaf_size = 4;
  SolverService svc(opt);
  // Depending on where elimination hits the zero pivot this throws from a
  // rank (propagated by run_ranks); it must never deadlock.
  EXPECT_THROW(
      {
        svc.factor(A);
        svc.solve({b, x, 1});
      },
      Error);
}

}  // namespace
}  // namespace slu3d
