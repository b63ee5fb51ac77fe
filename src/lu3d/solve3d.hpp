// Distributed triangular solves on the *3D* factor layout produced by
// factorize_3d — no gathering: each supernode's blocks stay on its anchor
// grid. Both sweeps aggregate their block products with local partial sums
// ("lsum", as in SuperLU_DIST's pdgstrs): every rank folds all of its
// products for one target supernode into a single ns x nrhs buffer and
// sends it to the target's diagonal owner once, when its last local
// product is in — one message per (target, remote rank), none to itself.
// Forward substitution routes the L-block sums across grids (an L block of
// supernode s lives on anchor(s), its target ancestor's diagonal owner on
// anchor(a)); backward substitution broadcasts each solved slice down its
// replication group along z and then along the plane column, reaching
// every descendant's U blocks, whose sums return within the anchor grid.
// A sum is labelled Z only when it crosses grids, XY otherwise.
//
// The paper factors in 3D but stops short of a 3D solve (that is
// follow-up work); this implements the natural extension.
#pragma once

#include <span>
#include <vector>

#include "lu3d/factor3d.hpp"

namespace slu3d {

struct Solve3dOptions {
  /// Base message tag; callers issuing several solves on the same resident
  /// grid must keep bases at least solve3d_tag_span(bs) apart.
  int tag_base = (1 << 24);
  /// Number of right-hand-side columns solved in one sweep. `x` is then an
  /// n x nrhs column-major panel; one set of z-messages and broadcasts
  /// serves the whole batch (message counts are independent of nrhs).
  index_t nrhs = 1;
};

/// Number of distinct message tags one solve_3d call may consume starting
/// at `tag_base`. Queued solves on the same resident grid must advance
/// tag_base by at least this span between calls so tag ranges never
/// collide.
int solve3d_tag_span(const BlockStructure& bs);

/// One rank's lsum schedule for solve_3d, derived host-side from the block
/// structure and forest partition alone. World ranks are laid out
/// pz * Px * Py + px * Py + py; supernode s's diagonal owner is
/// (anchor(s), s % Px, s % Py).
struct Solve3dPlan {
  /// Per target supernode: the number of block products this rank adds to
  /// it in the forward (L blocks) and backward (U blocks) sweep.
  std::vector<int> fwd_count, bwd_count;
  /// Per target supernode this rank diagonal-owns (empty for the rest):
  /// the distinct *remote* ranks that send it a local sum, ascending.
  std::vector<std::vector<int>> fwd_sources, bwd_sources;
};

/// The lsum schedule of world rank `rank` on a Px x Py x part.Pz() grid.
/// Counts follow the blocks the rank's sweeps visit; source lists follow
/// where the owners expect those blocks to live, so comparing the two
/// across ranks audits the schedule (a mismatch would hang a rank).
Solve3dPlan make_solve3d_plan(const BlockStructure& bs,
                              const ForestPartition& part, int Px, int Py,
                              int rank);

/// Solves L U X = B in the permuted index space on the 3D-factored `F`.
/// Collective over `world` (all Px*Py*Pz ranks). Every rank passes the
/// full permuted right-hand side panel in `x` (n x nrhs column-major); on
/// return every rank holds the full solution panel.
void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options = {});

}  // namespace slu3d
