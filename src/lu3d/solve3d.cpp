#include "lu3d/solve3d.hpp"

#include <algorithm>
#include <vector>

#include "numeric/dense_kernels.hpp"
#include "support/check.hpp"

namespace slu3d {

namespace {

using sim::CommPlane;
using sim::ComputeKind;

/// All solves operate on an n x nrhs column-major panel X (ldx = n), so one
/// forward/backward sweep (one set of z-messages and broadcasts) serves the
/// whole batch: message sizes scale with nrhs but message *counts* do not.
/// Each block product is the *negated* partial product (gemm_minus computes
/// C -= A B into a zeroed buffer), folded into the rank's local sum for the
/// target; diagonal owners accumulate the sums with += in a fixed order
/// (remote sources ascending, then their own), so results do not depend
/// on message arrival order or on the panel width.
class Solve3dDriver {
 public:
  Solve3dDriver(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
                const ForestPartition& part, const Solve3dOptions& opt)
      : F_(F), world_(world), g_(grid), part_(part), bs_(F.structure()),
        opt_(opt), n_(bs_.n()), nrhs_(opt.nrhs),
        plan_(make_solve3d_plan(bs_, part, grid.plane().Px(),
                                grid.plane().Py(), world.rank())),
        lsum_(static_cast<std::size_t>(bs_.n_snodes())) {
    // Descendant index: for each supernode a, the (c, panel block) pairs
    // whose panel contains a block in a's range (ascending c).
    by_anc_.resize(static_cast<std::size_t>(bs_.n_snodes()));
    for (int c = 0; c < bs_.n_snodes(); ++c) {
      const auto panel = bs_.lpanel(c);
      for (int k = 0; k < static_cast<int>(panel.size()); ++k)
        by_anc_[static_cast<std::size_t>(panel[static_cast<std::size_t>(k)].snode)]
            .push_back({c, k});
    }
    // One z sub-communicator per forest level: the replication group of a
    // level-lvl supernode is a dyadic pz range of size 2^(l - lvl).
    const int l = part.n_levels() - 1;
    for (int lvl = 0; lvl <= l; ++lvl)
      zgroup_.push_back(
          g_.zline().split(g_.pz() >> (l - lvl), g_.pz()));
  }

  void run(std::span<real_t> x) {
    SLU3D_CHECK(nrhs_ >= 1, "nrhs must be positive");
    SLU3D_CHECK(x.size() == static_cast<std::size_t>(n_) *
                                static_cast<std::size_t>(nrhs_),
                "x panel size");
    forward(x);
    backward(x);
    for (const auto& buf : lsum_)
      SLU3D_CHECK(buf.empty(), "solve plan left a local sum unsent");
    redistribute(x);
  }

 private:
  int Px() const { return g_.plane().Px(); }
  int Py() const { return g_.plane().Py(); }
  /// World rank of plane position (px, py) on grid pz.
  int world_of(int pz, int px, int py) const {
    return pz * Px() * Py() + px * Py() + py;
  }
  int diag_owner(int s) const {
    return world_of(part_.anchor_of(s), s % Px(), s % Py());
  }
  int ftag(int s) const { return opt_.tag_base + s; }
  int btag(int s) const { return opt_.tag_base + bs_.n_snodes() + s; }
  int gtag() const { return opt_.tag_base + 3 * bs_.n_snodes(); }

  void gather_slice(std::span<const real_t> x, index_t f, index_t ns,
                    std::vector<real_t>& buf) const {
    buf.resize(static_cast<std::size_t>(ns) * static_cast<std::size_t>(nrhs_));
    for (index_t j = 0; j < nrhs_; ++j)
      for (index_t r = 0; r < ns; ++r)
        buf[static_cast<std::size_t>(r + j * ns)] =
            x[static_cast<std::size_t>(f + r + j * n_)];
  }
  void scatter_slice(std::span<const real_t> buf, index_t f, index_t ns,
                     std::span<real_t> x) const {
    for (index_t j = 0; j < nrhs_; ++j)
      for (index_t r = 0; r < ns; ++r)
        x[static_cast<std::size_t>(f + r + j * n_)] =
            buf[static_cast<std::size_t>(r + j * ns)];
  }

  /// Contribution sums are labelled by the plane they cross.
  CommPlane plane_to(int peer) const {
    return peer / (Px() * Py()) == g_.pz() ? CommPlane::XY : CommPlane::Z;
  }

  /// Local sum of target t, zero-initialized on its first product.
  std::vector<real_t>& lsum(int t) {
    auto& buf = lsum_[static_cast<std::size_t>(t)];
    if (buf.empty())
      buf.assign(static_cast<std::size_t>(bs_.snode_size(t)) *
                     static_cast<std::size_t>(nrhs_),
                 0.0);
    return buf;
  }

  /// Called after each product folded into t's local sum: once this
  /// rank's last one is in, the sum goes to t's diagonal owner — unless
  /// that is this rank, which adds it itself in gather_sums().
  void retire(int t, int tag, std::vector<int>& left) {
    auto& n_left = left[static_cast<std::size_t>(t)];
    SLU3D_CHECK(n_left > 0, "solve plan misses a block product");
    if (--n_left > 0) return;
    const int dst = diag_owner(t);
    if (dst == world_.rank()) return;
    auto& buf = lsum_[static_cast<std::size_t>(t)];
    world_.send(dst, tag, buf, plane_to(dst));
    std::vector<real_t>().swap(buf);
  }

  /// On t's diagonal owner: adds the remote local sums in ascending source
  /// rank, then its own, into x's slice of t.
  void gather_sums(int t, int tag, std::span<const int> sources,
                   std::span<real_t> x) {
    const index_t f = bs_.first_col(t);
    const index_t ns = bs_.snode_size(t);
    auto add = [&](std::span<const real_t> v) {
      SLU3D_CHECK(v.size() == static_cast<std::size_t>(ns) *
                                  static_cast<std::size_t>(nrhs_),
                  "contribution size");
      for (index_t j = 0; j < nrhs_; ++j)
        for (index_t r = 0; r < ns; ++r)
          x[static_cast<std::size_t>(f + r + j * n_)] +=
              v[static_cast<std::size_t>(r + j * ns)];
    };
    for (const int src : sources) add(world_.recv(src, tag, plane_to(src)));
    auto& own = lsum_[static_cast<std::size_t>(t)];
    if (!own.empty()) {
      add(own);
      std::vector<real_t>().swap(own);
    }
  }

  void forward(std::span<real_t> x) {
    std::vector<real_t> ybuf, vbuf;
    std::vector<int> left = plan_.fwd_count;
    for (int s = 0; s < bs_.n_snodes(); ++s) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool my_grid = g_.pz() == part_.anchor_of(s);
      const bool in_pcol = my_grid && g_.plane().py() == s % Py();

      if (world_.rank() == diag_owner(s)) {
        gather_sums(s, ftag(s), plan_.fwd_sources[static_cast<std::size_t>(s)],
                    x);
        dense::trsm_left_lower_unit(ns, nrhs_, F_.diag(s).data(), ns,
                                    x.data() + f, n_);
        world_.add_compute(dense::trsm_flops(ns, nrhs_), ComputeKind::Other);
      }

      // y_s to the L-block owners (all live on anchor(s), column s%Py).
      if (in_pcol) {
        gather_slice(x, f, ns, ybuf);
        g_.plane().col().bcast(s % Px(), ftag(s), ybuf, CommPlane::XY);
        scatter_slice(ybuf, f, ns, x);

        for (const OwnedBlock& ob : F_.lblocks(s)) {
          const PanelBlock& blk =
              bs_.lpanel(s)[static_cast<std::size_t>(ob.panel_idx)];
          const int a = blk.snode;
          const auto m = static_cast<index_t>(blk.rows.size());
          vbuf.assign(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(nrhs_),
                      0.0);
          dense::gemm_minus(m, nrhs_, ns, ob.data.data(), m, ybuf.data(), ns,
                            vbuf.data(), m);
          world_.add_compute(dense::gemm_flops(m, nrhs_, ns),
                             ComputeKind::Other);
          // Fold the product's rows into a's local sum.
          auto& sum = lsum(a);
          const index_t fa = bs_.first_col(a);
          const index_t na = bs_.snode_size(a);
          for (index_t j = 0; j < nrhs_; ++j)
            for (index_t r = 0; r < m; ++r)
              sum[static_cast<std::size_t>(
                  blk.rows[static_cast<std::size_t>(r)] - fa + j * na)] +=
                  vbuf[static_cast<std::size_t>(r + j * m)];
          retire(a, ftag(a), left);
        }
      }
    }
  }

  void backward(std::span<real_t> x) {
    std::vector<real_t> xbuf, gbuf, vbuf;
    std::vector<int> left = plan_.bwd_count;
    for (int s = bs_.n_snodes() - 1; s >= 0; --s) {
      const index_t ns = bs_.snode_size(s);
      if (ns == 0) continue;
      const index_t f = bs_.first_col(s);
      const bool in_group = part_.on_grid(s, g_.pz());
      const bool on_zline =
          in_group && g_.plane().px() == s % Px() && g_.plane().py() == s % Py();
      const bool in_pcol = in_group && g_.plane().py() == s % Py();

      if (world_.rank() == diag_owner(s)) {
        gather_sums(s, btag(s), plan_.bwd_sources[static_cast<std::size_t>(s)],
                    x);
        dense::trsm_left_upper(ns, nrhs_, F_.diag(s).data(), ns, x.data() + f,
                               n_);
        world_.add_compute(dense::trsm_flops(ns, nrhs_), ComputeKind::Other);
      }

      // Propagate x_s down the replication group: along z to each grid's
      // (s%Px, s%Py) rank, then along each plane's process column.
      if (on_zline) {
        gather_slice(x, f, ns, xbuf);
        zgroup_[static_cast<std::size_t>(part_.level_of(s))].bcast(
            0, btag(s), xbuf, CommPlane::Z);
        scatter_slice(xbuf, f, ns, x);
      }
      if (in_pcol) {
        gather_slice(x, f, ns, xbuf);
        g_.plane().col().bcast(s % Px(), btag(s), xbuf, CommPlane::XY);
        scatter_slice(xbuf, f, ns, x);

        // U(c, s) products for descendants c anchored on my grid.
        for (const auto& [c, blkidx] : by_anc_[static_cast<std::size_t>(s)]) {
          if (part_.anchor_of(c) != g_.pz() || c % Px() != g_.plane().px())
            continue;
          OwnedBlock* ob = F_.find_ublock(c, s);
          SLU3D_CHECK(ob != nullptr, "missing owned U block in 3D solve");
          const PanelBlock& blk = bs_.lpanel(c)[static_cast<std::size_t>(blkidx)];
          const index_t nc = bs_.snode_size(c);
          const auto m = static_cast<index_t>(blk.rows.size());
          // Gather the (non-contiguous) ancestor rows of x used by this
          // U block into an m x nrhs panel for the GEMM.
          gbuf.resize(static_cast<std::size_t>(m) *
                      static_cast<std::size_t>(nrhs_));
          for (index_t j = 0; j < nrhs_; ++j)
            for (index_t k = 0; k < m; ++k)
              gbuf[static_cast<std::size_t>(k + j * m)] =
                  x[static_cast<std::size_t>(
                      blk.rows[static_cast<std::size_t>(k)] + j * n_)];
          vbuf.assign(static_cast<std::size_t>(nc) *
                          static_cast<std::size_t>(nrhs_),
                      0.0);
          dense::gemm_minus(nc, nrhs_, m, ob->data.data(), nc, gbuf.data(), m,
                            vbuf.data(), nc);
          world_.add_compute(dense::gemm_flops(nc, nrhs_, m),
                             ComputeKind::Other);
          auto& sum = lsum(c);
          for (std::size_t q = 0; q < vbuf.size(); ++q) sum[q] += vbuf[q];
          retire(c, btag(c), left);
        }
      }
    }
  }

  void redistribute(std::span<real_t> x) {
    std::vector<real_t> packed, slice;
    for (int s = 0; s < bs_.n_snodes(); ++s)
      if (world_.rank() == diag_owner(s)) {
        gather_slice(x, bs_.first_col(s), bs_.snode_size(s), slice);
        packed.insert(packed.end(), slice.begin(), slice.end());
      }
    const std::vector<real_t> all =
        world_.allgatherv(gtag(), packed, CommPlane::Z);
    std::size_t pos = 0;
    for (int r = 0; r < world_.size(); ++r)
      for (int s = 0; s < bs_.n_snodes(); ++s) {
        if (diag_owner(s) != r) continue;
        const auto ns = bs_.snode_size(s);
        const auto len = static_cast<std::size_t>(ns) *
                         static_cast<std::size_t>(nrhs_);
        SLU3D_CHECK(pos + len <= all.size(), "gather underflow");
        scatter_slice(std::span<const real_t>(all).subspan(pos, len),
                      bs_.first_col(s), ns, x);
        pos += len;
      }
    SLU3D_CHECK(pos == all.size(), "gather stream not fully consumed");
  }

  Dist2dFactors& F_;
  sim::Comm& world_;
  sim::ProcessGrid3D& g_;
  const ForestPartition& part_;
  const BlockStructure& bs_;
  Solve3dOptions opt_;
  index_t n_;
  index_t nrhs_;
  Solve3dPlan plan_;
  /// Per target supernode: this rank's local sum while it is being built.
  std::vector<std::vector<real_t>> lsum_;
  std::vector<std::vector<std::pair<int, int>>> by_anc_;
  std::vector<sim::Comm> zgroup_;
};

}  // namespace

Solve3dPlan make_solve3d_plan(const BlockStructure& bs,
                              const ForestPartition& part, int Px, int Py,
                              int rank) {
  SLU3D_CHECK(Px > 0 && Py > 0 && rank >= 0 && rank < Px * Py * part.Pz(),
              "bad rank for the solve plan");
  const int pz = rank / (Px * Py), px = rank / Py % Px, py = rank % Py;
  auto world_of = [&](int z, int x, int y) { return z * Px * Py + x * Py + y; };
  auto owner = [&](int s) {
    return world_of(part.anchor_of(s), s % Px, s % Py);
  };
  const auto nsn = static_cast<std::size_t>(bs.n_snodes());
  Solve3dPlan plan;
  plan.fwd_count.assign(nsn, 0);
  plan.bwd_count.assign(nsn, 0);
  plan.fwd_sources.resize(nsn);
  plan.bwd_sources.resize(nsn);
  for (int c = 0; c < bs.n_snodes(); ++c)
    for (const PanelBlock& blk : bs.lpanel(c)) {
      const int a = blk.snode;
      const auto ua = static_cast<std::size_t>(a);
      const auto uc = static_cast<std::size_t>(c);
      // The products this rank's sweeps form: L(a, c) in the forward step
      // of a non-empty c, from c's owned L blocks on its anchor grid; U(c, a)
      // in the backward step of a, on every grid of a's group, for
      // descendants c anchored there.
      if (bs.snode_size(c) > 0 && part.anchor_of(c) == pz && a % Px == px &&
          c % Py == py)
        ++plan.fwd_count[ua];
      if (part.on_grid(a, pz) && part.anchor_of(c) == pz && c % Px == px &&
          a % Py == py)
        ++plan.bwd_count[uc];
      // Where the owners expect them: L(a, c) at (anchor(c), a%Px, c%Py),
      // U(c, a) at (anchor(c), c%Px, a%Py).
      if (owner(a) == rank) {
        const int src = world_of(part.anchor_of(c), a % Px, c % Py);
        if (src != rank) plan.fwd_sources[ua].push_back(src);
      }
      if (owner(c) == rank) {
        const int src = world_of(part.anchor_of(c), c % Px, a % Py);
        if (src != rank) plan.bwd_sources[uc].push_back(src);
      }
    }
  for (auto* lists : {&plan.fwd_sources, &plan.bwd_sources})
    for (auto& l : *lists) {
      std::sort(l.begin(), l.end());
      l.erase(std::unique(l.begin(), l.end()), l.end());
    }
  return plan;
}

int solve3d_tag_span(const BlockStructure& bs) {
  // ftag/btag use n_snodes tags each, gtag one more at 3*n_snodes; the
  // remaining headroom keeps queued solves on a resident grid strictly
  // disjoint even if the schedule grows another tag class.
  return 4 * bs.n_snodes() + 8;
}

void solve_3d(Dist2dFactors& F, sim::Comm& world, sim::ProcessGrid3D& grid,
              const ForestPartition& part, std::span<real_t> x,
              const Solve3dOptions& options) {
  Solve3dDriver(F, world, grid, part, options).run(x);
}

}  // namespace slu3d
