// Factors-access traits: a uniform block enumeration over the two
// distributed factor containers (Dist2dFactors, DistCholFactors), so the
// z-axis ancestor-reduction engine can pack and add supernode payloads
// without knowing which variant it is moving. The enumeration order IS the
// wire format: diag (if owned), then L blocks ascending, then (LU only) U
// blocks ascending — exactly the order the historical pack_snode/add_snode
// pairs used, so dense-mode streams are byte-identical.
//
// Each visited block is described by (span, tri_n): tri_n == 0 means the
// whole span travels verbatim; tri_n == n means the span is an n x n
// column-major diagonal block of which only the lower triangle travels,
// column-major packed (the symmetric variant's half-volume diagonal).
#pragma once

#include <span>

#include "lu2d/dist_chol.hpp"
#include "lu2d/dist_factors.hpp"

namespace slu3d::pipeline {

/// Trait for the LU container: diag (full) + L blocks + U blocks.
struct LuFactorsAccess {
  using Factors = Dist2dFactors;

  template <class F, class Fn>  // F is Dist2dFactors or const Dist2dFactors
  static void for_each_block(F& f, int s, Fn&& fn) {
    if (f.has_diag(s)) fn(f.diag(s), index_t{0});
    for (auto& b : f.lblocks(s)) fn(std::span{b.data}, index_t{0});
    for (auto& b : f.ublocks(s)) fn(std::span{b.data}, index_t{0});
  }
};

/// Trait for the symmetric container: diag (lower triangle) + L blocks.
struct CholFactorsAccess {
  using Factors = DistCholFactors;

  template <class F, class Fn>
  static void for_each_block(F& f, int s, Fn&& fn) {
    if (f.has_diag(s))
      fn(f.diag(s), static_cast<index_t>(f.structure().snode_size(s)));
    for (auto& b : f.lblocks(s)) fn(std::span{b.data}, index_t{0});
  }
};

/// Packed wire length of one (span, tri_n) block.
inline std::size_t block_packed_elems(std::size_t span_elems, index_t tri_n) {
  if (tri_n == 0) return span_elems;
  const auto n = static_cast<std::size_t>(tri_n);
  return n * (n + 1) / 2;
}

/// Packed length of supernode s on this rank. Ranks sharing (px, py) on
/// z-adjacent grids hold identical masked layouts for common ancestors,
/// so sender and receiver compute the same value independently — empty
/// chunks can be skipped symmetrically without a handshake.
template <class Access, class F>
std::size_t packed_elems(F& f, int s) {
  std::size_t n = 0;
  Access::for_each_block(f, s, [&](auto blk, index_t tri) {
    n += block_packed_elems(blk.size(), tri);
  });
  return n;
}

/// Appends every block of supernode s owned by this rank, in the trait's
/// deterministic enumeration order (dense wire format).
template <class Access, class F>
void pack_snode(F& f, int s, std::vector<real_t>& out) {
  Access::for_each_block(f, s, [&](auto blk, index_t tri) {
    if (tri == 0) {
      out.insert(out.end(), blk.begin(), blk.end());
      return;
    }
    const auto n = static_cast<index_t>(tri);
    for (index_t c = 0; c < n; ++c)
      for (index_t r = c; r < n; ++r)
        out.push_back(blk[static_cast<std::size_t>(r + c * n)]);
  });
}

/// Mirror of pack_snode: adds the packed stream into the local blocks.
template <class Access>
std::size_t add_snode(typename Access::Factors& f, int s,
                      std::span<const real_t> buf, std::size_t pos) {
  Access::for_each_block(f, s, [&](std::span<real_t> blk, index_t tri) {
    const std::size_t len = block_packed_elems(blk.size(), tri);
    SLU3D_CHECK(pos + len <= buf.size(), "reduction stream underflow");
    if (tri == 0) {
      for (std::size_t i = 0; i < len; ++i) blk[i] += buf[pos + i];
      pos += len;
      return;
    }
    const auto n = static_cast<index_t>(tri);
    for (index_t c = 0; c < n; ++c)
      for (index_t r = c; r < n; ++r)
        blk[static_cast<std::size_t>(r + c * n)] += buf[pos++];
  });
  return pos;
}

/// Zeroes every owned block of the non-anchor replicated ancestors, so the
/// pairwise z-reductions sum to A + all Schur updates exactly once
/// ("initialize A(S) with zeros", §III-A). Shared by the LU and Cholesky
/// 3D setup/refill paths.
template <class Access, class Part>
void zero_nonanchor_replicas(typename Access::Factors& f, const Part& part,
                             int pz) {
  for (int s = 0; s < f.structure().n_snodes(); ++s) {
    if (!part.on_grid(s, pz) || part.anchor_of(s) == pz) continue;
    Access::for_each_block(f, s, [](std::span<real_t> blk, index_t) {
      std::fill(blk.begin(), blk.end(), 0.0);
    });
  }
}

}  // namespace slu3d::pipeline
