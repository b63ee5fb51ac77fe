// The shared 3D driver engine: Algorithm 1's level loop with the z-axis
// Ancestor-Reduction. Each 2D grid factors its elimination-forest levels
// bottom-up (the per-level 2D primitive is injected as a callable, so the
// LU and Cholesky drivers differ only in that lambda); after each level the
// (2k+1)-th active grid sends its copies of every common-ancestor block to
// the (2k)-th, which accumulates them. In async mode the reduction is
// chunked into non-blocking per-chunk messages (chunk_snodes ancestor
// supernodes each) drained only when their forest level is factored, so the
// transfer rides under the 2D factorization of deeper levels.
//
// Wire formats (see pipeline/factors_access.hpp for block enumeration):
//   Dense:  every allocated block of each ancestor travels verbatim —
//           byte-identical to the historical factor3d/factor3d_chol pair.
//
// A chunk whose *dense* packed size is zero is skipped without a message in
// async mode — sender and receiver compute that size independently from
// their identical masked layouts, so no handshake is needed (and the
// decision cannot depend on numeric values, which only the sender knows).
//
//   Targeted: one-sided delivery over simmpi RMA windows. Each level gets
//           its own window over the z-line communicator (created
//           collectively up front — chunks from several levels can be
//           outstanding at once, and a level's staging offsets must not
//           depend on other levels' masked layouts, which a sender cannot
//           always compute). The sender scatter-accumulates each chunk's
//           dense stream — a scalar-granularity presence bitmap plus the
//           nonzero scalars — into the receiver's zeroed staging region at
//           the chunk's dense offset, so untouched blocks and raggedness
//           inside touched blocks are both elided. The receiver registers
//           each chunk with Window::expect and, at the drain, waits the
//           delivery and accumulates the staged dense stream in the same
//           order as Dense — numerically identical. Savings reconcile
//           byte-exactly against the dense wire: received +
//           zred_bytes_saved == dense.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lu3d/forest_partition.hpp"
#include "pipeline/factors_access.hpp"
#include "pipeline/options.hpp"
#include "simmpi/process_grid.hpp"
#include "support/check.hpp"

namespace slu3d::pipeline {

/// Runs Algorithm 1's level loop: per-level 2D factorization (injected) +
/// pairwise z-axis ancestor reduction. Collective over the 3D grid.
/// `factor_level(plane, nodes)` must factor `nodes` on the local 2D grid.
template <class Access, class FactorLevel>
void run_3d_levels(typename Access::Factors& F, sim::ProcessGrid3D& grid,
                   const ForestPartition& part, const ZRedOptions& opt,
                   int reduce_tag_base, FactorLevel&& factor_level) {
  validate_zred_options(opt);
  const BlockStructure& bs = F.structure();
  const int l = part.n_levels() - 1;
  const int pz = grid.pz();
  const bool targeted = opt.packing == ZRedPacking::Targeted;
  const auto chunk = static_cast<std::size_t>(opt.chunk_snodes);

  // Targeted mode: per-level RMA windows over the z line, created
  // collectively before the level loop (inactive ranks contribute empty
  // staging). A receiver's staging for a level is the dense stream of all
  // its ancestors at that level; chunk offsets within it are cumulative
  // dense lengths, which sender and receiver compute identically. The
  // vectors are sized once up front — windows and staging must not
  // relocate while deliveries are pending.
  std::vector<std::vector<real_t>> zstage;
  std::vector<sim::Window> zwin;
  if (targeted) {
    zstage.resize(static_cast<std::size_t>(l + 1));
    zwin.resize(static_cast<std::size_t>(l + 1));
    for (int lvl = l; lvl >= 1; --lvl) {
      const int step = 1 << (l - lvl);
      std::size_t mine = 0;
      if (pz % step == 0 && (pz / step) % 2 == 0) {
        for (int s = 0; s < bs.n_snodes(); ++s)
          if (part.level_of(s) < lvl && part.on_grid(s, pz))
            mine += packed_elems<Access>(F, s);
      }
      zstage[static_cast<std::size_t>(lvl)].assign(mine, 0.0);
      zwin[static_cast<std::size_t>(lvl)] = grid.zline().win_create(
          reduce_tag_base + lvl, zstage[static_cast<std::size_t>(lvl)],
          sim::CommPlane::Z);
    }
  }

  // Outstanding reduction chunks (async mode). A chunk is drained right
  // before the first level that factors one of its supernodes — until then
  // its transfer rides under the 2D factorization of deeper levels. In
  // targeted mode the chunk is a window delivery into `zstage[lvl]` at
  // [off, off+len) instead of a request with its own buffer.
  struct Pending {
    sim::Request req;
    std::vector<int> snodes;
    sim::WindowDelivery delivery;
    std::size_t off = 0, len = 0;
    int lvl = 0;
  };
  std::vector<Pending> outstanding;

  auto unpack_chunk = [&](std::span<const real_t> buf,
                          std::span<const int> snodes) {
    std::size_t pos = 0;
    for (const int s : snodes) pos = add_snode<Access>(F, s, buf, pos);
    SLU3D_CHECK(pos == buf.size(), "reduction chunk not fully consumed");
  };
  auto unpack_staged = [&](Pending& p) {
    // Waiting the delivery applies the scatter-accumulate (and any earlier
    // ones from the same origin, each into its own disjoint, pre-zeroed
    // region); the staged dense stream is then folded in exactly like a
    // dense wire chunk.
    p.delivery.wait();
    std::size_t pos = p.off;
    for (const int s : p.snodes)
      pos = add_snode<Access>(F, s, zstage[static_cast<std::size_t>(p.lvl)],
                              pos);
    SLU3D_CHECK(pos == p.off + p.len,
                "targeted reduction chunk not fully consumed");
  };
  auto drain = [&](auto&& keep_pending) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      Pending& p = outstanding[i];
      bool keep = true;
      for (const int s : p.snodes) keep = keep && keep_pending(s);
      if (keep) {
        if (kept != i) outstanding[kept] = std::move(p);  // no self-move
        ++kept;
        continue;
      }
      if (targeted) {
        unpack_staged(p);
      } else {
        const std::vector<real_t> buf = p.req.take();
        unpack_chunk(buf, p.snodes);
      }
    }
    outstanding.resize(kept);
  };

  for (int lvl = l; lvl >= 0; --lvl) {
    const int step = 1 << (l - lvl);
    if (pz % step != 0) continue;  // this grid is inactive at this level

    // Chunks feeding this level's supernodes must be in before they are
    // factored; deeper chunks keep overlapping.
    if (opt.async)
      drain([&](int s) { return part.level_of(s) < lvl; });

    const std::vector<int> nodes = part.nodes_at(pz, lvl);
    factor_level(grid.plane(), nodes);

    if (lvl == 0) break;

    // Ancestor-Reduction: the (2k+1)-th active grid sends its copies of
    // every common-ancestor block to the (2k)-th, which accumulates them.
    const int k = pz / step;
    std::vector<int> ancestors;
    for (int s = 0; s < bs.n_snodes(); ++s)
      if (part.level_of(s) < lvl && part.on_grid(s, pz)) ancestors.push_back(s);

    // Both sides partition the ancestor list into the same chunks and skip
    // structurally empty ones symmetrically (async mode only; the blocking
    // path always exchanges one message per level).
    auto chunk_at = [&](std::size_t c0, std::size_t len) {
      return std::span<const int>{ancestors}.subspan(
          c0, std::min(len, ancestors.size() - c0));
    };
    auto dense_elems_of = [&](std::span<const int> snodes) {
      std::size_t n = 0;
      for (const int s : snodes) n += packed_elems<Access>(F, s);
      return n;
    };

    // Targeted mode chunks the level identically in async mode and treats
    // the whole level as one chunk when blocking; both sides derive the
    // same chunk list and dense offsets, so the scatter-accumulates and
    // their expected deliveries pair up without any handshake.
    const std::size_t tchunk =
        opt.async ? chunk : std::max<std::size_t>(ancestors.size(), 1);

    if (k % 2 == 1) {
      if (targeted) {
        // Everything received so far must be folded into the outgoing
        // contributions first.
        if (opt.async) drain([](int) { return false; });
        sim::RankStats& st = grid.zline().stats();
        sim::Window& win = zwin[static_cast<std::size_t>(lvl)];
        std::vector<real_t> buf;
        std::vector<std::uint64_t> bits;
        std::vector<real_t> packed;
        std::size_t chunk_off = 0;
        for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += tchunk) {
          const auto snodes = chunk_at(c0, tchunk);
          const std::size_t dense_len = dense_elems_of(snodes);
          if (dense_len == 0) continue;  // peer skips the matching expect
          buf.clear();
          for (const int s : snodes) pack_snode<Access>(F, s, buf);
          bits.assign((dense_len + 63) / 64, 0);
          packed.clear();
          for (std::size_t i = 0; i < buf.size(); ++i)
            if (buf[i] != 0.0) {
              bits[i / 64] |= std::uint64_t{1} << (i % 64);
              packed.push_back(buf[i]);
            }
          st.zred_bytes_saved +=
              (static_cast<offset_t>(dense_len) -
               static_cast<offset_t>(bits.size() + packed.size())) *
              static_cast<offset_t>(sizeof(real_t));
          win.scatter_accumulate(pz - step, chunk_off, dense_len, bits,
                                 packed);
          chunk_off += dense_len;
        }
      } else if (opt.async) {
        // The outgoing copies must include everything received so far.
        drain([](int) { return false; });
        std::vector<real_t> buf;
        for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += chunk) {
          const auto snodes = chunk_at(c0, chunk);
          if (dense_elems_of(snodes) == 0) continue;  // peer skips the irecv
          buf.clear();
          for (const int s : snodes) pack_snode<Access>(F, s, buf);
          grid.zline().isend(pz - step, reduce_tag_base + lvl, buf,
                             sim::CommPlane::Z);
        }
      } else {
        std::vector<real_t> buf;
        for (const int s : ancestors) pack_snode<Access>(F, s, buf);
        grid.zline().send(pz - step, reduce_tag_base + lvl, buf,
                          sim::CommPlane::Z);
      }
    } else {
      if (targeted) {
        sim::Window& win = zwin[static_cast<std::size_t>(lvl)];
        std::span<real_t> stage{zstage[static_cast<std::size_t>(lvl)]};
        std::size_t chunk_off = 0;
        for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += tchunk) {
          const auto snodes = chunk_at(c0, tchunk);
          const std::size_t dense_len = dense_elems_of(snodes);
          if (dense_len == 0) continue;
          // Zero the landing region before registering the op — the
          // accumulate can only be applied during a wait, which always
          // comes after this expect.
          std::fill_n(stage.begin() + static_cast<std::ptrdiff_t>(chunk_off),
                      dense_len, 0.0);
          sim::WindowDelivery d = win.expect(pz + step);
          Pending p;
          p.snodes.assign(snodes.begin(), snodes.end());
          p.delivery = d;
          p.off = chunk_off;
          p.len = dense_len;
          p.lvl = lvl;
          if (opt.async) {
            outstanding.push_back(std::move(p));
          } else {
            unpack_staged(p);
          }
          chunk_off += dense_len;
        }
      } else if (opt.async) {
        for (std::size_t c0 = 0; c0 < ancestors.size(); c0 += chunk) {
          const auto snodes = chunk_at(c0, chunk);
          if (dense_elems_of(snodes) == 0) continue;
          Pending p;
          p.req = grid.zline().irecv(pz + step, reduce_tag_base + lvl,
                                     sim::CommPlane::Z);
          p.snodes.assign(snodes.begin(), snodes.end());
          outstanding.push_back(std::move(p));
        }
      } else {
        const auto buf = grid.zline().recv(pz + step, reduce_tag_base + lvl,
                                           sim::CommPlane::Z);
        unpack_chunk(buf, ancestors);
      }
    }
  }
  SLU3D_CHECK(outstanding.empty(), "undrained reduction chunks");
}

}  // namespace slu3d::pipeline
