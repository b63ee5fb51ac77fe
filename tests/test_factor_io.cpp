#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>

#include "numeric/factor_io.hpp"
#include "numeric/seq_lu.hpp"
#include "order/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace slu3d {
namespace {

TEST(FactorIo, CsrRoundTrip) {
  const GridGeometry g{7, 9, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.4);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(ss, A);
  const CsrMatrix B = read_csr_binary(ss);
  ASSERT_EQ(B.n_rows(), A.n_rows());
  ASSERT_EQ(B.nnz(), A.nnz());
  for (index_t i = 0; i < A.n_rows(); ++i)
    for (index_t j : A.row_cols(i)) EXPECT_DOUBLE_EQ(B.at(i, j), A.at(i, j));
}

TEST(FactorIo, TreeRoundTrip) {
  const GridGeometry g{10, 10, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_tree_binary(ss, tree);
  const SeparatorTree t2 = read_tree_binary(ss);
  ASSERT_EQ(t2.n_nodes(), tree.n_nodes());
  ASSERT_EQ(t2.root(), tree.root());
  for (std::size_t i = 0; i < tree.perm().size(); ++i)
    EXPECT_EQ(t2.perm()[i], tree.perm()[i]);
  for (int v = 0; v < tree.n_nodes(); ++v) {
    EXPECT_EQ(t2.node(v).sep_first, tree.node(v).sep_first);
    EXPECT_EQ(t2.node(v).parent, tree.node(v).parent);
  }
}

TEST(FactorIo, FactorizationSaveLoadSolve) {
  const GridGeometry g{9, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  F.fill_from(A.permuted_symmetric(tree.perm()));
  factorize_sequential(F);

  const std::string path = "/tmp/slu3d_factor_io_test.bin";
  save_factorization(path, tree, F);

  std::unique_ptr<BlockStructure> bs2;
  auto [tree2, F2] = load_factorization(path, A, &bs2);

  // Loaded factors must solve the system exactly like the originals.
  const auto pinv = invert_permutation(tree2.perm());
  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(97);
  std::vector<real_t> xref(n), b(n), pb(n);
  for (auto& v : xref) v = rng.uniform(-1, 1);
  A.spmv(xref, b);
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv[i])] = b[i];
  solve_factored(F2, pb);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(pb[static_cast<std::size_t>(pinv[i])], xref[i], 1e-10);
}

TEST(FactorIo, RejectsMismatchedStructure) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree t1 = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure b1(A, t1);
  SupernodalMatrix F(b1);
  F.fill_from(A.permuted_symmetric(t1.perm()));

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_factors_binary(ss, F);
  // Different leaf size -> different structure -> fingerprint mismatch.
  const SeparatorTree t2 = nested_dissection(A, {.leaf_size = 16});
  const BlockStructure b2(A, t2);
  EXPECT_THROW(read_factors_binary(ss, b2), Error);
}

TEST(FactorIo, RejectsGarbageStream) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss << "this is not a factor file";
  const GridGeometry g{4, 4, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const BlockStructure bs(A, nested_dissection(A));
  EXPECT_THROW(read_factors_binary(ss, bs), Error);
  EXPECT_THROW(read_csr_binary(ss), Error);
}

// ---------------------------------------------------------------------------
// Untrusted length fields. A binary stream's claimed element or node count
// must be checked against the bytes actually present before anything that
// size is allocated. Two claims are exercised: one beyond vector::max_size()
// and a small one larger than the bytes that follow.
// ---------------------------------------------------------------------------

template <typename T>
void put_word(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// The first `bytes` bytes of `full` followed by the words in `tail`.
template <typename T>
std::stringstream splice(const std::string& full, std::size_t bytes,
                         std::initializer_list<T> tail) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ss.write(full.data(), static_cast<std::streamsize>(bytes));
  for (const T w : tail) put_word(ss, w);
  return ss;
}

constexpr std::uint64_t kHugeCount = ~std::uint64_t{0};

TEST(FactorIo, CsrRejectsLengthsBeyondTheStream) {
  const GridGeometry g{5, 5, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_csr_binary(full, A);
  // magic + n_rows + n_cols, then the row_ptr length claim.
  const std::size_t header = 3 * sizeof(std::uint64_t);
  auto huge = splice<std::uint64_t>(full.str(), header, {kHugeCount});
  EXPECT_THROW(read_csr_binary(huge), Error);
  auto short_data = splice<std::uint64_t>(full.str(), header, {1000, 0, 1, 2});
  EXPECT_THROW(read_csr_binary(short_data), Error);
}

TEST(FactorIo, TreeRejectsCountsBeyondTheStream) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_tree_binary(full, tree);
  const std::string bytes = full.str();

  // The permutation's length claim follows the magic word.
  const std::size_t magic = sizeof(std::uint64_t);
  auto huge_perm = splice<std::uint64_t>(bytes, magic, {kHugeCount});
  EXPECT_THROW(read_tree_binary(huge_perm), Error);
  auto short_perm = splice<std::uint64_t>(bytes, magic, {500, 0, 1});
  EXPECT_THROW(read_tree_binary(short_perm), Error);

  // The node count follows the permutation; it is signed on the wire.
  const std::size_t perm_end =
      magic + sizeof(std::uint64_t) + tree.perm().size() * sizeof(index_t);
  auto negative = splice<std::int64_t>(bytes, perm_end, {-1, 0});
  EXPECT_THROW(read_tree_binary(negative), Error);
  auto huge_nodes = splice<std::int64_t>(
      bytes, perm_end, {std::numeric_limits<std::int64_t>::max(), 0});
  EXPECT_THROW(read_tree_binary(huge_nodes), Error);
  auto short_nodes = splice<std::int64_t>(bytes, perm_end, {64, 0, 0, 0, 1});
  EXPECT_THROW(read_tree_binary(short_nodes), Error);
}

TEST(FactorIo, FactorsRejectLengthsBeyondTheStream) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  F.fill_from(A.permuted_symmetric(tree.perm()));
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  write_factors_binary(full, F);
  // magic + structure fingerprint, then the first diagonal block's length.
  const std::size_t header = 2 * sizeof(std::uint64_t);
  auto huge = splice<std::uint64_t>(full.str(), header, {kHugeCount});
  EXPECT_THROW(read_factors_binary(huge, bs), Error);
  auto short_data = splice<std::uint64_t>(full.str(), header, {1000, 0, 0});
  EXPECT_THROW(read_factors_binary(short_data, bs), Error);
}

TEST(MultiRhsSolve, MatchesSingleRhsSolves) {
  const GridGeometry g{10, 9, 1};
  const CsrMatrix A = grid2d_convection_diffusion(g, 0.3);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  const CsrMatrix Ap = A.permuted_symmetric(tree.perm());
  F.fill_from(Ap);
  factorize_sequential(F);

  const auto n = static_cast<std::size_t>(A.n_rows());
  const index_t nrhs = 5;
  Rng rng(101);
  std::vector<real_t> X(n * static_cast<std::size_t>(nrhs));
  for (auto& v : X) v = rng.uniform(-1, 1);
  auto X0 = X;

  solve_factored_multi(F, X, nrhs);
  for (index_t k = 0; k < nrhs; ++k) {
    std::vector<real_t> col(X0.begin() + static_cast<std::ptrdiff_t>(k) * static_cast<std::ptrdiff_t>(n),
                            X0.begin() + static_cast<std::ptrdiff_t>(k + 1) * static_cast<std::ptrdiff_t>(n));
    solve_factored(F, col);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(X[static_cast<std::size_t>(k) * n + i], col[i], 1e-12)
          << "rhs " << k << " row " << i;
  }
}

TEST(MultiRhsSolve, SingleColumnDegeneratesToVectorSolve) {
  const GridGeometry g{6, 6, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree tree = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs(A, tree);
  SupernodalMatrix F(bs);
  F.fill_from(A.permuted_symmetric(tree.perm()));
  factorize_sequential(F);
  const auto n = static_cast<std::size_t>(A.n_rows());
  std::vector<real_t> a(n, 1.0), b(n, 1.0);
  solve_factored_multi(F, a, 1);
  solve_factored(F, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Fingerprint, PatternOnlyIgnoresValuesAndSeesStructure) {
  const GridGeometry g{8, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);

  // Same pattern, different values -> same fingerprint (this is what lets
  // a service key refactorization caches on it).
  auto vals = std::vector<real_t>(A.values().begin(), A.values().end());
  for (auto& v : vals) v *= 1.75;
  const CsrMatrix A2 = CsrMatrix::from_raw(
      A.n_rows(), A.n_cols(),
      std::vector<offset_t>(A.row_ptr().begin(), A.row_ptr().end()),
      std::vector<index_t>(A.col_idx().begin(), A.col_idx().end()),
      std::move(vals));
  EXPECT_EQ(pattern_fingerprint(A), pattern_fingerprint(A2));

  // Different pattern -> different fingerprint.
  const CsrMatrix B = grid2d_laplacian(g, Stencil2D::NinePoint);
  const CsrMatrix C = grid2d_laplacian(GridGeometry{8, 9, 1},
                                       Stencil2D::FivePoint);
  EXPECT_NE(pattern_fingerprint(A), pattern_fingerprint(B));
  EXPECT_NE(pattern_fingerprint(A), pattern_fingerprint(C));
}

TEST(Fingerprint, StructureFingerprintMatchesSaveLoadCheck) {
  // The structure fingerprint is what write/read_factors_binary embed; it
  // must be stable across identical constructions and change with the
  // ordering.
  const GridGeometry g{9, 8, 1};
  const CsrMatrix A = grid2d_laplacian(g, Stencil2D::FivePoint);
  const SeparatorTree t1 = nested_dissection(A, {.leaf_size = 8});
  const BlockStructure bs_a(A, t1);
  const BlockStructure bs_b(A, t1);
  EXPECT_EQ(structure_fingerprint(bs_a), structure_fingerprint(bs_b));

  const SeparatorTree t2 = nested_dissection(A, {.leaf_size = 16});
  const BlockStructure bs_c(A, t2);
  EXPECT_NE(structure_fingerprint(bs_a), structure_fingerprint(bs_c));
}

}  // namespace
}  // namespace slu3d
