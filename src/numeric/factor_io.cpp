#include "numeric/factor_io.hpp"

#include <algorithm>
#include <fstream>
#include <memory>

#include "support/check.hpp"

namespace slu3d {

namespace {

constexpr std::uint64_t kCsrMagic = 0x534c5533'43535231ull;   // "SLU3CSR1"
constexpr std::uint64_t kTreeMagic = 0x534c5533'54524531ull;  // "SLU3TRE1"
constexpr std::uint64_t kFactMagic = 0x534c5533'46414331ull;  // "SLU3FAC1"

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  SLU3D_CHECK(static_cast<bool>(is), "truncated binary stream");
  return v;
}

template <typename T>
void put_vec(std::ostream& os, std::span<const T> v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// Elements read per step by get_vec: 1 MiB of payload.
template <typename T>
constexpr std::uint64_t kReadChunk = (std::uint64_t{1} << 20) / sizeof(T);

/// Reads a length-prefixed vector. The claimed length is untrusted, so the
/// vector grows one bounded chunk at a time as the bytes actually arrive: a
/// length larger than the rest of the stream fails as a truncation while
/// the allocation is still proportional to the bytes actually read.
template <typename T>
std::vector<T> get_vec(std::istream& is) {
  const auto n = get<std::uint64_t>(is);
  std::vector<T> v;
  SLU3D_CHECK(n <= v.max_size(), "binary stream: vector length out of range");
  while (v.size() < n) {
    const std::size_t have = v.size();
    const auto take = static_cast<std::size_t>(
        std::min<std::uint64_t>(kReadChunk<T>, n - have));
    v.resize(have + take);
    is.read(reinterpret_cast<char*>(v.data() + have),
            static_cast<std::streamsize>(take * sizeof(T)));
    SLU3D_CHECK(static_cast<bool>(is), "truncated binary stream");
  }
  return v;
}

struct FingerprintMixer {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  void mix(std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
};

}  // namespace

std::uint64_t pattern_fingerprint(const CsrMatrix& A) {
  FingerprintMixer m;
  m.mix(static_cast<std::uint64_t>(A.n_rows()));
  m.mix(static_cast<std::uint64_t>(A.n_cols()));
  for (const offset_t p : A.row_ptr()) m.mix(static_cast<std::uint64_t>(p));
  for (const index_t c : A.col_idx()) m.mix(static_cast<std::uint64_t>(c));
  return m.h;
}

std::uint64_t pattern_fingerprint(const CsrMatrix& A, std::uint64_t salt) {
  FingerprintMixer m;
  m.mix(salt);
  m.mix(static_cast<std::uint64_t>(A.n_rows()));
  m.mix(static_cast<std::uint64_t>(A.n_cols()));
  for (const offset_t p : A.row_ptr()) m.mix(static_cast<std::uint64_t>(p));
  for (const index_t c : A.col_idx()) m.mix(static_cast<std::uint64_t>(c));
  return m.h;
}

std::uint64_t structure_fingerprint(const BlockStructure& bs) {
  FingerprintMixer m;
  m.mix(static_cast<std::uint64_t>(bs.n()));
  m.mix(static_cast<std::uint64_t>(bs.n_snodes()));
  for (int s = 0; s < bs.n_snodes(); ++s) {
    m.mix(static_cast<std::uint64_t>(bs.snode_size(s)));
    m.mix(static_cast<std::uint64_t>(bs.panel_rows(s)));
  }
  return m.h;
}

void write_csr_binary(std::ostream& os, const CsrMatrix& A) {
  put(os, kCsrMagic);
  put<std::int64_t>(os, A.n_rows());
  put<std::int64_t>(os, A.n_cols());
  put_vec(os, A.row_ptr());
  put_vec(os, A.col_idx());
  put_vec(os, A.values());
}

CsrMatrix read_csr_binary(std::istream& is) {
  SLU3D_CHECK(get<std::uint64_t>(is) == kCsrMagic, "not a CSR binary stream");
  const auto nr = static_cast<index_t>(get<std::int64_t>(is));
  const auto nc = static_cast<index_t>(get<std::int64_t>(is));
  auto rp = get_vec<offset_t>(is);
  auto ci = get_vec<index_t>(is);
  auto va = get_vec<real_t>(is);
  return CsrMatrix::from_raw(nr, nc, std::move(rp), std::move(ci), std::move(va));
}

void write_tree_binary(std::ostream& os, const SeparatorTree& tree) {
  put(os, kTreeMagic);
  put_vec(os, tree.perm());
  put<std::int64_t>(os, tree.n_nodes());
  put<std::int64_t>(os, tree.root());
  for (const SepTreeNode& nd : tree.nodes()) {
    put<std::int64_t>(os, nd.subtree_first);
    put<std::int64_t>(os, nd.sep_first);
    put<std::int64_t>(os, nd.sep_last);
    put<std::int64_t>(os, nd.left);
    put<std::int64_t>(os, nd.right);
    put<std::int64_t>(os, nd.parent);
  }
}

SeparatorTree read_tree_binary(std::istream& is) {
  SLU3D_CHECK(get<std::uint64_t>(is) == kTreeMagic, "not a tree binary stream");
  auto perm = get_vec<index_t>(is);
  const auto n_nodes = get<std::int64_t>(is);
  SLU3D_CHECK(n_nodes >= 0, "tree binary stream: negative node count");
  const auto root = static_cast<int>(get<std::int64_t>(is));
  // The node count is untrusted: reserve at most one read chunk up front
  // and let a truncated stream fail in get() before the vector grows far.
  std::vector<SepTreeNode> nodes;
  nodes.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(n_nodes), kReadChunk<SepTreeNode>)));
  for (std::int64_t i = 0; i < n_nodes; ++i) {
    SepTreeNode nd;
    nd.subtree_first = static_cast<index_t>(get<std::int64_t>(is));
    nd.sep_first = static_cast<index_t>(get<std::int64_t>(is));
    nd.sep_last = static_cast<index_t>(get<std::int64_t>(is));
    nd.left = static_cast<int>(get<std::int64_t>(is));
    nd.right = static_cast<int>(get<std::int64_t>(is));
    nd.parent = static_cast<int>(get<std::int64_t>(is));
    nodes.push_back(nd);
  }
  return SeparatorTree(std::move(perm), std::move(nodes), root);
}

void write_factors_binary(std::ostream& os, const SupernodalMatrix& F) {
  const BlockStructure& bs = F.structure();
  put(os, kFactMagic);
  put(os, structure_fingerprint(bs));
  for (int s = 0; s < bs.n_snodes(); ++s) {
    put_vec(os, F.diag(s));
    put_vec(os, F.lpanel(s));
    put_vec(os, F.upanel(s));
  }
}

SupernodalMatrix read_factors_binary(std::istream& is,
                                     const BlockStructure& bs) {
  SLU3D_CHECK(get<std::uint64_t>(is) == kFactMagic, "not a factor binary stream");
  SLU3D_CHECK(get<std::uint64_t>(is) == structure_fingerprint(bs),
              "factor file does not match this matrix/ordering");
  SupernodalMatrix F(bs);
  for (int s = 0; s < bs.n_snodes(); ++s) {
    const auto d = get_vec<real_t>(is);
    SLU3D_CHECK(d.size() == F.diag(s).size(), "diag extent mismatch");
    std::copy(d.begin(), d.end(), F.diag(s).begin());
    const auto lp = get_vec<real_t>(is);
    SLU3D_CHECK(lp.size() == F.lpanel(s).size(), "L extent mismatch");
    std::copy(lp.begin(), lp.end(), F.lpanel(s).begin());
    const auto up = get_vec<real_t>(is);
    SLU3D_CHECK(up.size() == F.upanel(s).size(), "U extent mismatch");
    std::copy(up.begin(), up.end(), F.upanel(s).begin());
  }
  return F;
}

void save_factorization(const std::string& path, const SeparatorTree& tree,
                        const SupernodalMatrix& F) {
  std::ofstream os(path, std::ios::binary);
  SLU3D_CHECK(os.good(), "cannot open " + path);
  write_tree_binary(os, tree);
  write_factors_binary(os, F);
}

std::pair<SeparatorTree, SupernodalMatrix> load_factorization(
    const std::string& path, const CsrMatrix& A,
    std::unique_ptr<BlockStructure>* bs_out) {
  std::ifstream is(path, std::ios::binary);
  SLU3D_CHECK(is.good(), "cannot open " + path);
  SeparatorTree tree = read_tree_binary(is);
  auto bs = std::make_unique<BlockStructure>(A, tree);
  SupernodalMatrix F = read_factors_binary(is, *bs);
  SLU3D_CHECK(bs_out != nullptr, "bs_out must receive the block structure");
  *bs_out = std::move(bs);
  return {std::move(tree), std::move(F)};
}

}  // namespace slu3d
