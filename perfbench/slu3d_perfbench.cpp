// Repository benchmark driver. Runs one workload through the public
// SolverService / SolverFleet API on a 2x1x2 simulated grid (P = 4 rank
// threads, one compute thread each, flat platform, library-default wire
// formats), checks every answer with its own SpMV, and prints one JSON line:
//
//   slu3d_perfbench --workload cold-planar|warm-3d|fleet-solve --seed N
//                   --seconds S --trace 0|1 [--scale K] [--panel-sync]
//                   [--rate R]
//
// --trace 0 reports the end-to-end metrics on both clocks (host wall clock
// of this process, simulated LogGP clock of the library). --trace 1 is the
// separate traced run: it replays the workload's fixed request sample with
// spans around every public call, calls each module's public entry points
// from the outside on the workload's matrices, writes the spans as a
// Chrome trace, prints a per-layer self-time table and reports the
// per-layer metrics. --scale, --panel-sync and --rate perturb the inputs
// or options for the sensitivity self-test (perfbench/selftest.py).
//
// Every simulated metric is a pure function of the seed: the simulated
// sample of each workload is a fixed request list, independent of how many
// requests the host manages in --seconds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/dist_analysis.hpp"
#include "fleet/solver_fleet.hpp"
#include "lu3d/factor3d.hpp"
#include "lu3d/solve3d.hpp"
#include "numeric/dense_kernels.hpp"
#include "numeric/solver.hpp"
#include "order/nested_dissection.hpp"
#include "service/solver_service.hpp"
#include "simmpi/process_grid.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"
#include "symbolic/block_structure.hpp"

namespace {

using namespace slu3d;
using Clock = std::chrono::steady_clock;
using MatrixPtr = std::shared_ptr<const CsrMatrix>;

// ---- fixed workload constants (never calibrated from the program) -------

constexpr int kPx = 2, kPy = 1, kPz = 2, kRanks = kPx * kPy * kPz;
constexpr int kSetupRepeats = 3;
/// Accuracy every answer must meet: ||Ax - b||_2 / ||b||_2 per column.
constexpr double kResidualTol = 1e-9;
/// Agreement with SparseLuSolver on the first requests of a workload.
constexpr double kReferenceTol = 1e-8;
constexpr int kReferenceChecks = 3;

// cold-planar: 17 sides x 2 stencils, each pass visits them in one
// seed-shuffled order, so a pattern recurs only 34 requests later — past
// the service's 8-pattern LRU capacity, so every request misses.
constexpr int kColdSideLo = 56, kColdSideHi = 72;
constexpr int kColdOffsets = 4;  // ny = side + {0..3}, drawn per request
constexpr int kColdSamplePasses = 6;
constexpr int kColdWarmups = 16;

// warm-3d: three resident non-planar patterns x nrhs {1, 4, 16}.
constexpr int kWarmSamplePasses = 12;
constexpr int kWarmValueVersions = 4;
constexpr index_t kWarmNrhs[] = {1, 4, 16};

// fleet-solve: open loop on the simulated clock.
constexpr int kFleetShards = 2;
constexpr int kFleetPatterns = 6;
constexpr int kFleetTraces = 4;            // main-rate traces in the sample
constexpr int kFleetRequests = 1000;       // per trace
constexpr int kFleetRungTraces = 1;        // traces replayed per ladder rung
constexpr double kFleetRate = 600;         // arrivals per simulated second
constexpr double kFleetLadder[] = {300, 450, 600, 750, 900, 1050, 1200};
constexpr double kFleetWindow = 1e-3;      // coalescing window, sim seconds
constexpr double kFleetP99Limit = 12e-3;   // latency limit, sim seconds
constexpr std::size_t kFleetQueueDepth = 16;
constexpr int kFleetBumpEvery = 20;        // 5% of requests bump values

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

struct CpuSample {
  double cpu_s = 0;
  long csw = 0;
};

CpuSample cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  CpuSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  s.csw = ru.ru_nvcsw + ru.ru_nivcsw;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- arguments -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int scale = 0;            ///< added to every grid side
  bool panel_sync = false;  ///< PanelOptions::async = false
  double rate = 0;          ///< fleet main rate override (0 = kFleetRate)
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: slu3d_perfbench --workload "
               "cold-planar|warm-3d|fleet-solve --seed N --seconds S "
               "--trace 0|1 [--scale K] [--panel-sync] [--rate R]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
      have_seconds = true;
    } else if (k == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (k == "--scale") {
      a.scale = std::atoi(value().c_str());
    } else if (k == "--panel-sync") {
      a.panel_sync = true;
    } else if (k == "--rate") {
      a.rate = std::atof(value().c_str());
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "cold-planar" && a.workload != "warm-3d" &&
      a.workload != "fleet-solve")
    usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds and --trace are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.scale < -8 || a.scale > 16) usage("--scale must be in [-8, 16]");
  if (a.rate < 0) usage("--rate must be non-negative");
  return a;
}

service::ServiceOptions service_options(const Args& a) {
  service::ServiceOptions so;
  so.Px = kPx;
  so.Py = kPy;
  so.Pz = kPz;
  so.analysis = AnalysisMode::Distributed;
  so.lu3d.lu2d.threads = 1;  // pinned: never read from SLU3D_THREADS
  so.lu3d.lu2d.async = !a.panel_sync;
  return so;
}

// ---- spans ---------------------------------------------------------------

/// In-memory span recorder. Spans nest on the benchmark's single calling
/// thread; each records its parent and the request it belongs to.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0, end = 0;
    int parent = -1;
    long request = -1;
  };

  explicit Tracer(bool on) : on_(on), t0_(now_s()) {}
  bool on() const { return on_; }

  int open(const std::string& name, long request) {
    if (!on_) return -1;
    spans_.push_back({name, now_s() - t0_, 0, current_, request});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_s() - t0_;
    current_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (complete "X" events), loadable in Perfetto.
  void write_chrome(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                    "\"parent\":%d,\"request\":%ld}}%s\n",
                    s.name.c_str(), layer_of(s.name).c_str(), 1e6 * s.start,
                    1e6 * (s.end - s.start), i, s.parent, s.request,
                    i + 1 < spans_.size() ? "," : "");
      f << buf;
    }
    f << "]}\n";
  }

  /// Self time (seconds) and span count per (root span name, layer): a
  /// span's self time is its duration minus its children's.
  std::map<std::pair<std::string, std::string>, std::pair<double, long>>
  self_by_layer() const {
    std::vector<double> child(spans_.size(), 0);
    std::vector<std::size_t> root(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;  // parents precede their children
      root[i] = p < 0 ? i : root[static_cast<std::size_t>(p)];
      if (p >= 0)
        child[static_cast<std::size_t>(p)] += spans_[i].end - spans_[i].start;
    }
    std::map<std::pair<std::string, std::string>, std::pair<double, long>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& e = out[{spans_[root[i]].name, layer_of(spans_[i].name)}];
      e.first += spans_[i].end - spans_[i].start - child[i];
      e.second += 1;
    }
    return out;
  }

  static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

 private:
  bool on_;
  double t0_;
  int current_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, long request = -1)
      : t_(t), id_(t.open(name, request)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- metrics + correctness ----------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Independent correctness gate: the benchmark's own SpMV residual on every
/// answer, and agreement with SparseLuSolver on a workload's first ones.
class Checker {
 public:
  long attempted = 0;
  long ok = 0;
  bool wrong = false;

  /// Returns true if every column of the n x nrhs panel x solves A x = b.
  bool accurate(const CsrMatrix& A, std::span<const real_t> b,
                std::span<const real_t> x, index_t nrhs) {
    const auto n = static_cast<std::size_t>(A.n_rows());
    const auto rp = A.row_ptr();
    const auto ci = A.col_idx();
    const auto va = A.values();
    for (index_t j = 0; j < nrhs; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * n;
      double rr = 0, bb = 0;
      for (std::size_t r = 0; r < n; ++r) {
        double ax = 0;
        for (auto q = static_cast<std::size_t>(rp[r]);
             q < static_cast<std::size_t>(rp[r + 1]); ++q)
          ax += va[q] * x[off + static_cast<std::size_t>(ci[q])];
        const double d = b[off + r] - ax;
        rr += d * d;
        bb += b[off + r] * b[off + r];
      }
      if (!(std::sqrt(rr) <= kResidualTol * std::sqrt(bb))) return false;
    }
    return true;
  }

  /// Counts one attempted request; a served answer must be accurate.
  void record(bool served, bool accurate_answer) {
    ++attempted;
    if (served && accurate_answer) ++ok;
    if (served && !accurate_answer) {
      wrong = true;
      std::fprintf(stderr, "wrong answer on request %ld\n", attempted - 1);
    }
  }

  /// Compares column 0 of a served answer with SparseLuSolver's.
  void reference(const CsrMatrix& A, std::span<const real_t> b,
                 std::span<const real_t> x) {
    const auto n = static_cast<std::size_t>(A.n_rows());
    SparseLuSolver ref(A);
    std::vector<real_t> xr(n);
    ref.solve(b.first(n), xr);
    double dmax = 0, rmax = 0;
    for (std::size_t i = 0; i < n; ++i) {
      dmax = std::max(dmax, std::abs(x[i] - xr[i]));
      rmax = std::max(rmax, std::abs(xr[i]));
    }
    if (!(dmax <= kReferenceTol * rmax)) {
      wrong = true;
      std::fprintf(stderr, "answer differs from SparseLuSolver: %.3e\n",
                   dmax / rmax);
    }
  }
};

std::vector<real_t> random_panel(std::size_t len, Rng& rng) {
  std::vector<real_t> v(len);
  for (auto& e : v) e = rng.uniform(-1, 1);
  return v;
}

CsrMatrix scaled(const CsrMatrix& A, real_t f) {
  CsrMatrix B = A;
  for (auto& v : B.values()) v *= f;
  return B;
}

// ---- per-layer probes ------------------------------------------------------

/// Per-layer numbers of one probe matrix, measured by calling each module's
/// public entry points from the outside.
using LayerValues = std::map<std::string, double>;

template <class F>
double time_ms(F&& f) {
  const double t0 = now_s();
  f();
  return 1e3 * (now_s() - t0);
}

/// Times a dense kernel at one shape until at least 2 ms accumulate.
/// Returns seconds per call.
template <class F>
double kernel_seconds(F&& call) {
  int reps = 0;
  const double t0 = now_s();
  double t = 0;
  do {
    call();
    ++reps;
    t = now_s() - t0;
  } while (t < 2e-3);
  return t / reps;
}

void probe_kernels(const BlockStructure& bs, Tracer& tr, LayerValues& lv) {
  // The Schur-update shapes of the four most expensive supernodes: a
  // diagonal block (ns x ns), its L panel (m x ns) and the update GEMM.
  std::vector<int> order(static_cast<std::size_t>(bs.n_snodes()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return bs.snode_flops(a) != bs.snode_flops(b)
               ? bs.snode_flops(a) > bs.snode_flops(b)
               : a < b;
  });
  order.resize(std::min<std::size_t>(order.size(), 4));
  double gemm_f = 0, gemm_t = 0, gemm_b = 0;
  double getrf_f = 0, getrf_t = 0, getrf_b = 0;
  double trsm_f = 0, trsm_t = 0, trsm_b = 0;
  Rng rng(17);
  for (int s : order) {
    const index_t ns = bs.snode_size(s);
    const index_t m = std::max<index_t>(bs.panel_rows(s), 1);
    const auto ns_z = static_cast<std::size_t>(ns);
    const auto m_z = static_cast<std::size_t>(m);
    std::vector<real_t> diag = random_panel(ns_z * ns_z, rng);
    for (index_t i = 0; i < ns; ++i)
      diag[static_cast<std::size_t>(i) * (ns_z + 1)] += 2.0 * ns;
    std::vector<real_t> work(diag.size());
    {
      ScopedSpan sp(tr, "numeric.getrf_nopiv");
      getrf_t += kernel_seconds([&] {
        work = diag;
        dense::getrf_nopiv(ns, work.data(), ns);
      });
    }
    getrf_f += static_cast<double>(dense::getrf_flops(ns));
    getrf_b += 8.0 * 2.0 * static_cast<double>(ns_z * ns_z);
    std::vector<real_t> lu = work;
    std::vector<real_t> panel = random_panel(m_z * ns_z, rng), pw(panel.size());
    {
      ScopedSpan sp(tr, "numeric.trsm_right_upper");
      trsm_t += kernel_seconds([&] {
        pw = panel;
        dense::trsm_right_upper(ns, m, lu.data(), ns, pw.data(), m);
      });
    }
    trsm_f += static_cast<double>(dense::trsm_flops(ns, m));
    trsm_b += 8.0 * static_cast<double>(ns_z * ns_z / 2 + 2 * m_z * ns_z);
    std::vector<real_t> upanel = random_panel(ns_z * m_z, rng);
    std::vector<real_t> c(m_z * m_z, 0.0);
    {
      ScopedSpan sp(tr, "numeric.gemm_minus");
      gemm_t += kernel_seconds([&] {
        dense::gemm_minus(m, m, ns, pw.data(), m, upanel.data(), ns, c.data(),
                          m);
      });
    }
    gemm_f += static_cast<double>(dense::gemm_flops(m, m, ns));
    gemm_b += 8.0 * static_cast<double>(2 * m_z * ns_z + 2 * m_z * m_z);
  }
  lv["numeric.gemm_gflops"] = 1e-9 * gemm_f / gemm_t;
  lv["numeric.getrf_gflops"] = 1e-9 * getrf_f / getrf_t;
  lv["numeric.trsm_gflops"] = 1e-9 * trsm_f / trsm_t;
  lv["numeric.gemm_flop_per_byte"] = gemm_f / gemm_b;
  lv["numeric.getrf_flop_per_byte"] = getrf_f / getrf_b;
  lv["numeric.trsm_flop_per_byte"] = trsm_f / trsm_b;
}

/// Max/mean factorization flops over the grids of the deepest forest level.
double forest_imbalance(const BlockStructure& bs, const ForestPartition& part) {
  const int lvl = part.n_levels() - 1;
  std::vector<double> per_grid;
  for (int pz = 0; pz < part.Pz(); ++pz) {
    double f = 0;
    for (int s : part.nodes_at(pz, lvl))
      f += static_cast<double>(bs.snode_flops(s));
    per_grid.push_back(f);
  }
  const double mean =
      std::accumulate(per_grid.begin(), per_grid.end(), 0.0) /
      static_cast<double>(per_grid.size());
  return mean > 0 ? *std::max_element(per_grid.begin(), per_grid.end()) / mean
                  : 1.0;
}

LayerValues probe_matrix(const CsrMatrix& A, const Args& args, Tracer& tr) {
  ScopedSpan root(tr, "bench.probe_matrix");
  const service::ServiceOptions so = service_options(args);
  LayerValues lv;

  std::unique_ptr<SeparatorTree> tree;
  lv["order.nd_ms"] = time_ms([&] {
    ScopedSpan sp(tr, "order.nested_dissection");
    tree = std::make_unique<SeparatorTree>(nested_dissection(A, so.nd));
  });
  std::unique_ptr<BlockStructure> bs;
  lv["symbolic.ms"] = time_ms([&] {
    ScopedSpan sp(tr, "symbolic.BlockStructure");
    bs = std::make_unique<BlockStructure>(A, *tree);
  });
  lv["order.nnz_l"] = static_cast<double>(bs->total_nnz());
  lv["symbolic.supernodes"] = bs->n_snodes();
  lv["symbolic.flops"] = static_cast<double>(bs->total_flops());

  {
    sim::RunResult ar;
    lv["analysis.host_ms"] = time_ms([&] {
      ScopedSpan sp(tr, "analysis.analyze_in_sim");
      ar = sim::run_ranks(kRanks, so.platform, [&](sim::Comm& world) {
        analyze_in_sim(A, world, so.nd, AnalysisMode::Distributed);
      });
    });
    lv["analysis.sim_ms"] = 1e3 * ar.max_analysis_seconds();
    lv["analysis.msgs"] = static_cast<double>(ar.total_analysis_messages_sent());
    lv["analysis.max_kb"] =
        static_cast<double>(ar.max_analysis_bytes_received()) / 1024.0;
  }

  probe_kernels(*bs, tr, lv);

  const auto n = static_cast<std::size_t>(A.n_rows());
  Rng rng(29);
  const std::vector<real_t> b = random_panel(n, rng);
  lv["numeric.seq_ms"] = time_ms([&] {
    ScopedSpan sp(tr, "numeric.SparseLuSolver");
    SparseLuSolver seq(A);
    std::vector<real_t> x(n);
    seq.solve(b, x);
  });

  {
    std::vector<double> us;
    ScopedSpan sp(tr, "simmpi.run_ranks");
    for (int i = 0; i < 20; ++i)
      us.push_back(1e3 * time_ms([&] {
        sim::run_ranks(kRanks, so.platform, [](sim::Comm&) {});
      }));
    lv["simmpi.run_us"] = median(us);
  }

  // The 3D factorization and solve, called directly on the grid.
  const CsrMatrix Ap = A.permuted_symmetric(tree->perm());
  const ForestPartition part(*bs, kPz, so.partition);
  lv["lu3d.forest_imbalance"] = forest_imbalance(*bs, part);
  std::vector<std::unique_ptr<Dist2dFactors>> F(kRanks);
  std::vector<offset_t> mem(kRanks, 0);
  sim::run_ranks(kRanks, so.platform, [&](sim::Comm& world) {
    auto grid = sim::ProcessGrid3D::create(world, kPx, kPy, kPz);
    const auto r = static_cast<std::size_t>(world.rank());
    F[r] = std::make_unique<Dist2dFactors>(make_3d_factors(*bs, grid, part, Ap));
    mem[r] = F[r]->allocated_bytes();
  });
  lv["lu3d.mem_max_mb"] =
      static_cast<double>(*std::max_element(mem.begin(), mem.end())) / 1e6;
  sim::RunResult fr;
  lv["lu3d.factor_host_ms"] = time_ms([&] {
    ScopedSpan sp(tr, "lu3d.factorize_3d");
    fr = sim::run_ranks(kRanks, so.platform, [&](sim::Comm& world) {
      auto grid = sim::ProcessGrid3D::create(world, kPx, kPy, kPz);
      Dist2dFactors& f = *F[static_cast<std::size_t>(world.rank())];
      refill_3d_factors(f, grid, part, Ap);
      factorize_3d(f, grid, part, so.lu3d);
    });
  });
  lv["lu3d.factor_sim_ms"] = 1e3 * fr.max_clock();
  const sim::RankStats* crit = &fr.ranks.front();
  double wait = 0;
  for (const auto& r : fr.ranks) {
    if (r.clock > crit->clock) crit = &r;
    wait = std::max(wait, r.wait_seconds);
  }
  constexpr auto kXY = sim::CommPlane::XY;
  constexpr auto kZ = sim::CommPlane::Z;
  lv["simmpi.wait_ms"] = 1e3 * wait;
  lv["pipeline.t_scu_ms"] =
      1e3 * crit->compute_seconds[static_cast<int>(sim::ComputeKind::SchurUpdate)];
  lv["pipeline.t_comm_ms"] = 1e3 * crit->comm_seconds();
  lv["pipeline.w_fact_kb"] =
      static_cast<double>(fr.max_bytes_received(kXY)) / 1024.0;
  lv["pipeline.w_red_kb"] =
      static_cast<double>(fr.max_bytes_received(kZ)) / 1024.0;
  double xy_msgs = 0, z_msgs = 0;
  for (const auto& r : fr.ranks) {
    xy_msgs += static_cast<double>(r.messages_sent[0]);
    z_msgs += static_cast<double>(r.messages_sent[1]);
  }
  lv["pipeline.xy_msgs"] = xy_msgs;
  lv["pipeline.z_msgs"] = z_msgs;
  const auto dense_b = static_cast<double>(fr.total_panel_dense_bytes());
  lv["pipeline.panel_saved_frac"] =
      dense_b > 0 ? static_cast<double>(fr.total_panel_saved_bytes()) / dense_b
                  : 0.0;

  std::vector<real_t> pb(n);
  const std::vector<index_t> pinv = invert_permutation(tree->perm());
  for (std::size_t i = 0; i < n; ++i)
    pb[static_cast<std::size_t>(pinv[i])] = b[i];
  sim::RunResult sr;
  lv["lu3d.solve_host_ms"] = time_ms([&] {
    ScopedSpan sp(tr, "lu3d.solve_3d");
    sr = sim::run_ranks(kRanks, so.platform, [&](sim::Comm& world) {
      auto grid = sim::ProcessGrid3D::create(world, kPx, kPy, kPz);
      std::vector<real_t> x(pb);
      solve_3d(*F[static_cast<std::size_t>(world.rank())], world, grid, part,
               x);
    });
  });
  lv["lu3d.solve_sim_ms"] = 1e3 * sr.max_clock();
  double w_solve = 0, solve_msgs = 0;
  for (const auto& r : sr.ranks) {
    w_solve = std::max(
        w_solve, static_cast<double>(r.bytes_received[0] + r.bytes_received[1]));
    solve_msgs += static_cast<double>(r.messages_sent[0] + r.messages_sent[1]);
  }
  lv["lu3d.w_solve_kb"] = w_solve / 1024.0;
  lv["lu3d.solve_msgs"] = solve_msgs;
  lv["simmpi.us_per_msg"] = 1e3 * lv["lu3d.solve_host_ms"] / solve_msgs;
  return lv;
}

/// Median of every per-layer value over the workload's probe matrices.
LayerValues probe_layers(const std::vector<MatrixPtr>& mats, const Args& args,
                         Tracer& tr) {
  std::map<std::string, std::vector<double>> all;
  for (const MatrixPtr& A : mats)
    for (const auto& [k, v] : probe_matrix(*A, args, tr)) all[k].push_back(v);
  LayerValues out;
  for (auto& [k, v] : all) out[k] = median(v);
  return out;
}

// ---- workload results ----------------------------------------------------

struct Result {
  std::vector<Metric> metrics;
  Checker check;
};

/// End-to-end metrics shared by the closed-loop service workloads.
struct ServiceRun {
  std::vector<double> host_ms;  ///< factor+solve wall per timed request
  std::vector<double> sim_ms;   ///< simulated latency, fixed sample only
  double mem_max = 0;           ///< bytes, max over the sample
  double msgs = 0;  ///< analysis + solve messages the sample's reports count
  long requests = 0;
  double wall_s = 0, cpu_s = 0;
};

void add_service_metrics(const ServiceRun& r, double setup_s,
                         std::vector<Metric>& m, const Checker& chk) {
  double sim_total = 0;
  for (double v : r.sim_ms) sim_total += v;
  const auto req = static_cast<double>(r.requests);
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"host_p50_ms", percentile(r.host_ms, 0.5), "ms"});
  m.push_back({"host_p90_ms", percentile(r.host_ms, 0.9), "ms"});
  m.push_back({"host_req_per_s", req / r.wall_s, "1/s"});
  m.push_back({"host_cpu_ms_per_req", 1e3 * r.cpu_s / req, "ms"});
  m.push_back({"host_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"sim_p50_ms", percentile(r.sim_ms, 0.5), "ms"});
  m.push_back({"sim_p90_ms", percentile(r.sim_ms, 0.9), "ms"});
  m.push_back({"sim_p99_ms", percentile(r.sim_ms, 0.99), "ms"});
  m.push_back({"sim_mem_max_mb", r.mem_max / 1e6, "MB"});
  // One closed-loop client: requests per simulated second of its sample.
  m.push_back({"sim_capacity_rps",
               1e3 * static_cast<double>(r.sim_ms.size()) / sim_total, "1/s"});
  m.push_back({"ok_frac",
               static_cast<double>(chk.ok) / static_cast<double>(chk.attempted),
               "fraction"});
}

/// One closed-loop service request: its operator and right-hand side panel.
struct ServiceRequest {
  MatrixPtr A;
  const std::vector<real_t>* b = nullptr;
  index_t nrhs = 1;
};

/// Runs requests[i % size] in order: at least `sample` requests, then, when
/// `time_bound`, on until `seconds` have elapsed. Simulated numbers come
/// from the sample. Calls get spans when `tr` is on.
ServiceRun run_service_loop(service::SolverService& svc,
                            const std::vector<ServiceRequest>& requests,
                            std::size_t sample, double seconds, Checker& chk,
                            Tracer& tr, bool time_bound) {
  ServiceRun run;
  std::vector<real_t> x;
  struct Saved {
    MatrixPtr A;
    std::vector<real_t> b, x;
  };
  std::vector<Saved> saved;
  const CpuSample c0 = cpu_now();
  const double t0 = now_s();
  for (std::size_t i = 0;; ++i) {
    if (i >= sample && (!time_bound || now_s() - t0 >= seconds)) break;
    const ServiceRequest& rq = requests[i % requests.size()];
    x.resize(rq.b->size());
    service::FactorReport fr;
    service::SolveReport sr;
    const double h0 = now_s();
    {
      ScopedSpan req(tr, "bench.request", static_cast<long>(i));
      {
        ScopedSpan sp(tr, "service.factor", static_cast<long>(i));
        fr = svc.factor(*rq.A);
      }
      {
        ScopedSpan sp(tr, "service.solve", static_cast<long>(i));
        sr = svc.solve({*rq.b, x, rq.nrhs});
      }
    }
    run.host_ms.push_back(1e3 * (now_s() - h0));
    if (i < sample) {
      run.sim_ms.push_back(1e3 * (fr.factor_time + sr.solve_time));
      run.mem_max = std::max(run.mem_max, static_cast<double>(fr.mem_max));
      run.msgs += static_cast<double>(fr.msg_analysis + sr.msg_solve_xy +
                                      sr.msg_solve_z);
    }
    chk.record(true, chk.accurate(*rq.A, *rq.b, x, rq.nrhs));
    if (saved.size() < kReferenceChecks) saved.push_back({rq.A, *rq.b, x});
  }
  run.wall_s = now_s() - t0;
  run.cpu_s = cpu_now().cpu_s - c0.cpu_s;
  run.requests = static_cast<long>(run.host_ms.size());
  for (const Saved& s : saved) chk.reference(*s.A, s.b, s.x);
  return run;
}

/// Runs `setup` kSetupRepeats times; returns the median wall seconds. The
/// state built by the last repeat is the one the workload uses.
double timed_setup(const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

// ---- cold-planar ----------------------------------------------------------

struct ColdInputs {
  std::vector<ServiceRequest> requests;  ///< one shuffled pass per 34
  std::vector<std::vector<real_t>> rhs;
  std::vector<MatrixPtr> probes;
  std::unique_ptr<service::SolverService> svc;
};

void cold_setup(const Args& args, ColdInputs& in) {
  Rng rng(args.seed);
  const int sides = kColdSideHi - kColdSideLo + 1;
  // Pool: every (side, stencil, ny offset) pattern.
  std::vector<MatrixPtr> pool;
  in.rhs.clear();
  for (int s = 0; s < sides; ++s)
    for (int st = 0; st < 2; ++st)
      for (int d = 0; d < kColdOffsets; ++d) {
        const index_t nx = kColdSideLo + s + args.scale;
        pool.push_back(std::make_shared<CsrMatrix>(grid2d_laplacian(
            GridGeometry{nx, nx + d, 1},
            st ? Stencil2D::NinePoint : Stencil2D::FivePoint)));
        in.rhs.push_back(random_panel(
            static_cast<std::size_t>(pool.back()->n_rows()), rng));
      }
  std::vector<int> order(static_cast<std::size_t>(2 * sides));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.next_index(static_cast<index_t>(i)))]);
  // Enough passes for the longest run; each pass draws fresh ny offsets.
  in.requests.clear();
  for (int pass = 0; pass < 64; ++pass)
    for (int combo : order) {
      const auto k = static_cast<std::size_t>(kColdOffsets * combo) +
                     static_cast<std::size_t>(rng.next_index(kColdOffsets));
      in.requests.push_back({pool[k], &in.rhs[k], 1});
    }
  in.probes = {in.requests[0].A, in.requests[1].A, in.requests[2].A};
  in.svc = std::make_unique<service::SolverService>(service_options(args));
  // Warm-up on patterns outside the pool (sides below it) so the first
  // timed request already runs on started threads and touched allocators.
  for (int s = 0; s < kColdWarmups; ++s) {
    const index_t side = kColdSideLo - kColdWarmups + s + args.scale;
    const CsrMatrix W = grid2d_laplacian(
        GridGeometry{side, side, 1},
        s % 2 ? Stencil2D::NinePoint : Stencil2D::FivePoint);
    std::vector<real_t> b(static_cast<std::size_t>(W.n_rows()), 1.0), x(b.size());
    in.svc->factor(W);
    in.svc->solve({b, x, 1});
  }
}

// ---- warm-3d ----------------------------------------------------------------

struct WarmInputs {
  std::vector<ServiceRequest> requests;
  std::vector<std::vector<real_t>> rhs;
  std::vector<MatrixPtr> probes;
  std::unique_ptr<service::SolverService> svc;
};

void warm_setup(const Args& args, WarmInputs& in) {
  Rng rng(args.seed);
  struct Shape {
    index_t nx, ny, nz;
    Stencil3D st;
  };
  auto d = [&] { return static_cast<index_t>(rng.next_index(2)) + args.scale; };
  const Shape shapes[] = {{20, 20, 19 + d(), Stencil3D::SevenPoint},
                          {18, 18, 17 + d(), Stencil3D::SevenPoint},
                          {16, 16, 15 + d(), Stencil3D::TwentySevenPoint}};
  std::vector<std::vector<MatrixPtr>> versions;
  in.probes.clear();
  for (const Shape& s : shapes) {
    const CsrMatrix base = grid3d_laplacian(GridGeometry{s.nx, s.ny, s.nz}, s.st);
    versions.emplace_back();
    for (int v = 0; v < kWarmValueVersions; ++v)
      versions.back().push_back(std::make_shared<CsrMatrix>(
          scaled(base, static_cast<real_t>(1.0 + 0.01 * (v + 1)))));
    in.probes.push_back(std::make_shared<CsrMatrix>(base));
  }
  in.rhs.clear();
  in.rhs.reserve(std::size(shapes) * std::size(kWarmNrhs));
  for (std::size_t p = 0; p < std::size(shapes); ++p)
    for (index_t nrhs : kWarmNrhs)
      in.rhs.push_back(random_panel(
          static_cast<std::size_t>(in.probes[p]->n_rows()) *
              static_cast<std::size_t>(nrhs),
          rng));
  // Each pass visits every (pattern, nrhs) pair once in a fresh order, and
  // every request carries the pattern's next values version.
  std::vector<int> version(std::size(shapes), 0);
  in.requests.clear();
  for (int pass = 0; pass < 64; ++pass) {
    std::vector<int> combos(in.rhs.size());
    std::iota(combos.begin(), combos.end(), 0);
    for (std::size_t i = combos.size(); i > 1; --i)
      std::swap(combos[i - 1], combos[static_cast<std::size_t>(rng.next_index(
                                   static_cast<index_t>(i)))]);
    for (int c : combos) {
      const auto p = static_cast<std::size_t>(c) / std::size(kWarmNrhs);
      const index_t nrhs = kWarmNrhs[static_cast<std::size_t>(c) %
                                     std::size(kWarmNrhs)];
      const int v = version[p]++ % kWarmValueVersions;
      in.requests.push_back({versions[p][static_cast<std::size_t>(v)],
                             &in.rhs[static_cast<std::size_t>(c)], nrhs});
    }
  }
  in.svc = std::make_unique<service::SolverService>(service_options(args));
  // The first factorization of each resident pattern (its analysis) and
  // one warm request per (pattern, nrhs) pair belong to set-up.
  for (const MatrixPtr& A : in.probes) in.svc->factor(*A);
  std::vector<real_t> x;
  for (std::size_t i = 0; i < in.rhs.size(); ++i) {
    const ServiceRequest& rq = in.requests[i];
    x.resize(rq.b->size());
    in.svc->factor(*rq.A);
    in.svc->solve({*rq.b, x, rq.nrhs});
  }
}

// ---- fleet-solve ---------------------------------------------------------

struct FleetItem {
  MatrixPtr A;
  std::uint64_t version = 0;
  double gap = 0;  ///< exponential inter-arrival draw at unit rate
  std::vector<real_t> b;
};

struct FleetInputs {
  std::vector<MatrixPtr> patterns;
  /// Independent main-rate traces; ladder rungs replay the first one.
  std::vector<std::vector<FleetItem>> traces;
  double mem_max = 0;  ///< bytes: max per-rank numeric memory
};

void fleet_setup(const Args& args, FleetInputs& in) {
  Rng rng(args.seed);
  in.patterns.clear();
  for (int p = 0; p < kFleetPatterns; ++p) {
    const index_t nx = 42 + p + args.scale;
    const index_t ny = nx + static_cast<index_t>(rng.next_index(2));
    in.patterns.push_back(std::make_shared<CsrMatrix>(
        grid2d_laplacian(GridGeometry{nx, ny, 1}, Stencil2D::FivePoint)));
  }
  // Values version v of a pattern is its base values scaled by 1 + v/100,
  // so equal (pattern, version) pairs always carry equal values.
  std::vector<std::uint64_t> version(kFleetPatterns, 0);
  std::vector<MatrixPtr> current = in.patterns;
  // Stratified draws keep each trace's empirical mix equal to the nominal
  // one: inter-arrival gaps are exponential quantiles of a shuffled
  // stratification of [0, 1) (so the realized rate is the nominal rate),
  // every block of six requests visits each pattern once, and every block
  // of kFleetBumpEvery requests carries one values bump.
  auto shuffled = [&](int n) {
    std::vector<int> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 0);
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(
                              rng.next_index(static_cast<index_t>(i)))]);
    return v;
  };
  in.traces.assign(kFleetTraces, {});
  for (auto& items : in.traces) {
    const std::vector<int> strata = shuffled(kFleetRequests);
    std::vector<int> block;
    int bump_at = 0;
    for (int i = 0; i < kFleetRequests; ++i) {
      FleetItem it;
      const double u =
          (strata[static_cast<std::size_t>(i)] + rng.next_double()) /
          kFleetRequests;
      it.gap = -std::log(1.0 - u);
      if (i % kFleetPatterns == 0) block = shuffled(kFleetPatterns);
      const auto p =
          static_cast<std::size_t>(block[static_cast<std::size_t>(i % kFleetPatterns)]);
      if (i % kFleetBumpEvery == 0)
        bump_at = i + static_cast<int>(rng.next_index(kFleetBumpEvery));
      if (i == bump_at) {
        ++version[p];
        current[p] = std::make_shared<CsrMatrix>(scaled(
            *in.patterns[p],
            static_cast<real_t>(1.0 + 0.01 * static_cast<double>(version[p]))));
      }
      it.A = current[p];
      it.version = version[p];
      it.b = random_panel(static_cast<std::size_t>(it.A->n_rows()), rng);
      items.push_back(std::move(it));
    }
  }
  // Per-rank numeric memory of every pattern on one shard's grid.
  service::SolverService probe(service_options(args));
  in.mem_max = 0;
  for (const MatrixPtr& A : in.patterns)
    in.mem_max =
        std::max(in.mem_max, static_cast<double>(probe.factor(*A).mem_max));
}

struct FleetOutcome {
  std::vector<service::FleetResponse> responses;
  std::vector<double> batch_host_ms;  ///< host wall per dispatched batch
  service::FleetStats stats;
  service::ServiceStats totals;
  double wall_s = 0, cpu_s = 0, submit_us = 0, drain_ms = 0;
};

/// A fleet with every pattern resident, and the simulated time at which
/// its warm-up work has drained (traces start there, on idle shards).
struct WarmFleet {
  std::unique_ptr<service::SolverFleet> fleet;
  double idle_at = 0;
};

WarmFleet warm_fleet(const Args& args, const FleetInputs& in) {
  service::FleetOptions fo;
  fo.shards = kFleetShards;
  fo.service = service_options(args);
  fo.coalesce_window = kFleetWindow;
  fo.queue_depth = kFleetQueueDepth;
  WarmFleet w{std::make_unique<service::SolverFleet>(fo), 0.0};
  // Every pattern becomes resident on both shards before the trace: a burst
  // of queue_depth + 1 same-snapshot requests fills its home shard's queue
  // and the last one is redirected to the other shard. Affinity routing
  // then picks the least-loaded holder, so where the seed's patterns hash
  // to does not decide the load split.
  const std::size_t burst = kFleetQueueDepth + 1;
  std::vector<std::vector<real_t>> x(burst);
  for (const MatrixPtr& A : in.patterns) {
    const std::vector<real_t> b(static_cast<std::size_t>(A->n_rows()), 1.0);
    for (std::vector<real_t>& xi : x) {
      xi.assign(b.size(), 0.0);
      w.fleet->submit({0, A, 0, b, xi, 1}, w.fleet->now());
    }
    for (const auto& r : w.fleet->drain())
      w.idle_at = std::max(w.idle_at, r.completion);
  }
  return w;
}

/// Replays the first `count` items of a trace at `rate` (arrivals per
/// simulated second) against a warmed fleet.
FleetOutcome replay(WarmFleet& warm,
                    const std::vector<FleetItem>& items, std::size_t count,
                    double rate, Tracer& tr,
                    std::vector<std::vector<real_t>>& x) {
  FleetOutcome out;
  x.resize(count);
  service::SolverFleet& fleet = *warm.fleet;
  double t = warm.idle_at;
  const CpuSample c0 = cpu_now();
  const double w0 = now_s();
  double submit_total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const FleetItem& it = items[i];
    x[i].assign(it.b.size(), 0.0);
    t += it.gap / rate;
    const long batches0 = fleet.stats().batches;
    const double h0 = now_s();
    {
      ScopedSpan sp(tr, "fleet.submit", static_cast<long>(i));
      fleet.submit({i % 8, it.A, it.version, it.b, x[i], 1}, t);
    }
    const double h = now_s() - h0;
    submit_total += h;
    const long nb = fleet.stats().batches - batches0;
    for (long k = 0; k < nb; ++k)
      out.batch_host_ms.push_back(1e3 * h / static_cast<double>(nb));
  }
  const long batches0 = fleet.stats().batches;
  const double d0 = now_s();
  {
    ScopedSpan sp(tr, "fleet.drain");
    out.responses = fleet.drain();
  }
  out.drain_ms = 1e3 * (now_s() - d0);
  const long nb = fleet.stats().batches - batches0;
  for (long k = 0; k < nb; ++k)
    out.batch_host_ms.push_back(out.drain_ms / static_cast<double>(nb));
  out.wall_s = now_s() - w0;
  out.cpu_s = cpu_now().cpu_s - c0.cpu_s;
  out.submit_us = 1e6 * submit_total / static_cast<double>(count);
  out.stats = fleet.stats();
  out.totals = fleet.service_totals();
  return out;
}

/// Checks every served answer; `count` adds the requests to ok_frac.
void check_fleet(const std::vector<FleetItem>& items, const FleetOutcome& o,
                 const std::vector<std::vector<real_t>>& x, Checker& chk,
                 bool count) {
  if (o.responses.size() != x.size()) {
    chk.wrong = true;
    std::fprintf(stderr, "fleet returned %zu responses for %zu requests\n",
                 o.responses.size(), x.size());
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    const bool served = o.responses[i].status == service::RequestStatus::Done;
    const bool acc = served && chk.accurate(*items[i].A, items[i].b, x[i], 1);
    if (served && !acc) {
      chk.wrong = true;
      std::fprintf(stderr, "wrong fleet answer on request %zu\n", i);
    }
    if (count) chk.record(served, acc);
  }
}

struct FleetSim {
  std::vector<double> latency_ms, queue_ms, service_ms;
  long shed = 0, failed = 0;
};

/// Adds a replay's simulated outcome to `s`.
void add_fleet_sim(const FleetOutcome& o, FleetSim& s) {
  for (const auto& r : o.responses) {
    if (r.status == service::RequestStatus::Done) {
      s.latency_ms.push_back(1e3 * r.latency());
      s.queue_ms.push_back(1e3 * (r.start - r.arrival));
      s.service_ms.push_back(1e3 * (r.completion - r.start));
    } else if (r.status == service::RequestStatus::Shed) {
      ++s.shed;
    } else {
      ++s.failed;
    }
  }
}

/// Median over traces of each trace's latency percentile `p`, so that one
/// trace's rare burst does not set the figure.
double trace_percentile(const std::vector<FleetSim>& traces, double p) {
  std::vector<double> v;
  for (const FleetSim& t : traces) v.push_back(percentile(t.latency_ms, p));
  return median(v);
}

/// A rate passes when nothing is shed or failed and p99 meets the limit.
bool rate_passes(const std::vector<FleetSim>& traces) {
  for (const FleetSim& t : traces)
    if (t.shed != 0 || t.failed != 0) return false;
  return trace_percentile(traces, 0.99) <= 1e3 * kFleetP99Limit;
}

// ---- workload drivers ------------------------------------------------------

void print_metrics_json(const Checker& chk, const std::vector<Metric>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              chk.wrong ? "false" : "true", chk.attempted,
              chk.attempted - chk.ok);
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].name.c_str(), m[i].value,
                m[i].unit.c_str());
  std::printf("}}\n");
}

/// Per-layer metrics of the traced run, in BENCHMARK.json order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"order.nd_ms", "ms"},
    {"order.nnz_l", "count"},
    {"symbolic.ms", "ms"},
    {"symbolic.supernodes", "count"},
    {"symbolic.flops", "count"},
    {"analysis.sim_ms", "ms"},
    {"analysis.msgs", "count"},
    {"analysis.max_kb", "KiB"},
    {"analysis.host_ms", "ms"},
    {"numeric.gemm_gflops", "GFLOP/s"},
    {"numeric.getrf_gflops", "GFLOP/s"},
    {"numeric.trsm_gflops", "GFLOP/s"},
    {"numeric.gemm_flop_per_byte", "flop/B"},
    {"numeric.getrf_flop_per_byte", "flop/B"},
    {"numeric.trsm_flop_per_byte", "flop/B"},
    {"numeric.seq_ms", "ms"},
    {"simmpi.run_us", "us"},
    {"simmpi.us_per_msg", "us"},
    {"simmpi.msgs_per_req", "count"},
    {"simmpi.csw_per_req", "count"},
    {"simmpi.wait_ms", "ms"},
    {"pipeline.t_scu_ms", "ms"},
    {"pipeline.t_comm_ms", "ms"},
    {"pipeline.w_fact_kb", "KiB"},
    {"pipeline.xy_msgs", "count"},
    {"pipeline.w_red_kb", "KiB"},
    {"pipeline.z_msgs", "count"},
    {"pipeline.panel_saved_frac", "fraction"},
    {"lu3d.factor_sim_ms", "ms"},
    {"lu3d.factor_host_ms", "ms"},
    {"lu3d.forest_imbalance", "ratio"},
    {"lu3d.solve_sim_ms", "ms"},
    {"lu3d.solve_host_ms", "ms"},
    {"lu3d.w_solve_kb", "KiB"},
    {"lu3d.solve_msgs", "count"},
    {"lu3d.mem_max_mb", "MB"},
    {"service.factor_ms", "ms"},
    {"service.solve_ms", "ms"},
    {"service.hit_rate", "fraction"},
    {"service.analyses", "count"},
    {"service.evictions", "count"},
    {"fleet.queue_sim_ms_p50", "ms"},
    {"fleet.queue_sim_ms_p99", "ms"},
    {"fleet.service_sim_ms_p50", "ms"},
    {"fleet.coalesce_rate", "fraction"},
    {"fleet.shed_frac", "fraction"},
    {"fleet.batches_per_req", "ratio"},
    {"fleet.submit_us", "us"},
    {"fleet.drain_ms", "ms"},
    {"fleet.generator_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Prints the self-time table, writes the Chrome trace and reports every
/// per-layer metric (0 where a layer does not take part in the workload).
void finish_traced(const Args& args, const Tracer& tr, LayerValues lv,
                   const Checker& chk) {
  // Request replays and module probes are separate span trees; each
  // layer's share is of its own tree's total.
  const auto layers = tr.self_by_layer();
  std::map<std::string, double> total;
  for (const auto& [k, v] : layers) total[k.first] += v.first;
  std::printf("self time by layer, workload %s (seed %llu)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf("  %-20s %-10s %8s %12s %8s\n", "span tree", "layer", "spans",
              "self ms", "share");
  for (const auto& [k, v] : layers)
    std::printf("  %-20s %-10s %8ld %12.3f %7.1f%%\n", k.first.c_str(),
                k.second.c_str(), v.second, 1e3 * v.first,
                100.0 * v.first / total[k.first]);
  const std::string path = ".bench_build/traces/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  std::filesystem::create_directories(".bench_build/traces");
  tr.write_chrome(path);
  std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), tr.spans().size());

  std::vector<Metric> m;
  for (const LayerMetric& lm : kLayerMetrics)
    m.push_back({lm.name, lv.count(lm.name) ? lv[lm.name] : 0.0, lm.unit});
  print_metrics_json(chk, m);
}

/// Tracing overhead: traced minus untraced host time of the same sample.
double traced_overhead_pct(double untraced_s, double traced_s) {
  return 100.0 * (traced_s - untraced_s) / untraced_s;
}

template <class Inputs>
int run_service_workload(const Args& args, Inputs& in,
                         void (*setup)(const Args&, Inputs&),
                         std::size_t sample) {
  Result res;
  Tracer off(false);
  if (!args.trace) {
    const double setup_s = timed_setup([&] { setup(args, in); });
    const ServiceRun run = run_service_loop(*in.svc, in.requests, sample,
                                            args.seconds, res.check, off, true);
    add_service_metrics(run, setup_s, res.metrics, res.check);
    print_metrics_json(res.check, res.metrics);
    return res.check.wrong ? 1 : 0;
  }
  setup(args, in);
  Checker untraced_chk;
  const ServiceRun plain = run_service_loop(*in.svc, in.requests, sample,
                                            args.seconds, untraced_chk, off,
                                            false);
  Tracer tr(true);
  const service::ServiceStats st1 = in.svc->stats();
  const CpuSample c0 = cpu_now();
  const ServiceRun traced = run_service_loop(*in.svc, in.requests, sample,
                                             args.seconds, res.check, tr, false);
  const CpuSample c1 = cpu_now();
  const service::ServiceStats st2 = in.svc->stats();
  LayerValues lv = probe_layers(in.probes, args, tr);
  std::vector<double> fms, sms;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const auto& s = tr.spans()[i];
    if (s.name == "service.factor") fms.push_back(1e3 * (s.end - s.start));
    if (s.name == "service.solve") sms.push_back(1e3 * (s.end - s.start));
  }
  const auto req = static_cast<double>(traced.requests);
  lv["service.factor_ms"] = median(fms);
  lv["service.solve_ms"] = median(sms);
  const double hits = static_cast<double>(st2.cache_hits - st1.cache_hits);
  const double misses = static_cast<double>(st2.analyses - st1.analyses);
  lv["service.hit_rate"] = hits / (hits + misses);
  lv["service.analyses"] = misses;
  lv["service.evictions"] = static_cast<double>(st2.evictions - st1.evictions);
  lv["simmpi.msgs_per_req"] = traced.msgs / req;
  lv["simmpi.csw_per_req"] = static_cast<double>(c1.csw - c0.csw) / req;
  lv["trace.overhead_pct"] = traced_overhead_pct(plain.wall_s, traced.wall_s);
  finish_traced(args, tr, lv, res.check);
  return res.check.wrong || untraced_chk.wrong ? 1 : 0;
}

int run_fleet_workload(const Args& args) {
  FleetInputs in;
  Result res;
  Tracer off(false);
  const double rate = args.rate > 0 ? args.rate : kFleetRate;
  std::vector<std::vector<real_t>> x;

  if (args.trace) {
    fleet_setup(args, in);
    const std::vector<FleetItem>& items = in.traces.front();
    auto f1 = warm_fleet(args, in);
    const FleetOutcome plain = replay(f1, items, items.size(), rate, off, x);
    check_fleet(items, plain, x, res.check, false);
    Tracer tr(true);
    auto f2 = warm_fleet(args, in);
    const service::ServiceStats st0 = f2.fleet->service_totals();
    const long activations0 = f2.fleet->stats().activations;
    const CpuSample c0 = cpu_now();
    FleetOutcome o;
    {
      ScopedSpan sp(tr, "bench.replay");
      o = replay(f2, items, items.size(), rate, tr, x);
    }
    const CpuSample c1 = cpu_now();
    check_fleet(items, o, x, res.check, true);
    LayerValues lv = probe_layers(in.patterns, args, tr);
    FleetSim s;
    add_fleet_sim(o, s);
    const auto req = static_cast<double>(o.responses.size());
    lv["fleet.queue_sim_ms_p50"] = percentile(s.queue_ms, 0.5);
    lv["fleet.queue_sim_ms_p99"] = percentile(s.queue_ms, 0.99);
    lv["fleet.service_sim_ms_p50"] = percentile(s.service_ms, 0.5);
    lv["fleet.coalesce_rate"] = static_cast<double>(o.stats.coalesced) / req;
    lv["fleet.shed_frac"] = static_cast<double>(o.stats.shed) / req;
    lv["fleet.batches_per_req"] = static_cast<double>(o.stats.batches) / req;
    lv["fleet.submit_us"] = o.submit_us;
    lv["fleet.drain_ms"] = o.drain_ms;
    lv["fleet.generator_late_ms"] = 0.0;  // arrivals are simulated
    double solve_msgs = 0;
    for (const auto& r : o.responses)
      solve_msgs +=
          static_cast<double>(r.solve.msg_solve_xy + r.solve.msg_solve_z);
    lv["simmpi.msgs_per_req"] = solve_msgs / req;
    lv["simmpi.csw_per_req"] = static_cast<double>(c1.csw - c0.csw) / req;
    // Counted over the replay only; warm-up analyses belong to set-up.
    const double hits =
        static_cast<double>(o.totals.cache_hits - st0.cache_hits) +
        static_cast<double>(o.stats.activations - activations0);
    const double misses = static_cast<double>(o.totals.analyses - st0.analyses);
    lv["service.hit_rate"] = hits / (hits + misses);
    lv["service.analyses"] = misses;
    lv["service.evictions"] =
        static_cast<double>(o.totals.evictions - st0.evictions);
    lv["trace.overhead_pct"] = traced_overhead_pct(plain.wall_s, o.wall_s);
    finish_traced(args, tr, lv, res.check);
    return res.check.wrong ? 1 : 0;
  }

  WarmFleet fleet;
  const double setup_s = timed_setup([&] {
    fleet_setup(args, in);
    fleet = warm_fleet(args, in);
  });

  // The main-rate traces, each on a fresh warmed fleet; the sample is the
  // first kFleetTraces of them. Replays beyond it (until --seconds elapse)
  // add host samples and must reproduce the sample bit for bit.
  std::vector<FleetSim> main(kFleetTraces);
  std::vector<std::vector<double>> completions;
  std::vector<double> batch_ms;
  double wall = 0, cpu = 0;
  long completed = 0;
  for (int rep = 0; rep < kFleetTraces || wall < args.seconds; ++rep) {
    const std::vector<FleetItem>& items =
        in.traces[static_cast<std::size_t>(rep % kFleetTraces)];
    if (rep > 0) fleet = warm_fleet(args, in);
    const FleetOutcome o = replay(fleet, items, items.size(), rate, off, x);
    check_fleet(items, o, x, res.check, true);
    wall += o.wall_s;
    cpu += o.cpu_s;
    completed += o.stats.completed;
    batch_ms.insert(batch_ms.end(), o.batch_host_ms.begin(),
                    o.batch_host_ms.end());
    std::vector<double> done_at;
    for (const auto& r : o.responses) done_at.push_back(r.completion);
    if (rep < kFleetTraces) {
      add_fleet_sim(o, main[static_cast<std::size_t>(rep)]);
      completions.push_back(std::move(done_at));
    } else if (done_at != completions[static_cast<std::size_t>(rep % kFleetTraces)]) {
      res.check.wrong = true;
      std::fprintf(stderr, "fleet replay %d diverged from the sample\n", rep);
    }
  }

  // Capacity: load only raises p99, so walk the fixed ladder from the main
  // rate up (if it passes) or down (if it fails) to the first rung on the
  // other side of the limit, then interpolate p99 linearly to the limit
  // between the last passing and the first failing rate.
  const double lim = 1e3 * kFleetP99Limit;
  auto rung = [&](double r) {
    std::vector<FleetSim> sims(kFleetRungTraces);
    for (std::size_t t = 0; t < sims.size(); ++t) {
      auto lf = warm_fleet(args, in);
      const std::vector<FleetItem>& items = in.traces[t];
      const FleetOutcome o = replay(lf, items, items.size(), r, off, x);
      check_fleet(items, o, x, res.check, false);
      add_fleet_sim(o, sims[t]);
    }
    const bool pass = rate_passes(sims);
    const double p99 = trace_percentile(sims, 0.99);
    std::printf("ladder rate %.0f/s: p99 %.4f ms, %s\n", r, p99,
                pass ? "pass" : "fail");
    return std::make_pair(pass, p99);
  };
  bool have_pass = rate_passes(main), have_fail = !have_pass;
  double pass_rate = rate, fail_rate = rate;
  double pass_p99 = trace_percentile(main, 0.99), fail_p99 = pass_p99;
  std::vector<double> ladder(std::begin(kFleetLadder), std::end(kFleetLadder));
  if (!have_pass) std::reverse(ladder.begin(), ladder.end());
  for (double r : ladder) {
    if (have_pass ? r <= rate : r >= rate) continue;
    const auto [pass, p99] = rung(r);
    if (pass) {
      pass_rate = r;
      pass_p99 = p99;
      have_pass = true;
    } else {
      fail_rate = r;
      fail_p99 = p99;
      have_fail = true;
    }
    if (have_pass && have_fail) break;
  }
  double capacity = have_pass ? pass_rate : 0.0;
  if (have_pass && have_fail && fail_p99 > lim)
    capacity += (fail_rate - pass_rate) * (lim - pass_p99) / (fail_p99 - pass_p99);

  const auto done = static_cast<double>(completed);
  res.metrics = {
      {"setup_s", setup_s, "s"},
      {"host_p50_ms", percentile(batch_ms, 0.5), "ms"},
      {"host_p90_ms", percentile(batch_ms, 0.9), "ms"},
      {"host_req_per_s", done / wall, "1/s"},
      {"host_cpu_ms_per_req", 1e3 * cpu / done, "ms"},
      {"host_rss_mb", peak_rss_mb(), "MB"},
      {"sim_p50_ms", trace_percentile(main, 0.5), "ms"},
      {"sim_p90_ms", trace_percentile(main, 0.9), "ms"},
      {"sim_p99_ms", trace_percentile(main, 0.99), "ms"},
      {"sim_mem_max_mb", in.mem_max / 1e6, "MB"},
      {"sim_capacity_rps", capacity, "1/s"},
      {"ok_frac",
       static_cast<double>(res.check.ok) /
           static_cast<double>(res.check.attempted),
       "fraction"},
  };
  print_metrics_json(res.check, res.metrics);
  return res.check.wrong ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.workload == "cold-planar") {
      ColdInputs in;
      return run_service_workload(
          args, in, cold_setup,
          static_cast<std::size_t>(kColdSamplePasses * 2 *
                                   (kColdSideHi - kColdSideLo + 1)));
    }
    if (args.workload == "warm-3d") {
      WarmInputs in;
      return run_service_workload(
          args, in, warm_setup,
          static_cast<std::size_t>(kWarmSamplePasses) * 3 *
              std::size(kWarmNrhs));
    }
    return run_fleet_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
