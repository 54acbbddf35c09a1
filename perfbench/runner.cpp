// perfbench runner: one benchmark workload, timed from outside the library.
//
// Every number here comes from timing calls into the library's public API
// (core::make_functional / SharedModel / JobState, svc::JobService, la::gemm,
// la::gemm_strided_batched, ks::Hamiltonian::apply, fe::PoissonSolver::solve,
// svc::write_checkpoint / read_checkpoint) or from the RunReport artifacts
// the library already writes. The runner adds no spans inside the library.
// It prints one JSON object of raw measurements as the last line of stdout;
// perfbench/run.py turns that into metrics and runs the correctness gate.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR [--quick]
//   perfbench_runner --ceilings --out DIR
//
// Workloads (see perfbench/run.py for why each one is in the benchmark):
//   qc_mlxc_serial    icosahedral Yb-Cd nanoparticle, MLXC, serial backend
//   qc_mlxc_lanes4    the same problem on 4 brick lanes (FP32 halo wire)
//   disloc_kpt_sweep  Mg screw dipole x Y solute, 2 k-points, 4 jobs through
//                     svc::JobService on 4 workers with checkpointing

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "atoms/defects.hpp"
#include "atoms/lattice.hpp"
#include "atoms/quasicrystal.hpp"
#include "core/job.hpp"
#include "core/model.hpp"
#include "dd/partition.hpp"
#include "fe/poisson.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/workspace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/checkpoint.hpp"
#include "svc/service.hpp"

namespace {

using namespace dftfe;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process user+sys CPU seconds (all threads).
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------- JSON out

// Minimal writer for the one flat-ish raw document the runner prints.
class JsonOut {
 public:
  JsonOut& key(const std::string& k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  JsonOut& num(double v) {
    sep();
    if (!std::isfinite(v)) {
      os_ << "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      os_ << buf;
    }
    return *this;
  }
  JsonOut& str(const std::string& s) {
    sep();
    os_ << '"' << obs::json_escape(s) << '"';
    return *this;
  }
  JsonOut& boolean(bool b) {
    sep();
    os_ << (b ? "true" : "false");
    return *this;
  }
  JsonOut& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  JsonOut& open(char c) {
    sep();
    os_ << c;
    fresh_ = true;
    return *this;
  }
  JsonOut& close(char c) {
    os_ << c;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return os_.str(); }

 private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  std::string out = "perfbench_out";
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool ceilings = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench_runner: %s\n", msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + f).c_str());
      return argv[++i];
    };
    try {
      if (f == "--workload") a.workload = next();
      else if (f == "--out") a.out = next();
      else if (f == "--seed") a.seed = std::stoull(next());
      else if (f == "--seconds") a.seconds = std::stod(next());
      else if (f == "--trace") a.trace = std::stoi(next()) != 0;
      else if (f == "--quick") a.quick = true;
      else if (f == "--ceilings") a.ceilings = true;
      else usage(("unknown flag " + f).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + f).c_str());
    }
  }
  if (!a.ceilings && a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------------- inputs

// splitmix64: a portable generator, so a seed gives the same structure on
// every platform and standard library.
double unit_from(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1)
}

// Rattle every atom by at most 0.05 Bohr (each component within
// +-0.05/sqrt(3)). Seed 0 leaves the example structure untouched.
constexpr double kRattleBohr = 0.05;
void rattle(atoms::Structure& st, std::uint64_t seed) {
  if (seed == 0) return;
  std::uint64_t s = seed * 0xD1B54A32D192ED03ULL;
  const double half = kRattleBohr / std::sqrt(3.0);
  for (auto& a : st.atoms)
    for (int d = 0; d < 3; ++d) a.pos[d] += half * (2.0 * unit_from(s) - 1.0);
}

// The SCF's random initial subspace follows the workload seed; seed 0 keeps
// the library default, so the default seed reproduces the examples.
unsigned scf_seed(std::uint64_t seed) { return 42u + static_cast<unsigned>(seed % 1000003u); }

struct Workload {
  std::string name;
  bool qc = false;
  int lanes = 1;    // brick lanes per job (1 = serial backend)
  int workers = 0;  // service workers (sweep only)
};

Workload workload_for(const std::string& name) {
  if (name == "qc_mlxc_serial") return {name, true, 1, 0};
  if (name == "qc_mlxc_lanes4") return {name, true, 4, 0};
  if (name == "disloc_kpt_sweep") return {name, false, 1, 4};
  usage(("unknown workload " + name).c_str());
}

// Yb-Cd icosahedral nanoparticle of examples/qc_nanoparticle.cpp, MLXC.
atoms::Structure qc_structure(const Args& a) {
  atoms::QuasicrystalOptions q;
  q.scale = 3.4;
  q.n_range = 5;
  atoms::Structure st = atoms::make_icosahedral_nanoparticle(a.quick ? 4.2 : 6.2, q);
  rattle(st, a.seed);
  return st;
}

core::ModelOptions qc_model() {
  core::ModelOptions m;
  m.functional = "MLXC";
  m.fe_degree = 3;
  m.mesh_size = 2.6;
  m.vacuum = 6.0;
  m.z_override = {{atoms::Species::Yb, 3.0}, {atoms::Species::Cd, 2.0}};
  return m;
}

// Mg hcp supercell of examples/mg_dislocation.cpp; the four cases are
// family siblings (same box) of this parent.
constexpr double kMgA = 6.06, kMgC = 9.84;

atoms::Structure mg_parent(const Args& a) {
  atoms::Structure st = atoms::make_hcp(atoms::Species::Mg, kMgA, kMgC, 2, 1, 1);
  rattle(st, a.seed);
  return st;
}

// --quick uses the coarse p=2 / 3.2 Bohr mesh of examples/sweep_service.
core::ModelOptions mg_model(bool quick) {
  core::ModelOptions m;
  m.functional = "LDA";
  m.fe_degree = quick ? 2 : 3;
  m.mesh_size = quick ? 3.2 : 2.5;
  m.z_override = {{atoms::Species::Y, 3.0}};
  return m;
}

struct SweepCase {
  const char* name;
  bool dipole;
  bool solute;
};
constexpr SweepCase kSweepCases[] = {{"pristine", false, false},
                                     {"dipole", true, false},
                                     {"solute", false, true},
                                     {"dipole_solute", true, true}};

atoms::Structure sweep_case(const core::SharedModel& model, const SweepCase& c) {
  atoms::Structure st = model.structure();
  if (c.solute) st.atoms[0].species = atoms::Species::Y;
  if (c.dipole)
    atoms::apply_screw_dipole(st, kMgC, {st.box[0] * 0.25, st.box[1] * 0.5},
                              {st.box[0] * 0.75, st.box[1] * 0.5});
  return st;
}

core::JobOptions job_options(const Workload& w, const Args& a) {
  core::JobOptions j;
  j.scf.temperature = 0.01;
  j.scf.density_tol = 2e-6;
  j.scf.seed = scf_seed(a.seed);
  if (w.qc) {
    j.name = w.name;
    j.scf.max_iterations = 40;
  } else {
    j.scf.max_iterations = 35;
    // 2 k-points along the periodic dislocation line (complex Hamiltonian).
    j.kpoints = {{{0.0, 0.0, 0.0}, 1.0}, {{0.0, 0.0, kPi / kMgC}, 1.0}};
  }
  if (w.lanes > 1) {
    j.backend.kind = dd::BackendKind::threaded;
    j.backend.nlanes = w.lanes;  // grid auto-factorized, default FP32 wire
  }
  return j;
}

// ---------------------------------------------------------------- set-up

struct Setup {
  std::shared_ptr<const core::SharedModel> model;
  double setup_s = 0.0;
  double mlxc_train_s = 0.0;  // 0 on LDA workloads
  double model_build_s = 0.0;
  std::int64_t model_builds = 0;
};

// One cold set-up: functional, SharedModel (mesh, DofHandler, nuclei), and
// the per-job state or job service. make_functional("MLXC") trains the
// surrogate once per process and caches it, so later repetitions call the
// same public trainer explicitly: every repetition does the same work.
Setup set_up(const Workload& w, const Args& a, bool first) {
  Setup s;
  const double t0 = now_s();
  if (w.qc) {
    if (first) core::make_functional("MLXC");
    else core::train_surrogate_mlxc();
  }
  const double t1 = now_s();
  const std::int64_t b0 = core::SharedModel::built_count();
  s.model = w.qc ? std::make_shared<const core::SharedModel>(qc_structure(a), qc_model())
                 : std::make_shared<const core::SharedModel>(mg_parent(a), mg_model(a.quick));
  s.model_builds = core::SharedModel::built_count() - b0;
  const double t2 = now_s();
  if (w.qc) {
    core::JobState job(s.model, job_options(w, a));
    (void)job;
  } else {
    svc::ServiceOptions so;
    so.workers = w.workers;
    svc::JobService service(s.model, so);
    service.drain();
  }
  const double t3 = now_s();
  s.mlxc_train_s = w.qc ? t1 - t0 : 0.0;
  s.model_build_s = t2 - t1;
  s.setup_s = t3 - t0;
  return s;
}

// ---------------------------------------------------------------- solve

struct JobResult {
  std::string name;
  bool ok = false;
  std::string error;
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;
};

struct Solve {
  double solve_s = 0.0;
  double cpu_s = 0.0;
  std::vector<JobResult> jobs;
  std::vector<double> iter_s;  // SCF iteration durations seen by the hook
};

// Iteration timestamps from the on_iteration hook (driver/worker thread).
struct IterClock {
  std::mutex mu;
  std::map<std::string, double> last;
  std::vector<double> dt;
  void tick(const std::string& job) {
    const double t = now_s();
    std::lock_guard<std::mutex> lk(mu);
    dt.push_back(t - last[job]);
    last[job] = t;
  }
};

// An empty report_dir is the untraced solve; otherwise each job writes its
// RunReport there and the on_iteration hook stamps its iterations.
Solve solve_qc(const Workload& w, const Args& a, const Setup& s, const std::string& report_dir,
               std::unique_ptr<core::JobState>* keep) {
  Solve out;
  core::JobOptions jo = job_options(w, a);
  IterClock clock;
  if (!report_dir.empty()) {
    jo.report_path = report_dir + "/";
    jo.on_iteration = [&clock](core::JobState& j, int) { clock.tick(j.name()); };
  }
  auto job = std::make_unique<core::JobState>(s.model, jo);
  const double c0 = cpu_s();
  const double t0 = now_s();
  clock.last[jo.name] = t0;
  JobResult r;
  r.name = jo.name;
  try {
    const auto res = job->run();
    r.ok = true;
    r.converged = res.scf.converged;
    r.iterations = res.scf.iterations;
    r.energy = res.energy;
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  out.solve_s = now_s() - t0;
  out.cpu_s = cpu_s() - c0;
  out.jobs.push_back(r);
  out.iter_s = clock.dt;
  if (keep != nullptr) *keep = std::move(job);
  return out;
}

Solve solve_sweep(const Workload& w, const Args& a, const Setup& s, const std::string& report_dir,
                  const std::string& ckpt_dir) {
  Solve out;
  // A checkpoint left by an earlier repetition would be resumed from.
  fs::remove_all(ckpt_dir);
  IterClock clock;
  svc::ServiceOptions so;
  so.workers = w.workers;
  so.checkpoint_dir = ckpt_dir;
  so.checkpoint_every = 1;
  so.report_dir = report_dir;
  svc::JobService service(s.model, so);
  std::vector<core::JobOptions> batch;
  for (int i = 0; i < (a.quick ? 1 : 4); ++i) {
    core::JobOptions jo = job_options(w, a);
    jo.name = kSweepCases[i].name;
    jo.structure = sweep_case(*s.model, kSweepCases[i]);
    if (!report_dir.empty())
      jo.on_iteration = [&clock](core::JobState& j, int) { clock.tick(j.name()); };
    batch.push_back(std::move(jo));
  }
  const double c0 = cpu_s();
  const double t0 = now_s();
  // Every job starts at submission (one worker per job); set all start
  // stamps before the first worker can tick.
  for (const auto& jo : batch) clock.last[jo.name] = t0;
  for (auto& jo : batch) service.submit(std::move(jo));
  const auto outcomes = service.drain();
  out.solve_s = now_s() - t0;
  out.cpu_s = cpu_s() - c0;
  for (const auto& o : outcomes) {
    JobResult r;
    r.name = o.name;
    r.ok = o.ok;
    r.error = o.error;
    r.converged = o.ok && o.result.scf.converged;
    r.iterations = o.result.scf.iterations;
    r.energy = o.result.energy;
    out.jobs.push_back(r);
  }
  out.iter_s = clock.dt;
  return out;
}

void emit_solve(JsonOut& j, const Solve& s) {
  j.open('{');
  j.key("solve_s").num(s.solve_s);
  j.key("cpu_s").num(s.cpu_s);
  j.key("iter_s").nums(s.iter_s);
  j.key("jobs").open('[');
  for (const auto& r : s.jobs) {
    j.open('{');
    j.key("name").str(r.name);
    j.key("ok").boolean(r.ok);
    j.key("error").str(r.error);
    j.key("converged").boolean(r.converged);
    j.key("iterations").num(r.iterations);
    j.key("energy").num(r.energy);
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

// ---------------------------------------------------------------- replays

// Repeat `fn` until at least `min_s` seconds and 3 calls have elapsed; return
// the median seconds per call. One untimed warm-up call first.
template <class Fn>
double time_median(Fn&& fn, double min_s = 0.3) {
  fn();
  std::vector<double> v;
  const double start = now_s();
  while (v.size() < 3 || now_s() - start < min_s) {
    const double t0 = now_s();
    fn();
    v.push_back(now_s() - t0);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <class T>
void fill(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& x : v) {
    if constexpr (std::is_same_v<T, double>) x = unit_from(s) - 0.5;
    else x = T(unit_from(s) - 0.5, unit_from(s) - 0.5);
  }
}

constexpr double flop_factor(bool complex_scalars) { return complex_scalars ? 4.0 : 1.0; }

struct KernelReplay {
  double gemm_gflops = 0.0;
  double cell_gemm_gflops = 0.0;
  double ham_apply_gflops = 0.0;
};

// The RR projection GEMM (X^T HX: ns x ns from n x ns panels) and the
// reference-cell batched GEMM (nd x nd times nd x block over every cell),
// at the workload's own shapes, plus H X on the given subspace.
template <class T>
KernelReplay replay_kernels(const ks::Hamiltonian<T>& H, const la::Matrix<T>& X, index_t ncells,
                            int degree, index_t block) {
  KernelReplay r;
  const bool cplx = !std::is_same_v<T, double>;
  const index_t n = X.rows(), ns = X.cols();
  la::Matrix<T> HX(n, ns);
  const double fa0 = FlopCounter::global().total();
  int calls = 0;
  const double ta = time_median([&] {
    H.apply(X, HX);
    ++calls;
  });
  // The FlopCounter's own count of the apply's work, per call.
  const double apply_flops = (FlopCounter::global().total() - fa0) / calls;
  r.ham_apply_gflops = apply_flops / ta * 1e-9;

  std::vector<T> C(static_cast<std::size_t>(ns * ns));
  const double tg = time_median([&] {
    la::gemm<T>('C', 'N', ns, ns, n, T(1), X.data(), n, HX.data(), n, T(0), C.data(), ns);
  });
  r.gemm_gflops = 2.0 * ns * ns * n * flop_factor(cplx) / tg * 1e-9;

  const index_t nd = static_cast<index_t>(std::pow(degree + 1, 3));
  std::vector<T> A(static_cast<std::size_t>(nd * nd));
  std::vector<T> B(static_cast<std::size_t>(nd * block * ncells)), Cc(B.size());
  fill(A, 11);
  fill(B, 12);
  const double tb = time_median([&] {
    la::gemm_strided_batched<T>('N', 'N', nd, block, nd, T(1), A.data(), nd, 0, B.data(), nd,
                                nd * block, T(0), Cc.data(), nd, nd * block, ncells);
  });
  r.cell_gemm_gflops = 2.0 * nd * nd * block * ncells * flop_factor(cplx) / tb * 1e-9;
  return r;
}

struct PoissonReplay {
  double cold_s = 0.0;
  int iterations = 0;
};

// EP from a zero initial guess on a given density (the SCF warm-starts it).
PoissonReplay replay_poisson(const fe::DofHandler& dofs, const std::vector<double>& rho) {
  fe::PoissonSolver ps(dofs);
  PoissonReplay r;
  std::vector<double> phi;
  la::SolveReport rep;
  r.cold_s = time_median(
      [&] {
        phi.clear();
        rep = ps.solve(rho, phi);
      },
      0.0);
  r.iterations = rep.iterations;
  return r;
}

// ---------------------------------------------------------------- ceilings

#if defined(__x86_64__)
// Peak FP64 FMA issue rate of one core: 12 independent FMA chains per ISA
// width (enough to cover FMA latency on two ports), no memory traffic.
__attribute__((target("avx512f"))) double fma_chains_avx512(std::int64_t iters) {
  __m512d acc[12];
  for (int i = 0; i < 12; ++i) acc[i] = _mm512_set1_pd(1.0 + 1e-3 * i);
  const __m512d m = _mm512_set1_pd(0.999999), c = _mm512_set1_pd(1e-7);
  for (std::int64_t it = 0; it < iters; ++it)
    for (int i = 0; i < 12; ++i) acc[i] = _mm512_fmadd_pd(acc[i], m, c);
  __m512d s = acc[0];
  for (int i = 1; i < 12; ++i) s = _mm512_add_pd(s, acc[i]);
  alignas(64) double out[8];
  _mm512_store_pd(out, s);
  double sum = 0.0;
  for (double x : out) sum += x;
  return sum;
}

__attribute__((target("avx2,fma"))) double fma_chains_avx2(std::int64_t iters) {
  __m256d acc[12];
  for (int i = 0; i < 12; ++i) acc[i] = _mm256_set1_pd(1.0 + 1e-3 * i);
  const __m256d m = _mm256_set1_pd(0.999999), c = _mm256_set1_pd(1e-7);
  for (std::int64_t it = 0; it < iters; ++it)
    for (int i = 0; i < 12; ++i) acc[i] = _mm256_fmadd_pd(acc[i], m, c);
  __m256d s = acc[0];
  for (int i = 1; i < 12; ++i) s = _mm256_add_pd(s, acc[i]);
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}
#endif

struct Ceilings {
  std::string isa;
  double fma_peak_gflops = 0.0;
  double triad_gbs = 0.0;
  double triad_array_mb = 0.0;
  double llc_mb = 0.0;
};

double llc_bytes() {
  long v = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return v > 0 ? static_cast<double>(v) : 32.0 * 1024 * 1024;
}

Ceilings measure_ceilings() {
  Ceilings c;
  double width = 0.0;  // doubles per FMA instruction
  std::function<double(std::int64_t)> kernel;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) {
    c.isa = "avx512f";
    width = 8;
    kernel = fma_chains_avx512;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    c.isa = "avx2+fma";
    width = 4;
    kernel = fma_chains_avx2;
  }
#endif
  if (!kernel) {
    // No vector FMA: scalar multiply-add chains (2 flops per element).
    c.isa = "scalar";
    width = 1;
    kernel = [](std::int64_t iters) {
      double acc[12];
      for (int i = 0; i < 12; ++i) acc[i] = 1.0 + 1e-3 * i;
      for (std::int64_t it = 0; it < iters; ++it)
        for (double& x : acc) x = x * 0.999999 + 1e-7;
      double s = 0;
      for (double x : acc) s += x;
      return s;
    };
  }
  const std::int64_t iters = 20'000'000;
  volatile double sink = 0.0;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    sink = sink + kernel(iters);
    best = std::min(best, now_s() - t0);
  }
  c.fma_peak_gflops = 2.0 * width * 12.0 * static_cast<double>(iters) / best * 1e-9;

  // STREAM triad a = b + s*c with each array 4x the last-level cache.
  const double llc = llc_bytes();
  const std::size_t n = static_cast<std::size_t>(4.0 * llc / sizeof(double)) + 1;
  c.llc_mb = llc / (1024.0 * 1024.0);
  c.triad_array_mb = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  std::vector<double> va(n, 0.0), vb(n, 1.0), vc(n, 2.0);
  best = 1e300;
  for (int rep = 0; rep < 4; ++rep) {
    const double s = 0.5 + 0.1 * rep;
    const double t0 = now_s();
    double* __restrict pa = va.data();
    const double* __restrict pb = vb.data();
    const double* __restrict pc = vc.data();
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    best = std::min(best, now_s() - t0);
    sink = sink + va[n / 2];
  }
  c.triad_gbs = 3.0 * static_cast<double>(n * sizeof(double)) / best * 1e-9;
  return c;
}

// ---------------------------------------------------------------- main

void emit_env(JsonOut& j, const Workload& w, const Args& a, const fe::DofHandler& dofs) {
  j.key("env").open('{');
  j.key("omp_max_threads").num(omp_get_max_threads());
  j.key("lanes").num(w.lanes);
  if (w.lanes > 1) {
    const auto g = dd::BrickPartition::factorize(dofs, w.lanes);
    j.key("grid").str(std::to_string(g[0]) + "x" + std::to_string(g[1]) + "x" +
                      std::to_string(g[2]));
    const dd::Wire wire = job_options(w, a).backend.wire;
    j.key("wire").str(wire == dd::Wire::fp64 ? "fp64" : wire == dd::Wire::fp32 ? "fp32" : "bf16");
  } else {
    j.key("grid").str("1x1x1");
    j.key("wire").str("none");
  }
  j.key("workers").num(w.workers);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("march_native").boolean(PERFBENCH_NATIVE_ARCH != 0);
  j.key("tracing_compiled").boolean(DFTFE_ENABLE_TRACING != 0);
#if defined(__x86_64__)
  j.key("cpu_avx2").boolean(__builtin_cpu_supports("avx2"));
  j.key("cpu_avx512f").boolean(__builtin_cpu_supports("avx512f"));
#endif
  j.close('}');
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  // One OpenMP thread: parallelism comes from lanes or service workers.
  omp_set_num_threads(1);
  fs::create_directories(a.out);

  JsonOut j;
  j.open('{');
  if (a.ceilings) {
    const Ceilings c = measure_ceilings();
    j.key("isa").str(c.isa);
    j.key("fma_peak_gflops").num(c.fma_peak_gflops);
    j.key("triad_gbs").num(c.triad_gbs);
    j.key("triad_array_mb").num(c.triad_array_mb);
    j.key("llc_mb").num(c.llc_mb);
    j.key("peak_rss_mb").num(peak_rss_mb());
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
  }

  const Workload w = workload_for(a.workload);
  obs::TraceRecorder::global().set_enabled(false);

  // Set-up, repeated at least kSetupMinReps times and until kSetupBudgetS is
  // spent, so even a sub-millisecond set-up is a median of many samples.
  // The last model is the one the solves run against.
  constexpr int kSetupMinReps = 5;
  constexpr double kSetupBudgetS = 6.0;
  constexpr int kSetupMaxReps = 200;
  std::vector<Setup> setups;
  double setup_total = 0.0;
  while (static_cast<int>(setups.size()) < kSetupMinReps ||
         (setup_total < kSetupBudgetS && static_cast<int>(setups.size()) < kSetupMaxReps)) {
    setups.push_back(set_up(w, a, setups.empty()));
    setup_total += setups.back().setup_s;
  }
  const Setup& s = setups.back();
  emit_env(j, w, a, s.model->dofs());
  auto series = [&](auto get) {
    std::vector<double> v;
    for (const auto& x : setups) v.push_back(get(x));
    return v;
  };
  j.key("setup_s").nums(series([](const Setup& x) { return x.setup_s; }));
  j.key("mlxc_train_s").nums(series([](const Setup& x) { return x.mlxc_train_s; }));
  j.key("model_build_s").nums(series([](const Setup& x) { return x.model_build_s; }));
  j.key("ndofs").num(static_cast<double>(s.model->dofs().ndofs()));
  j.key("ncells").num(static_cast<double>(s.model->mesh().ncells_total()));
  j.key("natoms").num(static_cast<double>(s.model->structure().natoms()));
  j.key("n_electrons").num(s.model->n_electrons());

  const std::string ckpt_dir = a.out + "/ckpt";
  const std::int64_t builds_before_solve = core::SharedModel::built_count();

  // Untraced solves, repeated until the measurement budget is spent.
  std::vector<Solve> solves;
  const double budget_start = now_s();
  do {
    solves.push_back(w.qc ? solve_qc(w, a, s, {}, nullptr) : solve_sweep(w, a, s, {}, ckpt_dir));
  } while (!a.trace && now_s() - budget_start < a.seconds);
  j.key("solves").open('[');
  for (const auto& x : solves) emit_solve(j, x);
  j.close(']');

  if (a.trace) {
    // Traced solve: tracing on, fresh registries, per-job RunReports.
    const std::string report_dir = a.out + "/reports";
    fs::remove_all(report_dir);
    fs::create_directories(report_dir);
    obs::TraceRecorder::global().clear();
    obs::MetricsRegistry::global().clear();
    ProfileRegistry::global().clear();
    FlopCounter::global().clear();
    la::WorkspaceCounters::reset();
    obs::TraceRecorder::global().set_enabled(true);
    const std::int64_t alloc0 = la::WorkspaceCounters::allocations();
    std::unique_ptr<core::JobState> job;
    const Solve traced = w.qc ? solve_qc(w, a, s, report_dir, &job)
                              : solve_sweep(w, a, s, report_dir, ckpt_dir);
    const std::int64_t allocs = la::WorkspaceCounters::allocations() - alloc0;
    obs::TraceRecorder::global().set_enabled(false);
    j.key("traced").open('{');
    j.key("solve");
    emit_solve(j, traced);
    j.key("workspace_allocations").num(static_cast<double>(allocs));
    j.key("report_dir").str(report_dir);
    j.close('}');
    // Builds of the model the solves ran against: its own, plus any the
    // solves caused (must be none).
    const std::int64_t builds = core::SharedModel::built_count() - builds_before_solve;
    j.key("model_builds_solve").num(static_cast<double>(builds + s.model_builds));

    // Replays of single layers on each job's final state: the QC job's
    // converged solver state, the sweep jobs' last checkpoints (written after
    // their last non-converging iteration).
    std::optional<ks::ScfState> state;
    j.key("replay").open('{');
    j.key("checkpoints").open('[');
    for (const auto& r : traced.jobs) {
      std::optional<svc::Checkpoint> cp;
      if (w.qc) cp = svc::Checkpoint{r.name, job->save_scf_state()};
      else cp = svc::read_checkpoint(ckpt_dir + "/" + r.name + ".ckpt.json");
      if (!cp) continue;
      const std::string copy = a.out + "/replay.ckpt.json";
      const double wr = time_median([&] { svc::write_checkpoint(copy, *cp); }, 0.0);
      const double bytes = static_cast<double>(fs::file_size(copy));
      const double rd = time_median([&] { (void)svc::read_checkpoint(copy); }, 0.0);
      fs::remove(copy);
      j.open('{');
      j.key("name").str(r.name);
      j.key("write_s").num(wr);
      j.key("read_s").num(rd);
      j.key("bytes").num(bytes);
      j.close('}');
      if (!state) state = std::move(cp->scf);
    }
    j.close(']');
    if (!state || state->kpoints.empty()) {
      std::fprintf(stderr, "perfbench_runner: no final SCF state to replay\n");
      return 1;
    }
    const auto& dofs = s.model->dofs();
    const index_t ncells = s.model->mesh().ncells_total();
    const index_t n = state->ndofs, ns = state->nstates;
    const index_t block = std::min<index_t>(job_options(w, a).scf.block_size, ns);
    // The subspace of the last k-point in both scalar types: real parts of a
    // complex run, zero imaginary parts of a Gamma run. The apply's work does
    // not depend on the potential's values, so fresh Hamiltonians suffice.
    const auto& co = state->kpoints.back().coeffs;
    const index_t stride = state->complex_scalars ? 2 : 1;
    if (static_cast<index_t>(co.size()) != stride * n * ns) {
      std::fprintf(stderr, "perfbench_runner: malformed subspace in final state\n");
      return 1;
    }
    la::Matrix<double> Xr(n, ns);
    la::Matrix<complex_t> Xc(n, ns);
    for (index_t i = 0; i < n * ns; ++i) {
      Xr.data()[i] = co[stride * i];
      Xc.data()[i] = complex_t(co[stride * i], stride == 2 ? co[stride * i + 1] : 0.0);
    }
    const std::array<double, 3> k =
        w.qc ? std::array<double, 3>{0.0, 0.0, 0.0} : job_options(w, a).kpoints.back().k;
    const KernelReplay kr =
        replay_kernels(ks::Hamiltonian<double>(dofs), Xr, ncells, dofs.degree(), block);
    const KernelReplay kc =
        replay_kernels(ks::Hamiltonian<complex_t>(dofs, k), Xc, ncells, dofs.degree(), block);
    j.key("nstates").num(static_cast<double>(ns));
    j.key("block").num(static_cast<double>(block));
    j.key("gemm_gflops").num(kr.gemm_gflops);
    j.key("cell_gemm_gflops").num(kr.cell_gemm_gflops);
    j.key("ham_apply_gflops").num(kr.ham_apply_gflops);
    j.key("zgemm_gflops").num(kc.gemm_gflops);
    j.key("cell_zgemm_gflops").num(kc.cell_gemm_gflops);
    j.key("zham_apply_gflops").num(kc.ham_apply_gflops);
    const PoissonReplay p = replay_poisson(dofs, state->rho);
    j.key("poisson_cold_s").num(p.cold_s);
    j.key("poisson_cold_iters").num(p.iterations);
    j.close('}');
  }
  fs::remove_all(ckpt_dir);
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
