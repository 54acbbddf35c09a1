// Ablation for Sec. 5.4.3: asynchronous compute/communication overlap in
// the blocked Chebyshev filter.
//
// Section 1 (headline, gates the bench-regression CI tier): the *measured*
// ablation on the real threaded rank engine (dd/engine.hpp). The same
// multi-lane filter runs once with synchronous halo waits and once with the
// overlapped schedule, under an injected wire delay calibrated against this
// machine's own per-step compute (so the ablation is meaningful on any core
// count: the delay is wall-clock sleep on the receiving lane, and only the
// overlapped schedule can hide it behind interior compute).
//
// Section 2: the pipeline-simulator sweep over filter block sizes from the
// original modeled study, kept for the block-size-dependence narrative
// (skipped under --quick).
//
// Flags: --quick  small problem + section 1 only (the CI preset).

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "dd/engine.hpp"
#include "dd/exchange.hpp"
#include "dd/pipeline.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "la/iterative.hpp"
#include "obs/metrics.hpp"

using namespace dftfe;

namespace {

struct MeasuredRun {
  double wall = 0.0;     // best-of-reps filter wall
  double modeled = 0.0;  // total modeled wire time of that run
  std::vector<dd::BlockTiming> blocks;
};

MeasuredRun run_filter(dd::RankEngine<double>& eng, la::Matrix<double>& X,
                       const la::Matrix<double>& X0, int degree, double a, double b,
                       double a0, int reps) {
  MeasuredRun best;
  for (int rep = 0; rep < reps; ++rep) {
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = X0.data()[i];
    Timer t;
    eng.filter_block(X, 0, X.cols(), degree, a, b, a0);
    const double wall = t.seconds();
    if (rep == 0 || wall < best.wall) {
      best.wall = wall;
      best.modeled = 0.0;
      best.blocks.clear();
      for (const auto& st : eng.last_step_stats()) {
        best.blocks.push_back({st.compute, st.modeled});
        best.modeled += st.modeled;
      }
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_preamble("Ablation (Sec. 5.4.3): async compute/comm overlap in blocked CF");

  // ---- Section 1: measured sync-vs-async on the threaded rank engine ----
  // Three cell layers per lane so each lane has real interior compute for
  // the overlapped schedule to hide wire time behind.
  const int lanes = 4;
  const int fe_degree = quick ? 3 : 4;
  const index_t ncols = quick ? 16 : 32;
  const int cheb_degree = quick ? 10 : 12;
  const int reps = quick ? 3 : 5;
  const fe::Mesh mesh = fe::make_uniform_mesh(12.0, 12, false);
  fe::DofHandler dofh(mesh, fe_degree);
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
  auto op = [&H](const std::vector<double>& x, std::vector<double>& y) { H.apply(x, y); };
  const double b = la::lanczos_upper_bound<double>(op, H.n(), 14);
  const double a0 = -1.3, a = a0 + 0.15 * (b - a0);

  la::Matrix<double> X0(dofh.ndofs(), ncols), X(dofh.ndofs(), ncols);
  for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.17 * i);

  // Calibration probe: per-step compute with a free wire.
  dd::EngineOptions popt;
  popt.nlanes = lanes;
  popt.grid = {1, 1, lanes};  // pin z-slabs: the ablation is calibrated on slab packets
  popt.mode = dd::EngineMode::sync;
  double step_compute = 0.0;
  {
    dd::RankEngine<double> probe(dofh, popt);
    probe.set_potential(H.potential());
    const auto r = run_filter(probe, X, X0, cheb_degree, a, b, a0, 2);
    for (const auto& blk : r.blocks) step_compute += blk.compute;
    step_compute /= static_cast<double>(r.blocks.size());
  }
  // Inject half a step of wire delay per halo packet: the synchronous
  // schedule pays it every recurrence step, the overlapped one hides it
  // behind interior compute.
  const double delay = 0.5 * step_compute;
  const std::int64_t bytes = dofh.naxis(0) * dofh.naxis(1) * ncols *
                             static_cast<std::int64_t>(sizeof(double));
  dd::EngineOptions opt = popt;
  opt.inject_wire_delay = true;
  opt.model.latency_s = 2e-6;
  opt.model.bandwidth_bytes_per_s =
      static_cast<double>(bytes) / std::max(delay - opt.model.latency_s, 1e-6);

  dd::RankEngine<double> eng(dofh, opt);
  eng.set_potential(H.potential());
  eng.set_mode(dd::EngineMode::sync);
  const auto sync = run_filter(eng, X, X0, cheb_degree, a, b, a0, reps);
  eng.set_mode(dd::EngineMode::async);
  const auto async = run_filter(eng, X, X0, cheb_degree, a, b, a0, reps);
  const double speedup = sync.wall / async.wall;

  std::printf("measured on the threaded rank engine: %d lanes, p=%d, %lld dofs,\n"
              "%d-col block, Chebyshev degree %d, injected wire delay %.2f ms/packet\n",
              lanes, fe_degree, static_cast<long long>(dofh.ndofs()),
              static_cast<int>(ncols), cheb_degree, 1e3 * delay);
  TextTable t({"schedule", "wall (s)", "modeled comm (s)", "sim sync (s)", "sim overlap (s)"});
  t.add("sync", TextTable::num(sync.wall, 4), TextTable::num(sync.modeled, 4),
        TextTable::num(dd::simulate_sync(sync.blocks), 4),
        TextTable::num(dd::simulate_overlap(sync.blocks), 4));
  t.add("async", TextTable::num(async.wall, 4), TextTable::num(async.modeled, 4),
        TextTable::num(dd::simulate_sync(async.blocks), 4),
        TextTable::num(dd::simulate_overlap(async.blocks), 4));
  t.print();
  std::printf("measured async speedup: %.2fx (acceptance gate: >= 1.15x)\n\n", speedup);

  // ---- Section 2: pipeline-simulator sweep over filter block sizes ----
  if (!quick) {
    const fe::Mesh smesh = fe::make_uniform_mesh(12.0, 3, true);
    fe::DofHandler sdofh(smesh, 5);
    ks::Hamiltonian<double> sH(sdofh);
    sH.set_potential(std::vector<double>(sdofh.ndofs(), -0.3));
    const index_t N = 192;
    const index_t plane = sdofh.naxis(0) * sdofh.naxis(1);  // dofs per z-plane
    dd::CommModel net;
    net.bandwidth_bytes_per_s = 5e9;  // congested-network regime: comm visible

    TextTable st({"B_f", "blocks", "sync (s)", "overlap (s)", "hidden comm"});
    for (index_t bf : {16, 32, 64, 96, 192}) {
      ks::ChfesOptions copt;
      copt.block_size = bf;
      copt.cheb_degree = 8;
      ks::ChebyshevFilteredSolver<double> s(sH, N, copt);
      s.initialize_random(9);
      s.cycle();
      // Per-block exchange time: 2 interface faces per apply, `degree` applies.
      const index_t wire = 2 * plane * bf * 4 * 2;  // FP32 wire
      std::vector<dd::BlockTiming> blocks;
      for (const auto& bt : s.cf_block_timings())
        blocks.push_back({bt.compute, copt.cheb_degree * net.time(wire, 4)});
      const double sim_sync = dd::simulate_sync(blocks);
      const double sim_overlap = dd::simulate_overlap(blocks);
      double comm_total = 0.0;
      for (auto& blk : blocks) comm_total += blk.comm;
      st.add(bf, blocks.size(), TextTable::num(sim_sync, 4), TextTable::num(sim_overlap, 4),
             TextTable::num(100.0 * (sim_sync - sim_overlap) / std::max(comm_total, 1e-12), 1) +
                 "%");
    }
    st.print();
    std::printf("with several blocks in flight, nearly all exchange time hides behind\n"
                "the next block's compute (only the last block's exchange is exposed);\n"
                "with a single block (B_f = N) there is nothing to overlap — exactly\n"
                "why the paper pipelines the filter over wavefunction blocks.\n");
  }

  bench::emit_bench_artifact("ablation_async_overlap", "ablation_async",
                             {{"lanes", static_cast<double>(lanes)},
                              {"sync_wall_s", sync.wall},
                              {"async_wall_s", async.wall},
                              {"speedup", speedup},
                              {"injected_delay_s", delay},
                              {"modeled_comm_s", sync.modeled}});
  return 0;
}
