// The traced run: the real f3d::Solver's per-region profile on each
// engine, read from its runtime's region registry step by step, plus
// probes of the layers below and beside the solver (tridiag kernels,
// fork-join, runtime construction, checkpoints, serving, sharding).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string_view>

#include "ckpt/checkpoint.hpp"
#include "core/llp.hpp"
#include "f3d/engine.hpp"
#include "f3d/tridiag.hpp"
#include "f3d/validation.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/tracer.hpp"
#include "serve/server.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace bench {

namespace fs = std::filesystem;
namespace serve = f3d::serve;
using llp::strfmt;

namespace {

constexpr std::size_t kNumRegions = std::size(kStepRegions);
constexpr std::size_t kRhs = 2, kUpdate = 6;
static_assert(std::string_view(kStepRegions[kRhs]) == "rhs" &&
              std::string_view(kStepRegions[kUpdate]) == "update");

// Take samples from `sample()` until `budget_s` has passed and at least
// `min_reps` were taken.
template <typename Fn>
std::vector<double> repeat(double budget_s, int min_reps, Fn&& sample) {
  std::vector<double> xs;
  const auto start = Clock::now();
  while (static_cast<int>(xs.size()) < min_reps ||
         seconds_since(start) < budget_s) {
    xs.push_back(sample());
  }
  return xs;
}

// Wall time of `fn()` in ms.
template <typename Fn>
double time_ms(Fn&& fn) {
  const auto a = Clock::now();
  fn();
  return ms_since(a);
}

// --------------------------------------------------------- solver layers

struct EngineLayers {
  std::vector<double> build_ms, ctor_ms;
  double mflop = 0.0, mb = 0.0;
};

// Which of kStepRegions a region of a solver named "<prefix>.z<n>.<part>"
// or "<prefix>.<part>" belongs to; kNumRegions when it is another's.
std::size_t step_region(std::string_view name, std::string_view prefix) {
  if (name.substr(0, prefix.size()) != prefix) return kNumRegions;
  const std::string_view part = name.substr(name.rfind('.') + 1);
  for (std::size_t r = 0; r < kNumRegions; ++r) {
    if (part == kStepRegions[r]) return r;
  }
  return kNumRegions;
}

// One engine on the shared runtime `rt`: build and construct, a first and
// warm-up steps, then timed steps, each read back from the region registry
// (reset before the step, snapshot after), and one last step with `tracer`
// attached for the Chrome trace.
void engine_layers(const Problem& p, EngineKind e, llp::Runtime& rt,
                   llp::obs::Tracer& tracer, double budget_s, const Sizes& z,
                   Run& run, EngineLayers& acc) {
  const std::string en(f3d::engine_name(e));
  const std::string prefix = en + ".";
  f3d::SolverConfig cfg = p.config(e);
  cfg.region_prefix = en;

  auto t0 = Clock::now();
  f3d::MultiZoneGrid grid = p.build();
  acc.build_ms.push_back(ms_since(t0));
  t0 = Clock::now();
  f3d::Solver solver(grid, cfg, rt);
  acc.ctor_ms.push_back(ms_since(t0));
  acc.mflop = solver.flops_per_step() / 1e6;
  acc.mb = solver.bytes_per_step() / 1e6;

  auto step = [&] {
    const double ms = time_ms([&] { solver.step(); });
    run.op(std::isfinite(solver.residual()));
    return ms;
  };
  const double first_ms = step();
  for (int i = 1; i < kWarmup; ++i) step();

  std::vector<double> step_ms;
  std::array<std::vector<double>, kNumRegions> region_ms;
  std::array<double, kNumRegions> total{};
  double lane_max[2] = {0.0, 0.0}, lane_mean[2] = {0.0, 0.0};
  const auto start = Clock::now();
  while (step_ms.size() < 200 &&
         (static_cast<int>(step_ms.size()) < z.min_timed_layers ||
          seconds_since(start) < budget_s)) {
    rt.regions().reset_stats();
    step_ms.push_back(step());
    std::array<double, kNumRegions> ms{};
    for (const llp::RegionStats& s : rt.regions().snapshot()) {
      const std::size_t r = step_region(s.name, prefix);
      if (r == kNumRegions) continue;
      ms[r] += 1e3 * s.seconds;
      if (r == kRhs || r == kUpdate) {
        lane_max[r == kRhs ? 0 : 1] += s.lane_max_seconds;
        lane_mean[r == kRhs ? 0 : 1] += s.lane_mean_seconds;
      }
    }
    for (std::size_t r = 0; r < kNumRegions; ++r) {
      region_ms[r].push_back(ms[r]);
      total[r] += ms[r];
    }
  }
  rt.add_observer(&tracer);
  step();
  rt.remove_observer(&tracer);

  run.check(solver.residual() > 0.0 && f3d::all_finite(grid),
            strfmt("%s: field finite, residual after %d steps = %.6e",
                   en.c_str(), solver.steps_taken(), solver.residual()));
  double step_total = 0.0;
  for (double x : step_ms) step_total += x;
  std::printf("  %s.t%d: Solver.step median %.3f ms over %zu timed steps\n",
              en.c_str(), rt.num_threads(), median(step_ms), step_ms.size());

  for (std::size_t r = 0; r < kNumRegions; ++r) {
    run.metric(strfmt("f3d.%s.%s.ms", kStepRegions[r], en.c_str()),
               median(region_ms[r]), "ms (median per step, all zones)");
  }
  for (std::size_t r = 0; r < kNumRegions; ++r) {
    run.metric(strfmt("f3d.%s.%s.share", kStepRegions[r], en.c_str()),
               total[r] / step_total, "of Solver.step wall time");
  }
  for (int i = 0; i < 2; ++i) {
    run.metric(strfmt("f3d.%s.%s.imbalance", i == 0 ? "rhs" : "update",
                      en.c_str()),
               lane_mean[i] > 0.0 ? lane_max[i] / lane_mean[i] : 1.0,
               "busiest lane / mean lane (1 on one lane)");
  }
  run.metric(strfmt("f3d.first_step.%s.ms", en.c_str()), first_ms,
             "ms (first Solver.step after construction)");
}

// --------------------------------------------------------------- probes

// Diagonally dominant systems like the implicit operator's, at the line
// lengths of `grid`, solved by the scalar, lane-batched and periodic
// Thomas kernels.
void tridiag_probe(const std::vector<f3d::ZoneDims>& zones, std::uint64_t seed,
                   double budget_s, Run& run) {
  std::vector<int> lengths;
  for (const f3d::ZoneDims& zd : zones) {
    lengths.insert(lengths.end(), {zd.jmax, zd.kmax, zd.lmax});
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());

  constexpr int kW = f3d::kTridiagLaneWidth;
  struct Set {
    int n, lines;
    std::vector<double> a, b, c, d;
  };
  llp::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 0x7d1a);
  std::vector<Set> sets;
  double points = 0.0;
  for (int n : lengths) {
    Set s;
    s.n = std::max(n, 3);
    s.lines = std::max(kW, ((1 << 15) / s.n + kW - 1) / kW * kW);
    const std::size_t size = static_cast<std::size_t>(s.n) * s.lines;
    for (std::size_t i = 0; i < size; ++i) {
      s.a.push_back(-rng.uniform(0.1, 1.0));
      s.c.push_back(-rng.uniform(0.1, 1.0));
      s.b.push_back(2.5 + rng.uniform());
      s.d.push_back(rng.uniform(-1.0, 1.0));
    }
    points += static_cast<double>(size);
    sets.push_back(std::move(s));
  }

  // Line-contiguous layout for the scalar solvers; every rep solves fresh
  // copies of b and d, copied outside the timed part.
  auto time_lines = [&](bool periodic) {
    std::vector<std::vector<double>> b(sets.size()), d(sets.size());
    return repeat(budget_s / 3, 5, [&] {
      for (std::size_t k = 0; k < sets.size(); ++k) {
        b[k] = sets[k].b;
        d[k] = sets[k].d;
      }
      const auto a0 = Clock::now();
      for (std::size_t k = 0; k < sets.size(); ++k) {
        const Set& s = sets[k];
        const auto n = static_cast<std::size_t>(s.n);
        for (int line = 0; line < s.lines; ++line) {
          const std::size_t off = n * static_cast<std::size_t>(line);
          std::span<const double> a(s.a.data() + off, n);
          std::span<const double> c(s.c.data() + off, n);
          std::span<double> bb(b[k].data() + off, n);
          std::span<double> dd(d[k].data() + off, n);
          if (periodic) {
            f3d::solve_periodic_tridiagonal(a, bb, c, dd);
          } else {
            f3d::solve_tridiagonal(a, bb, c, dd);
          }
        }
      }
      return ms_since(a0);
    });
  };
  // The lane kernel reads kW lines interleaved element by element.
  auto time_lanes = [&] {
    std::vector<Set> inter = sets;
    for (std::size_t k = 0; k < sets.size(); ++k) {
      const Set& s = sets[k];
      for (int g = 0; g < s.lines / kW; ++g) {
        for (int w = 0; w < kW; ++w) {
          for (int i = 0; i < s.n; ++i) {
            const std::size_t from =
                static_cast<std::size_t>(g * kW + w) * s.n + i;
            const std::size_t to =
                (static_cast<std::size_t>(g) * s.n + i) * kW + w;
            inter[k].a[to] = s.a[from];
            inter[k].b[to] = s.b[from];
            inter[k].c[to] = s.c[from];
            inter[k].d[to] = s.d[from];
          }
        }
      }
    }
    std::vector<std::vector<double>> b(sets.size()), d(sets.size());
    return repeat(budget_s / 3, 5, [&] {
      for (std::size_t k = 0; k < sets.size(); ++k) {
        b[k] = inter[k].b;
        d[k] = inter[k].d;
      }
      const auto a0 = Clock::now();
      for (std::size_t k = 0; k < sets.size(); ++k) {
        const Set& s = inter[k];
        const std::size_t group = static_cast<std::size_t>(s.n) * kW;
        for (int g = 0; g < s.lines / kW; ++g) {
          const std::size_t off = group * static_cast<std::size_t>(g);
          f3d::solve_tridiagonal_lanes(s.a.data() + off, b[k].data() + off,
                                       s.c.data() + off, d[k].data() + off,
                                       s.n);
        }
      }
      return ms_since(a0);
    });
  };
  auto report = [&](const char* name, const std::vector<double>& solve_ms) {
    run.metric(name, 1e6 * median(solve_ms) / points,
               strfmt("ns per point (median of %zu passes over %.0f points, "
                      "lines of %d..%d)",
                      solve_ms.size(), points, lengths.front(),
                      lengths.back()));
  };
  report("tridiag.scalar.ns_per_pt", time_lines(false));
  report("tridiag.lanes.ns_per_pt", time_lanes());
  report("tridiag.periodic.ns_per_pt", time_lines(true));
}

void core_probes(int threads, double budget_s, const Sizes& z, Run& run) {
  {
    llp::Runtime rt(4);
    llp::RuntimeScope scope(rt);
    const llp::RegionId id = rt.regions().define("bench.fork_join");
    auto empty = [](std::int64_t) {};
    for (int i = 0; i < 200; ++i) {
      llp::parallel_for(0, 4, empty, llp::ForOptions::in_region(id));
    }
    std::vector<double> us;
    us.reserve(static_cast<std::size_t>(z.fork_join_reps));
    for (int i = 0; i < z.fork_join_reps; ++i) {
      const auto a = Clock::now();
      llp::parallel_for(0, 4, empty, llp::ForOptions::in_region(id));
      us.push_back(1e6 * seconds_since(a));
    }
    run.metric("core.fork_join.t4.us", median(us),
               strfmt("us (median of %zu empty 4-trip instrumented loops)",
                      us.size()));
  }
  const auto ms = repeat(budget_s, 5, [&] {
    const auto a = Clock::now();
    auto rt = std::make_unique<llp::Runtime>(threads);
    rt->pool();
    const double t = ms_since(a);
    rt.reset();
    return t;
  });
  run.metric("core.runtime_ctor.ms", median(ms),
             strfmt("ms (Runtime(%d) + pool start, median of %zu)", threads,
                    ms.size()));
}

void ckpt_probe(const Options& o, const Problem& p, double budget_s,
                Run& run) {
  const fs::path dir = o.work / "ckpt_probe";
  fs::remove_all(dir);
  f3d::ckpt::Config cc;
  cc.dir = dir.string();
  cc.keep_generations = 2;
  cc.meta = "llp_bench";
  f3d::ckpt::CheckpointStore store(cc);
  const f3d::MultiZoneGrid grid = p.build();
  f3d::MultiZoneGrid back = p.build();
  f3d::SolverState state;
  state.cfl = 2.0;
  int gen = -1;
  const auto save = repeat(budget_s / 2, 3, [&] {
    ++state.steps;
    return time_ms([&] { gen = store.save(grid, state); });
  });
  const auto load = repeat(budget_s / 2, 3, [&] {
    return time_ms([&] { store.load(gen, back); });
  });
  const double mb =
      static_cast<double>(fs::file_size(f3d::ckpt::state_path(cc.dir, gen))) /
      1e6;
  fs::remove_all(dir);
  run.check(f3d::checksum(back) == f3d::checksum(grid),
            "checkpoint save + load restores the grid bitwise");
  run.metric("ckpt.save.ms", median(save),
             strfmt("ms (durable write, median of %zu)", save.size()));
  run.metric("ckpt.load.ms", median(load),
             strfmt("ms (validated load, median of %zu)", load.size()));
  run.metric("ckpt.mb", mb, "MB per generation");
}

// One client and one lane: what serving adds to a job when nothing queues.
void serve_probe(double budget_s, Run& run) {
  const serve::JobSpec spec = cube_spec(12, 10, "risc", 0.05);
  double expect = 0.0;
  const auto direct = repeat(budget_s / 2, 10, [&] {
    return time_ms([&] { expect = direct_job(spec); });
  });
  serve::ServerConfig sc;
  sc.total_threads = 1;
  sc.max_running = 1;
  serve::Server server(sc);
  server.start();
  std::vector<double> submit_us;
  int bad = 0;
  const auto latency = repeat(budget_s / 2, 10, [&] {
    const auto a = Clock::now();
    const std::uint64_t id = server.submit(spec);
    submit_us.push_back(1e6 * seconds_since(a));
    serve::JobStatus st;
    const bool ok = id != 0 && server.wait_terminal(id, 120.0, &st) &&
                    st.state == serve::JobState::kDone &&
                    st.residual == expect;
    const double ms = ms_since(a);
    run.op(ok);
    if (!ok) ++bad;
    return ms;
  });
  server.stop();
  run.check(bad == 0, strfmt("%zu probe jobs served with the direct "
                             "residual, bitwise (%d bad)",
                             latency.size(), bad));
  run.metric("serve.submit.us", median(submit_us), "us (Server::submit)");
  run.metric("serve.direct_job.ms", median(direct),
             "ms (the probe job run by hand)");
  run.metric("serve.overhead.ms", median(latency) - median(direct),
             "ms (submit-to-done latency minus the direct run)");
}

// Two single-threaded workers on a two-zone cube against the same steps in
// process on two threads: what sharding adds per step.
void cluster_probe(const Options& o, double budget_s, Run& run) {
  constexpr int kSteps = 6;
  Problem p;
  p.spec.zones = {f3d::ZoneDims{8, 16, 16}, f3d::ZoneDims{8, 16, 16}};
  p.spec.spacing = 1.0 / 16;
  p.spec.freestream = f3d::wall_compression_case(16).freestream;
  p.init = [](f3d::MultiZoneGrid& g) { f3d::add_gaussian_pulse(g, 0.05, 2.5); };
  const SolverRun in =
      run_steps(p, EngineKind::kPencilScalar, 2, kSteps, run);
  const fs::path dir = o.work / "cluster_probe";
  long frames = 0;
  int generations = 0;
  const auto ms = repeat(budget_s, 2, [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto cfg = cluster_config(o, p, EngineKind::kPencilScalar, 2, 1,
                                    kSteps, 3, dir);
    const auto a = Clock::now();
    const llp::cluster::ClusterReport rep = llp::cluster::run_cluster(cfg);
    const double step_ms = ms_since(a) / kSteps;
    frames = rep.frames_relayed;
    generations = rep.generations_written;
    run.op(rep.recoveries == 0 &&
           llp::rel_diff(rep.final_residual, in.final_residual) <= 1e-9);
    return step_ms;
  });
  fs::remove_all(dir);
  run.metric("cluster.step_ms", median(ms),
             strfmt("ms (2 workers x 1 thread, wall / %d steps, median of "
                    "%zu)",
                    kSteps, ms.size()));
  run.metric("cluster.overhead.ms_per_step",
             median(ms) - median(in.step_ms),
             "ms (sharded minus in-process on 2 threads)");
  run.metric("cluster.frames_relayed", static_cast<double>(frames),
             "halo frames relayed per run");
  run.metric("cluster.generations_written", generations,
             "checkpoint generations per run");
}

}  // namespace

void run_per_layer(const Options& o, Run& run, const std::string& trace_path) {
  const Problem p = workload_problem(o);
  const double s = o.seconds;
  // Both engines run on one runtime with their regions named
  // "<engine>.z0.rhs", ..., so one registry names every traced region.
  llp::Runtime rt(workload_threads(o.workload));
  llp::obs::Tracer tracer;
  EngineLayers acc;
  for (EngineKind e : {EngineKind::kPencilScalar, EngineKind::kPencilSimd}) {
    engine_layers(p, e, rt, tracer, 0.25 * s, o.sizes, run, acc);
  }
  {
    llp::RuntimeScope scope(rt);
    const auto stats =
        llp::obs::write_chrome_trace_file(tracer.drain(), trace_path);
    std::printf("chrome trace: %zu events written to %s\n",
                stats.events_written, trace_path.c_str());
  }
  run.metric("f3d.step.mflop", acc.mflop,
             "Mflop per step (computed from the analytic counts)");
  run.metric("f3d.step.mb_computed", acc.mb,
             "MB per step (computed from array sizes, not measured)");
  run.metric("f3d.build_grid.ms", median(acc.build_ms),
             "ms (grid + initial condition)");
  run.metric("f3d.solver_ctor.ms", median(acc.ctor_ms),
             "ms (Solver construction)");
  tridiag_probe(p.spec.zones, o.seed, 0.08 * s, run);
  core_probes(workload_threads(o.workload), 0.04 * s, o.sizes, run);
  ckpt_probe(o, p, 0.1 * s, run);
  serve_probe(0.1 * s, run);
  cluster_probe(o, 0.06 * s, run);
}

}  // namespace bench
