#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "f3d/engine.hpp"
#include "f3d/validation.hpp"
#include "serve/server.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bench {

namespace fs = std::filesystem;
namespace serve = f3d::serve;
using llp::strfmt;

namespace {

// Output tolerances, the same ones the fuzz oracle judges with.
constexpr double kSimdTol = 1e-9;       // FMA lanes vs the scalar pencil
constexpr double kClusterTol = 1e-9;    // sharded vs in-process residual
// A reduction's combine order changes with the lane count, so residuals
// across thread counts agree to roundoff, not bitwise (the fields do).
constexpr double kThreadResidualTol = 1e-12;
// The vortex after kCheckStep steps at CFL 2 stays this close to the exact
// convected solution (the smoke test's 24-cell grid errs most, ~2e-3); a
// broken sweep or boundary leaves it far behind.
constexpr double kVortexL2Max = 1e-2;

// A served job that has not ended after this long is a failed job.
constexpr double kJobTimeoutS = 120.0;
// Length of one server slice of serve_jobs.
constexpr double kSliceSeconds = 1.0;

// Set-ups behind setup_s: at least 7 of the 1M cases (~0.1 s each), and 25
// per round of server slices of a served job (under 0.1 ms each).
constexpr int kSolverSetups = 7;
constexpr int kJobSetupsPerRound = 25;

std::string note_of(const std::vector<double>& xs, const char* what) {
  const auto [q1, q3] = quartiles(xs);
  return strfmt("ms (wall / %zu timed steps of %s; median %.3f, IQR [%.3f, "
                "%.3f]; %.0f steps/hour)",
                xs.size(), what, median(xs), q1, q3, 3.6e6 / mean(xs));
}

// Peak resident set in MB: this process plus its largest reaped child.
double peak_rss_mb(bool with_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

void report_peak_rss(Run& run, bool with_children) {
  run.metric("peak_rss_mb", peak_rss_mb(with_children),
             with_children ? "MB (self + largest worker)" : "MB");
}

// ------------------------------------------------------ f3d_1m, vortex

struct SolverConfigRow {
  const char* metric;
  EngineKind engine;
  int threads;
  int every;  ///< steps in every `every`-th round, to even out the time
};
// The tuned pencil engine and the SIMD pencil engine on all four cores,
// and the pencil engine on one core (the paper's single-CPU row). The
// host's speed drifts over seconds, so the three are stepped round-robin
// for the whole run: each samples the same slow and fast spells.
constexpr SolverConfigRow kSolverRows[] = {
    {"ms_per_step.risc.t4", EngineKind::kPencilScalar, 4, 1},
    {"ms_per_step.simd.t4", EngineKind::kPencilSimd, 4, 1},
    {"ms_per_step.risc.t1", EngineKind::kPencilScalar, 1, 2},
};
// Rounds between set-up samples: spread over the run like the steps, so
// setup_s does not hang on one short spell of host speed.
constexpr int kSetupEvery = 3;

void solver_e2e(const Options& o, Run& run) {
  const auto start = Clock::now();
  const Problem p = workload_problem(o);
  std::vector<double> setups;
  std::vector<std::unique_ptr<TimedSolver>> solvers;
  for (const SolverConfigRow& c : kSolverRows) {
    solvers.push_back(std::make_unique<TimedSolver>(p, c.engine, c.threads));
  }
  std::optional<f3d::MultiZoneGrid> reference;  // risc.t4 at the check step
  double simd_linf = std::numeric_limits<double>::quiet_NaN();
  double vortex_l2 = std::numeric_limits<double>::quiet_NaN();
  auto enough = [&] {
    for (const auto& s : solvers) {
      if (s->result().steps < kWarmup + o.sizes.min_timed) return false;
    }
    return static_cast<int>(setups.size()) >= kSolverSetups &&
           seconds_since(start) >= o.seconds;
  };
  for (int round = 0; !enough(); ++round) {
    if (round % kSetupEvery == 1) setups.push_back(setup_sample(p, 4));
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      if (round % kSolverRows[i].every != 0) continue;
      TimedSolver& ts = *solvers[i];
      ts.step(run);
      if (ts.result().steps != kCheckStep) continue;
      f3d::Solver& s = ts.solver();
      if (i == 0) {  // risc.t4: the reference
        reference.emplace(s.grid());
        if (p.vortex) {
          const double extent = p.spec.spacing * p.spec.zones[0].jmax;
          vortex_l2 = f3d::vortex_l2_error(s.grid(), p.spec.freestream,
                                           *p.vortex, kCheckStep * s.dt(),
                                           extent);
        }
      } else if (kSolverRows[i].engine == EngineKind::kPencilSimd) {
        simd_linf = f3d::linf_diff(*reference, s.grid());
      }
    }
  }
  reference.reset();
  std::vector<SolverRun> runs;
  for (auto& s : solvers) {
    runs.push_back(s->finish());
    summarize(runs.back(), run);
  }
  solvers.clear();

  const SolverRun& r4 = runs[0];
  const SolverRun& r1 = runs[2];
  run.check(r4.check_checksum == r1.check_checksum,
            strfmt("risc field after step %d is bitwise equal on 4 and 1 "
                   "threads (%s vs %s)",
                   kCheckStep, hex64(r4.check_checksum).c_str(),
                   hex64(r1.check_checksum).c_str()));
  run.check(llp::rel_diff(r4.check_residual, r1.check_residual) <=
                kThreadResidualTol,
            strfmt("risc residual after step %d agrees on 4 and 1 threads "
                   "(%.17g vs %.17g)",
                   kCheckStep, r4.check_residual, r1.check_residual));
  run.check(simd_linf <= kSimdTol,
            strfmt("simd field after step %d within %g of risc (linf %.3e)",
                   kCheckStep, kSimdTol, simd_linf));
  for (const SolverRun& r : runs) {
    run.check(r.finite && r.check_residual > 0.0,
              strfmt("%s: every step finite; residual after step %d = %.6e",
                     r.label.c_str(), kCheckStep, r.check_residual));
  }
  if (p.vortex) {
    run.check(vortex_l2 > 0.0 && vortex_l2 <= kVortexL2Max,
              strfmt("vortex L2 density error after step %d = %.3e against "
                     "the exact solution (limit %g)",
                     kCheckStep, vortex_l2, kVortexL2Max));
  }

  for (std::size_t i = 0; i < runs.size(); ++i) {
    run.metric(kSolverRows[i].metric, mean(runs[i].step_ms),
               note_of(runs[i].step_ms, runs[i].label.c_str()));
  }
  run.metric("setup_s", median(setups),
             strfmt("s (median of %zu: Runtime(4) + grid + initial "
                    "condition + Solver)",
                    setups.size()));
  report_peak_rss(run, false);
}

// ------------------------------------------------------------ serve_jobs

struct JobShape {
  int n;
  int steps;
  const char* engine;
  double pulse;
};

// Every combination of size, length and engine once, each with its own
// seeded pulse; clients walk a seeded permutation of them, so the mix is
// fixed and only the order and the amplitudes depend on the seed.
std::vector<JobShape> job_shapes(llp::SplitMix64& rng) {
  std::vector<JobShape> shapes;
  for (int n : {10, 12, 14}) {
    for (int steps : {8, 10, 12}) {
      for (const char* engine : {"risc", "simd"}) {
        shapes.push_back({n, steps, engine, rng.uniform(0.04, 0.06)});
      }
    }
  }
  return shapes;
}

std::vector<int> permutation(std::size_t n, llp::SplitMix64& rng) {
  std::vector<int> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<int>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

struct JobSample {
  int shape = -1;
  double submit_us = 0.0;
  double latency_ms = 0.0;
  bool done = false;
  double residual = std::numeric_limits<double>::quiet_NaN();
};

serve::ServerConfig server_config(int lanes) {
  serve::ServerConfig sc;  // in-process: no socket, no state dir
  sc.total_threads = lanes;
  sc.max_running = lanes;
  return sc;
}

// A closed loop: each client submits its next job only after the previous
// one reached a terminal state.
// Jobs are numbered from *next on; the loop stops taking new ones at
// `deadline` or after job `max_jobs`, and returns how far it got in *next.
void closed_loop(int lanes, int clients, const std::vector<JobShape>& shapes,
                 const std::vector<int>& cycle, Clock::time_point deadline,
                 int max_jobs, int* next_job, std::vector<JobSample>* out,
                 double* wall_s) {
  serve::Server server(server_config(lanes));
  server.start();
  std::atomic<int> next{*next_job};
  std::mutex mu;
  std::vector<JobSample>& samples = *out;
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (int c = 0; c < clients; ++c) {
      pool.emplace_back([&] {
        while (Clock::now() < deadline) {
          const int i = next.fetch_add(1);
          if (i >= max_jobs) return;
          JobSample js;
          js.shape = cycle[static_cast<std::size_t>(i) % cycle.size()];
          const JobShape& sh = shapes[static_cast<std::size_t>(js.shape)];
          try {
            const serve::JobSpec spec =
                cube_spec(sh.n, sh.steps, sh.engine, sh.pulse);
            const auto a = Clock::now();
            const std::uint64_t id = server.submit(spec);
            js.submit_us = 1e6 * seconds_since(a);
            serve::JobStatus st;
            const bool ended =
                id != 0 && server.wait_terminal(id, kJobTimeoutS, &st);
            js.latency_ms = ms_since(a);
            js.done = ended && st.state == serve::JobState::kDone;
            js.residual = st.residual;
          } catch (const std::exception& e) {
            std::fprintf(stderr, "llp_bench: job failed: %s\n", e.what());
          }
          std::lock_guard<std::mutex> lock(mu);
          samples.push_back(js);
        }
      });
    }
  }  // the clients join here
  *wall_s += seconds_since(t0);
  *next_job = std::min(next.load(), max_jobs);
  server.stop();
}

struct ServeRow {
  const char* metric;
  const char* engine;
  int lanes;  ///< server lanes, and closed-loop clients
};
// A server with as many clients as lanes keeps every lane busy with one
// single-threaded job: the throughput counterparts of kSolverRows.
constexpr ServeRow kServeRows[] = {
    {"ms_per_step.risc.t4", "risc", 4},
    {"ms_per_step.simd.t4", "simd", 4},
    {"ms_per_step.risc.t1", "risc", 1},
};

// The highest percentile with at least ten samples beyond it, or the
// median when there are too few samples for any tail.
double tail_percentile(std::size_t n) {
  double tail = 0.5;
  for (double p : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) tail = p;
  }
  return tail;
}

void serve_e2e(const Options& o, Run& run) {
  const auto start = Clock::now();
  llp::SplitMix64 rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
  const std::vector<JobShape> shapes = job_shapes(rng);
  const std::vector<int> cycle = permutation(shapes.size(), rng);

  // The answer every served job owes: its spec run directly.
  std::vector<double> direct;
  for (const JobShape& sh : shapes) {
    direct.push_back(direct_job(cube_spec(sh.n, sh.steps, sh.engine, sh.pulse)));
  }
  // What every job pays before its first step, as a server runner does it;
  // sampled before every round of slices.
  const Problem job = workload_problem(o);
  std::vector<double> setups;

  // Each configuration walks the seeded cycle, keeping its engine's jobs.
  // They alternate in short slices, each on a fresh server, so all sample
  // the host's slow and fast spells alike.
  struct Tally {
    std::vector<int> cycle;
    std::vector<JobSample> jobs;
    double wall_s = 0.0;
    int next = 0;
  };
  std::vector<Tally> tallies(std::size(kServeRows));
  for (std::size_t r = 0; r < std::size(kServeRows); ++r) {
    for (int i : cycle) {
      if (std::string(shapes[static_cast<std::size_t>(i)].engine) ==
          kServeRows[r].engine) {
        tallies[r].cycle.push_back(i);
      }
    }
  }
  const double slice = std::min(kSliceSeconds, o.seconds / 3.0);
  auto more = [&] {
    for (const Tally& t : tallies) {
      if (t.next < o.sizes.max_jobs) return true;
    }
    return false;
  };
  do {
    for (int i = 0; i < kJobSetupsPerRound; ++i) {
      setups.push_back(setup_sample(job, 1));
    }
    for (std::size_t r = 0; r < std::size(kServeRows); ++r) {
      Tally& t = tallies[r];
      if (t.next >= o.sizes.max_jobs) continue;
      closed_loop(kServeRows[r].lanes, kServeRows[r].lanes, shapes, t.cycle,
                  after_seconds(slice), o.sizes.max_jobs, &t.next, &t.jobs,
                  &t.wall_s);
    }
  } while (seconds_since(start) < o.seconds && more());

  int mismatched = 0;
  std::size_t served = 0;
  for (const Tally& t : tallies) {
    for (const JobSample& s : t.jobs) {
      const bool same =
          s.done && s.residual == direct[static_cast<std::size_t>(s.shape)];
      if (s.done && !same) ++mismatched;
      run.op(same);
    }
    served += t.jobs.size();
  }
  run.check(mismatched == 0 && served > 0,
            strfmt("%zu served jobs reached done with the residual of a "
                   "direct run, bitwise (%d mismatched)",
                   served, mismatched));

  for (std::size_t r = 0; r < std::size(kServeRows); ++r) {
    const ServeRow& row = kServeRows[r];
    const Tally& t = tallies[r];
    std::vector<double> latency, submit_us;
    long steps = 0;
    for (const JobSample& s : t.jobs) {
      latency.push_back(s.latency_ms);
      submit_us.push_back(s.submit_us);
      if (s.done) steps += shapes[static_cast<std::size_t>(s.shape)].steps;
    }
    const std::string label = strfmt("%s.t%d", row.engine, row.lanes);
    const double tail = tail_percentile(latency.size());
    const double jobs_per_s = static_cast<double>(t.jobs.size()) / t.wall_s;
    const double ms_per_step = 1e3 * t.wall_s / static_cast<double>(steps);
    std::printf("  %-8s %d client(s), %d lane(s): %zu jobs, %ld steps in "
                "%.2f s = %.1f jobs/s; latency p50 %.2f ms",
                label.c_str(), row.lanes, row.lanes, t.jobs.size(), steps,
                t.wall_s, jobs_per_s, median(latency));
    Json d;
    d["jobs"] = static_cast<int>(t.jobs.size());
    d["jobs_per_s"] = jobs_per_s;
    d["job_latency_ms.p50"] = median(latency);
    if (tail > 0.5) {
      std::printf(", p%g %.2f ms", 100 * tail, percentile(latency, tail));
      d[strfmt("job_latency_ms.p%g", 100 * tail)] = percentile(latency, tail);
    }
    std::printf("; submit p50 %.1f us\n", median(submit_us));
    d["submit_us.p50"] = median(submit_us);
    run.details["serve"][label] = d;
    run.metric(row.metric, ms_per_step,
               strfmt("ms (%s server: wall %.2f s / %ld steps of %zu jobs; "
                      "%.0f steps/hour)",
                      label.c_str(), t.wall_s, steps, t.jobs.size(),
                      3.6e6 / ms_per_step));
  }
  run.metric("setup_s", median(setups),
             strfmt("s (median of %zu job set-ups: Runtime(1) + grid + "
                    "initial condition + Solver)",
                    setups.size()));
  report_peak_rss(run, false);
}

// ---------------------------------------------------------- cluster_ckpt

struct ClusterRow {
  const char* metric;
  const char* label;
  EngineKind engine;
  int workers;
  int threads;
};
// Four lanes in total as two workers of two threads, per engine, and one
// single-threaded worker: the sharded counterparts of kSolverRows.
constexpr ClusterRow kClusterRows[] = {
    {"ms_per_step.risc.t4", "risc.w2t2", EngineKind::kPencilScalar, 2, 2},
    {"ms_per_step.simd.t4", "simd.w2t2", EngineKind::kPencilSimd, 2, 2},
    {"ms_per_step.risc.t1", "risc.w1t1", EngineKind::kPencilScalar, 1, 1},
};

void cluster_e2e(const Options& o, Run& run) {
  const auto start = Clock::now();
  const Problem p = workload_problem(o);
  const int steps = o.sizes.cluster_steps;
  // Set-up samples, taken between the runs below to spread them in time.
  std::vector<double> setups;

  // The trajectories the shards owe: the same steps in process.
  double reference[3] = {0.0, 0.0, 0.0};
  for (EngineKind e : {EngineKind::kPencilScalar, EngineKind::kPencilSimd}) {
    setups.push_back(setup_sample(p, 4));
    const SolverRun r = run_steps(p, e, 4, steps, run);
    reference[static_cast<int>(e)] = r.final_residual;
    std::printf("  in-process %s: %d steps, residual %.17g\n",
                r.label.c_str(), r.steps, r.final_residual);
  }

  std::vector<std::vector<double>> ms(std::size(kClusterRows));
  int rounds = 0;
  double round_s = 0.0;
  // Rounds of all three, while the next round is due to end in time.
  while (rounds == 0 || seconds_since(start) + round_s <= o.seconds) {
    const auto round_start = Clock::now();
    for (std::size_t i = 0; i < std::size(kClusterRows); ++i) {
      const ClusterRow& c = kClusterRows[i];
      const fs::path dir = o.work / "cluster" / c.label;
      fs::remove_all(dir);
      fs::create_directories(dir);
      const auto cfg = cluster_config(o, p, c.engine, c.workers, c.threads,
                                      steps, o.sizes.cluster_ckpt_every, dir);
      const auto t0 = Clock::now();
      const llp::cluster::ClusterReport rep = llp::cluster::run_cluster(cfg);
      const double wall_ms = ms_since(t0);
      fs::remove_all(dir);
      ms[i].push_back(wall_ms / steps);
      for (int k = 0; k < 2; ++k) setups.push_back(setup_sample(p, 4));
      run.op(rep.recoveries == 0 && rep.steps_completed == steps);
      const double ref = reference[static_cast<int>(c.engine)];
      run.check(llp::rel_diff(rep.final_residual, ref) <= kClusterTol &&
                    rep.final_residual > 0.0,
                strfmt("%s: residual %.17g matches in-process %.17g "
                       "(tol %g), %d recoveries",
                       c.label, rep.final_residual, ref, kClusterTol,
                       rep.recoveries));
      std::printf("  %-10s %d steps in %.0f ms = %.1f ms/step, %ld frames "
                  "relayed, %d generations\n",
                  c.label, steps, wall_ms, wall_ms / steps, rep.frames_relayed,
                  rep.generations_written);
      Json d;
      d["frames_relayed"] = static_cast<double>(rep.frames_relayed);
      d["generations_written"] = rep.generations_written;
      d["recoveries"] = rep.recoveries;
      run.details["cluster"][c.label] = d;
    }
    ++rounds;
    round_s = seconds_since(round_start);
  }

  for (std::size_t i = 0; i < std::size(kClusterRows); ++i) {
    run.metric(kClusterRows[i].metric, median(ms[i]),
               strfmt("ms (%s wall / %d steps, median of %d runs, including "
                      "spawn and the generation-0 write)",
                      kClusterRows[i].label, steps, rounds));
  }
  run.metric("setup_s", median(setups),
             strfmt("s (median of %zu in-process set-ups of the case: "
                    "Runtime(4) + grid + initial condition + Solver)",
                    setups.size()));
  report_peak_rss(run, true);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "f3d_1m" || name == "vortex_periodic" ||
         name == "serve_jobs" || name == "cluster_ckpt";
}

Problem workload_problem(const Options& o) {
  llp::SplitMix64 rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x1f3d);
  if (o.workload == "vortex_periodic") {
    return periodic_vortex(o.sizes.vortex_n, rng.uniform(0.9, 1.1));
  }
  if (o.workload == "serve_jobs") return cube_job(12, rng.uniform(0.04, 0.06));
  return pulsed_1m(o.sizes.f3d_scale, rng.uniform(0.04, 0.06));
}

int workload_threads(const std::string& workload) {
  return workload == "serve_jobs" ? 1 : 4;
}

void run_end_to_end(const Options& o, Run& run) {
  if (o.workload == "serve_jobs") {
    serve_e2e(o, run);
  } else if (o.workload == "cluster_ckpt") {
    cluster_e2e(o, run);
  } else {
    solver_e2e(o, run);
  }
}

serve::JobSpec cube_spec(int n, int steps, const std::string& engine,
                         double pulse) {
  serve::JobSpec spec;
  spec.name = "llp_bench";
  spec.case_name = "cube";
  spec.n = n;
  spec.steps = steps;
  spec.mode = engine;
  spec.wall = true;
  spec.pulse = pulse;
  spec.threads = 1;
  spec.ckpt_every = 0;
  return spec;
}

double direct_job(const serve::JobSpec& spec) {
  llp::Runtime rt(spec.threads);
  llp::RuntimeScope scope(rt);
  f3d::MultiZoneGrid grid = serve::build_case_grid(spec);
  f3d::Solver solver(grid, serve::build_solver_config(spec), rt);
  for (int i = 0; i < spec.steps; ++i) solver.step();
  return solver.residual();
}

llp::cluster::ClusterConfig cluster_config(const Options& o,
                                           const Problem& problem,
                                           EngineKind engine, int workers,
                                           int threads, int steps,
                                           int ckpt_every,
                                           const fs::path& dir) {
  llp::cluster::ClusterConfig c;
  c.case_spec = problem.spec;
  c.init_grid = problem.init;
  c.steps = steps;
  c.workers = workers;
  c.worker_threads = threads;
  c.engine = engine;
  c.ckpt_dir = dir.string();
  c.ckpt_every = ckpt_every;
  c.worker_exe = o.self_exe;
  return c;
}

}  // namespace bench
