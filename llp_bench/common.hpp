// Shared pieces of llp_bench: statistics, the result/record accumulator,
// the workload inputs and the timed solver run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "f3d/cases.hpp"
#include "f3d/solver.hpp"
#include "serve/json.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;
using f3d::EngineKind;
using f3d::serve::Json;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }
/// The time point `s` seconds from now.
inline Clock::time_point after_seconds(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

// ------------------------------------------------------------ statistics

double mean(const std::vector<double>& xs);
double median(std::vector<double> xs);
/// First and third quartile by the rule of Python's
/// statistics.quantiles(xs, n=4), so printed spreads match compare.py.
std::pair<double, double> quartiles(std::vector<double> xs);
/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> xs, double p);

// ------------------------------------------------------------ results

/// Metric names and units, in the order BENCHMARK.json lists them. Every
/// workload reports every name of its list.
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// The engines a traced run breaks down, and the parts of Solver::step it
/// reports: the suffixes of the solver's region names.
inline constexpr const char* kLayerEngines[] = {"risc", "simd"};
inline constexpr const char* kStepRegions[] = {
    "bc", "exchange", "rhs", "sweep_j", "sweep_k", "sweep_l", "update"};

/// What one invocation measured and checked: operation counts, the
/// metrics, and the extra facts that go into the JSON-lines record.
class Run {
public:
  /// One attempted operation (a step, a job, a cluster run, a check).
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An output check; printed, and counted as an operation.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& note);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

  /// Checks that exactly the names of `defs` were reported.
  void check_names(const std::vector<MetricDef>& defs);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  Json result(const std::vector<MetricDef>& defs) const;

  Json details;  ///< per-config summaries, checksums, counts

private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
};

// ------------------------------------------------------------ inputs

/// Problem sizes: the real workloads, or toy sizes for the smoke test.
struct Sizes {
  double f3d_scale = 1.0;   ///< paper_1m_case scale
  int vortex_n = 160;       ///< vortex_case size: 160x160x40 = 1,024,000
  int max_jobs = 1 << 30;   ///< served jobs per configuration and run
  int cluster_steps = 10;
  int cluster_ckpt_every = 5;
  int min_timed = 5;        ///< timed steps per end-to-end configuration
  int min_timed_layers = 2; ///< timed steps per engine in a traced run
  int fork_join_reps = 10000;
};

/// One workload input: a case plus its initial condition.
struct Problem {
  f3d::CaseSpec spec;
  std::function<void(f3d::MultiZoneGrid&)> init;
  std::optional<f3d::Vortex> vortex;  ///< the exact solution, vortex only

  f3d::MultiZoneGrid build() const;
  f3d::SolverConfig config(EngineKind engine) const;
};

/// The paper's 1M-point case (Table 4) with a Gaussian pulse of amplitude
/// `amp`: without it the free stream is a fixed point and every residual
/// is exactly 0, so no check could fail.
Problem pulsed_1m(double scale, double amp);
/// A periodic isentropic vortex of strength `beta` on vortex_case(n).
Problem periodic_vortex(int n, double beta);
/// The grid of a served cube job (serve::build_case_grid's cube branch).
Problem cube_job(int n, double amp);

/// Steps before timing starts: the pool, workspaces and first-touch pages.
inline constexpr int kWarmup = 2;
/// Step after which outputs are compared across configurations.
inline constexpr int kCheckStep = 3;

/// One configuration of the real solver, timed step by step.
struct SolverRun {
  std::string label;
  double setup_s = 0.0;     ///< runtime + grid + initial condition + Solver
  double build_ms = 0.0;    ///< grid + initial condition
  double ctor_ms = 0.0;     ///< Solver construction
  double first_step_ms = 0.0;
  std::vector<double> step_ms;  ///< timed steps (warm-up excluded)
  int steps = 0;
  std::uint64_t check_checksum = 0;  ///< after kCheckStep steps
  double check_residual = 0.0;
  std::uint64_t final_checksum = 0;
  double final_residual = 0.0;
  bool finite = true;
};

/// One configuration of the real solver on its own llp::Runtime(threads),
/// stepped one timed step at a time so callers can interleave several.
class TimedSolver {
public:
  /// Builds the grid and constructs the Solver, timing both.
  TimedSolver(const Problem& problem, EngineKind engine, int threads);

  /// One timed step; counts it in `run` (a non-finite residual fails).
  void step(Run& run);
  /// Record the final residual, checksum and finiteness; returns the run.
  const SolverRun& finish();

  f3d::Solver& solver() { return solver_; }
  const SolverRun& result() const { return r_; }

private:
  // Declaration order is construction order: the time points bracket the
  // members they time.
  SolverRun r_;
  Clock::time_point setup_start_;
  llp::Runtime rt_;
  Clock::time_point build_start_;
  f3d::MultiZoneGrid grid_;
  Clock::time_point ctor_start_;
  f3d::Solver solver_;
};

/// A TimedSolver run for exactly `steps` steps.
SolverRun run_steps(const Problem& problem, EngineKind engine, int threads,
                    int steps, Run& run);

/// Set-up time in s of a fresh TimedSolver (runtime, grid, initial
/// condition, Solver), destroyed again before returning.
double setup_sample(const Problem& problem, int threads);

/// "label  setup ..  mean .. ms  median ..  IQR ..  steps/hour" to stdout,
/// and the same facts into run.details["configs"][label].
void summarize(const SolverRun& r, Run& run);

std::string hex64(std::uint64_t v);

}  // namespace bench
