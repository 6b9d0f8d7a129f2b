#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "f3d/engine.hpp"
#include "f3d/validation.hpp"
#include "util/format.hpp"

namespace bench {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return std::nan("");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::pair<double, double> quartiles(std::vector<double> xs) {
  if (xs.size() < 2) {
    const double m = median(xs);
    return {m, m};
  }
  std::sort(xs.begin(), xs.end());
  const long ld = static_cast<long>(xs.size());
  const long m = ld + 1;
  auto q = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(
      std::clamp(std::ceil(p * n), 1.0, n));
  return xs[rank - 1];
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"ms_per_step.risc.t1", "ms"},
      {"ms_per_step.risc.t4", "ms"},
      {"ms_per_step.simd.t4", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> rows;
    for (const char* e : kLayerEngines) {
      for (const char* r : kStepRegions) {
        rows.emplace_back(llp::strfmt("f3d.%s.%s.ms", r, e), "ms");
      }
      for (const char* r : kStepRegions) {
        rows.emplace_back(llp::strfmt("f3d.%s.%s.share", r, e), "ratio");
      }
      rows.emplace_back(llp::strfmt("f3d.rhs.%s.imbalance", e), "ratio");
      rows.emplace_back(llp::strfmt("f3d.update.%s.imbalance", e), "ratio");
      rows.emplace_back(llp::strfmt("f3d.first_step.%s.ms", e), "ms");
    }
    const std::pair<const char*, const char*> fixed[] = {
        {"f3d.step.mflop", "Mflop"},
        {"f3d.step.mb_computed", "MB"},
        {"f3d.build_grid.ms", "ms"},
        {"f3d.solver_ctor.ms", "ms"},
        {"tridiag.scalar.ns_per_pt", "ns"},
        {"tridiag.lanes.ns_per_pt", "ns"},
        {"tridiag.periodic.ns_per_pt", "ns"},
        {"core.fork_join.t4.us", "us"},
        {"core.runtime_ctor.ms", "ms"},
        {"ckpt.save.ms", "ms"},
        {"ckpt.load.ms", "ms"},
        {"ckpt.mb", "MB"},
        {"serve.submit.us", "us"},
        {"serve.direct_job.ms", "ms"},
        {"serve.overhead.ms", "ms"},
        {"cluster.step_ms", "ms"},
        {"cluster.overhead.ms_per_step", "ms"},
        {"cluster.frames_relayed", "count"},
        {"cluster.generations_written", "count"},
    };
    for (const auto& [n, u] : fixed) rows.push_back({n, u});
    return rows;
  }();
  return defs;
}

void Run::check(bool ok, const std::string& what) {
  op(ok);
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
}

void Run::metric(const std::string& name, double value,
                 const std::string& note) {
  metrics_.emplace_back(name, value);
  std::printf("metric %-32s %14.6g  %s\n", name.c_str(), value, note.c_str());
}

void Run::check_names(const std::vector<MetricDef>& defs) {
  std::set<std::string> want, got;
  for (const auto& d : defs) want.insert(d.name);
  for (const auto& [n, v] : metrics_) got.insert(n);
  std::string missing;
  for (const auto& n : want) {
    if (got.count(n) == 0) missing += " " + n;
  }
  for (const auto& n : got) {
    if (want.count(n) == 0) missing += " +" + n;
  }
  check(missing.empty() && got.size() == metrics_.size(),
        "every metric reported exactly once" +
            (missing.empty() ? std::string() : " (" + missing + " )"));
  for (const auto& [n, v] : metrics_) {
    if (!std::isfinite(v) || v == 0.0) {
      check(false, llp::strfmt("metric %s is finite and non-zero (%g)",
                               n.c_str(), v));
    }
  }
}

Json Run::result(const std::vector<MetricDef>& defs) const {
  Json metrics = Json::Object{};
  for (const auto& [name, value] : metrics_) {
    std::string unit;
    for (const auto& d : defs) {
      if (name == d.name) unit = d.unit;
    }
    Json m;
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = m;
  }
  Json out;
  out["correct"] = correct();
  out["attempted"] = attempted_;
  out["failed"] = failed_;
  out["metrics"] = metrics;
  return out;
}

f3d::MultiZoneGrid Problem::build() const {
  f3d::MultiZoneGrid grid = f3d::build_grid(spec);
  if (init) init(grid);
  return grid;
}

f3d::SolverConfig Problem::config(EngineKind engine) const {
  f3d::SolverConfig cfg;
  cfg.freestream = spec.freestream;
  cfg.engine = engine;
  return cfg;
}

// The pulse radius in cells: wide enough that the disturbance spans many
// planes of every zone at the full scale, as a physical transient would.
constexpr double kPulseRadiusCells = 6.0;

Problem pulsed_1m(double scale, double amp) {
  Problem p;
  p.spec = f3d::paper_1m_case(scale);
  p.init = [amp](f3d::MultiZoneGrid& g) {
    f3d::add_gaussian_pulse(g, amp, kPulseRadiusCells);
  };
  return p;
}

Problem periodic_vortex(int n, double beta) {
  Problem p;
  p.spec = f3d::vortex_case(n);
  f3d::Vortex v;
  v.beta = beta;
  v.x0 = v.y0 = 5.0;  // the center of the [0, 10) box
  p.vortex = v;
  const f3d::FreeStream fs = p.spec.freestream;
  p.init = [v, fs](f3d::MultiZoneGrid& g) {
    f3d::make_periodic(g);
    f3d::initialize_vortex(g, fs, v);
  };
  return p;
}

Problem cube_job(int n, double amp) {
  Problem p;
  p.spec = f3d::wall_compression_case(n);
  p.init = [amp](f3d::MultiZoneGrid& g) {
    f3d::add_kmin_wall(g);
    f3d::add_gaussian_pulse(g, amp, 2.5);
  };
  return p;
}

TimedSolver::TimedSolver(const Problem& problem, EngineKind engine,
                         int threads)
    : setup_start_(Clock::now()),
      rt_(threads),
      build_start_(Clock::now()),
      grid_(problem.build()),
      ctor_start_(Clock::now()),
      solver_(grid_, problem.config(engine), rt_) {
  r_.ctor_ms = ms_since(ctor_start_);
  r_.setup_s = seconds_since(setup_start_);
  r_.build_ms =
      1e3 * std::chrono::duration<double>(ctor_start_ - build_start_).count();
  r_.label = llp::strfmt(
      "%s.t%d", std::string(f3d::engine_name(engine)).c_str(), threads);
}

void TimedSolver::step(Run& run) {
  const auto ts = Clock::now();
  solver_.step();
  const double ms = ms_since(ts);
  ++r_.steps;
  const bool finite = std::isfinite(solver_.residual());
  run.op(finite);
  r_.finite = r_.finite && finite;
  if (r_.steps == 1) r_.first_step_ms = ms;
  if (r_.steps > kWarmup) r_.step_ms.push_back(ms);
  if (r_.steps == kCheckStep) {
    r_.check_checksum = f3d::checksum(grid_);
    r_.check_residual = solver_.residual();
  }
}

const SolverRun& TimedSolver::finish() {
  r_.final_residual = solver_.residual();
  r_.final_checksum = f3d::checksum(grid_);
  r_.finite = r_.finite && f3d::all_finite(grid_);
  return r_;
}

SolverRun run_steps(const Problem& problem, EngineKind engine, int threads,
                    int steps, Run& run) {
  TimedSolver ts(problem, engine, threads);
  for (int i = 0; i < steps; ++i) ts.step(run);
  return ts.finish();
}

double setup_sample(const Problem& problem, int threads) {
  return TimedSolver(problem, EngineKind::kPencilScalar, threads)
      .result()
      .setup_s;
}

std::string hex64(std::uint64_t v) {
  return llp::strfmt("%016llx", static_cast<unsigned long long>(v));
}

void summarize(const SolverRun& r, Run& run) {
  const double avg = mean(r.step_ms);
  const double med = median(r.step_ms);
  const auto [q1, q3] = quartiles(r.step_ms);
  std::printf(
      "  %-10s setup %.3f s  first %.1f ms  steps %d+%zu  mean %.2f ms  "
      "median %.2f ms  IQR [%.2f, %.2f]  %.0f steps/hour  checksum@%d %s\n",
      r.label.c_str(), r.setup_s, r.first_step_ms, kWarmup, r.step_ms.size(),
      avg, med, q1, q3, 3.6e6 / avg, kCheckStep,
      hex64(r.check_checksum).c_str());
  Json c;
  c["mean_ms"] = avg;
  c["median_ms"] = med;
  c["q1_ms"] = q1;
  c["q3_ms"] = q3;
  c["n"] = static_cast<int>(r.step_ms.size());
  c["steps_per_hour"] = 3.6e6 / avg;
  c["setup_s"] = r.setup_s;
  c["checksum"] = hex64(r.check_checksum);
  run.details["configs"][r.label] = c;
}

}  // namespace bench
