// llp_bench — the end-to-end benchmark: real solver steps, served jobs and
// sharded runs, timed through the public APIs of f3d, serve, cluster and
// ckpt.
//
//   llp_bench --workload NAME --seed N --seconds S [--traced FILE]
//             [--work DIR] [--record FILE] [--sha SHA]
//   llp_bench --smoke [--seconds S] [--work DIR]
//
// NAME is f3d_1m, vortex_periodic, serve_jobs or cluster_ckpt (README.md
// says why each exists). An untraced run times the workload and prints its
// end-to-end metrics. A --traced run instead breaks f3d::Solver::step into
// its regions, read from the solver's own region registry, and probes the
// core, tridiag, ckpt, serve and cluster layers; it prints the per-layer
// metrics and writes one traced step per engine to FILE as a Chrome trace.
// Either way the last stdout line is one JSON object {correct, attempted,
// failed, metrics}, --record appends the run to a JSON-lines file, and the
// exit code is 0 only when every output check passed. --smoke runs every
// workload both ways at toy sizes, for the checks only.
//
// The seed perturbs inputs only (pulse amplitudes, vortex strength, the
// order of the job mix); the work done is the same for every seed.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cluster/worker.hpp"
#include "f3d/tridiag.hpp"
#include "util/exit_codes.hpp"
#include "workloads.hpp"

namespace {

using bench::Json;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "llp_bench: %s\n"
               "usage: llp_bench --workload f3d_1m|vortex_periodic|serve_jobs|"
               "cluster_ckpt --seed N --seconds S\n"
               "                 [--traced FILE] [--work DIR] [--record FILE] "
               "[--sha SHA]\n"
               "       llp_bench --smoke [--seconds S] [--work DIR]\n",
               why.c_str());
  std::exit(llp::kExitUsage);
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

struct Cli {
  bench::Options opts;
  bool smoke = false;
  std::string traced;
  std::string record;
  std::string sha = "unknown";
};

Cli parse(int argc, char** argv) {
  Cli cli;
  cli.opts.work = ".bench_build/work";
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      cli.opts.workload = value();
    } else if (a == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      cli.opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed needs an integer");
    } else if (a == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      cli.opts.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(cli.opts.seconds > 0.0) ||
          cli.opts.seconds > 3600.0) {
        usage("--seconds needs a number in (0, 3600]");
      }
      have_seconds = true;
    } else if (a == "--traced") {
      cli.traced = value();
    } else if (a == "--work") {
      cli.opts.work = value();
    } else if (a == "--record") {
      cli.record = value();
    } else if (a == "--sha") {
      cli.sha = value();
    } else if (a == "--smoke") {
      cli.smoke = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!cli.smoke) {
    if (!bench::known_workload(cli.opts.workload)) {
      usage("unknown or missing --workload '" + cli.opts.workload + "'");
    }
    if (!have_seconds) usage("--seconds is required");
  }
  return cli;
}

// Solver's constructor installs the tracer, tuner, fault injector and
// analyzer from these; any of them would change what is being measured.
bool environment_clean() {
  bool clean = true;
  for (const char* var : {"LLP_TRACE", "LLP_TUNE", "LLP_FAULT", "LLP_ANALYZE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "llp_bench: refusing to run with %s set\n", var);
      clean = false;
    }
  }
  return clean;
}

// One workload, traced (to `trace_path`) or not; returns the run with its
// names checked.
bench::Run run_workload(const bench::Options& o,
                        const std::string& trace_path) {
  std::printf("llp_bench: workload=%s seed=%llu seconds=%g traced=%d "
              "tridiag_lanes=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, trace_path.empty() ? 0 : 1,
              std::string(f3d::tridiag_lanes_kernel()).c_str());
  bench::Run run;
  if (!trace_path.empty()) {
    bench::run_per_layer(o, run, trace_path);
    run.check_names(bench::per_layer_metrics());
  } else {
    bench::run_end_to_end(o, run);
    run.check_names(bench::end_to_end_metrics());
  }
  return run;
}

int smoke(const Cli& cli) {
  bench::Options o = cli.opts;
  o.sizes = bench::Sizes{.f3d_scale = 0.12,
                         .vortex_n = 24,
                         .max_jobs = 14,
                         .cluster_steps = 4,
                         .cluster_ckpt_every = 2,
                         .min_timed = 2,
                         .min_timed_layers = 1,
                         .fork_join_reps = 500};
  o.self_exe = self_exe();
  int failures = 0;
  for (const char* w :
       {"f3d_1m", "vortex_periodic", "serve_jobs", "cluster_ckpt"}) {
    o.workload = w;
    for (bool traced : {false, true}) {
      const bench::Run run = run_workload(
          o, traced ? (o.work / ("trace_" + o.workload + ".json")).string()
                    : std::string());
      std::printf("smoke %s %s: %s (%d/%d operations failed)\n", w,
                  traced ? "traced" : "untraced",
                  run.correct() ? "ok" : "FAILED", run.failed(),
                  run.attempted());
      if (!run.correct()) ++failures;
    }
  }
  std::printf("smoke: %d of 8 runs failed\n", failures);
  return failures == 0 ? llp::kExitOk : llp::kExitRunFailure;
}

}  // namespace

int main(int argc, char** argv) {
  // Cluster worker mode: run_cluster fork+execs this binary as its worker.
  if (argc >= 2 && std::strcmp(argv[1], "--worker") == 0) {
    int fd = -1;
    for (int i = 2; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--fd") == 0) fd = std::atoi(argv[i + 1]);
    }
    if (fd < 0) usage("--worker needs --fd N");
    return llp::cluster::worker_main(fd);
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const Cli cli = parse(argc, argv);
  if (!environment_clean()) return llp::kExitUsage;
  try {
    std::filesystem::create_directories(cli.opts.work);
    if (cli.smoke) return smoke(cli);
    bench::Options o = cli.opts;
    o.self_exe = self_exe();
    const bool traced = !cli.traced.empty();
    const bench::Run run = run_workload(o, cli.traced);
    const auto& defs = traced ? bench::per_layer_metrics()
                              : bench::end_to_end_metrics();
    const Json result = run.result(defs);

    if (!cli.record.empty()) {
      Json rec = result;
      rec["sha"] = cli.sha;
      rec["tridiag_lanes_kernel"] = std::string(f3d::tridiag_lanes_kernel());
      rec["workload"] = o.workload;
      rec["seed"] = static_cast<double>(o.seed);
      rec["seconds"] = o.seconds;
      rec["traced"] = traced;
      rec["details"] = run.details;
      std::ofstream out(cli.record, std::ios::app);
      out << rec.dump() << "\n";
      if (!out) {
        std::fprintf(stderr, "llp_bench: cannot append to %s\n",
                     cli.record.c_str());
        return llp::kExitIo;
      }
    }
    std::printf("%s\n", result.dump().c_str());
    return run.correct() ? llp::kExitOk : llp::kExitRunFailure;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "llp_bench: %s\n", e.what());
    return llp::kExitRunFailure;
  }
}
