// The four workloads: their seeded inputs, the untraced end-to-end runs and
// the traced per-layer runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "cluster/coordinator.hpp"
#include "common.hpp"
#include "serve/job.hpp"

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Sizes sizes;
  std::filesystem::path work;  ///< scratch root for checkpoints
  std::string self_exe;        ///< this binary: the cluster worker program
};

/// "f3d_1m", "vortex_periodic", "serve_jobs", "cluster_ckpt".
bool known_workload(const std::string& name);

/// The workload's input problem for solver-level measurements, perturbed
/// by the seed (pulse amplitude, vortex strength).
Problem workload_problem(const Options& o);
/// Loop-level threads the workload's solver runs with: 4, or 1 for the
/// single-threaded served jobs.
int workload_threads(const std::string& workload);

/// Untraced run: the end-to-end metrics.
void run_end_to_end(const Options& o, Run& run);
/// Traced run: the solver's own region profile per engine and the layer
/// probes; one step per engine is traced into a Chrome trace at
/// `trace_path` (throws llp::IoError when it cannot be written).
void run_per_layer(const Options& o, Run& run, const std::string& trace_path);

// Helpers shared by both kinds of run.

/// A served cube job: wall, pulse, one pinned thread, no checkpoints.
f3d::serve::JobSpec cube_spec(int n, int steps, const std::string& engine,
                              double pulse);
/// Run `spec` directly the way a server runner does; returns the residual.
double direct_job(const f3d::serve::JobSpec& spec);
/// Cluster config for `problem` with checkpoints under `dir`.
llp::cluster::ClusterConfig cluster_config(const Options& o,
                                           const Problem& problem,
                                           EngineKind engine, int workers,
                                           int threads, int steps,
                                           int ckpt_every,
                                           const std::filesystem::path& dir);

}  // namespace bench
