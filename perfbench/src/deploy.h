// Set-up of one benchmark workload: TPC-H data -> SQL provenance -> COBRA
// compression -> serving snapshot -> serialized bytes -> parsed, verified
// and loaded replica -> running CobraServer. Every stage is timed from
// outside, around the library's public entry points.
#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiled_session.h"
#include "core/session.h"
#include "serve/server.h"
#include "util/status.h"

namespace perfbench {

/// The provenance a workload serves: a per-order instrumented TPC-H query,
/// compressed with the optimal DP over buckets of 128 orders at a size
/// bound.
struct SnapshotSpec {
  double scale_factor = 0.01;
  std::size_t bound_pct = 60;
  const char* sql = "";
};

/// Per-order TPC-H Q6 at SF 0.01, 60% bound (1,071 -> 642 monomials).
SnapshotSpec SmallSnapshot();
/// Per-order revenue by (l_returnflag, l_linestatus) at SF 0.05, 10% bound
/// (103,547 -> 10,224 monomials, 4 groups).
SnapshotSpec LargeSnapshot();

/// Wall seconds of each set-up stage.
struct SetupTimes {
  double generate = 0.0;
  double sql = 0.0;
  double compress = 0.0;
  double compile = 0.0;
  double serialize = 0.0;
  double parse = 0.0;
  double verify = 0.0;
  double from_snapshot = 0.0;
  double server_start = 0.0;
  double total = 0.0;
};

/// Seconds of the three stages that turn snapshot bytes into a session.
struct LoadTimes {
  double parse = 0.0;
  double verify = 0.0;
  double from_snapshot = 0.0;
};

/// Everything a set-up leaves running.
struct Deployment {
  /// The authoring session: the sequential `Session::Assign` oracle.
  std::unique_ptr<cobra::core::Session> session;
  /// The serialized snapshot, as a replica would receive it.
  std::string snapshot_bytes;
  /// The replica loaded from `snapshot_bytes`; what the server publishes.
  std::shared_ptr<const cobra::core::CompiledSession> served;
  std::unique_ptr<cobra::serve::CobraServer> server;
  /// Names of the variables of the compressed provenance, the variables an
  /// analyst's scenario overrides; heaviest first (most factors in the
  /// compressed and sweep-side full programs), ties by id.
  std::vector<std::string> variables;
};

/// The replica path: ParseSnapshot -> VerifySnapshot -> FromSnapshot.
cobra::util::Result<std::shared_ptr<const cobra::core::CompiledSession>>
LoadSnapshotBytes(const std::string& bytes, Tracer& tracer, LoadTimes* times);

/// Re-publishes the snapshot from its bytes, as a replica receiving a new
/// version would: LoadSnapshotBytes, then `Swap` on the running server.
/// Updates `deployment->served`; returns the seconds it took.
cobra::util::Result<double> Republish(Deployment* deployment, Tracer& tracer);

/// Stops the deployment's server (joining every thread it started) and
/// starts a fresh one publishing `deployment->served`.
cobra::util::Status RestartServer(Deployment* deployment, int server_workers);

/// The sequential oracle: `Session::Assign` under `scenario`'s overrides on
/// top of the post-compression defaults. True when every group's full and
/// compressed value equals `full[g]` / `compressed[g]` bit for bit;
/// otherwise `why` says what differed. Leaves the session at its defaults.
bool MatchesOracle(cobra::core::Session& session,
                   const cobra::core::Scenario& scenario, const double* full,
                   const double* compressed, std::size_t groups,
                   std::string* why);

/// Kernel work of sweeping `scenarios` scenarios through both programs of
/// `session` (the sweep-side full program and the compressed one).
struct SweepWork {
  double terms_lanes = 0.0;  ///< Program terms x scenarios.
  /// Program bytes read: one scan per block of `lanes` scenarios for the
  /// blocked kernel, one per scenario for the scalar engines.
  double bytes = 0.0;
};
SweepWork ComputeSweepWork(const cobra::core::CompiledSession& session,
                           cobra::core::BatchOptions::Sweep engine,
                           std::size_t lanes, double scenarios);

/// Runs the whole set-up and starts a server with `server_workers` workers.
cobra::util::Result<Deployment> Deploy(const SnapshotSpec& spec,
                                       int server_workers, Tracer& tracer,
                                       SetupTimes* times);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOY_H_
