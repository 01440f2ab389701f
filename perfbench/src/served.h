// The served path: closed-loop clients against an in-process CobraServer on
// loopback, then an in-process replay of every recorded request that both
// checks each served answer bit for bit and gives the per-layer breakdown.
#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "deploy.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace perfbench {

/// Closed-loop client threads of a served workload.
constexpr int kClients = 2;
/// Every second request replays one of the last this many new sets (one of
/// the same size when TrafficSpec::sizes is set).
constexpr std::size_t kReplayWindow = 32;

/// Traffic shape of a served workload.
struct TrafficSpec {
  /// Each request opens (and closes) its own connection, as `cobra_client`
  /// does; otherwise each client keeps one connection.
  bool connection_per_request = false;
  /// Scenario counts. When `sizes` is non-empty, each run of 2 x
  /// sizes.size() consecutive requests carries every size twice (once new,
  /// once replayed) in seeded order, so the mix does not drift with the
  /// seed; otherwise new sets draw uniformly from [min_scenarios,
  /// max_scenarios].
  std::vector<std::size_t> sizes;
  std::size_t min_scenarios = 8;
  std::size_t max_scenarios = 64;
  /// Overrides per scenario, uniform in [min_overrides, max_overrides].
  std::size_t min_overrides = 1;
  std::size_t max_overrides = 4;
  /// Re-publish the snapshot from its bytes every this many completed
  /// requests (0 = never).
  std::size_t swap_every = 0;
  /// End a server lifetime after this many requests even if time remains
  /// (0 = no cap).
  std::size_t max_requests = 0;
};

/// The seeded request sequence: request `i` depends only on the seed and
/// `i`, whichever client thread draws it.
class RequestStream {
 public:
  RequestStream(const TrafficSpec& spec,
                const std::vector<std::string>& variables, std::uint64_t seed);

  /// Thread-safe: the next request and its position in the sequence.
  std::pair<std::uint64_t, std::shared_ptr<const cobra::serve::WireRequest>>
  Next();

 private:
  std::shared_ptr<const cobra::serve::WireRequest> Make(std::uint64_t id,
                                                        std::size_t size);

  const TrafficSpec spec_;
  const std::vector<std::string>& variables_;
  std::mutex mu_;
  Rng rng_;                    // guarded by mu_
  std::uint64_t next_ = 0;     // guarded by mu_
  std::vector<std::size_t> cycle_;  // guarded by mu_; order of `sizes`
  std::deque<std::shared_ptr<const cobra::serve::WireRequest>>
      recent_;                 // guarded by mu_
};

/// One request as a client saw it. The request itself is not kept (the
/// seeded stream regenerates it), so the benchmark's own memory does not
/// grow with the number of requests a run completes.
struct RequestRecord {
  std::uint64_t seq = 0;
  std::size_t scenarios = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double connect_s = -1.0;  ///< < 0: no connect in this request.
  bool ok = false;
  std::string error;
  std::uint64_t version = 0;
  /// The answer, released once checked.
  std::vector<double> full;
  std::vector<double> compressed;
};

/// What the served phase measured.
struct ServedPhase {
  std::vector<RequestRecord> records;  ///< In sequence order.
  /// Seconds measured: from the first send to the last answer of each
  /// server lifetime, plus every restart between lifetimes.
  double measured_s = 0.0;
  /// Seconds of each server restart, also counted in `measured_s`.
  std::vector<double> restart_s;
  std::vector<double> swap_s;
  std::vector<double> connect_s;
  cobra::serve::ServerStats stats;     ///< Deltas over the phase.
  /// Plan-cache counter deltas summed over every published session.
  cobra::core::CompiledSession::PlanCacheStats plan;
  ProcStatus before;
  /// Read when the phase ends. Its peak covers only the phase: each server
  /// lifetime resets it when it starts, and the largest counts (NaN when
  /// the peak could not be reset).
  ProcStatus after;
  std::vector<std::string> errors;  ///< Failed re-publishes and restarts.
};

/// Runs kClients closed-loop clients against `deployment.server` for
/// `seconds` (or until `spec.max_requests` have been sent), plus the
/// snapshot re-publisher when `spec.swap_every` > 0, which updates
/// `deployment.served` to the session it publishes.
ServedPhase RunServedPhase(Deployment& deployment, const TrafficSpec& spec,
                           RequestStream& stream, double seconds,
                           Tracer& tracer);

/// Appends `part` (one more server lifetime) to `into`. Versions restart
/// with each server, so `part`'s are tagged with `lifetime` to keep them
/// apart.
void AppendPhase(ServedPhase part, std::uint64_t lifetime, ServedPhase* into);

/// What replaying the served phases found.
struct ReplayOutcome {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  std::vector<std::string> mismatch_notes;  ///< The first few, for display.
  std::size_t sparse_picks = 0;
  std::size_t blocked_picks = 0;
  double full_sweep_s = 0.0;
  double compressed_sweep_s = 0.0;
  double execute_s = 0.0;
  double terms_lanes = 0.0;      ///< Sum of program terms x scenarios swept.
  double bytes_scanned = 0.0;    ///< Program bytes read by the sweeps.
  std::vector<double> residual_ms;  ///< Round trip minus replayed layers.
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  double rtt_total_s = 0.0;
  double residual_total_s = 0.0;
};

/// Checks served answers after the fact. It regenerates the request
/// sequence from the seed, replays every OK request in its original order
/// (EncodeRequest -> DecodeRequest -> PlanBatch -> Execute -> response
/// build -> EncodeResponse -> DecodeResponse) against a fresh FromSnapshot
/// session per served version, and compares each decoded answer with the
/// served one bit for bit. Untraced, a set sent again within one version is
/// compared with its first (fully replayed) answer instead. It also keeps a
/// seeded sample of served scenarios for the sequential oracle.
class Verifier {
 public:
  Verifier(const TrafficSpec& spec, const std::vector<std::string>& variables,
           std::uint64_t seed, const std::string& snapshot_bytes,
           std::size_t oracle_samples);

  /// Replays `phase`, whose records continue the sequence of earlier
  /// calls, into `out`, then releases the records' answers.
  void Replay(ServedPhase* phase, Tracer& tracer, ReplayOutcome* out);

  /// Compares the sampled scenarios with `Session::Assign`; returns the
  /// number that differ and appends notes.
  std::size_t CheckOracle(cobra::core::Session& session,
                          std::vector<std::string>* notes);

  std::size_t samples() const { return samples_.size(); }

 private:
  struct OracleSample {
    std::uint64_t seq = 0;
    std::shared_ptr<const cobra::serve::WireRequest> request;
    std::size_t scenario = 0;
    std::vector<double> full;
    std::vector<double> compressed;
  };

  RequestStream regen_;
  const std::string& bytes_;
  Rng rng_;
  const std::size_t oracle_samples_;
  std::uint64_t ok_seen_ = 0;
  std::vector<OracleSample> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
