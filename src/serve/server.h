#ifndef COBRA_SERVE_SERVER_H_
#define COBRA_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_plan.h"
#include "core/compiled_session.h"
#include "serve/wire.h"
#include "util/status.h"

/// cobra::serve server — the fault-tolerant what-if serving tier.
///
/// `CobraServer` owns one published `shared_ptr<const CompiledSession>` and
/// answers wire-protocol requests (serve/wire.h) against it on a fixed set
/// of threads, whatever the connection count:
///
///   - **One I/O thread** `poll`s the listen socket, a wake pipe and every
///     connection, reads into buffers that grow only with bytes received,
///     answers ping and stats and queues AssignBatch requests. It never
///     blocks on a socket: a peer with a full send buffer is dropped, and a
///     connection is not read while a worker writes to it (backpressure).
///   - **`num_workers` workers** execute queued requests and write their
///     responses. Each sweep runs on the worker plus the helpers of the
///     process-wide sweep pool (core/compiled_session.cc), started once.
///
/// The design invariants, in the order they matter:
///
///   1. **Verify-gated swap.** A new session arrives through `Swap()` only
///      after the caller (the `SnapshotWatcher`) has taken it through
///      parse → checksum → static verifier. The swap is an atomic pointer
///      publish; requests admitted before it finish on the session they
///      started with, so every response is computed against exactly one
///      coherent version — never a mix.
///
///   2. **Bounded admission.** Admitted requests enter a fixed-capacity
///      queue; when it is full the server sheds (kUnavailable + retry-after
///      hint) instead of buffering. Every request carries a deadline;
///      workers check it before execution, and the request's one sweep
///      checks it between tiles and stops at the first tile past it. A
///      request past its deadline answers kDeadlineExceeded, never partial
///      values.
///
///   3. **Drain on stop.** `Stop()` sheds the frames already received,
///      half-closes every connection, lets the workers finish everything
///      already admitted, and only then tears down.
///
/// Identical concurrent batches coalesce, whatever their size: requests
/// whose scenario sets share a content fingerprint (and that target the
/// same snapshot version) execute once and fan the result out. A follower
/// is bound only by its own deadline: when the leader's sweep is cancelled
/// by the leader's deadline, the follower runs the batch itself (or
/// follows a newer leader).
namespace cobra::serve {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see `port()`).
  int port = 0;
  /// Worker threads executing requests.
  int num_workers = 4;
  /// Admission queue capacity; requests beyond it are shed.
  int queue_capacity = 128;
  /// Deadline applied when a request does not name one, and the ceiling
  /// applied when it does. Measured from admission; checked before
  /// execution and between the sweep's tiles.
  int default_deadline_ms = 10000;
  int max_deadline_ms = 60000;
  /// The retry hint attached to shed responses.
  int retry_after_ms = 50;
};

/// Monotonic serving counters, readable while the server runs.
struct ServerStats {
  std::uint64_t accepted = 0;        ///< Requests admitted to the queue.
  std::uint64_t completed = 0;       ///< OK responses.
  std::uint64_t shed = 0;            ///< Rejected: queue full.
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;          ///< Non-OK, non-deadline responses.
  std::uint64_t coalesced = 0;       ///< Served by another request's run.
  std::uint64_t swaps = 0;           ///< Snapshot versions published.
};

class CobraServer {
 public:
  explicit CobraServer(ServerOptions options);
  ~CobraServer();

  CobraServer(const CobraServer&) = delete;
  CobraServer& operator=(const CobraServer&) = delete;

  /// Publishes a verified session as the new serving version. Requests
  /// admitted afterwards see it; requests in flight finish on the version
  /// they started with. `name` labels the version in logs and stats.
  void Swap(std::shared_ptr<const core::CompiledSession> session,
            const std::string& name);

  /// Binds, listens, and starts the I/O thread and the workers. Serving
  /// without a session is legal (requests answer kFailedPrecondition until
  /// the first Swap).
  util::Status Start();

  /// Graceful shutdown: stop the I/O thread, half-close connections, drain
  /// the queue, join everything. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (after Start; useful with options.port == 0).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

  /// The served snapshot's name (empty before the first Swap).
  std::string snapshot_name() const;

  /// Renders the stats + served version as text (the kStats response). The
  /// name and version come from one published snapshot, never a mix.
  std::string StatsText() const { return StatsText(CurrentSnapshot()); }

  /// Log sink (defaults to stderr via std::fprintf). Must be set before
  /// Start.
  using LogFn = std::function<void(const std::string&)>;
  void set_log(LogFn log) { log_ = std::move(log); }

 private:
  struct Connection;
  struct PendingRequest;
  struct Inflight;

  using Clock = std::chrono::steady_clock;

  /// What a request executes against: one coherent published version.
  struct ServedSnapshot {
    std::shared_ptr<const core::CompiledSession> session;
    std::uint64_t version = 0;
    std::string name;
  };
  ServedSnapshot CurrentSnapshot() const;
  std::string StatsText(const ServedSnapshot& snapshot) const;

  void IoLoop();
  void WorkerLoop();

  // I/O-thread handlers; false means the connection must be dropped.
  bool ReadAndDispatch(const std::shared_ptr<Connection>& conn);
  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   std::string_view payload);
  /// Admits one decoded request or answers with a shed response.
  bool AdmitOrShed(const std::shared_ptr<Connection>& conn,
                   WireRequest request, ServedSnapshot snapshot);

  /// Executes one queued request and writes its response.
  void Execute(PendingRequest& pending);

  /// The AssignBatch path: plans the whole batch, coalesces on the plan's
  /// scenario fingerprint, and runs one sweep under the deadline.
  WireResponse RunAssignBatch(const PendingRequest& pending);

  /// I/O-thread write under the connection's write lock: never blocks.
  bool SendInline(const std::shared_ptr<Connection>& conn,
                  const WireResponse& response);

  void Log(const std::string& line);

  ServerOptions options_;
  LogFn log_;

  int listen_fd_ = -1;
  int port_ = 0;
  /// Self-pipe: written on Stop to wake the I/O thread's poll.
  int wake_pipe_[2] = {-1, -1};

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  mutable std::shared_mutex snapshot_mu_;
  ServedSnapshot snapshot_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<PendingRequest>> queue_;

  /// Open connections. Owned by the I/O thread; Stop() reads it only after
  /// joining that thread.
  std::vector<std::shared_ptr<Connection>> conns_;

  /// Coalescing table: (scenario fingerprint, snapshot version) → the
  /// in-flight execution other identical requests wait on.
  std::mutex inflight_mu_;
  std::map<std::pair<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>,
           std::shared_ptr<Inflight>>
      inflight_;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> swaps_{0};
};

}  // namespace cobra::serve

#endif  // COBRA_SERVE_SERVER_H_
