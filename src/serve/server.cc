#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/scenario.h"
#include "serve/fault.h"

namespace cobra::serve {

bool ServerBuildHasFaultInjection() {
#ifdef COBRA_FAULT_INJECTION
  return true;
#else
  return false;
#endif
}

namespace {

/// Pause before the I/O thread retries a failed poll() or an accept() that
/// ran out of descriptors or memory; retrying sooner would spin.
constexpr std::chrono::milliseconds kAcceptRetryPause{100};

/// How often the I/O thread retries a connection a worker is writing to.
constexpr std::chrono::milliseconds kParkedRetry{1};

/// Bytes the I/O thread reads from one connection per poll round.
constexpr std::size_t kReadChunkBytes = 64u << 10;

/// Copies one batch report into the response's names and value matrices.
void CopyBatchReport(const core::BatchAssignReport& report,
                     WireResponse* response) {
  response->scenario_names = report.scenario_names;
  for (const core::AssignReport& scenario : report.reports) {
    for (const core::ResultDelta::Row& row : scenario.delta.rows) {
      response->full_values.push_back(row.full);
      response->compressed_values.push_back(row.compressed);
    }
  }
}

WireResponse ErrorResponse(WireCode code, std::string message) {
  WireResponse response;
  response.code = code;
  response.message = std::move(message);
  return response;
}

}  // namespace

/// One accepted TCP connection. The I/O thread is the only reader of `fd`;
/// responses may come from it or from any worker, so writes serialize on
/// `write_mu`. The fd closes when the last shared_ptr drops — which cannot
/// happen before every queued request holding the connection has answered.
struct CobraServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { ::close(fd); }

  int fd;
  std::mutex write_mu;
  /// Received bytes not yet consumed as frames. I/O thread only; grows
  /// with what the peer sent, never with what a length prefix claims.
  std::string in;
  /// A worker held `write_mu` at the I/O thread's last visit, so `fd` is
  /// left unread until then. I/O thread only.
  bool parked = false;
};

/// One admitted request: everything Execute needs, captured at admission.
/// The snapshot is pinned here — a Swap after admission does not move this
/// request off the version it was admitted against.
struct CobraServer::PendingRequest {
  std::shared_ptr<Connection> conn;
  WireRequest request;
  ServedSnapshot snapshot;
  Clock::time_point deadline;
};

/// One coalesced AssignBatch execution: the leader fills the shared result
/// and wakes the followers.
struct CobraServer::Inflight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  /// The leader's response minus per-request identity (request_id).
  WireResponse result;
};

CobraServer::CobraServer(ServerOptions options)
    : options_(std::move(options)) {}

CobraServer::~CobraServer() { Stop(); }

void CobraServer::Log(const std::string& line) {
  if (log_) {
    log_(line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void CobraServer::Swap(std::shared_ptr<const core::CompiledSession> session,
                       const std::string& name) {
  std::uint64_t version = 0;
  {
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    snapshot_.session = std::move(session);
    snapshot_.version += 1;
    snapshot_.name = name;
    version = snapshot_.version;
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  Log("serverd: serving snapshot '" + name + "' as version " +
      std::to_string(version));
}

CobraServer::ServedSnapshot CobraServer::CurrentSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::string CobraServer::snapshot_name() const {
  return CurrentSnapshot().name;
}

util::Status CobraServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition("server already running");
  }
  auto fail = [this](const std::string& call) {
    const std::string error = call + " failed: " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::IoError(error);
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket()");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail("bind(port " + std::to_string(options_.port) + ")");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) return fail("listen()");
  if (::fcntl(listen_fd_, F_SETFL, O_NONBLOCK) != 0) return fail("fcntl()");
  if (::pipe(wake_pipe_) != 0) return fail("pipe()");
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  const int workers = options_.num_workers > 0 ? options_.num_workers : 1;
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  Log("serverd: listening on 127.0.0.1:" + std::to_string(port_));
  return util::Status::OK();
}

void CobraServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  draining_.store(true, std::memory_order_release);

  // Wake and join the I/O thread: it answers the frames already received
  // (draining_ sheds every AssignBatch among them) and reads no more.
  [[maybe_unused]] ssize_t woken = ::write(wake_pipe_[1], "x", 1);
  io_thread_.join();

  // Half-close every connection and drop the I/O thread's handles: peers
  // see no more reads, but a connection with requests still in the queue
  // stays open for their responses.
  for (const std::shared_ptr<Connection>& conn : conns_) {
    ::shutdown(conn->fd, SHUT_RD);
  }
  conns_.clear();

  // Drain: workers exit only once the queue is empty (WorkerLoop checks
  // draining_), so every admitted request still gets its response.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    ::close(*fd);
    *fd = -1;
  }
  Log("serverd: drained and stopped");
}

void CobraServer::IoLoop() {
  std::vector<pollfd> fds;
  Clock::time_point accept_paused_until{};
  for (;;) {
    // Slot 0 is the wake pipe, slot 1 the listen socket, then conns_ in
    // order; poll skips the -1 of a paused listen socket or a parked
    // connection, and wakes on time to retry them.
    const bool accepting = Clock::now() >= accept_paused_until;
    fds.assign({{wake_pipe_[0], POLLIN, 0},
                {accepting ? listen_fd_ : -1, POLLIN, 0}});
    bool any_parked = false;
    for (const std::shared_ptr<Connection>& conn : conns_) {
      fds.push_back({conn->parked ? -1 : conn->fd, POLLIN, 0});
      any_parked = any_parked || conn->parked;
    }
    const int timeout_ms =
        any_parked   ? static_cast<int>(kParkedRetry.count())
        : accepting ? -1
                    : static_cast<int>(kAcceptRetryPause.count());
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      Log(std::string("serverd: poll failed, retrying: ") +
          std::strerror(errno));
      std::this_thread::sleep_for(kAcceptRetryPause);
      continue;
    }
    const bool stopping = fds[0].revents != 0;  // Read every peer once more.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const bool idle = fds[i + 2].revents == 0 && !conns_[i]->parked;
      if ((idle && !stopping) || ReadAndDispatch(conns_[i])) {
        conns_[kept++] = std::move(conns_[i]);
      }
    }
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(kept),
                 conns_.end());
    if (stopping) return;
    while (fds[1].revents != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conns_.push_back(std::make_shared<Connection>(fd));
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // EMFILE, ENFILE, ENOBUFS, ENOMEM and the rest: keep serving the
        // open connections, whose closing frees what accept needs, and
        // retry after a pause.
        Log(std::string("serverd: accept failed, retrying: ") +
            std::strerror(errno));
        accept_paused_until = Clock::now() + kAcceptRetryPause;
      }
      break;
    }
  }
}

bool CobraServer::ReadAndDispatch(const std::shared_ptr<Connection>& conn) {
  // Inline answers write under this lock. A worker holding it may be
  // blocked on a peer that does not read: read no more from that peer.
  std::unique_lock<std::mutex> lock(conn->write_mu, std::try_to_lock);
  conn->parked = !lock.owns_lock();
  if (conn->parked) return true;
  char buffer[kReadChunkBytes];
  const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), MSG_DONTWAIT);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return true;
  }
  if (n <= 0) {  // A close between frames is the normal end.
    if (n < 0 || !conn->in.empty()) {
      Log(std::string("serverd: connection dropped: ") +
          (n < 0 ? std::strerror(errno) : "peer closed mid-frame"));
    }
    return false;
  }
  std::string& in = conn->in;
  in.append(buffer, static_cast<std::size_t>(n));
  std::size_t pos = 0;
  bool alive = true;
  while (alive) {
    std::string_view payload;
    util::Result<std::size_t> frame =
        SplitFrame(std::string_view(in).substr(pos), &payload);
    if (!frame.ok()) {
      Log("serverd: connection dropped: " + frame.status().ToString());
      return false;
    }
    if (*frame == 0) break;
    alive = HandleFrame(conn, payload);
    pos += *frame;
  }
  in.erase(0, pos);
  // A drained buffer gives back what a large frame made it reserve.
  if (in.empty() && in.capacity() > kReadChunkBytes) std::string().swap(in);
  return alive;
}

bool CobraServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              std::string_view payload) {
  util::Result<WireRequest> request = DecodeRequest(payload);
  if (!request.ok()) {
    return SendInline(conn, ErrorResponse(WireCode::kInvalidArgument,
                                          request.status().message()));
  }
  ServedSnapshot snapshot = CurrentSnapshot();
  WireResponse response;
  response.type = request->type;
  response.request_id = request->request_id;
  response.snapshot_version = snapshot.version;
  switch (request->type) {
    case MsgType::kAssignBatch:
      return AdmitOrShed(conn, std::move(*request), std::move(snapshot));
    case MsgType::kPing:
      response.message = snapshot.name;
      break;
    case MsgType::kStats:
      response.stats_text = StatsText(snapshot);
      break;
    default:
      response = ErrorResponse(WireCode::kInvalidArgument,
                               "unknown message type");
      response.request_id = request->request_id;
      break;
  }
  return SendInline(conn, response);
}

bool CobraServer::AdmitOrShed(const std::shared_ptr<Connection>& conn,
                              WireRequest request, ServedSnapshot snapshot) {
  auto pending = std::make_unique<PendingRequest>();
  pending->conn = conn;
  pending->snapshot = std::move(snapshot);
  const int deadline_ms =
      std::min(request.deadline_ms == 0
                   ? options_.default_deadline_ms
                   : static_cast<int>(request.deadline_ms),
               options_.max_deadline_ms);
  pending->deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
  const std::uint64_t request_id = request.request_id;
  pending->request = std::move(request);
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    full =
        queue_.size() >= static_cast<std::size_t>(options_.queue_capacity) ||
        COBRA_FAULT_FIRE(FaultPoint::kQueueOverflow);
    if (!full && !draining_.load(std::memory_order_acquire)) {
      queue_.push_back(std::move(pending));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
      return true;
    }
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  WireResponse response = ErrorResponse(
      WireCode::kUnavailable, full ? "request queue full" : "server draining");
  response.type = MsgType::kAssignBatch;
  response.request_id = request_id;
  response.retry_after_ms =
      static_cast<std::uint32_t>(options_.retry_after_ms);
  return SendInline(conn, response);
}

void CobraServer::WorkerLoop() {
  for (;;) {
    std::unique_ptr<PendingRequest> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) {
        // Draining and nothing left: every accepted request has answered.
        return;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    Execute(*pending);
  }
}

void CobraServer::Execute(PendingRequest& pending) {
  WireResponse response = RunAssignBatch(pending);
  response.type = MsgType::kAssignBatch;
  response.request_id = pending.request.request_id;
  std::atomic<std::uint64_t>& outcome =
      response.code == WireCode::kOk                 ? completed_
      : response.code == WireCode::kDeadlineExceeded ? deadline_exceeded_
                                                     : failed_;
  outcome.fetch_add(1, std::memory_order_relaxed);
  const std::string payload = EncodeResponse(response);
  std::lock_guard<std::mutex> lock(pending.conn->write_mu);
  util::Status written = WriteFrame(pending.conn->fd, payload);
  if (!written.ok()) {
    Log("serverd: response write failed: " + written.ToString());
  }
}

WireResponse CobraServer::RunAssignBatch(const PendingRequest& pending) {
  const ServedSnapshot& snapshot = pending.snapshot;
  if (snapshot.session == nullptr) {
    return ErrorResponse(WireCode::kFailedPrecondition,
                         "no servable snapshot loaded yet");
  }
  const core::ScenarioSet& scenarios = pending.request.scenarios;
  if (scenarios.empty()) {
    return ErrorResponse(WireCode::kInvalidArgument, "empty scenario set");
  }
  if (Clock::now() >= pending.deadline) {
    return ErrorResponse(WireCode::kDeadlineExceeded,
                         "deadline expired before execution started");
  }

  // Plan first (usually a plan-cache hit), then coalesce identical
  // concurrent batches. The key is the plan's scenario-set fingerprint, so
  // the set is hashed once per request, plus the snapshot version, so
  // requests pinned to different versions never share a result.
  util::Result<std::shared_ptr<const core::BatchPlan>> plan =
      snapshot.session->PlanBatch(scenarios);
  if (!plan.ok()) {
    return ErrorResponse(ToWireCode(plan.status().code()),
                         plan.status().message());
  }
  const core::PlanFingerprint& fp = (*plan)->fingerprint();
  const auto key =
      std::make_pair(std::make_pair(fp.lo, fp.hi), snapshot.version);
  for (;;) {
    std::shared_ptr<Inflight> inflight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      auto it = inflight_.find(key);
      if (it == inflight_.end()) {
        inflight = std::make_shared<Inflight>();
        inflight_.emplace(key, inflight);
        leader = true;
      } else {
        inflight = it->second;
      }
    }
    if (!leader) {
      // Follower: wait for the leader's result (bounded by our deadline).
      std::unique_lock<std::mutex> lock(inflight->mu);
      if (!inflight->cv.wait_until(lock, pending.deadline,
                                   [&] { return inflight->done; })) {
        return ErrorResponse(WireCode::kDeadlineExceeded,
                             "deadline expired waiting for coalesced batch");
      }
      // The leader's deadline is not ours: its cancelled sweep says nothing
      // about this request, which runs again (or follows a newer leader).
      if (inflight->result.code == WireCode::kDeadlineExceeded) continue;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      return inflight->result;
    }
    // Leader: execute (the sweep stops at the first tile past the
    // deadline), publish, unregister.
    COBRA_FAULT_STALL(FaultPoint::kSlowExecute);
    WireResponse response;
    util::Result<core::BatchAssignReport> report =
        snapshot.session->Execute(**plan, pending.deadline);
    if (report.ok()) {
      response.snapshot_version = snapshot.version;
      response.labels = snapshot.session->labels();
      CopyBatchReport(*report, &response);
    } else {
      response.code = ToWireCode(report.status().code());
      response.message = report.status().message();
    }
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(key);
    }
    {
      std::lock_guard<std::mutex> lock(inflight->mu);
      inflight->result = response;
      inflight->done = true;
    }
    inflight->cv.notify_all();
    return response;
  }
}

bool CobraServer::SendInline(const std::shared_ptr<Connection>& conn,
                             const WireResponse& response) {
  // A full send buffer may leave a frame half written, and the stream
  // cannot be resumed: the connection goes.
  util::Status sent =
      WriteFrame(conn->fd, EncodeResponse(response), MSG_DONTWAIT);
  if (sent.ok()) return true;
  Log("serverd: connection dropped: " + sent.ToString());
  ::shutdown(conn->fd, SHUT_RDWR);
  return false;
}

ServerStats CobraServer::stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  return stats;
}

std::string CobraServer::StatsText(const ServedSnapshot& snapshot) const {
  const ServerStats s = stats();
  std::string text = "serving snapshot '" + snapshot.name + "' version " +
                     std::to_string(snapshot.version) + "\n";
  text += "accepted=" + std::to_string(s.accepted);
  text += " completed=" + std::to_string(s.completed);
  text += " coalesced=" + std::to_string(s.coalesced);
  text += " shed=" + std::to_string(s.shed);
  text += " deadline_exceeded=" + std::to_string(s.deadline_exceeded);
  text += " failed=" + std::to_string(s.failed);
  text += " swaps=" + std::to_string(s.swaps);
  return text;
}

}  // namespace cobra::serve
