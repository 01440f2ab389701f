#include "served.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "core/batch_plan.h"

namespace perfbench {

namespace core = cobra::core;
namespace serve = cobra::serve;
using cobra::util::Result;
using cobra::util::Status;

namespace {

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

RequestStream::RequestStream(const TrafficSpec& spec,
                             const std::vector<std::string>& variables,
                             std::uint64_t seed)
    : spec_(spec), variables_(variables), rng_(MixSeed(seed, 1)) {
  for (std::size_t i = 0; i < spec_.sizes.size(); ++i) cycle_.push_back(i);
}

std::shared_ptr<const serve::WireRequest> RequestStream::Make(
    std::uint64_t id, std::size_t size) {
  auto request = std::make_shared<serve::WireRequest>();
  request->type = serve::MsgType::kAssignBatch;
  request->request_id = id;
  const std::size_t n =
      size > 0 ? size : rng_.Between(spec_.min_scenarios, spec_.max_scenarios);
  request->scenarios.Reserve(n);
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < n; ++i) {
    core::Scenario scenario;
    scenario.name = "s" + std::to_string(i);
    const std::size_t k = rng_.Between(spec_.min_overrides,
                                       spec_.max_overrides);
    picked.clear();
    while (picked.size() < k) {
      const std::size_t v = rng_.Below(variables_.size());
      if (std::find(picked.begin(), picked.end(), v) != picked.end()) continue;
      picked.push_back(v);
      scenario.Set(variables_[v], 0.5 + rng_.Unit());
    }
    request->scenarios.Add(std::move(scenario)).status().CheckOK();
  }
  return request;
}

std::pair<std::uint64_t, std::shared_ptr<const serve::WireRequest>>
RequestStream::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = next_++;
  std::size_t size = 0;  // 0: drawn by Make
  if (!cycle_.empty()) {
    const std::size_t slot = (seq / 2) % cycle_.size();
    if (slot == 0 && seq % 2 == 0) {
      for (std::size_t i = cycle_.size() - 1; i > 0; --i) {
        std::swap(cycle_[i], cycle_[rng_.Below(i + 1)]);
      }
    }
    size = spec_.sizes[cycle_[slot]];
  }
  if (seq % 2 == 1) {
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < recent_.size(); ++i) {
      if (size == 0 || recent_[i]->scenarios.size() == size) {
        candidates.push_back(i);
      }
    }
    if (!candidates.empty()) {
      return {seq, recent_[candidates[rng_.Below(candidates.size())]]};
    }
  }
  std::shared_ptr<const serve::WireRequest> request = Make(seq + 1, size);
  recent_.push_back(request);
  if (recent_.size() > kReplayWindow) recent_.pop_front();
  return {seq, request};
}

namespace {

core::CompiledSession::PlanCacheStats Minus(
    const core::CompiledSession::PlanCacheStats& a,
    const core::CompiledSession::PlanCacheStats& b) {
  core::CompiledSession::PlanCacheStats d;
  d.hits = a.hits - b.hits;
  d.core_hits = a.core_hits - b.core_hits;
  d.misses = a.misses - b.misses;
  return d;
}

void Accumulate(core::CompiledSession::PlanCacheStats* into,
                const core::CompiledSession::PlanCacheStats& d) {
  into->hits += d.hits;
  into->core_hits += d.core_hits;
  into->misses += d.misses;
}

/// A client connection made the way serve::Client makes one (TCP_NODELAY,
/// 10 s send and receive timeouts; Call writes one request frame and reads
/// one response frame, through the public serve/wire functions), but first
/// bound to one of eight loopback source addresses. Every closed connection
/// holds its port in TIME_WAIT for a minute, so a single address's ~28,000
/// ephemeral ports run out within one interactive run, and connect() then
/// slows with how many of them earlier runs still hold. Spread over eight
/// addresses, as clients on several hosts would be, runs stay clear of it.
class Connection {
 public:
  static Result<Connection> Open(int port, std::uint64_t source) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    Connection connection(fd);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
#ifdef IP_BIND_ADDRESS_NO_PORT
    // Leave the port to connect(), which picks it per destination.
    ::setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof one);
#endif
    sockaddr_in local{};
    local.sin_family = AF_INET;
    local.sin_addr.s_addr =
        htonl(static_cast<std::uint32_t>(INADDR_LOOPBACK + 1 + source % 8));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&local), sizeof local) !=
        0) {
      return Status::IoError(std::string("bind: ") + std::strerror(errno));
    }
    sockaddr_in server{};
    server.sin_family = AF_INET;
    server.sin_port = htons(static_cast<std::uint16_t>(port));
    server.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&server),
                  sizeof server) != 0) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
    }
    return connection;
  }

  Connection() = default;  ///< Not connected.
  Connection(Connection&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)) {}
  Connection& operator=(Connection&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }

  Result<serve::WireResponse> Call(const serve::WireRequest& request) {
    COBRA_RETURN_IF_ERROR(serve::WriteFrame(fd_, serve::EncodeRequest(request)));
    std::string payload;
    bool closed = false;
    COBRA_RETURN_IF_ERROR(serve::ReadFrame(fd_, &payload, &closed));
    if (closed) {
      return Status::Unavailable("server closed the connection");
    }
    Result<serve::WireResponse> response = serve::DecodeResponse(payload);
    if (response.ok() && response->request_id != request.request_id) {
      return Status::Internal("response for another request");
    }
    return response;
  }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// Checks one response against its request and moves its values into
/// `record`.
void TakeResponse(Result<serve::WireResponse> response,
                  const serve::WireRequest& request, RequestRecord* record) {
  if (!response.ok()) {
    record->error = response.status().ToString();
    return;
  }
  if (response->code != serve::WireCode::kOk) {
    record->error = std::string(serve::WireCodeName(response->code)) + ": " +
                    response->message;
    return;
  }
  const core::ScenarioSet& scenarios = request.scenarios;
  const std::size_t cells = scenarios.size() * response->num_groups();
  if (response->scenario_names != scenarios.Names() ||
      response->full_values.size() != cells ||
      response->compressed_values.size() != cells) {
    record->error = "response does not match the request's scenarios";
    return;
  }
  record->ok = true;
  record->version = response->snapshot_version;
  record->full = std::move(response->full_values);
  record->compressed = std::move(response->compressed_values);
}

}  // namespace

ServedPhase RunServedPhase(Deployment& deployment, const TrafficSpec& spec,
                           RequestStream& stream, double seconds,
                           Tracer& tracer) {
  ServedPhase phase;
  serve::CobraServer& server = *deployment.server;
  const int port = server.port();
  phase.before = ReadProcStatus();
  const bool peak_reset = ResetPeakRss();
  const serve::ServerStats stats_before = server.stats();
  core::CompiledSession::PlanCacheStats plan_base =
      deployment.served->plan_cache_stats();

  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;  // guarded by mu
  bool done = false;          // guarded by mu
  std::atomic<std::size_t> sent{0};
  std::atomic<std::uint64_t> connects{0};
  std::vector<std::vector<RequestRecord>> per_client(kClients);

  const double begin_s = Now();
  const double deadline = begin_s + seconds;

  auto client_loop = [&](std::size_t c) {
    Connection connection;
    while (Now() < deadline) {
      if (spec.max_requests > 0 && sent.fetch_add(1) >= spec.max_requests) {
        break;
      }
      auto [seq, request] = stream.Next();
      RequestRecord record;
      record.seq = seq;
      record.scenarios = request->scenarios.size();
      Result<serve::WireResponse> response = Status::Internal("not sent");
      tracer.Time(
          "serve.client.request",
          [&] {
            record.start_s = Now();
            if (spec.connection_per_request || !connection.connected()) {
              Result<Connection> connected = Status::Internal("");
              record.connect_s = tracer.Time("serve.server.connect", [&] {
                connected = Connection::Open(port, connects.fetch_add(1));
              });
              if (!connected.ok()) {
                response = connected.status();
                record.end_s = Now();
                return;
              }
              connection = std::move(*connected);
            }
            tracer.Time("serve.client.call",
                        [&] { response = connection.Call(*request); });
            record.end_s = Now();
          },
          seq + 1);
      if (spec.connection_per_request || !response.ok()) {
        connection = Connection();
      }
      TakeResponse(std::move(response), *request, &record);
      per_client[c].push_back(std::move(record));
      {
        std::lock_guard<std::mutex> lock(mu);
        ++completed;
      }
      if (spec.swap_every > 0) cv.notify_one();
    }
  };

  // The writer that runs alongside the readers: every `swap_every` completed
  // requests, re-publish the snapshot from its bytes, which also empties the
  // plan cache.
  auto swap_loop = [&] {
    std::size_t next = spec.swap_every;
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return done || completed >= next; });
      if (done) return;
      lock.unlock();
      const std::shared_ptr<const core::CompiledSession> outgoing =
          deployment.served;
      const Result<double> took = Republish(&deployment, tracer);
      if (took.ok()) {
        Accumulate(&phase.plan,
                   Minus(outgoing->plan_cache_stats(), plan_base));
        plan_base = deployment.served->plan_cache_stats();
        phase.swap_s.push_back(*took);
      } else {
        phase.errors.push_back("swap: " + took.status().ToString());
      }
      next += spec.swap_every;
      lock.lock();
    }
  };

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    clients.emplace_back(client_loop, c);
  }
  std::thread swapper;
  if (spec.swap_every > 0) swapper = std::thread(swap_loop);
  for (std::thread& t : clients) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  if (swapper.joinable()) swapper.join();

  phase.after = ReadProcStatus();
  if (!peak_reset) {
    phase.after.peak_rss_mb = std::numeric_limits<double>::quiet_NaN();
  }
  const serve::ServerStats stats_after = server.stats();
  phase.stats.accepted = stats_after.accepted - stats_before.accepted;
  phase.stats.completed = stats_after.completed - stats_before.completed;
  phase.stats.shed = stats_after.shed - stats_before.shed;
  phase.stats.deadline_exceeded =
      stats_after.deadline_exceeded - stats_before.deadline_exceeded;
  phase.stats.failed = stats_after.failed - stats_before.failed;
  phase.stats.coalesced = stats_after.coalesced - stats_before.coalesced;
  phase.stats.swaps = stats_after.swaps - stats_before.swaps;
  Accumulate(&phase.plan,
             Minus(deployment.served->plan_cache_stats(), plan_base));

  double end_s = begin_s;
  for (std::vector<RequestRecord>& records : per_client) {
    for (RequestRecord& record : records) {
      end_s = std::max(end_s, record.end_s);
      if (record.connect_s >= 0.0) phase.connect_s.push_back(record.connect_s);
      phase.records.push_back(std::move(record));
    }
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.seq < b.seq;
            });
  phase.measured_s = end_s - begin_s;
  return phase;
}

void AppendPhase(ServedPhase part, std::uint64_t lifetime, ServedPhase* into) {
  if (lifetime == 0) into->before = part.before;
  // The peak over all lifetimes; a NaN (failed reset) in `into` stays.
  const double peak = lifetime == 0
                          ? part.after.peak_rss_mb
                          : std::max(into->after.peak_rss_mb,
                                     part.after.peak_rss_mb);
  into->after = part.after;
  into->after.peak_rss_mb = peak;
  for (RequestRecord& record : part.records) {
    record.version |= lifetime << 32;
    into->records.push_back(std::move(record));
  }
  into->measured_s += part.measured_s;
  into->swap_s.insert(into->swap_s.end(), part.swap_s.begin(),
                      part.swap_s.end());
  into->connect_s.insert(into->connect_s.end(), part.connect_s.begin(),
                         part.connect_s.end());
  into->errors.insert(into->errors.end(), part.errors.begin(),
                      part.errors.end());
  into->stats.accepted += part.stats.accepted;
  into->stats.completed += part.stats.completed;
  into->stats.shed += part.stats.shed;
  into->stats.deadline_exceeded += part.stats.deadline_exceeded;
  into->stats.failed += part.stats.failed;
  into->stats.coalesced += part.stats.coalesced;
  into->stats.swaps += part.stats.swaps;
  Accumulate(&into->plan, part.plan);
}

Verifier::Verifier(const TrafficSpec& spec,
                   const std::vector<std::string>& variables,
                   std::uint64_t seed, const std::string& snapshot_bytes,
                   std::size_t oracle_samples)
    : regen_(spec, variables, seed),
      bytes_(snapshot_bytes),
      rng_(MixSeed(seed, 2)),
      oracle_samples_(oracle_samples) {}

void Verifier::Replay(ServedPhase* phase, Tracer& tracer, ReplayOutcome* out) {
  auto note = [&](const RequestRecord& record, const std::string& what) {
    ++out->mismatches;
    if (out->mismatch_notes.size() < 10) {
      out->mismatch_notes.push_back(
          "request " + std::to_string(record.seq) + " (version " +
          std::to_string(record.version) + "): " + what);
    }
  };

  // One fresh session per served version, so each sees its own requests in
  // their original order and the hit/miss pattern of the served plan cache
  // repeats. Versions interleave only around a swap; the oldest are evicted.
  std::map<std::uint64_t, std::shared_ptr<const core::CompiledSession>>
      sessions;
  // Untraced, only the check matters: a set sent again within one version
  // must have been answered exactly like its first, fully checked,
  // occurrence.
  std::map<std::pair<std::uint64_t, std::uint64_t>, const RequestRecord*>
      first;

  for (RequestRecord& record : phase->records) {
    const auto [seq, request] = regen_.Next();
    if (seq != record.seq) {
      note(record, "request sequence out of step");
      continue;
    }
    if (!record.ok) continue;
    ++out->checked;
    const std::size_t groups = record.full.size() / request->scenarios.size();

    // Seeded reservoir of served scenarios for the sequential oracle.
    ++ok_seen_;
    const std::size_t slot =
        samples_.size() < oracle_samples_
            ? samples_.size()
            : static_cast<std::size_t>(rng_.Below(ok_seen_));
    if (slot < oracle_samples_) {
      OracleSample sample;
      sample.seq = record.seq;
      sample.request = request;
      sample.scenario = rng_.Below(request->scenarios.size());
      sample.full.assign(record.full.begin() + sample.scenario * groups,
                         record.full.begin() + (sample.scenario + 1) * groups);
      sample.compressed.assign(
          record.compressed.begin() + sample.scenario * groups,
          record.compressed.begin() + (sample.scenario + 1) * groups);
      if (slot == samples_.size()) {
        samples_.push_back(std::move(sample));
      } else {
        samples_[slot] = std::move(sample);
      }
    }

    const auto key = std::make_pair(record.version, request->request_id);
    if (!tracer.enabled()) {
      auto seen = first.find(key);
      if (seen != first.end()) {
        if (!SameBits(seen->second->full, record.full) ||
            !SameBits(seen->second->compressed, record.compressed)) {
          note(record, "served values differ from an earlier answer");
        }
        continue;
      }
    }
    first.emplace(key, &record);

    std::shared_ptr<const core::CompiledSession>& session =
        sessions[record.version];
    if (session == nullptr) {
      LoadTimes load;
      Result<std::shared_ptr<const core::CompiledSession>> loaded =
          Status::Internal("not loaded");
      tracer.Time("replay.load", [&] {
        loaded = LoadSnapshotBytes(bytes_, tracer, &load);
      });
      if (!loaded.ok()) {
        sessions.erase(record.version);
        note(record, "replay load failed: " + loaded.status().ToString());
        continue;
      }
      session = *loaded;
      while (sessions.size() > 3) sessions.erase(sessions.begin());
    }

    std::string request_bytes;
    std::string response_bytes;
    Result<serve::WireRequest> decoded = Status::Internal("not decoded");
    Result<std::shared_ptr<const core::BatchPlan>> plan =
        Status::Internal("not planned");
    Result<core::BatchAssignReport> report = Status::Internal("not run");
    Result<serve::WireResponse> back = Status::Internal("not decoded");
    double layers_s = 0.0;
    tracer.Time(
        "replay.request",
        [&] {
          layers_s += tracer.Time("serve.wire.encode_request", [&] {
            request_bytes = serve::EncodeRequest(*request);
          });
          layers_s += tracer.Time("serve.wire.decode_request", [&] {
            decoded = serve::DecodeRequest(request_bytes);
          });
          if (!decoded.ok()) return;
          layers_s += tracer.Time("core.plan", [&] {
            plan = session->PlanBatch(decoded->scenarios);
          });
          if (!plan.ok()) return;
          const double execute_s = tracer.Time(
              "core.execute", [&] { report = session->Execute(**plan); });
          layers_s += execute_s;
          if (!report.ok()) return;
          out->execute_s += execute_s;
          serve::WireResponse response;
          layers_s += tracer.Time("serve.server.build_response", [&] {
            response.type = serve::MsgType::kAssignBatch;
            response.request_id = decoded->request_id;
            response.snapshot_version = record.version;
            response.labels = session->labels();
            response.scenario_names = report->scenario_names;
            for (const core::AssignReport& scenario : report->reports) {
              for (const core::ResultDelta::Row& row : scenario.delta.rows) {
                response.full_values.push_back(row.full);
                response.compressed_values.push_back(row.compressed);
              }
            }
          });
          layers_s += tracer.Time("serve.wire.encode_response", [&] {
            response_bytes = serve::EncodeResponse(response);
          });
          layers_s += tracer.Time("serve.wire.decode_response", [&] {
            back = serve::DecodeResponse(response_bytes);
          });
        },
        record.seq + 1);
    if (!decoded.ok() || !plan.ok() || !report.ok() || !back.ok()) {
      const Status failed = !decoded.ok() ? decoded.status()
                            : !plan.ok()  ? plan.status()
                            : !report.ok() ? report.status()
                                           : back.status();
      note(record, "replay failed: " + failed.ToString());
      continue;
    }
    if (!SameBits(back->full_values, record.full) ||
        !SameBits(back->compressed_values, record.compressed)) {
      note(record, "served values differ from in-process AssignBatch");
    }

    const bool blocked = report->engine == core::BatchOptions::Sweep::kBlocked;
    (blocked ? out->blocked_picks : out->sparse_picks) += 1;
    out->full_sweep_s += report->full_sweep_seconds;
    out->compressed_sweep_s += report->compressed_sweep_seconds;
    const SweepWork work =
        ComputeSweepWork(*session, report->engine, report->block_lanes,
                         static_cast<double>(report->size()));
    out->terms_lanes += work.terms_lanes;
    out->bytes_scanned += work.bytes;
    out->request_bytes.push_back(static_cast<double>(request_bytes.size()));
    out->response_bytes.push_back(static_cast<double>(response_bytes.size()));

    const double rtt_s = record.end_s - record.start_s;
    const double connect_s = std::max(0.0, record.connect_s);
    const double residual_s = rtt_s - connect_s - layers_s;
    out->rtt_total_s += rtt_s;
    out->residual_ms.push_back(residual_s * 1e3);
    out->residual_total_s += residual_s;
  }
  for (RequestRecord& record : phase->records) {
    std::vector<double>().swap(record.full);
    std::vector<double>().swap(record.compressed);
  }
}

std::size_t Verifier::CheckOracle(core::Session& session,
                                  std::vector<std::string>* notes) {
  std::size_t mismatches = 0;
  for (const OracleSample& sample : samples_) {
    const core::Scenario& scenario =
        sample.request->scenarios.scenario(sample.scenario);
    std::string why;
    if (MatchesOracle(session, scenario, sample.full.data(),
                      sample.compressed.data(), sample.full.size(), &why)) {
      continue;
    }
    ++mismatches;
    if (notes->size() < 10) {
      notes->push_back("request " + std::to_string(sample.seq) +
                       " scenario " + scenario.name + ": served answer " + why);
    }
  }
  return mismatches;
}

}  // namespace perfbench
