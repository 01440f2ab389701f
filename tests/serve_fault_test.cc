// Fault-injection integration test for the serving daemon stack
// (serve/fault.h): the CMake target recompiles the serve sources with
// COBRA_FAULT_INJECTION, so the probes at the failure seams are live in
// this binary (and only this one — ServerBuildHasFaultInjection() guards
// against running the suite against a probe-free link).
//
// The robustness contract under test, end to end:
//   - transient faults (failed reads, slow loads, torn writes) are retried
//     or re-polled; the old version keeps serving and nothing quarantines;
//   - permanent corruption quarantines exactly once, with the serving
//     session untouched;
//   - admission overflow sheds with a retry hint instead of buffering or
//     crashing;
//   - a client burst riding across a hot swap completes every accepted
//     request bit-identically to a direct AssignBatch against exactly one
//     published version;
//   - identical concurrent batches coalesce onto one run, and a follower
//     answers by its own deadline, never by a cancelled leader's;
//   - a request past its deadline answers kDeadlineExceeded and leaves its
//     connection serving, and a large batch is served whole, bit-identical
//     to an in-process AssignBatch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/io.h"
#include "core/scenario.h"
#include "core/session.h"
#include "data/example_db.h"
#include "dominant_poly_session.h"
#include "serve/fault.h"
#include "serve/server.h"
#include "serve/snapshot_watcher.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/status.h"

namespace cobra::serve {
namespace {

using core::CompiledSession;
using core::ScenarioSet;
using core::Session;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::shared_ptr<const CompiledSession> ExampleSnapshot(Session* session) {
  session->LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session->SetTreeText(data::kFigure2TreeText).CheckOK();
  session->SetBound(6);
  session->Compress().ValueOrDie();
  return session->Snapshot().ValueOrDie();
}

ScenarioSet ExampleScenarios() {
  ScenarioSet scenarios;
  scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  scenarios.Add("mixed").ValueOrDie().Set("Business", 1.25).Set("Special", 0.9);
  return scenarios;
}

/// The scenario-major values of a direct in-process AssignBatch, in the
/// wire's order: every full value, then every compressed value.
std::vector<double> DirectValues(const CompiledSession& snapshot,
                                 const ScenarioSet& scenarios) {
  const core::BatchAssignReport report =
      snapshot.AssignBatch(scenarios).ValueOrDie();
  std::vector<double> full;
  std::vector<double> compressed;
  for (const core::AssignReport& scenario : report.reports) {
    for (const core::ResultDelta::Row& row : scenario.delta.rows) {
      full.push_back(row.full);
      compressed.push_back(row.compressed);
    }
  }
  full.insert(full.end(), compressed.begin(), compressed.end());
  return full;
}

/// A served response's values in DirectValues() order.
std::vector<double> ServedValues(const WireResponse& response) {
  std::vector<double> values = response.full_values;
  values.insert(values.end(), response.compressed_values.begin(),
                response.compressed_values.end());
  return values;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

/// Sends one AssignBatch on a fresh connection and returns the response.
util::Result<WireResponse> CallOnce(int port, const ScenarioSet& scenarios,
                                    std::uint32_t deadline_ms,
                                    std::uint64_t request_id) {
  util::Result<Client> client = Client::Connect("127.0.0.1", port, 60000);
  if (!client.ok()) return client.status();
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = request_id;
  request.deadline_ms = deadline_ms;
  request.scenarios = scenarios;
  return client->Call(request);
}

std::string MakeDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ServerBuildHasFaultInjection()) {
      GTEST_SKIP() << "serve sources linked without COBRA_FAULT_INJECTION";
    }
    ResetFaults();
  }
  void TearDown() override { ResetFaults(); }
};

TEST_F(ServeFaultTest, InjectedReadFaultsRetryThenSucceed) {
  const std::string dir = MakeDir("fault_read_retry");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const std::string path = dir + "/v001.snap";
  ASSERT_TRUE(core::SaveSnapshot(*origin, path).ok());

  ArmFault(FaultPoint::kSnapshotRead, /*count=*/2);
  std::vector<int> sleeps;
  LoadOutcome outcome = LoadSnapshotWithRetry(
      path, RetryPolicy{}, /*quarantine_on_permanent=*/true,
      [&sleeps](int ms) { sleeps.push_back(ms); });
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.attempts, 3);  // 2 injected failures + 1 success
  EXPECT_EQ(FaultFireCount(FaultPoint::kSnapshotRead), 2);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_FALSE(outcome.quarantined);  // transient: never condemned
  EXPECT_TRUE(util::ReadFile(path).ok());
}

TEST_F(ServeFaultTest, ReadFaultsBeyondRetryBudgetGiveUpTransiently) {
  const std::string dir = MakeDir("fault_read_giveup");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  ArmFault(FaultPoint::kSnapshotRead, /*count=*/100);
  LoadOutcome outcome =
      LoadSnapshotWithRetry(dir + "/v001.snap", policy,
                            /*quarantine_on_permanent=*/true, [](int) {});
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(util::IsRetryable(outcome.status));
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_FALSE(outcome.quarantined);
  // The artifact is fine — a later poll (faults exhausted/cleared) loads it.
  ResetFaults();
  LoadOutcome retry = LoadSnapshotWithRetry(
      dir + "/v001.snap", policy, /*quarantine_on_permanent=*/true, [](int) {});
  EXPECT_TRUE(retry.status.ok());
}

TEST_F(ServeFaultTest, TornWriteIsRetriedNotQuarantinedThenSwapsWhenComplete) {
  const std::string dir = MakeDir("fault_torn_write");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  std::vector<std::string> swapped;
  SnapshotWatcher::Options options;
  options.dir = dir;
  options.retry.max_attempts = 2;
  options.retry.backoff_initial_ms = 1;
  SnapshotWatcher watcher(
      options,
      [&swapped](std::shared_ptr<const CompiledSession>,
                 const std::string& name) { swapped.push_back(name); },
      nullptr);
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(swapped.size(), 1u);

  // A torn write: the full serialized bytes, truncated mid-payload. This is
  // the external fault the harness produces without an in-process hook.
  const std::string full_bytes =
      core::SerializeSnapshot(core::MakeSnapshot(*origin));
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap",
                              full_bytes.substr(0, full_bytes.size() / 2))
                  .ok());
  util::Status poll = watcher.PollOnce();
  ASSERT_FALSE(poll.ok());
  EXPECT_TRUE(util::IsRetryable(poll));          // torn != corrupt
  EXPECT_EQ(watcher.stats().quarantines, 0u);    // never condemned
  EXPECT_EQ(watcher.current_name(), "v001.snap");
  EXPECT_TRUE(util::ReadFile(dir + "/v002.snap").ok());  // left in place

  // The publisher finishes the write: the next poll swaps.
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap", full_bytes).ok());
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(swapped.size(), 2u);
  EXPECT_EQ(swapped[1], "v002.snap");
}

TEST_F(ServeFaultTest, SlowLoadStallsTheWatcherNotTheServingPath) {
  const std::string dir = MakeDir("fault_slow_load");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  ServerOptions server_options;
  server_options.num_workers = 2;
  CobraServer server(server_options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v000.snap");

  SnapshotWatcher::Options watcher_options;
  watcher_options.dir = dir;
  SnapshotWatcher watcher(
      watcher_options,
      [&server](std::shared_ptr<const CompiledSession> loaded,
                const std::string& name) {
        server.Swap(std::move(loaded), name);
      },
      nullptr);

  // The watcher's load of v001 stalls 150ms. Requests must keep being
  // answered from the already-published version for the whole window.
  ArmFault(FaultPoint::kSlowLoad, /*count=*/1, /*delay_ms=*/150);
  std::thread poller([&watcher] { watcher.PollOnce(); });

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());
  const auto window_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  int answered = 0;
  while (std::chrono::steady_clock::now() < window_end) {
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(answered) + 1;
    request.deadline_ms = 30000;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, WireCode::kOk);
    ++answered;
  }
  poller.join();
  EXPECT_GT(answered, 0);
  EXPECT_EQ(FaultFireCount(FaultPoint::kSlowLoad), 1);
  EXPECT_EQ(server.snapshot_name(), "v001.snap");  // the swap did land
  server.Stop();
}

TEST_F(ServeFaultTest, QueueOverflowShedsWithRetryHintAndRecovers) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());

  // The next two admissions see a full queue (injected — actually filling
  // a 128-deep queue would make the test a load test).
  ArmFault(FaultPoint::kQueueOverflow, /*count=*/2);
  for (int i = 0; i < 2; ++i) {
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(i) + 1;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kUnavailable);
    EXPECT_GT(response->retry_after_ms, 0u);
  }
  EXPECT_EQ(FaultFireCount(FaultPoint::kQueueOverflow), 2);
  EXPECT_EQ(server.stats().shed, 2u);

  // The shed was load control, not a wedge: the next request serves.
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 99;
  request.deadline_ms = 30000;
  request.scenarios = ExampleScenarios();
  util::Result<WireResponse> response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kOk);
  server.Stop();
}

TEST_F(ServeFaultTest, MidSwapBurstCompletesEveryAcceptedRequestCoherently) {
  const std::string dir = MakeDir("fault_mid_swap_burst");
  Session session;
  std::shared_ptr<const CompiledSession> version_a =
      ExampleSnapshot(&session);
  prov::Valuation meta = version_a->default_meta_valuation();
  for (const core::MetaVar& var : version_a->meta_vars()) {
    meta.Set(var.var, 1.5);
  }
  std::shared_ptr<const CompiledSession> version_b =
      version_a->WithDefaultMetaValuation(meta);

  const ScenarioSet scenarios = ExampleScenarios();
  auto direct = [&scenarios](const CompiledSession& snapshot) {
    std::vector<double> flat;
    core::BatchAssignReport report =
        snapshot.AssignBatch(scenarios).ValueOrDie();
    for (const core::AssignReport& scenario : report.reports) {
      for (const core::ResultDelta::Row& row : scenario.delta.rows) {
        flat.push_back(row.full);
        flat.push_back(row.compressed);
      }
    }
    return flat;
  };
  const std::vector<double> expected_a = direct(*version_a);
  const std::vector<double> expected_b = direct(*version_b);

  ServerOptions options;
  options.num_workers = 4;
  options.queue_capacity = 4096;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(version_a, "vA");  // version 1: odd versions serve A

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 15;
  std::atomic<int> failed{0};
  std::atomic<int> incoherent{0};
  std::vector<std::thread> burst;
  for (int t = 0; t < kThreads; ++t) {
    burst.emplace_back([&, t] {
      util::Result<Client> client =
          Client::Connect("127.0.0.1", server.port(), 30000);
      if (!client.ok()) {
        failed.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        WireRequest request;
        request.type = MsgType::kAssignBatch;
        request.request_id = static_cast<std::uint64_t>(t * 100 + r);
        request.deadline_ms = 30000;
        request.scenarios = scenarios;
        util::Result<WireResponse> response = client->Call(request);
        if (!response.ok() || response->code != WireCode::kOk) {
          failed.fetch_add(1);
          continue;
        }
        const std::vector<double>& expected =
            (response->snapshot_version % 2 == 1) ? expected_a : expected_b;
        std::vector<double> flat;
        for (std::size_t s = 0; s < response->num_scenarios(); ++s) {
          for (std::size_t g = 0; g < response->num_groups(); ++g) {
            flat.push_back(response->full_value(s, g));
            flat.push_back(response->compressed_value(s, g));
          }
        }
        bool coherent = flat.size() == expected.size();
        for (std::size_t i = 0; coherent && i < flat.size(); ++i) {
          coherent = SameBits(flat[i], expected[i]);
        }
        if (!coherent) incoherent.fetch_add(1);
      }
    });
  }

  // The swapper keeps flipping versions under the burst.
  std::atomic<bool> swapping{true};
  std::thread swapper([&] {
    bool serve_b = true;
    while (swapping.load()) {
      server.Swap(serve_b ? version_b : version_a, serve_b ? "vB" : "vA");
      serve_b = !serve_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& thread : burst) thread.join();
  swapping.store(false);
  swapper.join();
  server.Stop();

  // The acceptance contract: zero failed in-flight requests, zero
  // incoherent (mixed-version or wrong-value) responses.
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(incoherent.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.completed);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServeFaultTest, CorruptSnapshotQuarantinesExactlyOnceUnderTraffic) {
  const std::string dir = MakeDir("fault_corrupt_under_traffic");
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  ASSERT_TRUE(core::SaveSnapshot(*origin, dir + "/v001.snap").ok());

  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());

  std::string log_text;
  std::mutex log_mu;
  SnapshotWatcher::Options watcher_options;
  watcher_options.dir = dir;
  watcher_options.retry.max_attempts = 1;
  SnapshotWatcher watcher(
      watcher_options,
      [&server](std::shared_ptr<const CompiledSession> loaded,
                const std::string& name) {
        server.Swap(std::move(loaded), name);
      },
      [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(log_mu);
        log_text += line + "\n";
      });
  ASSERT_TRUE(watcher.PollOnce().ok());
  ASSERT_EQ(server.snapshot_name(), "v001.snap");

  // Corrupt v002 appears: flip bytes inside the checksummed payload.
  std::string bad = core::SerializeSnapshot(core::MakeSnapshot(*origin));
  for (std::size_t i = bad.size() / 2; i < bad.size() / 2 + 8; ++i) {
    bad[i] = static_cast<char>(~bad[i]);
  }
  ASSERT_TRUE(util::WriteFile(dir + "/v002.snap", bad).ok());

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 30000);
  ASSERT_TRUE(client.ok());
  for (int poll = 0; poll < 3; ++poll) {
    watcher.PollOnce();  // first: quarantine; rest: steady state
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = static_cast<std::uint64_t>(poll) + 1;
    request.deadline_ms = 30000;
    request.scenarios = ExampleScenarios();
    util::Result<WireResponse> response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kOk);
    EXPECT_EQ(response->snapshot_version, 1u);  // never swapped off v001
  }
  EXPECT_EQ(watcher.stats().quarantines, 1u);  // exactly once, no loop
  EXPECT_EQ(watcher.current_name(), "v001.snap");
  EXPECT_TRUE(std::filesystem::exists(dir + "/v002.snap.rejected"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/v002.snap"));
  {
    std::lock_guard<std::mutex> lock(log_mu);
    EXPECT_NE(log_text.find("checksum mismatch"), std::string::npos);
  }
  server.Stop();
}

// Identical concurrent batches run once: the leader stalls just before its
// sweep, every other request finds its run in flight and waits for it, and
// all of them answer the same bits as an in-process AssignBatch.
TEST_F(ServeFaultTest, IdenticalConcurrentBatchesCoalesceOntoOneRun) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const ScenarioSet scenarios = ExampleScenarios();
  const std::vector<double> expected = DirectValues(*origin, scenarios);

  constexpr int kRequests = 4;
  ServerOptions options;
  options.num_workers = kRequests;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  ArmFault(FaultPoint::kSlowExecute, /*count=*/1, /*delay_ms=*/1000);
  std::vector<util::Result<WireResponse>> responses(
      kRequests, util::Status::Internal("not sent"));
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = CallOnce(server.port(), scenarios, 30000,
                              static_cast<std::uint64_t>(i) + 1);
    });
  }
  for (std::thread& client : clients) client.join();
  server.Stop();

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    EXPECT_EQ(responses[i]->code, WireCode::kOk) << responses[i]->message;
    EXPECT_TRUE(SameBits(ServedValues(*responses[i]), expected)) << i;
  }
  EXPECT_EQ(FaultFireCount(FaultPoint::kSlowExecute), 1);
  EXPECT_EQ(server.stats().coalesced, static_cast<std::uint64_t>(kRequests - 1));
  EXPECT_EQ(server.stats().completed, static_cast<std::uint64_t>(kRequests));
}

// A leader's deadline is its own: when it cancels the leader's sweep, the
// followers waiting on that run (with time left) run the batch again and
// answer OK instead of inheriting the leader's kDeadlineExceeded.
TEST_F(ServeFaultTest, FollowerOutlivesALeaderCancelledByItsOwnDeadline) {
  Session session;
  std::shared_ptr<const CompiledSession> origin = ExampleSnapshot(&session);
  const ScenarioSet scenarios = ExampleScenarios();
  const std::vector<double> expected = DirectValues(*origin, scenarios);

  constexpr int kFollowers = 3;
  ServerOptions options;
  options.num_workers = kFollowers + 1;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(origin, "v1");

  // The leader passes the pre-execution check, then stalls past its 50 ms
  // deadline just before its sweep.
  ArmFault(FaultPoint::kSlowExecute, /*count=*/1, /*delay_ms=*/1000);
  util::Result<WireResponse> leader = util::Status::Internal("not sent");
  std::thread leader_client(
      [&] { leader = CallOnce(server.port(), scenarios, 50, 1); });
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  while (FaultFireCount(FaultPoint::kSlowExecute) == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(FaultFireCount(FaultPoint::kSlowExecute), 1);

  // The followers arrive while the leader stalls, so they wait on its run.
  std::vector<util::Result<WireResponse>> followers(
      kFollowers, util::Status::Internal("not sent"));
  std::vector<std::thread> clients;
  for (int i = 0; i < kFollowers; ++i) {
    clients.emplace_back([&, i] {
      followers[i] = CallOnce(server.port(), scenarios, 30000,
                              static_cast<std::uint64_t>(i) + 2);
    });
  }
  leader_client.join();
  for (std::thread& client : clients) client.join();
  server.Stop();

  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  EXPECT_EQ(leader->code, WireCode::kDeadlineExceeded) << leader->message;
  for (int i = 0; i < kFollowers; ++i) {
    ASSERT_TRUE(followers[i].ok()) << followers[i].status().ToString();
    EXPECT_EQ(followers[i]->code, WireCode::kOk) << followers[i]->message;
    EXPECT_TRUE(SameBits(ServedValues(*followers[i]), expected)) << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kFollowers));
}

// A 1024-scenario request with a 1 ms deadline cannot finish: it answers
// kDeadlineExceeded, counts as such, and its connection serves on.
TEST_F(ServeFaultTest, ExpiredLargeBatchAnswersDeadlineAndConnectionServesOn) {
  Session session;
  core::LoadDominantPolySession(&session);
  std::shared_ptr<const CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "dominant");

  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), 60000);
  ASSERT_TRUE(client.ok());
  WireRequest request;
  request.type = MsgType::kAssignBatch;
  request.request_id = 1;
  request.deadline_ms = 1;
  request.scenarios = core::DominantPolyScenarios(1024);
  util::Result<WireResponse> expired = client->Call(request);
  ASSERT_TRUE(expired.ok()) << expired.status().ToString();
  EXPECT_EQ(expired->code, WireCode::kDeadlineExceeded);
  EXPECT_TRUE(expired->full_values.empty());
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);

  request.request_id = 2;
  request.deadline_ms = 30000;
  request.scenarios = core::DominantPolyScenarios(8);
  util::Result<WireResponse> next = client->Call(request);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->code, WireCode::kOk) << next->message;
  EXPECT_TRUE(SameBits(ServedValues(*next),
                       DirectValues(*snapshot, request.scenarios)));
  server.Stop();
}

// A served 1024-scenario request runs as one blocked sweep and answers the
// same bits, value for value, as an in-process AssignBatch of the same set.
TEST(ServeLargeBatchTest, ServedLargeBatchIsBitIdenticalToInProcess) {
  Session session;
  core::LoadDominantPolySession(&session);
  std::shared_ptr<const CompiledSession> snapshot =
      session.Snapshot().ValueOrDie();
  const ScenarioSet scenarios = core::DominantPolyScenarios(1024);
  const core::BatchAssignReport direct =
      snapshot->AssignBatch(scenarios).ValueOrDie();
  ASSERT_EQ(direct.engine, core::BatchOptions::Sweep::kBlocked);

  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(snapshot, "dominant");
  util::Result<WireResponse> served =
      CallOnce(server.port(), scenarios, 60000, 1);
  server.Stop();

  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->code, WireCode::kOk) << served->message;
  ASSERT_EQ(served->num_scenarios(), scenarios.size());
  ASSERT_EQ(served->num_groups(), snapshot->labels().size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    EXPECT_EQ(served->scenario_names[s], direct.scenario_names[s]);
    const std::vector<core::ResultDelta::Row>& rows =
        direct.reports[s].delta.rows;
    for (std::size_t g = 0; g < rows.size(); ++g) {
      EXPECT_TRUE(SameBits(served->full_value(s, g), rows[g].full))
          << "scenario " << s << " group " << g;
      EXPECT_TRUE(SameBits(served->compressed_value(s, g),
                           rows[g].compressed))
          << "scenario " << s << " group " << g;
    }
  }
}

}  // namespace
}  // namespace cobra::serve
