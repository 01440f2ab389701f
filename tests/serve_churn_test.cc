// Connection-handling tests for CobraServer (serve/server.h): one I/O
// thread polls every connection, so the server's footprint must not grow
// with connection churn, a stalled or hostile peer must not hold up anyone
// else, a length prefix must not buy memory the peer never sent, and
// running out of descriptors must not stop the server accepting for good.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/compiled_session.h"
#include "core/session.h"
#include "data/example_db.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/status.h"

namespace cobra::serve {
namespace {

/// One numeric field ("VmSize", "VmRSS", "Threads") of /proc/self/status
/// (0 if unreadable). Sizes are in kB.
std::uint64_t ProcStatus(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string key = field + ":";
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

/// A raw TCP connection to the server, or -1 with errno set.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    return -1;
  }
  return fd;
}

std::string PingFrame(std::uint64_t request_id) {
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = request_id;
  const std::string payload = EncodeRequest(request);
  std::string frame(4, '\0');
  const auto size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<char>(size >> (8 * i));
  return frame + payload;
}

/// Sends a ping and reads its answer on a raw connection.
void PingOn(int fd, std::uint64_t request_id) {
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = request_id;
  ASSERT_TRUE(WriteFrame(fd, EncodeRequest(request)).ok());
  std::string payload;
  bool closed = false;
  ASSERT_TRUE(ReadFrame(fd, &payload, &closed).ok());
  ASSERT_FALSE(closed);
  util::Result<WireResponse> response = DecodeResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, WireCode::kOk);
  EXPECT_EQ(response->request_id, request_id);
}

/// One strictly sequential connection: ping, half-close, and wait for the
/// server to close its end before returning, so the next connection never
/// overlaps this one.
void PingOnce(int port, std::uint64_t request_id) {
  const int fd = ConnectRaw(port);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  PingOn(fd, request_id);
  ::shutdown(fd, SHUT_WR);
  std::string payload;
  bool closed = false;
  ASSERT_TRUE(ReadFrame(fd, &payload, &closed).ok());
  EXPECT_TRUE(closed);
  ::close(fd);
}

/// A ping through the blocking client, with a bounded wait.
util::Status PingWithClient(int port, int timeout_ms) {
  util::Result<Client> client = Client::Connect("127.0.0.1", port, timeout_ms);
  if (!client.ok()) return client.status();
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = 7;
  util::Result<WireResponse> response = client->Call(request);
  if (!response.ok()) return response.status();
  if (response->code != WireCode::kOk) {
    return util::Status::Internal("ping answered with a non-OK code");
  }
  return util::Status::OK();
}

TEST(ServeChurnTest, SequentialConnectionsDoNotGrowVmSize) {
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());

  // Warm up first, so allocator arenas are in place before the baseline is
  // read.
  for (std::uint64_t i = 0; i < 50; ++i) PingOnce(server.port(), i);
  const std::uint64_t before_kb = ProcStatus("VmSize");
  ASSERT_GT(before_kb, 0u) << "/proc/self/status has no VmSize line";

  constexpr std::uint64_t kConnections = 2000;
  for (std::uint64_t i = 0; i < kConnections; ++i) {
    PingOnce(server.port(), i);
    if (::testing::Test::HasFatalFailure()) break;
  }
  const std::uint64_t after_kb = ProcStatus("VmSize");
  server.Stop();

  const std::uint64_t growth_kb = after_kb > before_kb ? after_kb - before_kb
                                                       : 0;
  EXPECT_LT(growth_kb, 64u * 1024u)
      << kConnections << " sequential connections grew VmSize from "
      << before_kb << " kB to " << after_kb << " kB";
}

TEST(ServeChurnTest, NoWaitReconnectsKeepThreadsAndVmSizeFlat) {
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());

  // Each client closes right after its answer, without waiting for the
  // server's close, so its connection may still be open on the server when
  // the next one arrives.
  auto churn = [&server](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const int fd = ConnectRaw(server.port());
      ASSERT_GE(fd, 0) << std::strerror(errno);
      PingOn(fd, i);
      ::close(fd);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  churn(50);
  const std::uint64_t vm_before_kb = ProcStatus("VmSize");
  const std::uint64_t threads_before = ProcStatus("Threads");
  ASSERT_GT(threads_before, 0u) << "/proc/self/status has no Threads line";

  churn(2000);
  const std::uint64_t vm_after_kb = ProcStatus("VmSize");
  const std::uint64_t threads_after = ProcStatus("Threads");
  server.Stop();

  EXPECT_LE(threads_after, threads_before);
  const std::uint64_t growth_kb =
      vm_after_kb > vm_before_kb ? vm_after_kb - vm_before_kb : 0;
  EXPECT_LT(growth_kb, 64u * 1024u)
      << "2000 no-wait reconnects grew VmSize from " << vm_before_kb
      << " kB to " << vm_after_kb << " kB";
}

TEST(ServeChurnTest, StalledClientsDoNotDelayOthers) {
  core::Session session;
  session.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session.SetTreeText(data::kFigure2TreeText).CheckOK();
  session.SetBound(6);
  session.Compress().ValueOrDie();
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(session.Snapshot().ValueOrDie(), "v1");

  // Stalled writer: a frame that claims 100 payload bytes, 50 of them sent.
  const int half = ConnectRaw(server.port());
  ASSERT_GE(half, 0);
  std::string partial = std::string("\x64\0\0\0", 4) + std::string(50, 'x');
  ASSERT_EQ(::send(half, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));

  // Stalled reader: pipelines pings and never reads an answer. A small
  // receive buffer makes the server's answers back up quickly.
  const int deaf = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(deaf, 0);
  const int small = 4096;
  ::setsockopt(deaf, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(deaf, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string ping = PingFrame(1);
  const auto pump_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t pings = 0;
  while (std::chrono::steady_clock::now() < pump_until) {
    const ssize_t n = ::send(deaf, ping.data(), ping.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(ping.size())) {
      ++pings;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    break;  // A torn send or a reset: the server has let go of us.
  }
  ASSERT_GT(pings, 0u);

  // Both stalled peers are still connected (or dropped); a third client's
  // ping and batch must be answered at once.
  const auto start = std::chrono::steady_clock::now();
  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/5000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WireRequest request;
  request.type = MsgType::kPing;
  request.request_id = 2;
  util::Result<WireResponse> pong = client->Call(request);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  request.type = MsgType::kAssignBatch;
  request.request_id = 3;
  request.scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
  util::Result<WireResponse> batch = client->Call(request);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->code, WireCode::kOk);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));

  ::close(half);
  ::close(deaf);
  server.Stop();
}

TEST(ServeChurnTest, PeerThatStopsReadingMeetsBackpressure) {
  core::Session session;
  session.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session.SetTreeText(data::kFigure2TreeText).CheckOK();
  session.SetBound(6);
  session.Compress().ValueOrDie();
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;
  CobraServer server(options);
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  server.Swap(session.Snapshot().ValueOrDie(), "v1");

  // A peer with a small receive buffer sends one batch whose response
  // (scenario names are echoed, so about 8 MiB) cannot fit in the socket
  // buffers, and never reads it.
  const int deaf = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(deaf, 0);
  const int small = 4096;
  ::setsockopt(deaf, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(deaf, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  WireRequest big;
  big.type = MsgType::kAssignBatch;
  big.request_id = 1;
  for (int i = 0; i < 2048; ++i) {
    big.scenarios.Add("s" + std::to_string(i) + std::string(4096, 'x'))
        .ValueOrDie()
        .Set("Business", 0.5 + 0.0001 * i);
  }
  ASSERT_TRUE(WriteFrame(deaf, EncodeRequest(big)).ok());
  // The first response bytes arriving means a worker is inside the write
  // it cannot finish.
  pollfd arrived{deaf, POLLIN, 0};
  ASSERT_EQ(::poll(&arrived, 1, 30000), 1) << "the batch was never answered";

  // Now pipeline pings for half a second without reading.
  const std::uint64_t rss_before_kb = ProcStatus("VmRSS");
  ASSERT_GT(rss_before_kb, 0u) << "/proc/self/status has no VmRSS line";
  const std::string ping = PingFrame(2);
  const auto pump_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  std::uint64_t pings = 0;
  while (std::chrono::steady_clock::now() < pump_until) {
    const ssize_t n = ::send(deaf, ping.data(), ping.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(ping.size())) {
      ++pings;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    break;  // A torn send or a reset: the server has let go of us.
  }
  ASSERT_GT(pings, 0u);

  // The other worker still serves everyone else: nothing the non-reading
  // peer sent has taken a queue slot.
  util::Result<Client> client =
      Client::Connect("127.0.0.1", server.port(), /*timeout_ms=*/5000);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto calls = static_cast<std::uint64_t>(2 * options.queue_capacity);
  for (std::uint64_t id = 3; id < 3 + calls; ++id) {
    WireRequest request;
    request.type = MsgType::kAssignBatch;
    request.request_id = id;
    request.scenarios.Add("slump").ValueOrDie().Set("Business", 0.8);
    util::Result<WireResponse> batch = client->Call(request);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->code, WireCode::kOk) << batch->message;
  }
  EXPECT_EQ(server.stats().shed, 0u);
  const std::uint64_t rss_after_kb = ProcStatus("VmRSS");
  const std::uint64_t growth_kb =
      rss_after_kb > rss_before_kb ? rss_after_kb - rss_before_kb : 0;
  EXPECT_LT(growth_kb, 16u * 1024u)
      << pings << " unread pings grew RSS from " << rss_before_kb
      << " kB to " << rss_after_kb << " kB";

  // Closing the peer fails the blocked write and frees its worker.
  ::close(deaf);
  server.Stop();
}

TEST(ServeChurnTest, LengthPrefixDoesNotBuyUnsentMemory) {
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());
  PingOnce(server.port(), 1);
  const std::uint64_t rss_before_kb = ProcStatus("VmRSS");
  ASSERT_GT(rss_before_kb, 0u) << "/proc/self/status has no VmRSS line";

  // Four peers each announce a frame at the 64 MiB limit and send 4 bytes.
  std::string hostile(4, '\0');
  for (int i = 0; i < 4; ++i) {
    hostile[i] = static_cast<char>(kMaxFrameBytes >> (8 * i));
  }
  hostile += "abcd";
  std::vector<int> fds;
  for (int c = 0; c < 4; ++c) {
    const int fd = ConnectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, hostile.data(), hostile.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(hostile.size()));
    fds.push_back(fd);
  }
  // A ping on a fresh connection is answered after the server has read the
  // hostile prefixes it polled before it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  PingOnce(server.port(), 2);
  const std::uint64_t rss_after_kb = ProcStatus("VmRSS");
  for (const int fd : fds) ::close(fd);
  server.Stop();

  const std::uint64_t growth_kb =
      rss_after_kb > rss_before_kb ? rss_after_kb - rss_before_kb : 0;
  EXPECT_LT(growth_kb, 32u * 1024u)
      << "4 x 4-byte frames claiming 64 MiB grew RSS from " << rss_before_kb
      << " kB to " << rss_after_kb << " kB";
}

TEST(ServeChurnTest, AcceptSurvivesDescriptorExhaustion) {
  CobraServer server(ServerOptions{});
  std::mutex log_mu;
  bool accept_failed = false;
  server.set_log([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mu);
    if (line.find("accept failed") != std::string::npos) accept_failed = true;
  });
  ASSERT_TRUE(server.Start().ok());
  PingOnce(server.port(), 1);

  // Lower this process's descriptor limit to 32 above the lowest free
  // descriptor; restore it however the test ends.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int probe = ::dup(2);
  ASSERT_GE(probe, 0);
  ::close(probe);
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{saved};
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(probe + 32);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // Connect until the table is full: each accepted connection costs the
  // server a descriptor as well.
  std::vector<int> clients;
  for (int fd = ConnectRaw(server.port()); fd >= 0;
       fd = ConnectRaw(server.port())) {
    clients.push_back(fd);
  }
  ASSERT_FALSE(clients.empty());
  // Leave one connection pending while the table is full: free a
  // descriptor and take it straight back with a new connection, so the
  // server's accept() finds none. Retry if the server wins the race.
  bool pending = false;
  for (int attempt = 0; attempt < 16 && !clients.empty() && !pending;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(clients.back());
    clients.pop_back();
    const int fd = ConnectRaw(server.port());
    if (fd >= 0) {
      clients.push_back(fd);
      pending = true;
    }
  }
  ASSERT_TRUE(pending);
  for (int i = 0; i < 200; ++i) {
    {
      std::lock_guard<std::mutex> lock(log_mu);
      if (accept_failed) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(log_mu);
    ASSERT_TRUE(accept_failed) << "the server never ran out of descriptors";
  }

  for (const int fd : clients) ::close(fd);
  const util::Status answered = PingWithClient(server.port(), 3000);
  EXPECT_TRUE(answered.ok()) << answered.ToString();
  server.Stop();
}

}  // namespace
}  // namespace cobra::serve
