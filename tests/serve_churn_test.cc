// Connection-churn test for CobraServer (serve/server.h): every accepted
// connection gets its own reader thread, and a finished reader must be
// joined while the server keeps running, not at Stop(). Otherwise each
// connection ever accepted keeps its thread stack mapped (about 8 MiB of
// address space apiece), and a long-lived daemon under churn runs out of
// address space or threads.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "serve/server.h"
#include "serve/wire.h"
#include "util/status.h"

namespace cobra::serve {
namespace {

/// The process's VmSize from /proc/self/status, in kB (0 if unreadable).
std::uint64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(7));
    }
  }
  return 0;
}

/// One strictly sequential connection: ping, half-close, and wait for the
/// server to close its end before returning, so the next connection never
/// overlaps this one.
void PingOnce(int port, std::uint64_t request_id) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
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
  ::shutdown(fd, SHUT_WR);
  ASSERT_TRUE(ReadFrame(fd, &payload, &closed).ok());
  EXPECT_TRUE(closed);
  ::close(fd);
}

TEST(ServeChurnTest, SequentialConnectionsDoNotGrowVmSize) {
  CobraServer server(ServerOptions{});
  server.set_log([](const std::string&) {});
  ASSERT_TRUE(server.Start().ok());

  // Warm up first, so allocator arenas and the thread-stack cache are in
  // place before the baseline is read.
  for (std::uint64_t i = 0; i < 50; ++i) PingOnce(server.port(), i);
  const std::uint64_t before_kb = VmSizeKb();
  ASSERT_GT(before_kb, 0u) << "/proc/self/status has no VmSize line";

  constexpr std::uint64_t kConnections = 2000;
  for (std::uint64_t i = 0; i < kConnections; ++i) {
    PingOnce(server.port(), i);
    if (::testing::Test::HasFatalFailure()) break;
  }
  const std::uint64_t after_kb = VmSizeKb();
  server.Stop();

  const std::uint64_t growth_kb = after_kb > before_kb ? after_kb - before_kb
                                                       : 0;
  EXPECT_LT(growth_kb, 64u * 1024u)
      << kConnections << " sequential connections grew VmSize from "
      << before_kb << " kB to " << after_kb << " kB";
}

}  // namespace
}  // namespace cobra::serve
