// Seeded mutation fuzzer for the two decoders that read untrusted bytes:
// wire request frames (serve::DecodeRequest) and snapshot files
// (core::ParseSnapshot). Mutants of valid inputs — bit flips, truncations,
// splices and length-field edits — must decode to a value or a typed
// error, never crash or trip a sanitizer; a snapshot that parses must
// either pass VerifySnapshot or be refused by FromSnapshot. Every mutant
// comes from a fixed util::Rng seed, so every run replays the same inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_session.h"
#include "core/io.h"
#include "core/session.h"
#include "data/example_db.h"
#include "serve/wire.h"
#include "util/hash.h"
#include "util/rng.h"
#include "verify/verify.h"

namespace cobra {
namespace {

/// Snapshot header: 8-byte magic, u32 version, u64 payload length, u64
/// FNV-1a checksum of the payload (core/io.cc).
constexpr std::size_t kLengthOffset = 8 + 4;
constexpr std::size_t kChecksumOffset = kLengthOffset + 8;
constexpr std::size_t kHeaderSize = kChecksumOffset + 8;

void PutLe(std::string* bytes, std::size_t at, std::size_t width,
           std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    (*bytes)[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint64_t GetLe(const std::string& bytes, std::size_t at,
                    std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[at + i]))
             << (8 * i);
  }
  return value;
}

/// Applies one to three random edits to `input`: bit flips, a truncation,
/// a splice of `donor` bytes, or a 4- or 8-byte little-endian word (the
/// shape of every length and count field) set to a boundary value or
/// nudged from its current one.
std::string Mutate(const std::string& input, const std::string& donor,
                   util::Rng* rng) {
  std::string out = input;
  const std::uint64_t edits = 1 + rng->NextBelow(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng->NextBelow(4)) {
      case 0: {
        const std::uint64_t flips = 1 + rng->NextBelow(4);
        for (std::uint64_t f = 0; f < flips && !out.empty(); ++f) {
          out[rng->NextBelow(out.size())] ^=
              static_cast<char>(1u << rng->NextBelow(8));
        }
        break;
      }
      case 1:
        if (!out.empty()) out.resize(rng->NextBelow(out.size()));
        break;
      case 2: {
        const std::size_t from = rng->NextBelow(donor.size());
        const std::size_t len =
            1 + rng->NextBelow(std::min<std::size_t>(64, donor.size() - from));
        const std::size_t at = rng->NextBelow(out.size() + 1);
        if (rng->NextBool(0.5)) {
          out.replace(at, len, donor, from, len);
        } else {
          out.insert(at, donor, from, len);
        }
        break;
      }
      default: {
        const std::size_t width = rng->NextBool(0.5) ? 4 : 8;
        if (out.size() < width) break;
        const std::size_t at = rng->NextBelow(out.size() - width + 1);
        const std::uint64_t boundary[] = {0,           1,
                                          2,           0xFF,
                                          0xFFFF,      0x7FFFFFFF,
                                          0xFFFFFFFF,  1ull << 32,
                                          ~0ull,       out.size()};
        std::uint64_t value =
            rng->NextBool(0.5)
                ? boundary[rng->NextBelow(std::size(boundary))]
                : GetLe(out, at, width) + rng->NextBelow(5) - 2;
        PutLe(&out, at, width, value);
        break;
      }
    }
  }
  return out;
}

/// Rewrites a mutant's snapshot header from `valid`'s magic and version
/// plus its own payload's true length and checksum, so the mutant gets
/// past the integrity checks and reaches the section parser.
void Reseal(const std::string& valid, std::string* mutant) {
  if (mutant->size() < kHeaderSize) return;
  mutant->replace(0, kLengthOffset, valid, 0, kLengthOffset);
  const std::string_view payload =
      std::string_view(*mutant).substr(kHeaderSize);
  PutLe(mutant, kLengthOffset, 8, payload.size());
  PutLe(mutant, kChecksumOffset, 8, util::HashBytes(payload));
}

std::vector<std::string> ValidRequests() {
  std::vector<std::string> frames;
  serve::WireRequest ping;
  ping.type = serve::MsgType::kPing;
  ping.request_id = 7;
  frames.push_back(serve::EncodeRequest(ping));
  serve::WireRequest stats = ping;
  stats.type = serve::MsgType::kStats;
  frames.push_back(serve::EncodeRequest(stats));
  serve::WireRequest batch;
  batch.type = serve::MsgType::kAssignBatch;
  batch.request_id = 42;
  batch.deadline_ms = 250;
  for (int i = 0; i < 6; ++i) {
    auto scenario =
        batch.scenarios.Add("scenario-" + std::to_string(i)).ValueOrDie();
    for (int d = 0; d < i % 3; ++d) {
      scenario.Set("var" + std::to_string(d), 0.5 + 0.25 * i);
    }
  }
  frames.push_back(serve::EncodeRequest(batch));
  return frames;
}

TEST(DecodeFuzzTest, MutatedRequestFramesDecodeOrFailTyped) {
  const std::vector<std::string> valid = ValidRequests();
  util::Rng rng(0xDEC0DE);
  std::size_t decoded = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string& input = valid[rng.NextBelow(valid.size())];
    const std::string& donor = valid[rng.NextBelow(valid.size())];
    const std::string mutant = Mutate(input, donor, &rng);
    util::Result<serve::WireRequest> request = serve::DecodeRequest(mutant);
    if (!request.ok()) {
      EXPECT_EQ(request.status().code(), util::StatusCode::kInvalidArgument)
          << "mutant " << i << ": " << request.status().ToString();
      EXPECT_FALSE(request.status().message().empty()) << "mutant " << i;
      continue;
    }
    // A decoded request re-encodes to a frame that decodes to itself.
    ++decoded;
    const std::string once = serve::EncodeRequest(*request);
    util::Result<serve::WireRequest> again = serve::DecodeRequest(once);
    ASSERT_TRUE(again.ok()) << "mutant " << i << ": "
                            << again.status().ToString();
    EXPECT_EQ(serve::EncodeRequest(*again), once) << "mutant " << i;
  }
  // Some mutants (a flipped value bit, a nudged id) must still decode, or
  // the fuzzer never gets past the first field.
  EXPECT_GT(decoded, 0u);
}

TEST(DecodeFuzzTest, MutatedSnapshotsParseOrFailTypedAndVerifyGatesLoad) {
  core::Session session;
  session.LoadPolynomialsText(data::kExamplePolynomialsText).CheckOK();
  session.SetTreeText(data::kFigure2TreeText).CheckOK();
  session.SetBound(10);
  session.Compress().ValueOrDie();
  const std::string valid = core::SerializeSnapshot(
      core::MakeSnapshot(*session.Snapshot().ValueOrDie()));

  util::Rng rng(0x5EA1ED);
  std::size_t parsed = 0;
  std::size_t loaded = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string mutant = Mutate(valid, valid, &rng);
    if (i % 2 == 0) Reseal(valid, &mutant);
    util::Result<core::SnapshotPackage> package =
        core::ParseSnapshot(mutant, "mutant-" + std::to_string(i));
    if (!package.ok()) {
      const util::StatusCode code = package.status().code();
      EXPECT_TRUE(code == util::StatusCode::kDataLoss ||
                  code == util::StatusCode::kUnavailable)
          << "mutant " << i << ": " << package.status().ToString();
      continue;
    }
    ++parsed;
    const verify::VerifyReport report = verify::VerifySnapshot(*package);
    util::Result<std::shared_ptr<const core::CompiledSession>> served =
        core::CompiledSession::FromSnapshot(*package);
    if (!report.ok()) {
      EXPECT_FALSE(served.ok()) << "mutant " << i
                                << " failed verification but loaded";
      continue;
    }
    if (!served.ok()) continue;
    // A snapshot that loads must also evaluate safely.
    ++loaded;
    std::vector<double> values;
    (*served)->full_program().Eval((*served)->default_full_valuation(),
                                   &values);
    (*served)->compressed_program().Eval((*served)->default_meta_valuation(),
                                         &values);
  }
  // Resealed mutants reach the section parser, and some parse.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(loaded, 0u);
}

}  // namespace
}  // namespace cobra
