// Mutation fuzzing of the what-if service's wire decoder
// (service/protocol.h): seeded mutants (bit flips, truncations, inflated
// length fields, splices) of one valid frame of every PDU type go through
// try_parse and decode<Pdu>.
//
//   - A raw mutant keeps its stale checksum, so it can only parse to a
//     frame when its payload is still exactly a valid frame's (the type
//     field is outside the checksum); a frame that does parse must decode
//     to nothing or re-encode to itself.
//   - A re-framed mutant gets a payload size and checksum that fit, so
//     the payload decoder decides: it must decode to nothing, or decode
//     and re-encode to exactly the mutant's bytes.
//
// No call may crash, and no allocation made while parsing, decoding or
// re-encoding may exceed the 1 MiB payload cap. The seeds and iteration
// counts are fixed, so every run replays the same mutants; the sanitizer
// jobs run this file too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "mutate.h"
#include "service/protocol.h"
#include "util/hash.h"

// Largest single allocation made while `g_watch` is set (this binary's
// global operator new).
namespace {
std::atomic<bool> g_watch{false};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  if (g_watch.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rlcr::service {
namespace {

/// One valid frame of every PDU type, strings and optional parts filled.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> frames;
  Hello hello;
  hello.client_name = "fuzz-client";
  frames.push_back(encode(hello));
  HelloAck ack;
  ack.client_id = 42;
  ack.server_name = "rlcr-whatif";
  frames.push_back(encode(ack));
  Submit submit;
  submit.query.source = QuerySource::kIspd98;
  submit.query.circuit = "ibm02";
  submit.query.has_bound = true;
  submit.query.scenario_bound_v = 0.12;
  submit.query.has_anneal = true;
  submit.query.scenario_anneal = true;
  frames.push_back(encode(submit));
  SubmitAck sack;
  sack.ticket = 9;
  sack.reject = RejectReason::kInflightCap;
  sack.coalesced = 1;
  frames.push_back(encode(sack));
  Poll poll;
  poll.ticket = 9;
  poll.wait_ms = 250;
  frames.push_back(encode(poll));
  Result done;
  done.ticket = 9;
  done.state = JobState::kDone;
  done.summary.route_hash = 0x1234;
  done.summary.state_hash = 0x5678;
  done.summary.total_shields = 46647.0;
  done.summary.warm = 1;
  frames.push_back(encode(done));
  Result failed;
  failed.ticket = 10;
  failed.state = JobState::kFailed;
  failed.error = "unknown ticket";
  frames.push_back(encode(failed));
  Cancel cancel;
  cancel.ticket = 11;
  frames.push_back(encode(cancel));
  CancelAck cack;
  cack.ticket = 11;
  cack.cancelled = 1;
  frames.push_back(encode(cack));
  frames.push_back(encode(Stats{}));
  StatsReply stats;
  stats.metrics = {{"service.jobs_done", 0, 12.0}, {"session.cache", 1, 3.5}};
  frames.push_back(encode(stats));
  Error error;
  error.code = ErrorCode::kMalformed;
  error.message = "bad frame";
  frames.push_back(encode(error));
  return frames;
}

/// Rewrites the frame's payload size and checksum to fit `bytes`.
void reframe(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes + kFrameChecksumBytes) return;
  const std::size_t payload =
      bytes.size() - kFrameHeaderBytes - kFrameChecksumBytes;
  fuzz::Mutator::store_u64(bytes, 16, payload);
  util::Fnv1a64 h;
  for (std::size_t i = kFrameHeaderBytes; i < kFrameHeaderBytes + payload;
       ++i) {
    h.u8(bytes[i]);
  }
  fuzz::Mutator::store_u64(bytes, kFrameHeaderBytes + payload, h.value());
}

template <typename Pdu>
std::optional<std::vector<std::uint8_t>> reencode(const Frame& frame) {
  const std::optional<Pdu> pdu = decode<Pdu>(frame);
  if (!pdu) return std::nullopt;
  return encode(*pdu);
}

/// Decodes `frame` as its own type and re-encodes it; nullopt when the
/// payload does not decode.
std::optional<std::vector<std::uint8_t>> decode_and_reencode(
    const Frame& frame) {
  switch (frame.type) {
    case PduType::kHello:
      return reencode<Hello>(frame);
    case PduType::kHelloAck:
      return reencode<HelloAck>(frame);
    case PduType::kSubmit:
      return reencode<Submit>(frame);
    case PduType::kSubmitAck:
      return reencode<SubmitAck>(frame);
    case PduType::kPoll:
      return reencode<Poll>(frame);
    case PduType::kResult:
      return reencode<Result>(frame);
    case PduType::kCancel:
      return reencode<Cancel>(frame);
    case PduType::kCancelAck:
      return reencode<CancelAck>(frame);
    case PduType::kStats:
      return reencode<Stats>(frame);
    case PduType::kStatsReply:
      return reencode<StatsReply>(frame);
    case PduType::kError:
      return reencode<Error>(frame);
  }
  return std::nullopt;
}

/// What one mutant did.
struct Outcome {
  bool framed = false;   ///< try_parse peeled a frame
  bool decoded = false;  ///< and its payload decoded
};

/// Parses, decodes and re-encodes one mutant under the allocation watch;
/// a decoded frame must re-encode to exactly the bytes it was parsed from.
Outcome run_mutant(const std::vector<std::uint8_t>& mutant, int it) {
  Outcome out;
  g_largest = 0;
  g_watch = true;
  Frame frame;
  std::size_t consumed = 0;
  const ParseStatus st =
      try_parse(mutant.data(), mutant.size(), &consumed, &frame);
  std::optional<std::vector<std::uint8_t>> again;
  if (st == ParseStatus::kFrame) again = decode_and_reencode(frame);
  g_watch = false;
  EXPECT_LE(g_largest.load(), kMaxPayloadBytes) << "iteration " << it;
  if (st != ParseStatus::kFrame) {
    EXPECT_EQ(consumed, 0u) << "iteration " << it;
    return out;
  }
  out.framed = true;
  EXPECT_LE(consumed, mutant.size()) << "iteration " << it;
  if (!again) return out;
  out.decoded = true;
  const std::vector<std::uint8_t> parsed(
      mutant.begin(), mutant.begin() + static_cast<std::ptrdiff_t>(consumed));
  EXPECT_EQ(*again, parsed)
      << "iteration " << it << " type " << static_cast<int>(frame.type);
  return out;
}

/// The payload bytes of a complete frame.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + kFrameHeaderBytes,
          frame.end() - kFrameChecksumBytes};
}

TEST(ServiceFuzz, RawMutantsAreRejectedUnlessTheirPayloadIsIntact) {
  const auto frames = corpus();
  fuzz::Mutator mutator(0x5E1C);
  int rejected = 0;
  for (int it = 0; it < 6000; ++it) {
    const auto& a = frames[static_cast<std::size_t>(it) % frames.size()];
    const auto& b = frames[static_cast<std::size_t>(it / 7) % frames.size()];
    const std::vector<std::uint8_t> mutant = mutator.mutate(a, b);
    const Outcome out = run_mutant(mutant, it);
    if (!out.framed) {
      ++rejected;
      continue;
    }
    // Only a corpus payload passes its stale checksum.
    Frame frame;
    std::size_t consumed = 0;
    try_parse(mutant.data(), mutant.size(), &consumed, &frame);
    bool intact = false;
    for (const auto& f : frames) {
      intact = intact || frame.payload == payload_of(f);
    }
    EXPECT_TRUE(intact) << "iteration " << it;
  }
  EXPECT_GT(rejected, 5000);
}

TEST(ServiceFuzz, ReframedMutantsDecodeToNothingOrToThemselves) {
  const auto frames = corpus();
  fuzz::Mutator mutator(0xF4A3);
  int framed = 0, decoded = 0;
  for (int it = 0; it < 6000; ++it) {
    const auto& a = frames[static_cast<std::size_t>(it) % frames.size()];
    const auto& b = frames[static_cast<std::size_t>(it / 7) % frames.size()];
    std::vector<std::uint8_t> mutant = mutator.mutate(a, b);
    reframe(mutant);
    const Outcome out = run_mutant(mutant, it);
    framed += out.framed;
    decoded += out.decoded;
  }
  // The payload decoders see the mutants, and both outcomes occur.
  EXPECT_GT(framed, 1000);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(framed, decoded);
}

TEST(ServiceFuzz, InflatedPayloadSizeAllocatesNothingLarge) {
  // A header announcing more than the cap is rejected before any payload
  // buffer exists, at every announced size up to 2^64 - 1.
  for (const std::uint64_t size :
       {kMaxPayloadBytes + 1, std::uint64_t{1} << 32, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> bytes = encode(Stats{});
    fuzz::Mutator::store_u64(bytes, 16, size);
    bytes.resize(bytes.size() + 4096, 0);
    g_largest = 0;
    g_watch = true;
    Frame frame;
    std::size_t consumed = 0;
    const ParseStatus st =
        try_parse(bytes.data(), bytes.size(), &consumed, &frame);
    g_watch = false;
    EXPECT_EQ(st, ParseStatus::kBad) << size;
    EXPECT_EQ(g_largest.load(), 0u) << size;
  }
}

}  // namespace
}  // namespace rlcr::service
