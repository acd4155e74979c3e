// The what-if service (src/service): wire-protocol round-trip for every
// PDU type, malformed-frame rejection (truncation, corruption, version
// mismatch, oversized payloads), query key semantics, and the daemon
// end-to-end over a real Unix-domain socket — Hello gating, admission
// control, cancellation, request coalescing (two identical submits, one
// compute), and bit-identity of served results against a direct
// in-process FlowSession run. The concurrent-client stress runs under the
// TSan CI job.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.h"
#include "core/session.h"
#include "router/route_types.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace rlcr::service {
namespace {

namespace fs = std::filesystem;

std::string test_socket_path(const char* tag) {
  return (fs::temp_directory_path() /
          ("rlcr_service_test_" + std::to_string(::getpid()) + "_" + tag +
           ".sock"))
      .string();
}

WhatIfQuery tiny_query(std::uint64_t seed = 7) {
  WhatIfQuery q;
  q.source = QuerySource::kTiny;
  q.tiny_nets = 150;
  q.seed = seed;
  q.rate = 0.5;
  q.flow = 2;  // gsino
  return q;
}

template <typename Pdu>
Pdu roundtrip(const Pdu& in) {
  const std::vector<std::uint8_t> bytes = encode(in);
  std::size_t consumed = 0;
  Frame frame;
  EXPECT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  const std::optional<Pdu> out = decode<Pdu>(frame);
  EXPECT_TRUE(out.has_value());
  return out.value_or(Pdu{});
}

// ------------------------------------------------- PDU round-trip, all 11

TEST(ServiceProtocol, HelloRoundTrip) {
  Hello in;
  in.protocol_version = kProtocolVersion;
  in.client_name = "unit";
  const Hello out = roundtrip(in);
  EXPECT_EQ(out.protocol_version, in.protocol_version);
  EXPECT_EQ(out.client_name, in.client_name);
}

TEST(ServiceProtocol, HelloAckRoundTrip) {
  HelloAck in;
  in.client_id = 42;
  in.server_name = "rlcr-whatif";
  const HelloAck out = roundtrip(in);
  EXPECT_EQ(out.client_id, 42u);
  EXPECT_EQ(out.server_name, in.server_name);
}

TEST(ServiceProtocol, SubmitRoundTripCarriesEveryQueryField) {
  Submit in;
  in.query.source = QuerySource::kIspd98;
  in.query.circuit = "ibm03";
  in.query.scale = 0.125;
  in.query.tiny_nets = 321;
  in.query.rate = 0.45;
  in.query.bound_v = 0.18;
  in.query.seed = 99;
  in.query.flow = 1;
  in.query.has_bound = true;
  in.query.scenario_bound_v = 0.2;
  in.query.has_margin = true;
  in.query.scenario_margin = 0.07;
  in.query.has_anneal = true;
  in.query.scenario_anneal = true;
  const Submit out = roundtrip(in);
  EXPECT_EQ(out.query.source, in.query.source);
  EXPECT_EQ(out.query.circuit, in.query.circuit);
  EXPECT_EQ(out.query.scale, in.query.scale);
  EXPECT_EQ(out.query.tiny_nets, in.query.tiny_nets);
  EXPECT_EQ(out.query.rate, in.query.rate);
  EXPECT_EQ(out.query.bound_v, in.query.bound_v);
  EXPECT_EQ(out.query.seed, in.query.seed);
  EXPECT_EQ(out.query.flow, in.query.flow);
  EXPECT_EQ(out.query.has_bound, true);
  EXPECT_EQ(out.query.scenario_bound_v, in.query.scenario_bound_v);
  EXPECT_EQ(out.query.has_margin, true);
  EXPECT_EQ(out.query.scenario_margin, in.query.scenario_margin);
  EXPECT_EQ(out.query.has_anneal, true);
  EXPECT_EQ(out.query.scenario_anneal, true);
  EXPECT_EQ(query_coalesce_key(out.query), query_coalesce_key(in.query));
}

// Protocol version bumps (v2 added the quality tier byte, v3 dropped it)
// make older frames kBad at the 12-byte header — an old client is refused
// before any payload parsing, never silently mis-decoded.
TEST(ServiceProtocol, Version1FramesAreRejectedAtTheHeader) {
  ASSERT_EQ(kProtocolVersion, 3u);
  for (const std::uint32_t old : {1u, 2u}) {
    std::vector<std::uint8_t> bytes = encode(Submit{});
    std::memcpy(bytes.data() + 8, &old, sizeof old);  // version follows magic
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
              ParseStatus::kBad)
        << "v" << old;
  }
}

// A v2 Submit payload ends in the quality byte v3 dropped; under a v3
// header it is a trailing byte, so the decode fails instead of ignoring it.
TEST(ServiceProtocol, TrailingV2QualityByteFailsDecode) {
  util::BinaryWriter w;
  tiny_query().encode(w);
  std::vector<std::uint8_t> payload = w.take();
  payload.push_back(0);  // v2 quality: kFast
  const std::vector<std::uint8_t> bytes =
      encode_frame(PduType::kSubmit, std::move(payload));
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kFrame);
  EXPECT_FALSE(decode<Submit>(frame).has_value());
}

TEST(ServiceProtocol, SubmitAckRoundTrip) {
  SubmitAck in;
  in.ticket = 7;
  in.reject = RejectReason::kInflightCap;
  in.coalesced = 1;
  const SubmitAck out = roundtrip(in);
  EXPECT_EQ(out.ticket, 7u);
  EXPECT_EQ(out.reject, RejectReason::kInflightCap);
  EXPECT_EQ(out.coalesced, 1);
}

TEST(ServiceProtocol, PollRoundTrip) {
  Poll in;
  in.ticket = 12;
  in.wait_ms = 1500;
  const Poll out = roundtrip(in);
  EXPECT_EQ(out.ticket, 12u);
  EXPECT_EQ(out.wait_ms, 1500u);
}

TEST(ServiceProtocol, ResultRoundTripWithSummary) {
  Result in;
  in.ticket = 3;
  in.state = JobState::kDone;
  in.summary.flow = 2;
  in.summary.bound_v = 0.15;
  in.summary.route_hash = 0xdeadbeefcafef00dULL;
  in.summary.state_hash = 0x0123456789abcdefULL;
  in.summary.violating = 4;
  in.summary.unfixable = 1;
  in.summary.total_wirelength_um = 123456.5;
  in.summary.avg_wirelength_um = 321.25;
  in.summary.total_shields = 77.0;
  in.summary.route_s = 1.5;
  in.summary.sino_s = 0.25;
  in.summary.refine_s = 0.125;
  in.summary.compute_s = 2.0;
  in.summary.warm = 1;
  const Result out = roundtrip(in);
  EXPECT_EQ(out.state, JobState::kDone);
  EXPECT_EQ(out.summary.route_hash, in.summary.route_hash);
  EXPECT_EQ(out.summary.state_hash, in.summary.state_hash);
  EXPECT_EQ(out.summary.violating, in.summary.violating);
  EXPECT_EQ(out.summary.total_wirelength_um, in.summary.total_wirelength_um);
  EXPECT_EQ(out.summary.warm, 1);
}

TEST(ServiceProtocol, ResultRoundTripFailedCarriesError) {
  Result in;
  in.ticket = 9;
  in.state = JobState::kFailed;
  in.error = "unknown circuit 'ibm99'";
  const Result out = roundtrip(in);
  EXPECT_EQ(out.state, JobState::kFailed);
  EXPECT_EQ(out.error, in.error);
}

TEST(ServiceProtocol, CancelRoundTrip) {
  Cancel in;
  in.ticket = 5;
  EXPECT_EQ(roundtrip(in).ticket, 5u);
}

TEST(ServiceProtocol, CancelAckRoundTrip) {
  CancelAck in;
  in.ticket = 5;
  in.cancelled = 1;
  const CancelAck out = roundtrip(in);
  EXPECT_EQ(out.ticket, 5u);
  EXPECT_EQ(out.cancelled, 1);
}

TEST(ServiceProtocol, StatsAndReplyRoundTrip) {
  roundtrip(Stats{});
  StatsReply in;
  in.metrics.push_back({"service.submits", 0, 12.0});
  in.metrics.push_back({"service.queue_depth", 1, 3.0});
  const StatsReply out = roundtrip(in);
  ASSERT_EQ(out.metrics.size(), 2u);
  EXPECT_EQ(out.metrics[0].name, "service.submits");
  EXPECT_EQ(out.metrics[0].kind, 0);
  EXPECT_EQ(out.metrics[0].value, 12.0);
  EXPECT_EQ(out.metrics[1].name, "service.queue_depth");
  EXPECT_EQ(out.metrics[1].kind, 1);
}

TEST(ServiceProtocol, ErrorRoundTrip) {
  Error in;
  in.code = ErrorCode::kNeedHello;
  in.message = "expected Hello";
  const Error out = roundtrip(in);
  EXPECT_EQ(out.code, ErrorCode::kNeedHello);
  EXPECT_EQ(out.message, in.message);
}

// ------------------------------------------------------ rejection paths

TEST(ServiceProtocol, TruncatedFrameNeedsMore) {
  const std::vector<std::uint8_t> bytes = encode(Cancel{});
  Frame frame;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_EQ(try_parse(bytes.data(), n, &consumed, &frame),
              ParseStatus::kNeedMore)
        << "prefix length " << n;
  }
}

TEST(ServiceProtocol, CorruptionAnywhereIsRejected) {
  Poll poll;
  poll.ticket = 77;
  poll.wait_ms = 5;
  const std::vector<std::uint8_t> good = encode(poll);
  Frame frame;
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x5a;
    const ParseStatus st = try_parse(bad.data(), bad.size(), &consumed, &frame);
    // Header corruption -> kBad (magic/version/type) or kNeedMore (the
    // size field grew); payload or checksum corruption -> the FNV-1a
    // trailer mismatches -> kBad. No single-byte flip may ever deliver.
    EXPECT_NE(st, ParseStatus::kFrame) << "corrupt byte " << i;
  }
}

TEST(ServiceProtocol, VersionMismatchIsRejected) {
  std::vector<std::uint8_t> bytes = encode(Cancel{});
  bytes[8] ^= 0xff;  // the u32 version field follows the 8-byte magic
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kBad);
}

TEST(ServiceProtocol, BadMagicRejectedOnFirstBytes) {
  std::vector<std::uint8_t> bytes = encode(Cancel{});
  bytes[0] = 'X';
  Frame frame;
  std::size_t consumed = 0;
  // One wrong byte suffices — no need to buffer a whole frame of garbage.
  EXPECT_EQ(try_parse(bytes.data(), 1, &consumed, &frame), ParseStatus::kBad);
}

TEST(ServiceProtocol, OversizedPayloadRejected) {
  std::vector<std::uint8_t> bytes = encode(Cancel{});
  // Overwrite the u64 payload-size field (offset 16) with cap + 1.
  const std::uint64_t huge = kMaxPayloadBytes + 1;
  std::memcpy(bytes.data() + 16, &huge, sizeof huge);
  Frame frame;
  std::size_t consumed = 0;
  EXPECT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kBad);
}

TEST(ServiceProtocol, WrongTypeDecodeFails) {
  const std::vector<std::uint8_t> bytes = encode(Cancel{});
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kFrame);
  EXPECT_FALSE(decode<Poll>(frame).has_value());
  EXPECT_FALSE(decode<Hello>(frame).has_value());
  EXPECT_TRUE(decode<Cancel>(frame).has_value());
}

TEST(ServiceProtocol, TrailingPayloadBytesRejected) {
  // A well-framed payload with junk after the PDU must not decode: the
  // at_end() check catches length-confusion attacks.
  util::BinaryWriter w;
  Cancel{}.encode_payload(w);
  std::vector<std::uint8_t> payload = w.take();
  payload.push_back(0xAB);
  const std::vector<std::uint8_t> bytes =
      encode_frame(PduType::kCancel, std::move(payload));
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(try_parse(bytes.data(), bytes.size(), &consumed, &frame),
            ParseStatus::kFrame);
  EXPECT_FALSE(decode<Cancel>(frame).has_value());
}

// ------------------------------------------------------------ query keys

TEST(ServiceProtocol, SessionKeyIgnoresFlowAndScenario) {
  WhatIfQuery a = tiny_query();
  WhatIfQuery b = a;
  b.flow = 0;
  b.has_bound = true;
  b.scenario_bound_v = 0.3;
  EXPECT_EQ(query_session_key(a), query_session_key(b));
  EXPECT_NE(query_coalesce_key(a), query_coalesce_key(b));

  WhatIfQuery c = a;
  c.seed = 8;  // different problem -> different session
  EXPECT_NE(query_session_key(a), query_session_key(c));
}

TEST(ServiceProtocol, CoalesceKeyMatchesIdenticalQueries) {
  EXPECT_EQ(query_coalesce_key(tiny_query()), query_coalesce_key(tiny_query()));
}

// -------------------------------------------------------- daemon e2e

TEST(ServiceServer, HelloGateAndMalformedBytes) {
  ServerOptions so;
  so.socket_path = test_socket_path("gate");
  Server server(std::move(so));
  ASSERT_TRUE(server.start());

  {  // a PDU before Hello is refused with kNeedHello
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.socket_path().c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    ASSERT_TRUE(send_frame(fd, encode(Cancel{})));
    FrameReader reader(fd);
    Frame frame;
    ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
    const std::optional<Error> err = decode<Error>(frame);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::kNeedHello);
    ::close(fd);
  }

  {  // raw garbage bytes earn kMalformed and a close
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server.socket_path().c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(::send(fd, junk, sizeof junk - 1, 0) > 0);
    FrameReader reader(fd);
    Frame frame;
    ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
    const std::optional<Error> err = decode<Error>(frame);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::kMalformed);
    ::close(fd);
  }

  server.stop();
  EXPECT_GE(server.stats().malformed_frames, 1u);
}

TEST(ServiceServer, RejectsBadQueryAndUnknownCircuit) {
  ServerOptions so;
  so.socket_path = test_socket_path("badq");
  so.workers = 1;
  Server server(std::move(so));
  ASSERT_TRUE(server.start());

  Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));

  WhatIfQuery bad = tiny_query();
  bad.rate = 2.0;  // out of range -> admission-time reject
  SubmitAck ack;
  ASSERT_TRUE(client.submit(bad, &ack));
  EXPECT_EQ(ack.reject, RejectReason::kBadQuery);
  EXPECT_EQ(ack.ticket, 0u);

  // Non-finite doubles and scales past the published size are rejected at
  // admission too, before any suite casts count * scale to an integer.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<WhatIfQuery> bad_doubles;
  for (const double v : {inf, nan}) {
    WhatIfQuery q = tiny_query();
    q.scale = v;
    bad_doubles.push_back(q);
    q = tiny_query();
    q.rate = v;
    bad_doubles.push_back(q);
    q = tiny_query();
    q.bound_v = v;
    bad_doubles.push_back(q);
    q = tiny_query();
    q.has_bound = true;
    q.scenario_bound_v = v;
    bad_doubles.push_back(q);
    q = tiny_query();
    q.has_margin = true;
    q.scenario_margin = v;
    bad_doubles.push_back(q);
  }
  for (const double s : {1.0000001, 1e6}) {
    WhatIfQuery q = tiny_query();
    q.scale = s;
    bad_doubles.push_back(q);
  }
  for (const WhatIfQuery& q : bad_doubles) {
    ASSERT_TRUE(client.submit(q, &ack));
    EXPECT_EQ(ack.reject, RejectReason::kBadQuery);
    EXPECT_EQ(ack.ticket, 0u);
  }

  WhatIfQuery unknown;
  unknown.source = QuerySource::kSynthetic;
  unknown.circuit = "ibm99";  // validates, but assembly fails -> kFailed
  unknown.flow = 2;
  ASSERT_TRUE(client.submit(unknown, &ack));
  EXPECT_EQ(ack.reject, RejectReason::kNone);
  Result res;
  ASSERT_TRUE(client.wait(ack.ticket, &res));
  EXPECT_EQ(res.state, JobState::kFailed);
  EXPECT_NE(res.error.find("ibm99"), std::string::npos);

  Result missing;
  ASSERT_TRUE(client.poll(9999, 0, &missing));
  EXPECT_EQ(missing.state, JobState::kFailed);

  server.stop();
  EXPECT_EQ(server.stats().rejected_bad_query, 1u + bad_doubles.size());
  EXPECT_EQ(server.stats().jobs_failed, 1u);
}

TEST(ServiceServer, CoalescesAndMatchesDirectRun) {
  ServerOptions so;
  so.socket_path = test_socket_path("coal");
  so.workers = 1;  // serialize compute so the target jobs stay queued
  Server server(std::move(so));
  ASSERT_TRUE(server.start());

  // A blocker on the same session occupies the lone worker while the two
  // identical target submits land, so the second MUST coalesce.
  WhatIfQuery blocker = tiny_query();
  blocker.has_bound = true;
  blocker.scenario_bound_v = 0.25;
  const WhatIfQuery target = tiny_query();

  Client a, b;
  ASSERT_TRUE(a.connect(server.socket_path()));
  ASSERT_TRUE(b.connect(server.socket_path()));

  SubmitAck blocker_ack, ack_a, ack_b;
  ASSERT_TRUE(a.submit(blocker, &blocker_ack));
  ASSERT_EQ(blocker_ack.reject, RejectReason::kNone);
  ASSERT_TRUE(a.submit(target, &ack_a));
  ASSERT_TRUE(b.submit(target, &ack_b));
  ASSERT_EQ(ack_a.reject, RejectReason::kNone);
  ASSERT_EQ(ack_b.reject, RejectReason::kNone);
  EXPECT_EQ(ack_a.ticket, ack_b.ticket) << "identical submits share a job";
  EXPECT_EQ(ack_a.coalesced, 0);
  EXPECT_EQ(ack_b.coalesced, 1);

  Result res_a, res_b, res_blocker;
  ASSERT_TRUE(a.wait(blocker_ack.ticket, &res_blocker));
  ASSERT_TRUE(a.wait(ack_a.ticket, &res_a));
  ASSERT_TRUE(b.wait(ack_b.ticket, &res_b));
  ASSERT_EQ(res_blocker.state, JobState::kDone);
  ASSERT_EQ(res_a.state, JobState::kDone);
  ASSERT_EQ(res_b.state, JobState::kDone);

  // Both clients see the identical summary (it is the same job).
  EXPECT_EQ(res_a.summary.route_hash, res_b.summary.route_hash);
  EXPECT_EQ(res_a.summary.state_hash, res_b.summary.state_hash);
  EXPECT_EQ(res_a.summary.violating, res_b.summary.violating);
  EXPECT_EQ(res_a.summary.total_shields, res_b.summary.total_shields);

  // Bit-identity against a direct in-process run of the same query.
  std::string why;
  const auto problem = assemble_problem(target, /*job_threads=*/0, &why);
  ASSERT_NE(problem, nullptr) << why;
  gsino::FlowSession direct(*problem);
  const gsino::FlowResult fr = direct.run(
      static_cast<gsino::FlowKind>(target.flow), scenario_of(target));
  EXPECT_EQ(res_a.summary.route_hash, router::route_hash(fr.routing()));
  EXPECT_EQ(res_a.summary.state_hash, gsino::state_fingerprint(fr));
  EXPECT_EQ(res_a.summary.violating, fr.violating);
  EXPECT_EQ(res_a.summary.unfixable, fr.unfixable);
  EXPECT_EQ(res_a.summary.total_wirelength_um, fr.total_wirelength_um);
  EXPECT_EQ(res_a.summary.total_shields, fr.total_shields);

  // The shared session means the target compute warm-started: Phase I ran
  // once (for the blocker) and never again.
  const obs::MetricsSnapshot snap = server.metrics();
  EXPECT_EQ(snap.value_of("service.coalesce_hits"), 1.0);
  EXPECT_EQ(snap.value_of("service.jobs_executed"), 2.0);
  EXPECT_EQ(snap.value_of("session.route_executed"), 1.0);
  EXPECT_EQ(res_a.summary.warm, 1);

  // Stats over the wire agree with the in-process snapshot.
  StatsReply reply;
  ASSERT_TRUE(a.stats(&reply));
  bool found = false;
  for (const StatsReply::Metric& m : reply.metrics) {
    if (m.name == "service.coalesce_hits") {
      found = true;
      EXPECT_EQ(m.value, 1.0);
    }
  }
  EXPECT_TRUE(found);
  server.stop();
}

TEST(ServiceServer, AdmissionControlAndCancel) {
  ServerOptions so;
  so.socket_path = test_socket_path("admit");
  so.workers = 1;
  so.max_queue = 2;
  so.max_inflight_per_client = 2;
  Server server(std::move(so));
  ASSERT_TRUE(server.start());

  Client a, b;
  ASSERT_TRUE(a.connect(server.socket_path()));
  ASSERT_TRUE(b.connect(server.socket_path()));

  // Client a fills its in-flight cap (distinct bounds -> no coalescing).
  std::vector<SubmitAck> acks;
  for (int i = 0; i < 2; ++i) {
    WhatIfQuery q = tiny_query();
    q.has_bound = true;
    q.scenario_bound_v = 0.2 + 0.05 * i;
    SubmitAck ack;
    ASSERT_TRUE(a.submit(q, &ack));
    ASSERT_EQ(ack.reject, RejectReason::kNone) << "submit " << i;
    acks.push_back(ack);
  }
  {
    WhatIfQuery q = tiny_query();
    q.has_bound = true;
    q.scenario_bound_v = 0.4;
    SubmitAck ack;
    ASSERT_TRUE(a.submit(q, &ack));
    EXPECT_EQ(ack.reject, RejectReason::kInflightCap);
  }

  // Client b sees the queue-full bound once 2 jobs are pending. At most
  // one of a's jobs is running, so at least one is queued; one more from b
  // can make the queue full depending on timing — submit until rejected
  // or accepted twice, both outcomes are legal; what must never happen is
  // an unbounded accept. (Deterministic queue-full is covered below via
  // cancel bookkeeping.)
  int accepted_b = 0;
  RejectReason last = RejectReason::kNone;
  for (int i = 0; i < 4 && last == RejectReason::kNone; ++i) {
    WhatIfQuery q = tiny_query();
    q.has_bound = true;
    q.scenario_bound_v = 0.5 + 0.05 * i;
    SubmitAck ack;
    ASSERT_TRUE(b.submit(q, &ack));
    last = ack.reject;
    if (ack.reject == RejectReason::kNone) ++accepted_b;
  }
  EXPECT_TRUE(last == RejectReason::kQueueFull ||
              last == RejectReason::kInflightCap);

  // Cancel whichever of a's jobs is still queued (the second one: the
  // lone worker can only have started the first).
  CancelAck cancel_ack;
  ASSERT_TRUE(a.cancel(acks[1].ticket, &cancel_ack));
  EXPECT_EQ(cancel_ack.cancelled, 1);
  Result res;
  ASSERT_TRUE(a.poll(acks[1].ticket, 0, &res));
  EXPECT_EQ(res.state, JobState::kCancelled);

  // Cancelling a terminal or unknown ticket is a no-op.
  ASSERT_TRUE(a.wait(acks[0].ticket, &res));
  ASSERT_TRUE(a.cancel(acks[0].ticket, &cancel_ack));
  EXPECT_EQ(cancel_ack.cancelled, 0);
  ASSERT_TRUE(a.cancel(424242, &cancel_ack));
  EXPECT_EQ(cancel_ack.cancelled, 0);

  server.stop();
  const ServiceStats stats = server.stats();
  // a's over-cap submit plus b's terminating rejection.
  EXPECT_EQ(stats.rejected_inflight_cap + stats.rejected_queue_full, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(ServiceServer, ConcurrentClientsStress) {
  ServerOptions so;
  so.socket_path = test_socket_path("stress");
  so.workers = 2;
  so.max_sessions = 2;
  Server server(std::move(so));
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(server.running());

  constexpr int kClients = 4;
  constexpr int kRequests = 3;
  std::atomic<int> done{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.connect(server.socket_path())) {
        failures.fetch_add(kRequests);
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        WhatIfQuery q = tiny_query(/*seed=*/7 + (c % 2));  // 2 sessions
        q.has_bound = i > 0;
        q.scenario_bound_v = 0.15 + 0.03 * (c * kRequests + i);
        SubmitAck ack;
        Result res;
        if (client.submit(q, &ack) && ack.reject == RejectReason::kNone &&
            client.wait(ack.ticket, &res) && res.state == JobState::kDone) {
          done.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(done.load(), kClients * kRequests);

  const obs::MetricsSnapshot snap = server.metrics();
  EXPECT_GE(snap.value_of("service.jobs_executed"), 1.0);
  EXPECT_EQ(snap.value_of("service.jobs_failed"), 0.0);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServiceServer, PreloadMakesFirstQueryWarmAcrossEviction) {
  ServerOptions so;
  so.socket_path = test_socket_path("preload");
  so.workers = 1;
  so.max_sessions = 1;
  Server server(std::move(so));
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(server.preload(tiny_query(7)));

  Client client;
  ASSERT_TRUE(client.connect(server.socket_path()));

  // Landing on the preloaded session is a warm hit in the LRU sense
  // (session_warm_hits counts map hits, not compute reuse — the first
  // compute on a preloaded session still routes).
  SubmitAck ack;
  Result res;
  ASSERT_TRUE(client.submit(tiny_query(7), &ack));
  ASSERT_EQ(ack.reject, RejectReason::kNone);
  ASSERT_TRUE(client.wait(ack.ticket, &res));
  ASSERT_EQ(res.state, JobState::kDone);
  EXPECT_EQ(server.stats().session_warm_hits, 1u);

  // A different recipe evicts it (capacity 1)...
  ASSERT_TRUE(client.submit(tiny_query(8), &ack));
  ASSERT_EQ(ack.reject, RejectReason::kNone);
  ASSERT_TRUE(client.wait(ack.ticket, &res));
  ASSERT_EQ(res.state, JobState::kDone);
  EXPECT_GE(server.stats().sessions_evicted, 1u);

  // ...and the original recipe cold-starts a fresh session.
  ASSERT_TRUE(client.submit(tiny_query(7), &ack));
  ASSERT_TRUE(client.wait(ack.ticket, &res));
  ASSERT_EQ(res.state, JobState::kDone);
  EXPECT_GE(server.stats().sessions_created, 3u);
  server.stop();
}

}  // namespace
}  // namespace rlcr::service
