// Wire protocol of the what-if daemon (service/server.h): typed PDUs over
// a versioned, length-prefixed binary frame on a Unix-domain socket.
//
// The frame reuses the artifact-store conventions (store/serial.h) —
// little-endian throughout, magic + format version + type + payload size
// header, FNV-1a payload checksum trailer — with its own magic and version
// so a service stream can never be confused with an artifact record:
//
//   offset  size  field
//   0       8     magic "RLCRSVC\0"
//   8       4     protocol version (kProtocolVersion)
//   12      4     PDU type (PduType)
//   16      8     payload size in bytes
//   24      n     payload (per-PDU layout; BinaryWriter primitives)
//   24+n    8     FNV-1a-64 checksum of the payload bytes
//
// Rejection discipline mirrors store/serial.cpp: decode returns nullopt on
// ANY validation failure — bad magic, version or type mismatch, size or
// checksum mismatch, short/overlong payload, out-of-range enum — and the
// server drops the connection rather than guessing. try_parse() is
// incremental so a reader can accumulate bytes from the socket and peel
// complete frames off the front; it distinguishes "need more bytes" from
// "this stream is garbage" so a malformed prefix never blocks forever.
//
// Conversation shape (client drives, server replies 1:1):
//   Hello -> HelloAck          handshake, assigns the client id
//   Submit -> SubmitAck        enqueue a what-if query (or a rejection)
//   Poll -> Result             job state; optional bounded blocking wait
//   Cancel -> CancelAck        best-effort dequeue of a queued job
//   Stats -> StatsReply        server metrics pull (service.* + session.*)
//   (anything invalid) -> Error, then the server closes the connection
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/binio.h"

namespace rlcr::service {

/// v2: WhatIfQuery gained the `quality` tier byte (steiner::TreeProfile).
/// v3: the Steiner quality tiers were removed, so WhatIfQuery drops the
/// `quality` byte again.
/// The version travels in every frame header and try_parse rejects a
/// mismatch as soon as the 12 header bytes exist, so a v1 or v2 peer gets
/// a clean kBad instead of a misdecoded query (pinned by service_test).
inline constexpr std::uint32_t kProtocolVersion = 3;
/// Frames advertising a payload larger than this are rejected outright —
/// every legal PDU is tiny; a huge size prefix is corruption or abuse.
inline constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 20;
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 4 + 8;
inline constexpr std::size_t kFrameChecksumBytes = 8;

enum class PduType : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kSubmit = 3,
  kSubmitAck = 4,
  kPoll = 5,
  kResult = 6,
  kCancel = 7,
  kCancelAck = 8,
  kStats = 9,
  kStatsReply = 10,
  kError = 11,
};

// ------------------------------------------------------------ the query

/// How a query names its routing problem. The service deliberately ships
/// problem *recipes*, not problem data: both ends assemble the identical
/// RoutingProblem from the same deterministic generators, so a query is a
/// few dozen bytes and the session key is a pure function of the recipe.
enum class QuerySource : std::uint8_t {
  kSynthetic = 0,  ///< calibrated stand-in from netlist::ibm_suite(scale)
  kIspd98 = 1,     ///< ISPD98 class (real circuit when RLCR_ISPD98_DIR)
  kTiny = 2,       ///< netlist::tiny_spec unit-test fixture
};

/// One what-if request: a problem recipe plus the flow to run and the
/// Scenario overrides to apply. Field-for-field this is the wire image of
/// what route_cli assembles from its flags (service/server.cpp
/// assemble_problem is the shared interpretation).
struct WhatIfQuery {
  QuerySource source = QuerySource::kSynthetic;
  std::string circuit = "ibm01";  ///< class name; ignored for kTiny
  double scale = 0.25;
  std::uint64_t tiny_nets = 200;  ///< kTiny only: net count
  double rate = 0.30;             ///< sensitivity rate
  double bound_v = 0.15;          ///< base crosstalk bound (params)
  std::uint64_t seed = 1;
  std::uint8_t flow = 2;  ///< gsino::FlowKind as u8 (0 idno, 1 isino, 2 gsino)

  // Scenario overrides (each optional<...> flattened to a flag + value).
  bool has_bound = false;
  double scenario_bound_v = 0.15;
  bool has_margin = false;
  double scenario_margin = 1.0;
  bool has_anneal = false;
  bool scenario_anneal = false;

  void encode(util::BinaryWriter& w) const;
  bool decode(util::BinaryReader& r);
};

/// Identity of the problem a query assembles — the session-LRU key. Flow
/// and scenario excluded: every what-if over one problem shares one
/// FlowSession (that sharing is the whole point of the daemon).
std::uint64_t query_session_key(const WhatIfQuery& q);

/// Identity of the full question — the request-coalescing key: two
/// submits with equal coalesce keys are the same computation and share one
/// ticket.
std::uint64_t query_coalesce_key(const WhatIfQuery& q);

// ------------------------------------------------------------- the PDUs

struct Hello {
  static constexpr PduType kType = PduType::kHello;
  std::uint32_t protocol_version = kProtocolVersion;
  std::string client_name;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct HelloAck {
  static constexpr PduType kType = PduType::kHelloAck;
  std::uint64_t client_id = 0;
  std::uint32_t protocol_version = kProtocolVersion;
  std::string server_name;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct Submit {
  static constexpr PduType kType = PduType::kSubmit;
  WhatIfQuery query;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

enum class RejectReason : std::uint8_t {
  kNone = 0,
  kQueueFull = 1,     ///< bounded pending queue at capacity
  kInflightCap = 2,   ///< this client's unfinished-job cap reached
  kBadQuery = 3,      ///< query failed validation (range/enum checks)
  kShuttingDown = 4,
};

struct SubmitAck {
  static constexpr PduType kType = PduType::kSubmitAck;
  std::uint64_t ticket = 0;  ///< 0 iff rejected
  RejectReason reject = RejectReason::kNone;
  std::uint8_t coalesced = 0;  ///< attached to an already-live computation

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct Poll {
  static constexpr PduType kType = PduType::kPoll;
  std::uint64_t ticket = 0;
  /// Bounded blocking: the server holds the reply up to this long waiting
  /// for the job to reach a terminal state (0 = answer immediately).
  std::uint32_t wait_ms = 0;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

/// The answer to a what-if: the flow's identity hashes plus the summary
/// scalars route_cli prints. Hashes are the bit-identity oracle — a
/// service answer must carry exactly the route_hash/state_fingerprint a
/// direct in-process FlowSession run produces.
struct FlowSummary {
  std::uint8_t flow = 2;
  double bound_v = 0.0;
  std::uint64_t route_hash = 0;   ///< router::route_hash(fr.routing())
  std::uint64_t state_hash = 0;   ///< gsino::state_fingerprint(fr)
  std::uint64_t violating = 0;
  std::uint64_t unfixable = 0;
  double total_wirelength_um = 0.0;
  double avg_wirelength_um = 0.0;
  double total_shields = 0.0;
  double route_s = 0.0;
  double sino_s = 0.0;
  double refine_s = 0.0;
  double compute_s = 0.0;  ///< server-side wall clock for this job
  std::uint8_t warm = 0;   ///< Phase I reused (session cache or store)

  void encode(util::BinaryWriter& w) const;
  bool decode(util::BinaryReader& r);
};

struct Result {
  static constexpr PduType kType = PduType::kResult;
  std::uint64_t ticket = 0;
  JobState state = JobState::kQueued;
  /// Valid iff state == kDone.
  FlowSummary summary;
  /// Human-readable failure reason iff state == kFailed; also carries
  /// "unknown ticket" when the ticket was never issued (state kFailed).
  std::string error;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct Cancel {
  static constexpr PduType kType = PduType::kCancel;
  std::uint64_t ticket = 0;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct CancelAck {
  static constexpr PduType kType = PduType::kCancelAck;
  std::uint64_t ticket = 0;
  std::uint8_t cancelled = 0;  ///< false when already running or terminal

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct Stats {
  static constexpr PduType kType = PduType::kStats;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

struct StatsReply {
  static constexpr PduType kType = PduType::kStatsReply;
  struct Metric {
    std::string name;
    std::uint8_t kind = 0;  ///< 0 counter, 1 gauge (obs::MetricKind order)
    double value = 0.0;
  };
  std::vector<Metric> metrics;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

enum class ErrorCode : std::uint32_t {
  kMalformed = 1,    ///< frame failed validation; connection closes
  kNeedHello = 2,    ///< first PDU was not Hello
  kUnsupported = 3,  ///< valid frame, but no handler for the type
  kInternal = 4,
};

struct Error {
  static constexpr PduType kType = PduType::kError;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  void encode_payload(util::BinaryWriter& w) const;
  bool decode_payload(util::BinaryReader& r);
};

// ------------------------------------------------------------- framing

struct Frame {
  PduType type = PduType::kError;
  std::vector<std::uint8_t> payload;
};

/// Wraps a payload in the magic/version/type/size header and checksum
/// trailer described in the file comment.
std::vector<std::uint8_t> encode_frame(PduType type,
                                       std::vector<std::uint8_t> payload);

/// Encodes one typed PDU into a complete frame.
template <typename Pdu>
std::vector<std::uint8_t> encode(const Pdu& pdu) {
  util::BinaryWriter w;
  pdu.encode_payload(w);
  return encode_frame(Pdu::kType, w.take());
}

enum class ParseStatus {
  kNeedMore,  ///< prefix is a valid partial frame; read more bytes
  kFrame,     ///< one complete, checksum-valid frame peeled into `out`
  kBad,       ///< the prefix can never become a valid frame
};

/// Incremental frame parser over a byte stream. On kFrame, `*consumed`
/// bytes (header + payload + checksum) have been used and `out` holds the
/// validated type + payload; on kNeedMore/kBad, *consumed is 0.
ParseStatus try_parse(const std::uint8_t* data, std::size_t size,
                      std::size_t* consumed, Frame* out);

/// Decodes a validated frame into the typed PDU; nullopt on type mismatch
/// or any payload-level validation failure (short, overlong, bad enum).
template <typename Pdu>
std::optional<Pdu> decode(const Frame& frame) {
  if (frame.type != Pdu::kType) return std::nullopt;
  util::BinaryReader r(frame.payload.data(), frame.payload.size());
  Pdu pdu;
  if (!pdu.decode_payload(r) || !r.at_end()) return std::nullopt;
  return pdu;
}

// --------------------------------------------- blocking socket helpers
//
// Shared by server connections and the client: frames are written with a
// full-write loop (EINTR-safe, SIGPIPE suppressed) and read through a
// small buffered reader that peels frames off the stream with try_parse.

bool send_frame(int fd, const std::vector<std::uint8_t>& bytes);

class FrameReader {
 public:
  enum class Status { kFrame, kClosed, kBad, kError };

  explicit FrameReader(int fd) : fd_(fd) {}

  /// Blocks until one complete frame arrives (kFrame), the peer closes
  /// cleanly between frames (kClosed), the stream turns malformed (kBad),
  /// or the socket errors (kError).
  Status next(Frame* out);

 private:
  int fd_;
  std::vector<std::uint8_t> buf_;
};

}  // namespace rlcr::service
