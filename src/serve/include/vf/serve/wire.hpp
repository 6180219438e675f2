#pragma once
// Wire protocols for `vfctl serve`: line-delimited JSON (ndjson) and the
// compact VFW1 binary framing, negotiated per connection (see below).
//
// One request per line, one response line per request:
//   -> {"id": 7, "key": "t0", "points": [[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]],
//       "deadline_ms": 250}
//   <- {"id": 7, "status": "ok", "code": 0, "values": [1.25, 0.98],
//       "degraded": 0, "batch": 128}
//   -> {"id": 8, "cmd": "stats"}
//   <- {"id": 8, "status": "ok", "code": 0, "stats": {...}}
//
// Error taxonomy (DESIGN.md §12): every response carries a `status` string
// and its stable machine-readable `code` int (the vf::serve::Status
// enumerator value — append-only, never renumbered):
//
//   status              code  meaning
//   ok                     0  served (inspect degraded/fallback for quality)
//   bad_request            1  malformed line or unserviceable request
//   overloaded             2  shed by admission control; retry with backoff
//   deadline_exceeded      3  expired before a worker could compute it
//   draining               4  server is shutting down; stop sending
//   internal               5  unexpected server-side failure
//
// `deadline_ms` is a per-request relative deadline (0/absent = the server
// default from --deadline-ms). The `health` and `ready` cmds report
// liveness and serving readiness (queue depth, registry residency, and
// per-model circuit-breaker state).
//
// The codec is a deliberately minimal hand-rolled parser for exactly this
// request shape (objects, arrays, numbers, strings — no external JSON
// dependency), shared by the stdin loop, the TCP handler, and the tests.
//
// VFW1 binary framing (DESIGN.md §13): small point queries are dominated
// by JSON parse/serialize cost, so the binary codec frames the same
// request/response shapes as length-prefixed, CRC-checked packets in the
// VFB2 idiom — float payloads travel as raw little-endian doubles moved
// with one bulk memcpy instead of being formatted and re-parsed per value.
//
//   offset  size  field
//   0       4     magic "VFW1"
//   4       4     u32 payload length (bounded by kBinaryMaxPayload)
//   8       n     payload (request or response record, layouts below)
//   8+n     4     u32 CRC-32 of the payload
//
// A connection's codec is sniffed from its first bytes (sniff_codec): a
// "VFW1" prefix selects binary, anything else falls back to ndjson, so
// mixed-codec clients can share one listener with zero configuration.
// Framing violations (bad magic, oversize length, CRC mismatch) are
// connection-fatal (`FrameStatus::Corrupt`); a well-framed but
// semantically invalid request is `FrameStatus::Bad` and answered
// bad_request like its ndjson twin, keeping the connection alive.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "vf/field/scalar_field.hpp"
#include "vf/serve/queue.hpp"
#include "vf/serve/options.hpp"
#include "vf/serve/registry.hpp"

namespace vf::serve::wire {

struct Request {
  std::int64_t id = 0;
  std::string key;  ///< session key; empty = the server's default session
  std::string cmd;  ///< "" (point query), "stats", "health", "ready", "shutdown"
  std::vector<vf::field::Vec3> points;
  /// Relative deadline in milliseconds; 0 = use the server default.
  double deadline_ms = 0;
};

/// Stable wire spelling of a Status ("ok", "deadline_exceeded", ...).
[[nodiscard]] const char* status_name(Status s);
/// Stable wire code int (the enumerator value).
[[nodiscard]] int status_code(Status s);
/// Inverse of status_name. Returns false for unknown spellings.
bool status_from_name(const std::string& name, Status& out);

/// Parse one protocol line. On failure returns false and fills `error`
/// (out may be partially filled; its id is kept when it parsed early
/// enough, so the bad_request response can still be correlated).
bool parse_request(const std::string& line, Request& out, std::string& error);

/// What the `ready` verb reports; filled by the server front-end so the
/// codec stays unit-testable without a live serving tier.
struct ReadyInfo {
  bool draining = false;
  std::size_t queue_depth = 0;
  std::size_t queue_max = 0;
  std::size_t resident_models = 0;
  std::size_t open_breakers = 0;
  /// Per-model breaker state, from ModelRegistry::breaker_states().
  std::vector<std::pair<std::string, BreakerSnapshot>> breakers;
  /// In-situ pipeline status (vfctl pipeline fills these; a plain serve
  /// front-end leaves has_pipeline false and the fields are omitted).
  bool has_pipeline = false;
  std::uint64_t pipeline_generation = 0;
  double pipeline_last_snr_db = 0.0;
};

/// Response lines (no trailing newline).
[[nodiscard]] std::string query_response(std::int64_t id,
                                         const PointResponse& resp);
[[nodiscard]] std::string stats_response(std::int64_t id,
                                         const ServiceStats& stats);
/// Bare terminal status (every non-ok answer; ok with a message is the
/// `health` liveness reply).
[[nodiscard]] std::string status_response(std::int64_t id, Status status,
                                          const std::string& message = "");
/// `ready` reply: ready = not draining (an open breaker keeps the server
/// ready — it serves classically — but is reported as "degraded": true
/// plus the per-model breaker list so operators can see why).
[[nodiscard]] std::string ready_response(std::int64_t id,
                                         const ReadyInfo& info);

// ---------------------------------------------------------------------------
// VFW1 binary codec (frame layout in the module comment).

inline constexpr char kBinaryMagic[4] = {'V', 'F', 'W', '1'};
/// Upper bound on one frame's payload; a corrupt length field is rejected
/// before any allocation (the ByteReader discipline from atomic_io).
inline constexpr std::size_t kBinaryMaxPayload = std::size_t{1} << 26;

/// Request verbs on the binary wire — the u8 twin of Request::cmd.
/// Append-only like Status; never renumber.
enum class Verb : std::uint8_t {
  Query = 0,
  Stats = 1,
  Health = 2,
  Ready = 3,
  Shutdown = 4,
};

/// Request::cmd spelling of a Verb ("" for Query).
[[nodiscard]] const char* verb_cmd(Verb v);
/// Inverse of verb_cmd. False for unknown spellings.
bool verb_from_cmd(const std::string& cmd, Verb& out);

/// Codec-neutral outcome of one request: the server front-end produces
/// one of these and the connection's codec renders it (render_json or
/// encode_response_frame), so handler logic is written once.
struct Response {
  std::int64_t id = 0;
  Verb verb = Verb::Query;
  Status status = Status::Ok;
  std::vector<double> values;           ///< query results (Ok queries only)
  std::uint32_t degraded = 0;
  std::uint32_t batch_points = 0;
  bool fallback_classical = false;
  std::string message;    ///< error / health text
  std::string json_body;  ///< prerendered stats/ready line (both codecs)
};

/// Lift a served PointResponse into the codec-neutral form.
[[nodiscard]] Response make_query_response(std::int64_t id,
                                           const PointResponse& resp);
/// Bare terminal status (the shape of every non-ok answer).
[[nodiscard]] Response make_status_response(std::int64_t id, Verb verb,
                                            Status status,
                                            const std::string& message = "");

/// Render as the ndjson response line (no trailing newline). Stats/ready
/// responses pass json_body through verbatim.
[[nodiscard]] std::string render_json(const Response& resp);

enum class CodecKind : std::uint8_t {
  Unknown,  ///< head is still a proper prefix of the magic; read more
  Ndjson,
  Binary,
};

/// Negotiate a connection's codec from its first bytes: "VFW1" selects
/// binary, any diverging byte decides ndjson, a short matching prefix
/// stays Unknown until more bytes arrive.
[[nodiscard]] CodecKind sniff_codec(std::string_view head);

enum class FrameStatus : std::uint8_t {
  Ok,        ///< one frame decoded; `consumed` bytes were used
  NeedMore,  ///< buffer holds a partial frame; read more and retry
  Bad,       ///< well-framed but invalid request: answer bad_request
  Corrupt,   ///< framing/CRC violation: drop the connection
};

/// Encode one request as a VFW1 frame. Throws std::invalid_argument for a
/// cmd with no Verb mapping.
[[nodiscard]] std::string encode_request_frame(const Request& req);

/// Decode one request frame from the head of `buf`. On Ok sets `consumed`
/// to the frame size (erase that many bytes); on Bad the frame is also
/// consumed, `error` explains, and out.id is preserved for correlation.
/// NeedMore/Corrupt consume nothing.
FrameStatus decode_request_frame(std::string_view buf, std::size_t& consumed,
                                 Request& out, std::string& error);

/// Encode one response as a VFW1 frame.
[[nodiscard]] std::string encode_response_frame(const Response& resp);

/// Decode one response frame (client side + round-trip tests). Same
/// contract as decode_request_frame, minus the Bad state.
FrameStatus decode_response_frame(std::string_view buf, std::size_t& consumed,
                                  Response& out, std::string& error);

}  // namespace vf::serve::wire
