#include "vf/serve/wire.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "vf/util/atomic_io.hpp"

namespace vf::serve::wire {

namespace {

/// Cursor over one request line. All helpers return false on malformed
/// input and leave a message in err.
struct Cursor {
  const char* p;
  const char* end;
  std::string err;

  void skip_ws() {
    while (p != end && std::isspace(static_cast<unsigned char>(*p)) != 0) ++p;
  }

  bool fail(const std::string& what) {
    if (err.empty()) err = what;
    return false;
  }

  bool expect(char c) {
    skip_ws();
    if (p == end || *p != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++p;
    return true;
  }

  bool peek_is(char c) {
    skip_ws();
    return p != end && *p == c;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (p == end || *p != '"') return fail("expected string");
    ++p;
    out.clear();
    while (p != end && *p != '"') {
      char c = *p++;
      if (c == '\\') {
        if (p == end) return fail("bad escape");
        const char esc = *p++;
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          default: return fail("unsupported escape");
        }
      }
      out += c;
    }
    if (p == end) return fail("unterminated string");
    ++p;
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    char* after = nullptr;
    out = std::strtod(p, &after);
    if (after == p) return fail("expected number");
    p = after;
    return true;
  }

  /// Skip any JSON value (for unknown keys).
  bool skip_value() {
    skip_ws();
    if (p == end) return fail("truncated value");
    const char c = *p;
    if (c == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++p;
      skip_ws();
      if (peek_is(close)) {
        ++p;
        return true;
      }
      while (true) {
        if (c == '{') {
          std::string ignored;
          if (!parse_string(ignored) || !expect(':')) return false;
        }
        if (!skip_value()) return false;
        skip_ws();
        if (peek_is(',')) {
          ++p;
          continue;
        }
        return expect(close);
      }
    }
    // number / true / false / null
    const char* start = p;
    while (p != end && (std::isalnum(static_cast<unsigned char>(*p)) != 0 ||
                        *p == '-' || *p == '+' || *p == '.')) {
      ++p;
    }
    if (p == start) return fail("unexpected token");
    return true;
  }

  bool parse_points(std::vector<vf::field::Vec3>& out) {
    if (!expect('[')) return false;
    out.clear();
    if (peek_is(']')) {
      ++p;
      return true;
    }
    while (true) {
      if (!expect('[')) return false;
      double xyz[3] = {0, 0, 0};
      for (int i = 0; i < 3; ++i) {
        if (!parse_number(xyz[i])) return fail("point needs 3 numbers");
        if (i < 2 && !expect(',')) return fail("point needs 3 numbers");
      }
      if (!expect(']')) return fail("point needs exactly 3 numbers");
      out.push_back({xyz[0], xyz[1], xyz[2]});
      if (peek_is(',')) {
        ++p;
        continue;
      }
      return expect(']');
    }
  }
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// `"id": N, "status": S, "code": C` — the prefix every response shares.
std::string response_head(std::int64_t id, Status status) {
  return "{\"id\": " + std::to_string(id) +
         ", \"status\": " + quoted(status_name(status)) +
         ", \"code\": " + std::to_string(status_code(status));
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::Ok:
      return "ok";
    case Status::BadRequest:
      return "bad_request";
    case Status::Overloaded:
      return "overloaded";
    case Status::DeadlineExceeded:
      return "deadline_exceeded";
    case Status::Draining:
      return "draining";
    case Status::Internal:
      return "internal";
  }
  return "internal";
}

int status_code(Status s) { return static_cast<int>(s); }

bool status_from_name(const std::string& name, Status& out) {
  for (const Status s :
       {Status::Ok, Status::BadRequest, Status::Overloaded,
        Status::DeadlineExceeded, Status::Draining, Status::Internal}) {
    if (name == status_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  out = Request{};
  Cursor c{line.data(), line.data() + line.size(), {}};
  bool ok = c.expect('{');
  if (ok && c.peek_is('}')) {
    error = "empty request";
    return false;
  }
  while (ok) {
    std::string field;
    ok = c.parse_string(field) && c.expect(':');
    if (!ok) break;
    if (field == "id") {
      double v = 0;
      ok = c.parse_number(v);
      out.id = static_cast<std::int64_t>(v);
    } else if (field == "key") {
      ok = c.parse_string(out.key);
    } else if (field == "cmd") {
      ok = c.parse_string(out.cmd);
    } else if (field == "points") {
      ok = c.parse_points(out.points);
    } else if (field == "deadline_ms") {
      ok = c.parse_number(out.deadline_ms);
      if (ok && (!std::isfinite(out.deadline_ms) || out.deadline_ms < 0)) {
        ok = c.fail("deadline_ms must be a finite number >= 0");
      }
    } else {
      ok = c.skip_value();
    }
    if (!ok) break;
    if (c.peek_is(',')) {
      ++c.p;
      continue;
    }
    ok = c.expect('}');
    break;
  }
  if (!ok) {
    error = c.err.empty() ? "malformed request" : c.err;
    return false;
  }
  if (out.cmd.empty() && out.points.empty()) {
    error = "query needs a non-empty \"points\" array";
    return false;
  }
  return true;
}

std::string query_response(std::int64_t id, const PointResponse& resp) {
  if (resp.status != Status::Ok) return status_response(id, resp.status);
  std::string out = response_head(id, Status::Ok);
  out += ", \"values\": [";
  for (std::size_t i = 0; i < resp.values.size(); ++i) {
    if (i > 0) out += ", ";
    out += number(resp.values[i]);
  }
  out += "], \"degraded\": " + std::to_string(resp.degraded);
  out += ", \"batch\": " + std::to_string(resp.batch_points);
  if (!resp.fallback.empty()) {
    out += ", \"fallback\": " + quoted(resp.fallback);
  }
  out += "}";
  return out;
}

std::string stats_response(std::int64_t id, const ServiceStats& stats) {
  std::string out = response_head(id, Status::Ok);
  out += ", \"stats\": {";
  out += "\"accepted\": " + std::to_string(stats.accepted);
  out += ", \"shed\": " + std::to_string(stats.shed);
  out += ", \"batches\": " + std::to_string(stats.batches);
  out += ", \"served_points\": " + std::to_string(stats.served_points);
  out += ", \"degraded_points\": " + std::to_string(stats.degraded_points);
  out += ", \"fallback_batches\": " + std::to_string(stats.fallback_batches);
  out += ", \"expired\": " + std::to_string(stats.expired);
  out += ", \"drain_rejects\": " + std::to_string(stats.drain_rejects);
  out += ", \"registry\": {";
  out += "\"hits\": " + std::to_string(stats.registry.hits);
  out += ", \"loads\": " + std::to_string(stats.registry.loads);
  out += ", \"load_failures\": " + std::to_string(stats.registry.load_failures);
  out += ", \"evictions\": " + std::to_string(stats.registry.evictions);
  out += ", \"breaker_opens\": " + std::to_string(stats.registry.breaker_opens);
  out += ", \"breaker_fast_fails\": " +
         std::to_string(stats.registry.breaker_fast_fails);
  out += ", \"open_breakers\": " + std::to_string(stats.registry.open_breakers);
  out += ", \"resident_models\": " +
         std::to_string(stats.registry.resident_models);
  out += ", \"resident_bytes\": " +
         std::to_string(stats.registry.resident_bytes);
  out += "}}}";
  return out;
}

std::string status_response(std::int64_t id, Status status,
                            const std::string& message) {
  std::string out = response_head(id, status);
  if (!message.empty()) out += ", \"message\": " + quoted(message);
  out += "}";
  return out;
}

namespace {

/// Wrap a finished payload in the VFW1 frame: magic, length, payload, CRC.
std::string frame_payload(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 12);
  out.append(kBinaryMagic, sizeof kBinaryMagic);
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof len);
  out += payload;
  const std::uint32_t crc = vf::util::crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return out;
}

/// Shared framing: validate magic/length/CRC at the head of `buf`. On Ok,
/// `payload` views into `buf` and `consumed` covers the whole frame.
FrameStatus open_frame(std::string_view buf, std::size_t& consumed,
                       std::string_view& payload, std::string& error) {
  consumed = 0;
  if (buf.size() < sizeof kBinaryMagic + sizeof(std::uint32_t)) {
    return FrameStatus::NeedMore;
  }
  if (std::memcmp(buf.data(), kBinaryMagic, sizeof kBinaryMagic) != 0) {
    error = "VFW1: bad magic";
    return FrameStatus::Corrupt;
  }
  std::uint32_t len = 0;
  std::memcpy(&len, buf.data() + sizeof kBinaryMagic, sizeof len);
  if (len > kBinaryMaxPayload) {
    error = "VFW1: payload length exceeds frame cap";
    return FrameStatus::Corrupt;
  }
  const std::size_t frame_size =
      sizeof kBinaryMagic + sizeof len + std::size_t{len} + sizeof(std::uint32_t);
  if (buf.size() < frame_size) return FrameStatus::NeedMore;
  payload = buf.substr(sizeof kBinaryMagic + sizeof len, len);
  std::uint32_t want = 0;
  std::memcpy(&want, buf.data() + frame_size - sizeof want, sizeof want);
  if (vf::util::crc32(payload.data(), payload.size()) != want) {
    error = "VFW1: payload CRC mismatch";
    return FrameStatus::Corrupt;
  }
  consumed = frame_size;
  return FrameStatus::Ok;
}

/// Longest key / message the binary codec accepts — far above anything
/// legitimate, far below the frame cap.
constexpr std::size_t kMaxStringField = std::size_t{1} << 20;

constexpr std::uint8_t kFlagFallbackClassical = 0x01;

}  // namespace

const char* verb_cmd(Verb v) {
  switch (v) {
    case Verb::Query:
      return "";
    case Verb::Stats:
      return "stats";
    case Verb::Health:
      return "health";
    case Verb::Ready:
      return "ready";
    case Verb::Shutdown:
      return "shutdown";
  }
  return "";
}

bool verb_from_cmd(const std::string& cmd, Verb& out) {
  for (const Verb v : {Verb::Query, Verb::Stats, Verb::Health, Verb::Ready,
                       Verb::Shutdown}) {
    if (cmd == verb_cmd(v)) {
      out = v;
      return true;
    }
  }
  return false;
}

Response make_query_response(std::int64_t id, const PointResponse& resp) {
  Response out;
  out.id = id;
  out.verb = Verb::Query;
  out.status = resp.status;
  if (resp.status == Status::Ok) {
    out.values = resp.values;
    out.degraded = static_cast<std::uint32_t>(resp.degraded);
    out.batch_points = static_cast<std::uint32_t>(resp.batch_points);
    out.fallback_classical = resp.fallback == "classical";
  }
  return out;
}

Response make_status_response(std::int64_t id, Verb verb, Status status,
                              const std::string& message) {
  Response out;
  out.id = id;
  out.verb = verb;
  out.status = status;
  out.message = message;
  return out;
}

std::string render_json(const Response& resp) {
  if (!resp.json_body.empty()) return resp.json_body;
  if (resp.verb == Verb::Query && resp.status == Status::Ok) {
    PointResponse pr;
    pr.status = resp.status;
    pr.values = resp.values;
    pr.degraded = resp.degraded;
    pr.batch_points = resp.batch_points;
    if (resp.fallback_classical) pr.fallback = "classical";
    return query_response(resp.id, pr);
  }
  return status_response(resp.id, resp.status, resp.message);
}

CodecKind sniff_codec(std::string_view head) {
  if (head.empty()) return CodecKind::Unknown;
  const std::size_t n = std::min(head.size(), sizeof kBinaryMagic);
  if (std::memcmp(head.data(), kBinaryMagic, n) != 0) return CodecKind::Ndjson;
  return n == sizeof kBinaryMagic ? CodecKind::Binary : CodecKind::Unknown;
}

std::string encode_request_frame(const Request& req) {
  Verb verb = Verb::Query;
  if (!verb_from_cmd(req.cmd, verb)) {
    throw std::invalid_argument("VFW1: no verb for cmd '" + req.cmd + "'");
  }
  vf::util::ByteWriter bw;
  bw.pod(static_cast<std::uint8_t>(verb));
  bw.pod(std::uint8_t{0});  // flags, reserved
  bw.pod(req.id);
  bw.pod(req.deadline_ms);
  bw.str(req.key);
  bw.pod(static_cast<std::uint32_t>(req.points.size()));
  // Zero-copy float payload: Vec3 is a plain struct of three doubles, so
  // the whole query travels as one bulk append instead of one formatted
  // number per coordinate.
  static_assert(std::is_trivially_copyable_v<vf::field::Vec3> &&
                sizeof(vf::field::Vec3) == 3 * sizeof(double));
  if (!req.points.empty()) {
    bw.bytes(req.points.data(), req.points.size() * sizeof(vf::field::Vec3));
  }
  return frame_payload(bw.take());
}

FrameStatus decode_request_frame(std::string_view buf, std::size_t& consumed,
                                 Request& out, std::string& error) {
  out = Request{};
  error.clear();
  std::string_view payload;
  const FrameStatus framed = open_frame(buf, consumed, payload, error);
  if (framed != FrameStatus::Ok) return framed;
  try {
    vf::util::ByteReader r(payload, "VFW1");
    const auto verb_byte = r.pod<std::uint8_t>();
    (void)r.pod<std::uint8_t>();  // flags, reserved
    out.id = r.pod<std::int64_t>();
    out.deadline_ms = r.pod<double>();
    out.key = r.str(kMaxStringField);
    const auto n_points = r.pod<std::uint32_t>();
    if (std::size_t{n_points} * sizeof(vf::field::Vec3) > r.remaining()) {
      throw std::runtime_error("VFW1: point count exceeds payload");
    }
    out.points.resize(n_points);
    r.bytes(out.points.data(), n_points * sizeof(vf::field::Vec3));
    r.expect_end();
    // Semantic validation mirrors parse_request: these frames are sound,
    // so the server answers bad_request instead of dropping the line.
    if (verb_byte > static_cast<std::uint8_t>(Verb::Shutdown)) {
      error = "unknown verb " + std::to_string(verb_byte);
      return FrameStatus::Bad;
    }
    out.cmd = verb_cmd(static_cast<Verb>(verb_byte));
    if (!std::isfinite(out.deadline_ms) || out.deadline_ms < 0) {
      error = "deadline_ms must be a finite number >= 0";
      return FrameStatus::Bad;
    }
    if (out.cmd.empty() && out.points.empty()) {
      error = "query needs a non-empty points payload";
      return FrameStatus::Bad;
    }
  } catch (const std::runtime_error& e) {
    // Structural violations inside a CRC-clean payload mean the sender's
    // framing is broken, not the request: connection-fatal.
    error = e.what();
    consumed = 0;
    return FrameStatus::Corrupt;
  }
  return FrameStatus::Ok;
}

std::string encode_response_frame(const Response& resp) {
  vf::util::ByteWriter bw;
  bw.pod(static_cast<std::uint8_t>(resp.verb));
  bw.pod(static_cast<std::uint8_t>(status_code(resp.status)));
  bw.pod(static_cast<std::uint8_t>(
      resp.fallback_classical ? kFlagFallbackClassical : 0));
  bw.pod(std::uint8_t{0});  // reserved
  bw.pod(resp.id);
  bw.pod(resp.degraded);
  bw.pod(resp.batch_points);
  bw.str(resp.message);
  bw.str(resp.json_body);
  bw.pod(static_cast<std::uint32_t>(resp.values.size()));
  if (!resp.values.empty()) {
    bw.bytes(resp.values.data(), resp.values.size() * sizeof(double));
  }
  return frame_payload(bw.take());
}

FrameStatus decode_response_frame(std::string_view buf, std::size_t& consumed,
                                  Response& out, std::string& error) {
  out = Response{};
  error.clear();
  std::string_view payload;
  const FrameStatus framed = open_frame(buf, consumed, payload, error);
  if (framed != FrameStatus::Ok) return framed;
  try {
    vf::util::ByteReader r(payload, "VFW1");
    const auto verb_byte = r.pod<std::uint8_t>();
    const auto code = r.pod<std::uint8_t>();
    const auto flags = r.pod<std::uint8_t>();
    (void)r.pod<std::uint8_t>();  // reserved
    if (verb_byte > static_cast<std::uint8_t>(Verb::Shutdown) ||
        code > static_cast<std::uint8_t>(Status::Internal)) {
      throw std::runtime_error("VFW1: unknown verb/status in response");
    }
    out.verb = static_cast<Verb>(verb_byte);
    out.status = static_cast<Status>(code);
    out.fallback_classical = (flags & kFlagFallbackClassical) != 0;
    out.id = r.pod<std::int64_t>();
    out.degraded = r.pod<std::uint32_t>();
    out.batch_points = r.pod<std::uint32_t>();
    out.message = r.str(kMaxStringField);
    out.json_body = r.str(kMaxStringField);
    const auto n_values = r.pod<std::uint32_t>();
    if (std::size_t{n_values} * sizeof(double) > r.remaining()) {
      throw std::runtime_error("VFW1: value count exceeds payload");
    }
    out.values.resize(n_values);
    r.bytes(out.values.data(), n_values * sizeof(double));
    r.expect_end();
  } catch (const std::runtime_error& e) {
    error = e.what();
    consumed = 0;
    return FrameStatus::Corrupt;
  }
  return FrameStatus::Ok;
}

std::string ready_response(std::int64_t id, const ReadyInfo& info) {
  const Status status = info.draining ? Status::Draining : Status::Ok;
  std::string out = response_head(id, status);
  out += std::string(", \"ready\": ") + (info.draining ? "false" : "true");
  out += std::string(", \"degraded\": ") +
         (info.open_breakers > 0 ? "true" : "false");
  out += ", \"queue_depth\": " + std::to_string(info.queue_depth);
  out += ", \"queue_max\": " + std::to_string(info.queue_max);
  out += ", \"resident_models\": " + std::to_string(info.resident_models);
  out += ", \"open_breakers\": " + std::to_string(info.open_breakers);
  if (info.has_pipeline) {
    // Front-ends embedding an in-situ pipeline report which fine-tune
    // generation is live and how well it scored on its own step.
    out += ", \"pipeline_generation\": " +
           std::to_string(info.pipeline_generation);
    out += ", \"pipeline_last_snr_db\": " + number(info.pipeline_last_snr_db);
  }
  out += ", \"breakers\": {";
  bool first = true;
  for (const auto& [key, snap] : info.breakers) {
    if (!first) out += ", ";
    first = false;
    out += quoted(key) + ": {\"state\": " +
           quoted(breaker_state_name(snap.state)) +
           ", \"consecutive_failures\": " +
           std::to_string(snap.consecutive_failures) +
           ", \"backoff_ms\": " + std::to_string(snap.backoff.count()) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace vf::serve::wire
