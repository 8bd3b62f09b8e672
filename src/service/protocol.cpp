#include "service/protocol.hpp"

#include <cstdlib>

#include "common/double_text.hpp"

namespace spta::service {
namespace {

constexpr std::string_view kMagic = "spta1";

const char* const kKindNames[] = {"PING",    "OPEN",         "APPEND",
                                  "STATUS",  "ANALYZE",      "CLOSE",
                                  "METRICS", "METRICS_PROM", "SHUTDOWN",
                                  "HEALTH",  "TRACE"};
static_assert(static_cast<int>(std::size(kKindNames)) == kRequestKindCount,
              "wire names must cover every RequestKind");

bool ParseUint(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseFrameHeaderLine(std::string_view header, std::string* type,
                          std::uint64_t* nbytes, std::string* error,
                          obs::TraceContext* trace) {
  // Tokenization mirrors istream extraction: any whitespace separates,
  // tokens past the third are ignored. (A trailing '\r' from a CRLF client
  // therefore separates cleanly instead of corrupting the length token.)
  // Manual scan rather than find_first_of: the header is parsed on every
  // frame, and the character-set search costs ~5x a direct class check on
  // trace-token-bearing headers.
  const auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  if (trace != nullptr) *trace = obs::TraceContext();
  std::string_view tokens[3];
  std::size_t found = 0;
  std::size_t pos = 0;
  for (;;) {
    while (pos < header.size() && is_ws(header[pos])) ++pos;
    if (pos >= header.size()) break;
    const std::size_t begin = pos;
    while (pos < header.size() && !is_ws(header[pos])) ++pos;
    const std::string_view token = header.substr(begin, pos - begin);
    if (found < 3) {
      tokens[found++] = token;
      continue;
    }
    // Extra tokens stay ignored for framing purposes, but the first
    // `trace=` one (if any) is offered to the lenient context parser.
    // Scanning continues even when an earlier trace token parsed invalid:
    // leniency means junk is skipped, not that it shadows a good copy.
    if (trace == nullptr) break;
    if (trace->valid()) break;
    constexpr std::string_view kTracePrefix = "trace=";
    if (token.size() > kTracePrefix.size() &&
        token.substr(0, kTracePrefix.size()) == kTracePrefix) {
      *trace = obs::ParseTraceContext(token.substr(kTracePrefix.size()));
    }
  }
  if (found < 3 || tokens[0] != kMagic) {
    *error = "bad frame header '" + std::string(header) + "'";
    return false;
  }
  if (!ParseUint(tokens[2], nbytes)) {
    *error = "bad frame length '" + std::string(tokens[2]) + "'";
    return false;
  }
  if (*nbytes > kMaxFrameBytes) {
    *error = "frame length " + std::to_string(*nbytes) + " exceeds limit";
    return false;
  }
  *type = std::string(tokens[1]);
  return true;
}

void SplitFrameBody(std::string_view body, Args* args, std::string* payload) {
  const auto nl = body.find('\n');
  if (nl == std::string_view::npos) {
    *args = Args::Parse(body);
    payload->clear();
  } else {
    *args = Args::Parse(body.substr(0, nl));
    payload->assign(body.substr(nl + 1));
  }
}

bool BuildRequest(std::string_view type, std::string_view body,
                  Request* request, std::string* error) {
  const auto kind = ParseRequestKind(type);
  if (!kind.has_value()) {
    *error = "unknown request verb '" + std::string(type) + "'";
    return false;
  }
  request->kind = *kind;
  SplitFrameBody(body, &request->args, &request->payload);
  return true;
}

bool BuildResponse(std::string_view type, std::string_view body,
                   Response* response, std::string* error) {
  if (type != "OK" && type != "ERR") {
    *error = "unknown response type '" + std::string(type) + "'";
    return false;
  }
  response->ok = type == "OK";
  SplitFrameBody(body, &response->args, &response->payload);
  return true;
}

namespace {

/// Common frame encoder: TYPE is the verb or OK/ERR. A valid `trace`
/// context rides as the optional fourth header token; an invalid one
/// leaves the header byte-identical to the pre-tracing format.
void AppendFrame(std::string_view type, const Args& args,
                 const std::string& payload, std::string* out,
                 const obs::TraceContext& trace = {}) {
  std::string body = args.Encode();
  body.push_back('\n');
  body += payload;
  out->append(kMagic);
  out->push_back(' ');
  out->append(type);
  out->push_back(' ');
  out->append(std::to_string(body.size()));
  if (trace.valid()) {
    out->append(" trace=");
    out->append(obs::EncodeTraceContext(trace));
  }
  out->push_back('\n');
  out->append(body);
}

}  // namespace

void AppendRequestFrame(const Request& request, std::string* out) {
  AppendFrame(RequestKindName(request.kind), request.args, request.payload,
              out);
}

void AppendRequestFrameWithTrace(const Request& request, std::string* out) {
  AppendFrame(RequestKindName(request.kind), request.args, request.payload,
              out, request.trace);
}

void AppendResponseFrame(const Response& response, std::string* out) {
  AppendFrame(response.ok ? "OK" : "ERR", response.args, response.payload,
              out);
}

const char* RequestKindName(RequestKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

std::optional<RequestKind> ParseRequestKind(std::string_view name) {
  for (int i = 0; i < static_cast<int>(std::size(kKindNames)); ++i) {
    if (name == kKindNames[i]) return static_cast<RequestKind>(i);
  }
  return std::nullopt;
}

Args Args::Parse(std::string_view line) {
  Args args;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    const std::string_view token = line.substr(pos, end - pos);
    pos = end;
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) continue;  // skip malformed
    args.values_[std::string(token.substr(0, eq))] =
        std::string(token.substr(eq + 1));
  }
  return args;
}

void Args::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void Args::SetUint(const std::string& key, std::uint64_t value) {
  values_[key] = std::to_string(value);
}

void Args::SetDouble(const std::string& key, double value) {
  values_[key] = DoubleText(value);
}

void Args::Erase(const std::string& key) { values_.erase(key); }

bool Args::Has(const std::string& key) const { return values_.count(key) > 0; }

std::string Args::GetString(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::GetUint(const std::string& key,
                            std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::uint64_t value = 0;
  return ParseUint(it->second, &value) ? value : fallback;
}

double Args::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  return (end != it->second.c_str() && *end == '\0') ? value : fallback;
}

bool Args::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "1" || it->second == "true";
}

std::string Args::Encode() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    if (!out.empty()) out.push_back(' ');
    out += key;
    out.push_back('=');
    out += value;
  }
  return out;
}

Response OkResponse(Args args, std::string payload) {
  Response r;
  r.ok = true;
  r.args = std::move(args);
  r.payload = std::move(payload);
  return r;
}

Response ErrResponse(const std::string& code, const std::string& message) {
  Response r;
  r.ok = false;
  r.args.Set("code", code);
  r.payload = message;
  return r;
}

}  // namespace spta::service
